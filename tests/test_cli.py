import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from pixqa.cli import main

MODEL_FLAGS = [
    "--d-model", "16", "--heads", "2", "--enc-layers", "1", "--dec-layers", "1",
    "--d-ff", "32", "--max-patches", "64", "--max-answer-len", "8",
]
FAST_TRAIN = ["--epochs", "2", "--patience", "5", "--batch-size", "4", "--lr", "0.01"]


def gen_args(out: Path, seed=3):
    return [
        "gen", "--out", str(out), "--seed", str(seed), "--docs", "4", "--pages", "2:3",
        "--facts-per-page", "1", "--questions-per-doc", "2", "--key-len", "3",
        "--key-alphabet", "ABCDEFGH", "--value-len", "2", "--value-alphabet", "0123",
        "--page-width", "208", "--page-height", "32", "--fractions", "0.5,0.25,0.25",
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    assert main(gen_args(out)) == 0
    return out


@pytest.fixture(scope="module")
def stage1(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("cli") / "s1"
    rc = main(["train-vqa", "--data", str(corpus), "--out", str(out)] + MODEL_FLAGS + FAST_TRAIN)
    assert rc == 0
    return out / "stage1.ckpt", out


@pytest.fixture(scope="module")
def stage2(tmp_path_factory, corpus, stage1):
    ckpt, _ = stage1
    out = tmp_path_factory.mktemp("cli") / "s2"
    rc = main(
        ["train-scorer", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(out),
         "--sa-layers", "1", "--sa-heads", "2", "--dropout", "0.1"] + FAST_TRAIN
    )
    assert rc == 0
    return out / "stage2.ckpt", out


class TestGen:
    def test_outputs_exist(self, corpus):
        assert (corpus / "annotations.json").exists()
        for name in ("train", "valid", "test"):
            assert (corpus / f"annotations.{name}.json").exists()
        assert (corpus / "manifest.json").exists()
        assert list((corpus / "images").glob("*.pgm"))

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(gen_args(a)) == 0
        assert main(gen_args(b)) == 0
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "manifest.json":
                continue  # embeds the output path
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_manifest_records_config(self, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"]["synth"]["n_documents"] == 4
        assert manifest["seeds"] == {"corpus": 3}


class TestTraining:
    def test_stage1_outputs(self, stage1):
        ckpt, out = stage1
        assert ckpt.exists()
        assert (out / "history.jsonl").exists()
        assert (out / "train.log").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["checkpoints"]["stage1"] == str(ckpt)
        records = [json.loads(l) for l in (out / "history.jsonl").read_text().splitlines()]
        assert all({"epoch", "train_loss", "valid_anls"} <= set(r) for r in records)

    def test_stage1_checkpoint_has_no_scorer(self, stage1):
        from pixqa.checkpoint import load_checkpoint

        ckpt, _ = stage1
        _, scorer = load_checkpoint(ckpt)
        assert scorer is None

    def test_stage2_outputs_and_freeze(self, stage1, stage2):
        from pixqa.checkpoint import load_checkpoint

        ckpt1, _ = stage1
        ckpt2, out = stage2
        m1, _ = load_checkpoint(ckpt1)
        m2, scorer = load_checkpoint(ckpt2)
        assert scorer is not None
        for name, p in m1.params.items():
            assert p.data.tobytes() == m2.params[name].data.tobytes(), name

    def test_config_file_precedence(self, corpus, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 1, "d_model": 16, "heads": 2, "enc_layers": 1,
                                        "dec_layers": 1, "d_ff": 32, "max_patches": 64,
                                        "max_answer_len": 8, "lr": 0.01, "batch_size": 4}))
        out = tmp_path / "run"
        rc = main(["train-vqa", "--data", str(corpus), "--out", str(out), "--config", str(cfg_file),
                   "--epochs", "2"])  # flag overrides file
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["max_epochs"] == 2
        assert manifest["config"]["model"]["d_model"] == 16


class TestEvalAnswerReport:
    def test_eval_writes_results_and_metrics(self, corpus, stage2, tmp_path):
        ckpt, _ = stage2
        out = tmp_path / "eval"
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(out), "--split", "test"])
        assert rc == 0
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert records
        for r in records:
            assert {"question_id", "doc_id", "pred_page", "gold_page", "pred_answer", "anls", "doc_pages"} <= set(r)
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["anls"] <= 1.0
        assert sum(metrics["quadrants"]["counts"]) == len(records)

    def test_eval_requires_scorer_checkpoint(self, corpus, stage1, tmp_path):
        ckpt, _ = stage1
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_answer_prints_page_and_text(self, corpus, stage2, capsys):
        ckpt, _ = stage2
        doc_dir = sorted((corpus / "images").glob("doc0000_p*.pgm"))[0].parent
        # build a single-document directory
        one_doc = doc_dir.parent.parent / "onedoc"
        one_doc.mkdir(exist_ok=True)
        for p in sorted(doc_dir.glob("doc0000_p*.pgm")):
            shutil.copy(p, one_doc / p.name)
        ann = json.loads((corpus / "annotations.json").read_text())
        question = next(r["question"] for r in ann["data"] if r["doc_id"] == "doc0000")
        rc = main(["answer", "--checkpoint", str(ckpt), "--question", question, "--doc-dir", str(one_doc)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.startswith("page ")

    def test_answer_with_nan_scorer_is_runtime_error(self, corpus, stage2, tmp_path, capsys):
        from pixqa.checkpoint import load_checkpoint, save_checkpoint

        ckpt, _ = stage2
        model, scorer = load_checkpoint(ckpt)
        scorer.params["head.b3"].data[:] = np.nan
        broken = tmp_path / "nan.ckpt"
        save_checkpoint(broken, model, scorer)
        doc_dir = tmp_path / "doc"
        doc_dir.mkdir()
        for p in sorted((corpus / "images").glob("doc0000_p*.pgm")):
            shutil.copy(p, doc_dir / p.name)
        assert len(list(doc_dir.iterdir())) > 1
        rc = main(["answer", "--checkpoint", str(broken), "--question", "what is the value of ABC?",
                   "--doc-dir", str(doc_dir)])
        assert rc == 1
        assert "scored nan" in capsys.readouterr().err

    def test_report_from_results(self, corpus, stage2, tmp_path, capsys):
        ckpt, _ = stage2
        out = tmp_path / "eval2"
        assert main(["eval", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["report", "--results", str(out / "results.jsonl"), "--out", str(tmp_path / "rep")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "quadrants" in captured.out
        assert (tmp_path / "rep" / "report.json").exists()

    def test_sweep_grid_table(self, corpus, stage1, tmp_path):
        ckpt, _ = stage1
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(out),
                   "--layers", "1:2", "--heads", "2", "--epochs", "1", "--batch-size", "4", "--lr", "0.01"])
        assert rc == 0
        cells = json.loads((out / "sweep.json").read_text())
        assert {(c["sa_layers"], c["sa_heads"]) for c in cells} == {(1, 2), (2, 2)}
        tsv = (out / "sweep.tsv").read_text().splitlines()
        assert tsv[0].split("\t") == ["sa_layers", "sa_heads", "page_accuracy_pct", "anls"]
        assert len(tsv) == 3


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert main(["gen", "--nonsense"]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_data_dir(self, tmp_path):
        rc = main(["train-vqa", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_checkpoint_path(self, corpus, tmp_path):
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(tmp_path / "no.ckpt"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_truncated_checkpoint_is_runtime_error(self, corpus, stage2, tmp_path):
        ckpt, _ = stage2
        broken = tmp_path / "broken.ckpt"
        broken.write_bytes(ckpt.read_bytes()[:200])
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(broken), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_bad_range_syntax(self, corpus, stage1, tmp_path):
        ckpt, _ = stage1
        rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(tmp_path / "s"),
                   "--layers", "x:y", "--heads", "2"])
        assert rc == 2

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"docs": 1,')
        assert main(gen_args(tmp_path / "c") + ["--config", str(cfg_file)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_config_keys_are_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pagez": "1:2", "docs": 1, "d_model": 16}))
        assert main(gen_args(tmp_path / "c") + ["--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "d_model, pagez" in err
        assert not (tmp_path / "c").exists()
