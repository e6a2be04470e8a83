import argparse
import json
import os
import platform
import re
import shutil
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pixqa import cli
from pixqa.checkpoint import load_checkpoint
from pixqa.cli import git_revision, main
from pixqa.data import SynthConfig
from pixqa.layers import attention_workers
from pixqa.model import PRINTABLE_ASCII, ModelConfig, VqaModel
from pixqa.scorer import ScorerConfig, SelfAttentionScorer
from pixqa.training import FrozenFeatureCache, TrainConfig

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

    def test_manifest_records_environment(self, corpus, monkeypatch):
        manifest = json.loads((corpus / "manifest.json").read_text())
        env = manifest["environment"]
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        assert env["cpu_count"] == os.cpu_count()
        assert env["cpu_model"] == cli.cpu_model() and (env["cpu_model"] is None or env["cpu_model"])
        assert env["l2_cache"] == cli.l2_cache()
        assert env["l2_cache"] is None or re.fullmatch(r"\d+[KMG]", env["l2_cache"])
        assert env["attention_workers"] == attention_workers() >= 1
        assert env["libc"] == " ".join(part for part in platform.libc_ver() if part)
        assert env["malloc_env"] == {name: os.environ[name] for name in os.environ if name.startswith("MALLOC_")}
        monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
        monkeypatch.setenv("PIXQA_NOT_MALLOC", "1")
        assert cli.run_environment()["malloc_env"] == {**env["malloc_env"], "MALLOC_MMAP_THRESHOLD_": "131072"}
        assert isinstance(manifest["elapsed_s"], float) and 0.0 < manifest["elapsed_s"] < 600.0
        assert manifest["git_revision"] == git_revision()
        assert manifest["git_revision"] is None or re.fullmatch(r"[0-9a-f]{40}", manifest["git_revision"])

    def test_cpu_model_and_l2_cache_fall_back(self, tmp_path, monkeypatch):
        cpuinfo, caches = tmp_path / "cpuinfo", tmp_path / "cache"
        cpuinfo.write_text("processor\t: 0\nmodel name\t: Test CPU @ 2.0GHz\n\nprocessor\t: 1\nmodel name\t: Other\n")
        for index, (level, size) in enumerate([("1", "48K"), ("1", "32K"), ("2", "2048K"), ("3", "105M")]):
            (caches / f"index{index}").mkdir(parents=True)
            (caches / f"index{index}" / "level").write_text(level + "\n")
            (caches / f"index{index}" / "size").write_text(size + "\n")
        monkeypatch.setattr(cli, "CPUINFO", cpuinfo)
        monkeypatch.setattr(cli, "CPU0_CACHES", caches)
        assert (cli.cpu_model(), cli.l2_cache()) == ("Test CPU @ 2.0GHz", "2048K")
        monkeypatch.setattr(cli, "CPUINFO", tmp_path / "missing")
        monkeypatch.setattr(cli, "CPU0_CACHES", tmp_path / "missing")
        monkeypatch.setattr(platform, "processor", lambda: "x86_64")
        assert (cli.cpu_model(), cli.l2_cache()) == ("x86_64", None)
        monkeypatch.setattr(platform, "processor", lambda: "")
        assert cli.cpu_model() is None

    @pytest.mark.parametrize("failure", ["no-git", "not-a-checkout"])
    def test_git_revision_is_null_outside_a_checkout(self, monkeypatch, failure):
        def run(*args, **kwargs):
            if failure == "no-git":
                raise FileNotFoundError("git")
            return subprocess.CompletedProcess(args, 128, stdout="", stderr="fatal: not a git repository")

        monkeypatch.setattr(subprocess, "run", run)
        assert git_revision() is None

    def test_git_revision_of_a_copy_installed_in_another_checkout_is_null(self, tmp_path):
        outer = tmp_path / "outer"
        site = outer / "venv" / "lib" / "python3" / "site-packages"
        shutil.copytree(Path(cli.__file__).parent, site / "pixqa", ignore=shutil.ignore_patterns("__pycache__"))
        (outer / ".gitignore").write_text("venv/\n")
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(outer)]
        for args in (["init", "-q"], ["add", ".gitignore"], ["commit", "-q", "-m", "outer"]):
            subprocess.run(git + args, check=True, capture_output=True)
        env = {**os.environ, "PYTHONPATH": str(site)}
        done = subprocess.run([sys.executable, "-c", "from pixqa.cli import git_revision; print(git_revision())"],
                              cwd=outer, env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "None"


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

    def test_nan_scorer_fails_validation_with_exit_1(self, monkeypatch, corpus, stage1, tmp_path, capsys):
        def nan_scorer(*args, **kwargs):
            scorer = SelfAttentionScorer(*args, **kwargs)
            scorer.params["head.b3"].data[:] = np.nan
            return scorer

        monkeypatch.setattr(cli, "SelfAttentionScorer", nan_scorer)
        rc = main(["train-scorer", "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(tmp_path / "s2"),
                   "--sa-layers", "1", "--sa-heads", "2"] + FAST_TRAIN)
        assert rc == 1
        assert re.search(r"^error: validation question \S+: page \d+ scored nan$", capsys.readouterr().err, re.M)

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
        assert re.match(r"page \d+ \(doc0000_p\d+\.pgm\)\n", captured.out)

    def test_answer_names_the_page_file_in_file_name_order(self, monkeypatch, corpus, stage2, tmp_path, capsys):
        """Pages are taken in file-name order, so x_p10 comes before x_p2, and the page line names its file."""
        ckpt, _ = stage2
        doc_dir = tmp_path / "doc"
        doc_dir.mkdir()
        for i, page in zip((1, 2, 10), sorted((corpus / "images").glob("doc0000_p*.pgm")) * 2):
            shutil.copy(page, doc_dir / f"x_p{i}.pgm")
        seen = []
        monkeypatch.setattr(cli, "answer_question",
                            lambda question, doc, *rest: seen.append(doc) or (doc.n_pages - 1, "42"))
        rc = main(["answer", "--checkpoint", str(ckpt), "--question", "what is the value of ABC?",
                   "--doc-dir", str(doc_dir)])
        assert rc == 0
        assert [page.path.name for page in seen[0].pages] == ["x_p1.pgm", "x_p10.pgm", "x_p2.pgm"]
        assert capsys.readouterr().out == "page 2 (x_p2.pgm)\n42\n"

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

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_answer_length_cap_below_one_is_usage_error(self, corpus, stage2, tmp_path, capsys, cap):
        ckpt, _ = stage2
        doc_dir = tmp_path / "doc"
        doc_dir.mkdir()
        for p in sorted((corpus / "images").glob("doc0000_p*.pgm")):
            shutil.copy(p, doc_dir / p.name)
        rc = main(["answer", "--checkpoint", str(ckpt), "--question", "what is the value of ABC?",
                   "--doc-dir", str(doc_dir), "--max-answer-len", cap])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"--max-answer-len must be at least 1, got {cap}" in captured.err
        assert captured.out == ""

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

    def test_report_bytes_of_a_fixed_results_file(self, tmp_path, capsys):
        records = [
            ("a", 3, 1, 1, 1.0), ("a", 3, 0, 0, 0.5), ("b", 12, 2, 11, 0.0), ("b", 12, 11, 11, 1.0),
            ("c", 3, 0, 0, 2 / 3),
        ]
        results = tmp_path / "results.jsonl"
        results.write_text("".join(
            json.dumps({"question_id": qid, "doc_id": doc_id, "doc_pages": pages, "pred_page": pred,
                        "gold_page": gold, "pred_answer": "x", "anls": score}) + "\n"
            for qid, (doc_id, pages, pred, gold, score) in enumerate(records)
        ))
        assert main(["report", "--results", str(results), "--out", str(tmp_path / "rep")]) == 0
        assert capsys.readouterr().out == (
            "questions            5\n"
            "ANLS                 0.6333\n"
            "page accuracy (%)    80.00\n"
            "quadrants (count / %):\n"
            "  page ok, answer exact           2 / 40.00\n"
            "  page ok, answer partial         2 / 40.00\n"
            "  page bad, answer exact          0 / 0.00\n"
            "  page bad, answer partial        1 / 20.00\n"
            "page histogram (pages: documents):\n"
            "     3: 2\n"
            "    12: 1\n"
        )
        assert (tmp_path / "rep" / "report.json").read_text() == (
            '{\n  "anls": 0.6333333333333333,\n  "n_questions": 5,\n  "page_accuracy_pct": 80.0,\n'
            '  "page_histogram": {\n    "12": 1,\n    "3": 2\n  },\n'
            '  "quadrants": {\n    "counts": [\n      2,\n      2,\n      0,\n      1\n    ],\n'
            '    "order": [\n      "page_ok_exact",\n      "page_ok_partial",\n      "page_bad_exact",\n'
            '      "page_bad_partial"\n    ],\n'
            '    "percentages": [\n      40.0,\n      40.0,\n      0.0,\n      20.0\n    ]\n  }\n}\n'
        )

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

    def test_run_as_a_module(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "pixqa.cli", "report", "--results", str(tmp_path / "absent")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert "results file not found" in done.stderr

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

    @pytest.mark.parametrize("command", [
        ["eval", "--data", "{corpus}", "--out", "{out}"],
        ["answer", "--question", "what is the value of ABC?", "--doc-dir", "{doc}"],
    ])
    def test_stage1_checkpoint_where_a_scorer_is_needed(self, corpus, stage1, tmp_path, capsys, command):
        ckpt, _ = stage1
        doc = sorted((corpus / "images").glob("*.pgm"))[0].parent
        argv = [arg.format(corpus=corpus, out=tmp_path / "o", doc=doc) for arg in command]
        assert main(argv + ["--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: checkpoint {ckpt} has no scorer parameters; run train-scorer first\n"

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
        assert main(gen_args(tmp_path / "c") + ["--config", str(tmp_path)]) == 2  # a directory
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["gen", "--out", "{file}"],
        ["train-vqa", "--data", "{corpus}", "--out", "{file}"] + MODEL_FLAGS,
        # 10**13 patch positions need petabytes, beyond any 48-bit address space, so no setting lets them allocate.
        ["train-vqa", "--data", "{corpus}", "--out", "{dir}"] + MODEL_FLAGS + ["--max-patches", "10000000000000"],
    ])
    def test_unwritable_out_or_unallocatable_size_is_runtime_error(self, corpus, tmp_path, capsys, command):
        a_file = tmp_path / "afile"
        a_file.write_text("")
        argv = [arg.format(file=a_file, corpus=corpus, dir=tmp_path / "o") for arg in command]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ["gen", "--out", "{dir}", "--seed", "-1"],
        ["train-vqa", "--data", "{corpus}", "--out", "{dir}", "--seed", "-1"] + MODEL_FLAGS,
        ["train-scorer", "--data", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{dir}", "--seed", "-1"],
        ["train-scorer", "--data", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{dir}", "--scorer-seed", "-1"],
        ["sweep", "--data", "{corpus}", "--checkpoint", "{ckpt}", "--out", "{dir}", "--layers", "1", "--heads", "2",
         "--scorer-seed", "-1"],
    ], ids=["gen", "train-vqa", "train-scorer", "train-scorer-scorer-seed", "sweep-scorer-seed"])
    def test_negative_seed_is_config_error(self, corpus, stage1, tmp_path, capsys, command):
        argv = [arg.format(corpus=corpus, ckpt=stage1[0], dir=tmp_path / "o") for arg in command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be non-negative, got -1" in err
        assert not (tmp_path / "o").exists()

    def test_huge_key_len_is_rejected_at_once(self, tmp_path):
        started = time.perf_counter()
        assert main(["gen", "--out", str(tmp_path / "c"), "--key-len", "10000000"]) == 1
        assert time.perf_counter() - started < 2.0

    def test_unknown_config_keys_are_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pagez": "1:2", "docs": 1, "d_model": 16}))
        assert main(gen_args(tmp_path / "c") + ["--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "d_model, pagez" in err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize(
        "key, value, expected",
        [("docs", "many", "int"), ("docs", True, "int"), ("docs", 2.0, "int"), ("pages", 4, "str"),
         ("key_alphabet", 7, "str")],
    )
    def test_config_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, key, value, expected):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        assert main(["gen", "--out", str(tmp_path / "c"), "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and f"must be {expected}" in err
        assert not (tmp_path / "c").exists()

    def test_config_int_accepted_for_float(self, corpus, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"lr": 1, "weight_decay": 0}))
        out = tmp_path / "s1"
        rc = main(["train-vqa", "--data", str(corpus), "--out", str(out), "--config", str(cfg_file),
                   "--epochs", "1"] + MODEL_FLAGS)
        assert rc == 0
        train = json.loads((out / "manifest.json").read_text())["config"]["train"]
        assert (train["learning_rate"], train["weight_decay"]) == (1.0, 0.0)
        assert isinstance(train["learning_rate"], float) and isinstance(train["weight_decay"], float)

    def test_answer_outside_vocabulary_is_runtime_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "s1"
        rc = main(["train-vqa", "--data", str(corpus), "--out", str(out), "--vocab", "ab"]
                  + MODEL_FLAGS + FAST_TRAIN)
        assert rc == 1
        assert "outside the vocabulary" in capsys.readouterr().err
        assert not (out / "stage1.ckpt").exists()

    @pytest.mark.parametrize("command, empty", [("train-vqa", "train"), ("train-vqa", "valid"),
                                                ("train-scorer", "train"), ("train-scorer", "valid")])
    def test_training_on_an_empty_split_is_runtime_error(self, corpus, stage1, tmp_path, capsys, command, empty):
        data = tmp_path / "corpus"
        shutil.copytree(corpus, data)
        (data / f"annotations.{empty}.json").write_text(json.dumps({"dataset_split": empty, "data": []}))
        out = tmp_path / "out"
        extra = MODEL_FLAGS if command == "train-vqa" else ["--checkpoint", str(stage1[0]), "--sa-heads", "2"]
        rc = main([command, "--data", str(data), "--out", str(out)] + extra + FAST_TRAIN)
        assert rc == 1
        split_name = "training" if empty == "train" else "validation"
        assert f"the {split_name} split ('{empty}') has none" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("command, flag, name", [("train-vqa", "--lr", "learning_rate"),
                                                     ("train-scorer", "--weight-decay", "weight_decay")])
    def test_non_finite_rate_is_runtime_error_before_training(self, corpus, stage1, tmp_path, capsys, command, flag,
                                                               name):
        out = tmp_path / "out"
        extra = MODEL_FLAGS if command == "train-vqa" else ["--checkpoint", str(stage1[0]), "--sa-heads", "2"]
        rc = main([command, "--data", str(corpus), "--out", str(out)] + extra + FAST_TRAIN + [flag, "nan"])
        assert rc == 1
        assert re.search(rf"{name} must be .*finite, got nan", capsys.readouterr().err)
        assert not (out / "train.log").exists()

    def test_eval_with_nan_decoder_is_runtime_error(self, corpus, stage2, tmp_path, capsys):
        from pixqa.checkpoint import load_checkpoint, save_checkpoint

        model, scorer = load_checkpoint(stage2[0])
        model.params["dec.0.ffn.w1"].data[:] = np.nan  # the encoder and scorer stay finite
        broken = tmp_path / "nan.ckpt"
        save_checkpoint(broken, model, scorer)
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(broken), "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert "non-finite logits" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "results.jsonl").exists()

    def test_eval_of_a_mistyped_split_is_usage_error(self, corpus, stage2, tmp_path, capsys):
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(stage2[0]), "--out", str(tmp_path / "ev"),
                   "--split", "tset"])
        assert rc == 2
        assert "'tset'" in capsys.readouterr().err
        assert not (tmp_path / "ev" / "results.jsonl").exists()

    def test_corpus_without_split_files_evaluates_its_one_annotations_file(self, corpus, stage2, tmp_path):
        data = tmp_path / "corpus"
        shutil.copytree(corpus, data)
        for split_file in data.glob("annotations.*.json"):
            split_file.unlink()
        rc = main(["eval", "--data", str(data), "--checkpoint", str(stage2[0]), "--out", str(tmp_path / "ev"),
                   "--split", "test"])
        assert rc == 0
        n_questions = len(json.loads((data / "annotations.json").read_text())["data"])
        assert len((tmp_path / "ev" / "results.jsonl").read_text().splitlines()) == n_questions

    def test_eval_of_a_split_without_questions_is_runtime_error(self, corpus, stage2, tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(corpus, data)
        (data / "annotations.test.json").write_text(json.dumps({"dataset_split": "test", "data": []}))
        rc = main(["eval", "--data", str(data), "--checkpoint", str(stage2[0]), "--out", str(tmp_path / "ev")])
        assert rc == 1
        assert "no questions" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line",
        [
            "not json",
            "[1, 2]",
            '{"doc_id": ["d"], "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": 1.0}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": "high"}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": NaN}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": Infinity}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": 5.0}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": -0.5}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0, "anls": true}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": true, "gold_page": 0, "anls": 1.0}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": -2, "anls": 1.0}',
            '{"doc_id": "d", "doc_pages": 2, "pred_page": 2, "gold_page": 0, "anls": 1.0}',
            '{"doc_id": "e", "doc_pages": -4, "pred_page": 0, "gold_page": 0, "anls": 1.0}',
            '{"doc_id": "e", "doc_pages": 0, "pred_page": 0, "gold_page": 0, "anls": 1.0}',
            '{"doc_id": "d", "doc_pages": 3, "pred_page": 0, "gold_page": 0, "anls": 1.0}',
        ],
        ids=["not-json", "not-an-object", "unhashable-doc-id", "missing-anls", "anls-not-a-number", "anls-nan",
             "anls-infinite", "anls-above-one", "anls-below-zero", "anls-bool", "page-bool", "page-negative",
             "page-past-the-last", "doc-pages-negative", "doc-pages-zero", "doc-pages-changed"],
    )
    def test_malformed_results_line_is_runtime_error_naming_it(self, tmp_path, capsys, bad_line):
        good = '{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 1, "anls": 0.5}'
        results = tmp_path / "results.jsonl"
        results.write_text(good + "\n\n" + bad_line + "\n")
        assert main(["report", "--results", str(results)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_results_file_not_utf8_is_runtime_error(self, tmp_path):
        results = tmp_path / "results.jsonl"
        results.write_bytes(b"\xff\xfe\n")
        assert main(["report", "--results", str(results)]) == 1


class Captured(Exception):
    """Raised by a stand-in trainer once it has seen the configs a command built."""


def capture(monkeypatch, name: str) -> list[tuple]:
    """Replace ``cli.<name>`` by a stub that records its arguments and stops the command."""
    seen = []

    def stub(*args, **kwargs):
        seen.append(args)
        raise Captured

    monkeypatch.setattr(cli, name, stub)
    return seen


# Every subcommand's options, as the hand-written parser defined them.
MODEL_OPTIONS = {"--d-model", "--heads", "--enc-layers", "--dec-layers", "--d-ff", "--patch-size", "--max-patches",
                 "--max-answer-len", "--model-seed", "--vocab"}
TRAIN_OPTIONS = {"--lr", "--batch-size", "--epochs", "--patience", "--seed", "--optimizer", "--weight-decay"}
OPTIONS = {
    "gen": {"--out", "--config", "--seed", "--docs", "--pages", "--facts-per-page", "--questions-per-doc", "--key-len",
            "--value-len", "--key-alphabet", "--value-alphabet", "--page-width", "--page-height", "--fractions"},
    "train-vqa": {"--data", "--out", "--config"} | MODEL_OPTIONS | TRAIN_OPTIONS,
    "train-scorer": {"--data", "--checkpoint", "--out", "--config", "--sa-layers", "--sa-heads", "--aggregation",
                     "--dropout", "--scorer-seed", "--label-smooth"} | TRAIN_OPTIONS,
    "eval": {"--data", "--checkpoint", "--out", "--split"},
    "answer": {"--checkpoint", "--question", "--doc-dir", "--max-answer-len"},
    "sweep": {"--data", "--checkpoint", "--out", "--layers", "--heads", "--config", "--dropout", "--aggregation",
              "--scorer-seed", "--label-smooth"} | TRAIN_OPTIONS,
    "report": {"--results", "--out"},
}

# Every --config key and its default, as the hand-written defaults dicts gave them (an empty
# alphabet or vocabulary then stood for the config's own default).
TRAIN_DEFAULTS = {"lr": 0.3, "batch_size": 8, "epochs": 60, "patience": 5, "seed": 0, "optimizer": "sgd",
                  "weight_decay": 0.0}
CONFIG_DEFAULTS = {
    "gen": {"seed": 0, "docs": 200, "pages": "4:8", "facts_per_page": 3, "questions_per_doc": 5, "key_len": 4,
            "value_len": 4, "key_alphabet": string.ascii_uppercase, "value_alphabet": string.digits,
            "page_width": 224, "page_height": 48, "fractions": "0.8,0.1,0.1"},
    "train-vqa": {"d_model": 64, "heads": 4, "enc_layers": 2, "dec_layers": 2, "d_ff": 256, "patch_size": 16,
                  "max_patches": 2048, "max_answer_len": 32, "model_seed": 0, "vocab": PRINTABLE_ASCII,
                  **TRAIN_DEFAULTS},
    "train-scorer": {"sa_layers": 1, "sa_heads": 16, "aggregation": "first", "dropout": 0.1, "scorer_seed": 0,
                     "label_smooth": 0.1, **TRAIN_DEFAULTS},
    "sweep": {"dropout": 0.1, "aggregation": "first", "scorer_seed": 0, "label_smooth": 0.1, **TRAIN_DEFAULTS},
}


class TestDerivedFlags:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_command_takes_exactly_its_options(self, command):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        options = {s for action in commands[command]._actions for s in action.option_strings}
        assert options - {"-h", "--help"} == OPTIONS[command]

    @pytest.mark.parametrize("command", sorted(CONFIG_DEFAULTS))
    def test_config_keys_and_defaults(self, command):
        defaults = cli.COMMAND_DEFAULTS[command]
        assert defaults == CONFIG_DEFAULTS[command]
        assert {k: type(v) for k, v in defaults.items()} == {k: type(v) for k, v in CONFIG_DEFAULTS[command].items()}

    def test_gen_defaults_build_the_default_config(self, monkeypatch, tmp_path):
        seen = capture(monkeypatch, "gen_synthetic")
        with pytest.raises(Captured):
            main(["gen", "--out", str(tmp_path / "c")])
        assert seen[0][0] == SynthConfig()

    def test_train_vqa_defaults_build_the_default_configs(self, monkeypatch, corpus, tmp_path):
        seen = capture(monkeypatch, "train_stage1")
        with pytest.raises(Captured):
            main(["train-vqa", "--data", str(corpus), "--out", str(tmp_path / "s1")])
        _, _, model, train_cfg = seen[0]
        assert (model.cfg, train_cfg) == (ModelConfig(), TrainConfig(stage=1))

    @pytest.mark.parametrize("command", ["train-scorer", "sweep"])
    def test_scorer_defaults_build_the_default_configs(self, monkeypatch, corpus, stage1, tmp_path, command):
        seen = capture(monkeypatch, "train_stage2")
        grid = ["--layers", "1", "--heads", "16"] if command == "sweep" else []
        with pytest.raises(Captured):
            main([command, "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(tmp_path / "s2")]
                 + grid)
        _, _, _, scorer, train_cfg = seen[0]
        assert (scorer.cfg, train_cfg) == (ScorerConfig(), TrainConfig(stage=2))

    def test_config_file_and_flags_build_the_same_configs(self, monkeypatch, corpus, tmp_path):
        flags = {"d_model": 16, "heads": 2, "vocab": "abc0123ABCDEFGH?: ", "lr": 0.5, "optimizer": "adam"}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(flags))
        seen = capture(monkeypatch, "train_stage1")
        argvs = [["--config", str(cfg_file)],
                 [s for dest, value in flags.items() for s in ("--" + dest.replace("_", "-"), str(value))]]
        for argv in argvs:
            with pytest.raises(Captured):
                main(["train-vqa", "--data", str(corpus), "--out", str(tmp_path / "s1")] + argv)
        (_, _, model_a, train_a), (_, _, model_b, train_b) = seen
        assert (model_a.cfg, train_a) == (model_b.cfg, train_b)
        assert (model_a.cfg.n_heads, model_a.cfg.vocab_chars, train_a.learning_rate) == (2, flags["vocab"], 0.5)

    @pytest.mark.parametrize("flag", ["--key-alphabet", "--value-alphabet"])
    def test_empty_alphabet_is_runtime_error(self, tmp_path, capsys, flag):
        assert main(gen_args(tmp_path / "c") + [flag, ""]) == 1
        assert "alphabet" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_empty_vocabulary_is_runtime_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "s1"
        assert main(["train-vqa", "--data", str(corpus), "--out", str(out), "--vocab", ""] + MODEL_FLAGS) == 1
        assert "vocabulary must contain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [("train-vqa", "optimizer", "rmsprop"),
                                                     ("train-scorer", "aggregation", "max"),
                                                     ("sweep", "aggregation", "max")])
    def test_config_value_outside_the_choices_is_usage_error(self, corpus, stage1, tmp_path, capsys, command, key,
                                                             value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        required = {"train-vqa": [], "train-scorer": ["--checkpoint", str(stage1[0])],
                    "sweep": ["--checkpoint", str(stage1[0]), "--layers", "1", "--heads", "2"]}[command]
        argv = [command, "--data", str(corpus), "--out", str(tmp_path / "o")] + required
        assert main(argv + ["--config", str(cfg_file)]) == 2
        assert f"config file {cfg_file}: {key!r} must be one of" in capsys.readouterr().err
        assert main(argv + ["--" + key, value]) == 2  # as the flag is
        assert not (tmp_path / "o").exists()

    def test_label_smooth_is_not_a_stage1_setting(self, corpus, stage1, stage2, tmp_path, capsys):
        # Only stage 2's squared-error targets are smoothed; stage 1 would ignore the value.
        trains = [json.loads((out / "manifest.json").read_text())["config"]["train"] for _, out in (stage1, stage2)]
        assert "label_smooth_eps" not in trains[0] and trains[0]["stage"] == 1
        assert trains[1]["label_smooth_eps"] == 0.1
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"label_smooth": 0.2}))
        argv = ["train-vqa", "--data", str(corpus), "--out", str(tmp_path / "o")]
        assert main(argv + ["--label-smooth", "0.2"]) == 2
        assert "unrecognized arguments: --label-smooth" in capsys.readouterr().err
        assert main(argv + ["--config", str(cfg_file)]) == 2
        assert "does not take: label_smooth" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fractions, error", [("-0.5,0.5,1", "lie in [0, 1]"), ("nan,0.5,0.5", "lie in [0, 1]"),
                                                  ("0.5,inf,-inf", "lie in [0, 1]"), ("0.5,0.2,0.2", "sum to 1")])
    def test_bad_fractions_are_runtime_error_before_any_page_is_written(self, tmp_path, capsys, fractions, error):
        assert main(gen_args(tmp_path / "c") + [f"--fractions={fractions}"]) == 1
        assert f"split fractions must {error}" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_option(capsys, command):
    # Rendering help formats every flag's "default ..." text, so a '%' in a default (--vocab's) must be escaped.
    assert main([command, "--help"]) == 0
    shown = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert OPTIONS[command] - shown == set()


class TestSweepGrid:
    @pytest.mark.parametrize("layers, heads", [("3:1", "2"), ("1", ","), ("", "2")])
    def test_empty_grid_is_usage_error(self, corpus, stage1, tmp_path, capsys, layers, heads):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(out),
                   "--layers", layers, "--heads", heads])
        assert rc == 2
        assert "empty grid" in capsys.readouterr().err
        assert not out.exists()

    def test_heads_not_dividing_d_model_fail_before_any_cell_trains(self, monkeypatch, corpus, stage1, tmp_path,
                                                                     capsys):
        seen = capture(monkeypatch, "train_stage2")
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(out),
                   "--layers", "1", "--heads", "2,3"])
        assert rc == 1
        assert "not divisible by scorer heads 3" in capsys.readouterr().err
        assert not seen and not out.exists()

    def test_stage1_checkpoint_loads_once(self, monkeypatch, corpus, stage1, tmp_path):
        loads = []
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load_checkpoint(path))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(out),
                   "--layers", "1:2", "--heads", "1,2", "--epochs", "1", "--batch-size", "4", "--lr", "0.01"])
        assert rc == 0
        assert len(loads) == 1
        cells = json.loads((out / "sweep.json").read_text())
        assert [(c["sa_layers"], c["sa_heads"]) for c in cells] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_manifest_records_the_head_settings_of_a_config_file(self, corpus, stage1, tmp_path):
        """The scorer head settings every cell trained with, given only through --config, are in the manifest."""
        cfg_file = tmp_path / "head.json"
        cfg_file.write_text(json.dumps({"aggregation": "avgpool", "dropout": 0.3}))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(out),
                   "--layers", "1", "--heads", "2", "--epochs", "1", "--batch-size", "4", "--config", str(cfg_file)])
        assert rc == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["scorer"] == {"aggregation": "avgpool", "dropout_p": 0.3}
        assert (config["layers"], config["heads"]) == ([1], [2])

    def test_cells_share_one_feature_cache(self, monkeypatch, corpus, stage1, tmp_path):
        """The frozen model's page features are encoded once for the whole sweep, not once per cell."""
        inside_cache, encodes = [], []

        def counted(method):
            def wrapper(self, *args):
                inside_cache.append(True)
                try:
                    return method(self, *args)
                finally:
                    inside_cache.pop()
            return wrapper

        def counted_encode(self, grid):
            encodes.append(grid.patches.shape[0] if inside_cache else 0)  # pages the cache encodes
            return encode_grid(self, grid)

        encode_grid = VqaModel.encode_grid
        for name in ("get", "question_pages"):  # the cache's two ways in: training pages, validation documents
            monkeypatch.setattr(FrozenFeatureCache, name, counted(getattr(FrozenFeatureCache, name)))
        monkeypatch.setattr(VqaModel, "encode_grid", counted_encode)
        cached = {}
        for layers in ("1", "1:3"):
            encodes.clear()
            rc = main(["sweep", "--data", str(corpus), "--checkpoint", str(stage1[0]), "--out", str(tmp_path / layers),
                       "--layers", layers, "--heads", "2", "--epochs", "2", "--batch-size", "4", "--lr", "0.01"])
            assert rc == 0
            cached[layers] = sum(encodes)
        assert cached["1"] == cached["1:3"] > 0
