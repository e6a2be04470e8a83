"""Command-line entry point.

Subcommands: ``gen`` (synthetic corpus), ``train-vqa`` (stage 1),
``train-scorer`` (stage 2), ``eval``, ``answer``, ``sweep`` (scorer grid),
``report`` (quadrants + histogram from a results file).

Option precedence is defaults < --config JSON file < explicit flags; every
command that writes an output directory drops a manifest.json with the
fully resolved configuration, so a run can be reproduced from its outputs.
All randomness flows from explicit seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import Dataset, Document, PageRef, SynthConfig, gen_synthetic, load_mpdocvqa, split, write_annotations
from .errors import PixqaError
from .evaluate import evaluate_dataset, page_histogram, report_from_records
from .model import ModelConfig, VqaModel
from .scorer import AGGREGATIONS, ScorerConfig, SelfAttentionScorer
from .training import TrainConfig, TrainHistory, train_stage1, train_stage2

USAGE_ERROR = 2
RUNTIME_ERROR = 1


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    seeds: dict[str, int]
    config: dict
    checkpoints: dict[str, str]
    output_dir: str

    def write(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


class UsageError(Exception):
    pass


def _parse_range(text: str, name: str) -> tuple[int, int]:
    try:
        lo, hi = (int(x) for x in text.split(":"))
        return lo, hi
    except ValueError:
        raise UsageError(f"--{name} expects MIN:MAX, got {text!r}") from None


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = (int(x) for x in text.split(":"))
            return list(range(lo, hi + 1))
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise UsageError(f"--{name} expects N,N,... or MIN:MAX, got {text!r}") from None


def _parse_fractions(text: str) -> tuple[float, float, float]:
    try:
        a, b, c = (float(x) for x in text.split(","))
        return a, b, c
    except ValueError:
        raise UsageError(f"--fractions expects three comma-separated numbers, got {text!r}") from None


def _require_path(path: Path, what: str) -> Path:
    if not Path(path).exists():
        raise UsageError(f"{what} not found: {path}")
    return Path(path)


def _load_config_file(args: argparse.Namespace) -> dict:
    cfg_path = getattr(args, "config", None)
    if cfg_path is None:
        return {}
    try:
        payload = json.loads(_require_path(Path(cfg_path), "config file").read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"config file {cfg_path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {cfg_path} must hold a JSON object")
    return payload


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags parse to None when absent)."""
    file_cfg = _load_config_file(args)
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise UsageError(f"config file {args.config} has keys this command does not take: {', '.join(unknown)}")
    resolved = {}
    for dest, default in defaults.items():
        value = getattr(args, dest, None)
        if value is None:
            value = file_cfg.get(dest, default)
        resolved[dest] = value
    return resolved


# ----------------------------------------------------------------------------
# Shared option groups
# ----------------------------------------------------------------------------

MODEL_DEFAULTS = {
    "d_model": 64,
    "heads": 4,
    "enc_layers": 2,
    "dec_layers": 2,
    "d_ff": 256,
    "patch_size": 16,
    "max_patches": 2048,
    "max_answer_len": 32,
    "model_seed": 0,
}

TRAIN_DEFAULTS = {
    "lr": 0.3,
    "batch_size": 8,
    "epochs": 60,
    "patience": 5,
    "label_smooth": 0.1,
    "seed": 0,
    "optimizer": "sgd",
    "weight_decay": 0.0,
}

SCORER_DEFAULTS = {
    "sa_layers": 1,
    "sa_heads": 16,
    "aggregation": "first",
    "dropout": 0.1,
    "scorer_seed": 0,
}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", dest="d_model", type=int)
    p.add_argument("--heads", dest="heads", type=int)
    p.add_argument("--enc-layers", dest="enc_layers", type=int)
    p.add_argument("--dec-layers", dest="dec_layers", type=int)
    p.add_argument("--d-ff", dest="d_ff", type=int)
    p.add_argument("--patch-size", dest="patch_size", type=int)
    p.add_argument("--max-patches", dest="max_patches", type=int)
    p.add_argument("--max-answer-len", dest="max_answer_len", type=int)
    p.add_argument("--model-seed", dest="model_seed", type=int)
    p.add_argument("--vocab", dest="vocab", type=str, help="vocabulary characters (default printable ASCII)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", dest="lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", dest="epochs", type=int)
    p.add_argument("--patience", dest="patience", type=int)
    p.add_argument("--label-smooth", dest="label_smooth", type=float)
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--optimizer", dest="optimizer", choices=("sgd", "adam"))
    p.add_argument("--weight-decay", dest="weight_decay", type=float)


def _add_scorer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sa-layers", dest="sa_layers", type=int)
    p.add_argument("--sa-heads", dest="sa_heads", type=int)
    p.add_argument("--aggregation", dest="aggregation", choices=AGGREGATIONS)
    p.add_argument("--dropout", dest="dropout", type=float)
    p.add_argument("--scorer-seed", dest="scorer_seed", type=int)


def _model_config(resolved: dict) -> ModelConfig:
    kwargs = dict(
        d_model=resolved["d_model"],
        n_heads=resolved["heads"],
        n_enc_layers=resolved["enc_layers"],
        n_dec_layers=resolved["dec_layers"],
        d_ff=resolved["d_ff"],
        patch_size=resolved["patch_size"],
        max_patches=resolved["max_patches"],
        max_answer_len=resolved["max_answer_len"],
        seed=resolved["model_seed"],
    )
    if resolved.get("vocab"):
        kwargs["vocab_chars"] = resolved["vocab"]
    return ModelConfig(**kwargs)


def _train_config(resolved: dict, stage: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=resolved["lr"],
        batch_size=resolved["batch_size"],
        max_epochs=resolved["epochs"],
        early_stop_patience=resolved["patience"],
        label_smooth_eps=resolved["label_smooth"],
        seed=resolved["seed"],
        stage=stage,
        optimizer=resolved["optimizer"],
        weight_decay=resolved["weight_decay"],
    )


def _scorer_config(resolved: dict) -> ScorerConfig:
    return ScorerConfig(
        n_sa_layers=resolved["sa_layers"],
        n_heads=resolved["sa_heads"],
        aggregation=resolved["aggregation"],
        dropout_p=resolved["dropout"],
    )


def _load_split(data_dir: Path, split_name: str) -> Dataset:
    data_dir = _require_path(data_dir, "corpus directory")
    annotations = data_dir / f"annotations.{split_name}.json"
    if not annotations.exists():
        annotations = _require_path(data_dir / "annotations.json", "annotations file")
    return load_mpdocvqa(annotations, data_dir / "images")


def _write_history(history: TrainHistory, out_dir: Path) -> None:
    with open(out_dir / "history.jsonl", "w") as fh:
        for record in history.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


class _TeeLog:
    def __init__(self, path: Path):
        self.path = path
        self.fh = open(path, "w")

    def __call__(self, line: str) -> None:
        print(line)
        self.fh.write(line + "\n")
        self.fh.flush()

    def close(self) -> None:
        self.fh.close()


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    defaults = {
        "seed": 0,
        "docs": 200,
        "pages": "4:8",
        "facts_per_page": 3,
        "questions_per_doc": 5,
        "key_len": 4,
        "value_len": 4,
        "key_alphabet": None,
        "value_alphabet": None,
        "page_width": 224,
        "page_height": 48,
        "fractions": "0.8,0.1,0.1",
    }
    r = _resolve(args, defaults)
    out_dir = Path(args.out)
    synth_kwargs = dict(
        n_documents=r["docs"],
        pages_per_doc=_parse_range(r["pages"], "pages"),
        facts_per_page=r["facts_per_page"],
        questions_per_doc=r["questions_per_doc"],
        key_len=r["key_len"],
        value_len=r["value_len"],
        page_width=r["page_width"],
        page_height=r["page_height"],
        seed=r["seed"],
    )
    if r["key_alphabet"]:
        synth_kwargs["key_alphabet"] = r["key_alphabet"]
    if r["value_alphabet"]:
        synth_kwargs["value_alphabet"] = r["value_alphabet"]
    cfg = SynthConfig(**synth_kwargs)
    dataset = gen_synthetic(cfg, out_dir)
    fractions = _parse_fractions(r["fractions"])
    for part in split(dataset, fractions, seed=r["seed"]):
        write_annotations(part, out_dir / f"annotations.{part.split}.json")
    RunManifest(
        command="gen",
        argv=list(args.raw_argv),
        seeds={"corpus": r["seed"]},
        config={"synth": asdict(cfg), "fractions": list(fractions)},
        checkpoints={},
        output_dir=str(out_dir),
    ).write(out_dir)
    hist = page_histogram(dataset)
    print(
        f"generated {len(dataset.documents)} documents / {dataset.n_questions} questions "
        f"into {out_dir} (pages per doc: {min(hist)}..{max(hist)})"
    )
    return 0


def cmd_train_vqa(args: argparse.Namespace) -> int:
    r = _resolve(args, {**MODEL_DEFAULTS, **TRAIN_DEFAULTS, "vocab": None})
    train_set = _load_split(Path(args.data), "train")
    valid_set = _load_split(Path(args.data), "valid")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    model_cfg = _model_config(r)
    train_cfg = _train_config(r, stage=1)
    model = VqaModel(model_cfg)
    ckpt_path = out_dir / "stage1.ckpt"
    log = _TeeLog(out_dir / "train.log")
    try:
        history = train_stage1(
            train_set, valid_set, model, train_cfg, log=log,
            on_best=lambda epoch: save_checkpoint(ckpt_path, model),
        )
    finally:
        log.close()
    save_checkpoint(ckpt_path, model)  # best parameters restored by the trainer
    _write_history(history, out_dir)
    RunManifest(
        command="train-vqa",
        argv=list(args.raw_argv),
        seeds={"model": model_cfg.seed, "train": train_cfg.seed},
        config={"model": asdict(model_cfg), "train": asdict(train_cfg), "data": str(args.data)},
        checkpoints={"stage1": str(ckpt_path)},
        output_dir=str(out_dir),
    ).write(out_dir)
    print(f"best epoch {history.best_epoch}: valid ANLS {history.best_metric:.4f} -> {ckpt_path}")
    return 0


def cmd_train_scorer(args: argparse.Namespace) -> int:
    r = _resolve(args, {**SCORER_DEFAULTS, **TRAIN_DEFAULTS})
    ckpt_in = _require_path(Path(args.checkpoint), "stage-1 checkpoint")
    train_set = _load_split(Path(args.data), "train")
    valid_set = _load_split(Path(args.data), "valid")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    model, _ = load_checkpoint(ckpt_in)  # scorer namespace, if any, is ignored: fresh head per run
    scorer_cfg = _scorer_config(r)
    scorer = SelfAttentionScorer(scorer_cfg, d_model=model.cfg.d_model, seed=r["scorer_seed"])
    train_cfg = _train_config(r, stage=2)
    ckpt_path = out_dir / "stage2.ckpt"
    log = _TeeLog(out_dir / "train.log")
    try:
        history = train_stage2(
            train_set, valid_set, model, scorer, train_cfg, log=log,
            on_best=lambda epoch: save_checkpoint(ckpt_path, model, scorer),
        )
    finally:
        log.close()
    save_checkpoint(ckpt_path, model, scorer)
    _write_history(history, out_dir)
    RunManifest(
        command="train-scorer",
        argv=list(args.raw_argv),
        seeds={"scorer": r["scorer_seed"], "train": train_cfg.seed},
        config={
            "model": asdict(model.cfg),
            "scorer": asdict(scorer_cfg),
            "train": asdict(train_cfg),
            "data": str(args.data),
            "stage1_checkpoint": str(ckpt_in),
        },
        checkpoints={"stage1": str(ckpt_in), "stage2": str(ckpt_path)},
        output_dir=str(out_dir),
    ).write(out_dir)
    print(f"best epoch {history.best_epoch}: valid page accuracy {history.best_metric:.2f}% -> {ckpt_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    ckpt_path = _require_path(Path(args.checkpoint), "checkpoint")
    dataset = _load_split(Path(args.data), args.split)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    model, scorer = load_checkpoint(ckpt_path)
    if scorer is None:
        raise PixqaError(f"checkpoint {ckpt_path} has no scorer parameters; run train-scorer first")
    records, report = evaluate_dataset(dataset, model, scorer)
    with open(out_dir / "results.jsonl", "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (out_dir / "metrics.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    RunManifest(
        command="eval",
        argv=list(args.raw_argv),
        seeds={},
        config={"model": asdict(model.cfg), "scorer": asdict(scorer.cfg), "data": str(args.data), "split": args.split},
        checkpoints={"eval": str(ckpt_path)},
        output_dir=str(out_dir),
    ).write(out_dir)
    print(report.table())
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    ckpt_path = _require_path(Path(args.checkpoint), "checkpoint")
    doc_dir = _require_path(Path(args.doc_dir), "document directory")
    pages = sorted(doc_dir.glob("*.pgm"))
    if not pages:
        raise UsageError(f"no .pgm pages in {doc_dir}")
    model, scorer = load_checkpoint(ckpt_path)
    if scorer is None:
        raise PixqaError(f"checkpoint {ckpt_path} has no scorer parameters; run train-scorer first")
    doc = Document(
        doc_id=doc_dir.name,
        pages=tuple(PageRef(page_id=p.stem, path=p) for p in pages),
    )
    from .evaluate import answer_question

    page_idx, answer = answer_question(args.question, doc, model, scorer, args.max_answer_len)
    print(f"page {page_idx}")
    print(answer)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    r = _resolve(args, {**TRAIN_DEFAULTS, "dropout": 0.1, "aggregation": "first", "scorer_seed": 0})
    ckpt_in = _require_path(Path(args.checkpoint), "stage-1 checkpoint")
    train_set = _load_split(Path(args.data), "train")
    valid_set = _load_split(Path(args.data), "valid")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    layer_grid = _parse_int_list(args.layers, "layers")
    head_grid = _parse_int_list(args.heads, "heads")
    train_cfg = _train_config(r, stage=2)

    cells = []
    for n_layers in layer_grid:
        for n_heads in head_grid:
            model, _ = load_checkpoint(ckpt_in)
            cfg = ScorerConfig(
                n_sa_layers=n_layers, n_heads=n_heads,
                aggregation=r["aggregation"], dropout_p=r["dropout"],
            )
            scorer = SelfAttentionScorer(cfg, d_model=model.cfg.d_model, seed=r["scorer_seed"])
            history = train_stage2(train_set, valid_set, model, scorer, train_cfg)
            _, report = evaluate_dataset(valid_set, model, scorer)
            cells.append(
                {
                    "sa_layers": n_layers,
                    "sa_heads": n_heads,
                    "page_accuracy_pct": report.page_accuracy_pct,
                    "anls": report.anls,
                    "best_epoch": history.best_epoch,
                }
            )
            print(
                f"layers={n_layers} heads={n_heads}: page_acc={report.page_accuracy_pct:.2f}% "
                f"anls={report.anls:.4f}"
            )
    (out_dir / "sweep.json").write_text(json.dumps(cells, indent=2, sort_keys=True) + "\n")
    with open(out_dir / "sweep.tsv", "w") as fh:
        fh.write("sa_layers\tsa_heads\tpage_accuracy_pct\tanls\n")
        for cell in cells:
            fh.write(f"{cell['sa_layers']}\t{cell['sa_heads']}\t{cell['page_accuracy_pct']:.2f}\t{cell['anls']:.4f}\n")
    RunManifest(
        command="sweep",
        argv=list(args.raw_argv),
        seeds={"scorer": r["scorer_seed"], "train": train_cfg.seed},
        config={"train": asdict(train_cfg), "layers": layer_grid, "heads": head_grid, "data": str(args.data)},
        checkpoints={"stage1": str(ckpt_in)},
        output_dir=str(out_dir),
    ).write(out_dir)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    results_path = _require_path(Path(args.results), "results file")
    records = [json.loads(line) for line in results_path.read_text().splitlines() if line.strip()]
    if not records:
        raise PixqaError(f"results file {results_path} is empty")
    report = report_from_records(records)
    print(report.table())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        RunManifest(
            command="report",
            argv=list(args.raw_argv),
            seeds={},
            config={"results": str(results_path)},
            checkpoints={},
            output_dir=str(out_dir),
        ).write(out_dir)
    return 0


# ----------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pixqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic multi-page corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--docs", type=int)
    p.add_argument("--pages")
    p.add_argument("--facts-per-page", dest="facts_per_page", type=int)
    p.add_argument("--questions-per-doc", dest="questions_per_doc", type=int)
    p.add_argument("--key-len", dest="key_len", type=int)
    p.add_argument("--value-len", dest="value_len", type=int)
    p.add_argument("--key-alphabet", dest="key_alphabet")
    p.add_argument("--value-alphabet", dest="value_alphabet")
    p.add_argument("--page-width", dest="page_width", type=int)
    p.add_argument("--page-height", dest="page_height", type=int)
    p.add_argument("--fractions")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-vqa", help="stage 1: train the single-page VQA model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_vqa)

    p = sub.add_parser("train-scorer", help="stage 2: train the scoring head on a frozen model")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_scorer_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train_scorer)

    p = sub.add_parser("eval", help="evaluate a stage-2 checkpoint on a corpus split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("answer", help="answer one question against a directory of page images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--doc-dir", dest="doc_dir", required=True)
    p.add_argument("--max-answer-len", dest="max_answer_len", type=int, default=None)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("sweep", help="grid-sweep scorer layers x heads")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", required=True)
    p.add_argument("--heads", required=True)
    p.add_argument("--config")
    p.add_argument("--dropout", dest="dropout", type=float)
    p.add_argument("--aggregation", dest="aggregation", choices=AGGREGATIONS)
    p.add_argument("--scorer-seed", dest="scorer_seed", type=int)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="quadrant table + page histogram from a results file")
    p.add_argument("--results", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.raw_argv = argv
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except PixqaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def entrypoint() -> None:
    sys.exit(main())
