"""Command-line entry point.

Subcommands: ``gen`` (synthetic corpus), ``train-vqa`` (stage 1),
``train-scorer`` (stage 2), ``eval``, ``answer``, ``sweep`` (scorer grid),
``report`` (quadrants + histogram from a results file).

Option precedence is defaults < --config JSON file < explicit flags, where a
flag's default is that of the config dataclass field it sets; every
command that writes an output directory drops a manifest.json with the
fully resolved configuration, so a run can be reproduced from its outputs.
All randomness flows from explicit seed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

import numpy as np

from .checkpoint import fits_default, load_checkpoint, save_checkpoint
from .data import (Dataset, Document, PageRef, SynthConfig, check_fractions, gen_synthetic, load_mpdocvqa, split,
                   write_annotations)
from .errors import DataError, PixqaError
from .evaluate import answer_question, evaluate_dataset, report_from_records, report_table
from .layers import attention_workers
from .model import ModelConfig, VqaModel
from .scorer import AGGREGATIONS, ScorerConfig, SelfAttentionScorer
from .training import OPTIMIZERS, FrozenFeatureCache, TrainConfig, TrainHistory, train_stage1, train_stage2

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def run_environment() -> dict:
    """What a run's speed depends on: numpy, its BLAS, and the CPUs attention splits its heads over."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "cpu_count": os.cpu_count(),
        "attention_workers": attention_workers(),
    }


def git_revision() -> str | None:
    """HEAD of the git checkout this package runs from; None outside a checkout or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=Path(__file__).resolve().parent,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _write_manifest(args: argparse.Namespace, out_dir: Path, *, seeds: dict, config: dict, checkpoints: dict) -> None:
    """Write manifest.json to ``out_dir``: the command line, the time since ``main`` began, and the run's settings."""
    manifest = {"command": args.command, "argv": list(args.raw_argv),
                "elapsed_s": round(time.perf_counter() - args.started, 3), "output_dir": str(out_dir),
                "seeds": seeds, "config": config, "checkpoints": checkpoints,
                "environment": run_environment(), "git_revision": git_revision()}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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


def _load_stage2(checkpoint: str) -> tuple[VqaModel, SelfAttentionScorer]:
    """The model and scorer of the stage-2 checkpoint at `checkpoint`."""
    ckpt_path = _require_path(Path(checkpoint), "checkpoint")
    model, scorer = load_checkpoint(ckpt_path)
    if scorer is None:
        raise PixqaError(f"checkpoint {ckpt_path} has no scorer parameters; run train-scorer first")
    return model, scorer


def _load_config_file(args: argparse.Namespace) -> dict:
    cfg_path = getattr(args, "config", None)
    if cfg_path is None:
        return {}
    try:
        payload = json.loads(_require_path(Path(cfg_path), "config file").read_text())
    except OSError as exc:  # a directory, or a file without read permission
        raise UsageError(f"cannot read config file {cfg_path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise UsageError(f"config file {cfg_path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise UsageError(f"config file {cfg_path} must hold a JSON object")
    return payload


def _typed(key: str, value, default, cfg_path) -> object:
    """A config-file value checked against the type of the command's default and the flag's choices."""
    expected = type(default)
    if not fits_default(value, default):
        raise UsageError(
            f"config file {cfg_path}: {key!r} must be {expected.__name__}, got {type(value).__name__} {value!r}"
        )
    if key in CHOICES and value not in CHOICES[key]:
        raise UsageError(f"config file {cfg_path}: {key!r} must be one of {CHOICES[key]}, got {value!r}")
    return float(value) if expected is float else value


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags (flags parse to None when absent)."""
    defaults = COMMAND_DEFAULTS[args.command]
    file_cfg = _load_config_file(args)
    unknown = sorted(set(file_cfg) - set(defaults))
    if unknown:
        raise UsageError(f"config file {args.config} has keys this command does not take: {', '.join(unknown)}")
    file_cfg = {key: _typed(key, value, defaults[key], args.config) for key, value in file_cfg.items()}
    resolved = {}
    for dest, default in defaults.items():
        value = getattr(args, dest, None)
        if value is None:
            value = file_cfg.get(dest, default)
        resolved[dest] = value
    return resolved


# ----------------------------------------------------------------------------
# Config flags: each table maps a flag's dest to the config field it sets. The
# flag is spelled --dest with dashes; its type and default are the field's.
# ----------------------------------------------------------------------------

SYNTH_FLAGS = {
    "seed": "seed", "docs": "n_documents", "facts_per_page": "facts_per_page",
    "questions_per_doc": "questions_per_doc", "key_len": "key_len", "value_len": "value_len",
    "key_alphabet": "key_alphabet", "value_alphabet": "value_alphabet",
    "page_width": "page_width", "page_height": "page_height",
}
MODEL_FLAGS = {
    "d_model": "d_model", "heads": "n_heads", "enc_layers": "n_enc_layers", "dec_layers": "n_dec_layers",
    "d_ff": "d_ff", "patch_size": "patch_size", "max_patches": "max_patches",
    "max_answer_len": "max_answer_len", "model_seed": "seed", "vocab": "vocab_chars",
}
TRAIN_FLAGS = {
    "lr": "learning_rate", "batch_size": "batch_size", "epochs": "max_epochs",
    "patience": "early_stop_patience", "seed": "seed", "optimizer": "optimizer", "weight_decay": "weight_decay",
}
STAGE2_FLAGS = {**TRAIN_FLAGS, "label_smooth": "label_smooth_eps"}  # stage 1 has no smoothed targets
HEAD_FLAGS = {"aggregation": "aggregation", "dropout": "dropout_p"}  # the scorer settings a sweep holds fixed
SCORER_FLAGS = {"sa_layers": "n_sa_layers", "sa_heads": "n_heads", **HEAD_FLAGS}

CHOICES = {"optimizer": OPTIMIZERS, "aggregation": AGGREGATIONS}


def _defaults(cls, table: dict[str, str]) -> dict:
    """Each flag's default: the default of the config field it sets."""
    field_defaults = {f.name: f.default for f in fields(cls)}
    return {dest: field_defaults[name] for dest, name in table.items()}


def _build(cls, table: dict[str, str], resolved: dict, **rest):
    """A ``cls`` config from the resolved flags in ``table``; ``rest`` sets fields no flag sets."""
    return cls(**{name: resolved[dest] for dest, name in table.items()}, **rest)


SCORER_SEED = {"scorer_seed": 0}  # SelfAttentionScorer's seed, which no config field holds
# Each command's --config keys and defaults; its parser takes the same dict.
COMMAND_DEFAULTS = {
    "gen": {
        **_defaults(SynthConfig, SYNTH_FLAGS),
        "pages": "{}:{}".format(*SynthConfig.pages_per_doc),
        "fractions": "0.8,0.1,0.1",
    },
    "train-vqa": {**_defaults(ModelConfig, MODEL_FLAGS), **_defaults(TrainConfig, TRAIN_FLAGS)},
    "train-scorer": {**_defaults(ScorerConfig, SCORER_FLAGS), **SCORER_SEED, **_defaults(TrainConfig, STAGE2_FLAGS)},
    "sweep": {**_defaults(TrainConfig, STAGE2_FLAGS), **_defaults(ScorerConfig, HEAD_FLAGS), **SCORER_SEED},
}


def _add_flags(p: argparse.ArgumentParser, defaults: dict) -> None:
    """One flag per default; absent flags parse to None so ``_resolve`` can tell them from given ones."""
    for dest, default in defaults.items():
        kind = {"choices": CHOICES[dest]} if dest in CHOICES else {"type": type(default)}
        p.add_argument("--" + dest.replace("_", "-"), dest=dest, **kind,
                       help=f"default {default!r}".replace("%", "%%"))


def _load_split(data_dir: Path, split_name: str) -> Dataset:
    """``annotations.<split>.json``; a corpus with no split file at all falls back to ``annotations.json``."""
    data_dir = _require_path(data_dir, "corpus directory")
    annotations = data_dir / f"annotations.{split_name}.json"
    if not annotations.exists():
        splits = sorted(p.name[len("annotations."):-len(".json")] for p in data_dir.glob("annotations.*.json"))
        if splits:
            raise UsageError(f"{data_dir} has no {split_name!r} split; its splits are {', '.join(splits)}")
        annotations = _require_path(data_dir / "annotations.json", "annotations file")
    return load_mpdocvqa(annotations, data_dir / "images")


def _train_run(out_dir: Path, stage: int, train: Callable[..., TrainHistory], *trained) -> tuple[TrainHistory, Path]:
    """Run ``train(log=, on_best=)``, logging to stdout and ``train.log``, then write ``history.jsonl``.

    ``stage{n}.ckpt`` holds ``trained`` as of each best epoch, and at the end, once the best is restored.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / f"stage{stage}.ckpt"
    with open(out_dir / "train.log", "w") as fh:
        def log(line: str) -> None:
            print(line)
            fh.write(line + "\n")
            fh.flush()

        history = train(log=log, on_best=lambda epoch: save_checkpoint(ckpt_path, *trained))
    save_checkpoint(ckpt_path, *trained)
    (out_dir / "history.jsonl").write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in history.records))
    return history, ckpt_path


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    r = _resolve(args)
    out_dir = Path(args.out)
    cfg = _build(SynthConfig, SYNTH_FLAGS, r, pages_per_doc=_parse_range(r["pages"], "pages"))
    fractions = _parse_fractions(r["fractions"])
    check_fractions(fractions)  # before any page is written
    dataset = gen_synthetic(cfg, out_dir)
    for part in split(dataset, fractions, seed=r["seed"]):
        write_annotations(part, out_dir / f"annotations.{part.split}.json")
    _write_manifest(args, out_dir, seeds={"corpus": r["seed"]},
                    config={"synth": asdict(cfg), "fractions": list(fractions)}, checkpoints={})
    pages = [doc.n_pages for doc in dataset.documents.values()]
    print(
        f"generated {len(dataset.documents)} documents / {dataset.n_questions} questions "
        f"into {out_dir} (pages per doc: {min(pages)}..{max(pages)})"
    )
    return 0


def cmd_train_vqa(args: argparse.Namespace) -> int:
    r = _resolve(args)
    train_set = _load_split(Path(args.data), "train")
    valid_set = _load_split(Path(args.data), "valid")
    model_cfg = _build(ModelConfig, MODEL_FLAGS, r)
    train_cfg = _build(TrainConfig, TRAIN_FLAGS, r, stage=1)
    out_dir = Path(args.out)
    model = VqaModel(model_cfg)
    history, ckpt_path = _train_run(out_dir, 1, partial(train_stage1, train_set, valid_set, model, train_cfg), model)
    _write_manifest(
        args, out_dir, seeds={"model": model_cfg.seed, "train": train_cfg.seed},
        config={"model": asdict(model_cfg), "train": asdict(train_cfg), "data": str(args.data)},
        checkpoints={"stage1": str(ckpt_path)},
    )
    print(f"best epoch {history.best_epoch}: valid ANLS {history.best_metric:.4f} -> {ckpt_path}")
    return 0


def cmd_train_scorer(args: argparse.Namespace) -> int:
    r = _resolve(args)
    ckpt_in = _require_path(Path(args.checkpoint), "stage-1 checkpoint")
    train_set = _load_split(Path(args.data), "train")
    valid_set = _load_split(Path(args.data), "valid")
    model, _ = load_checkpoint(ckpt_in)  # scorer namespace, if any, is ignored: fresh head per run
    scorer_cfg = _build(ScorerConfig, SCORER_FLAGS, r)
    scorer = SelfAttentionScorer(scorer_cfg, d_model=model.cfg.d_model, seed=r["scorer_seed"])
    train_cfg = _build(TrainConfig, STAGE2_FLAGS, r, stage=2)
    out_dir = Path(args.out)
    history, ckpt_path = _train_run(out_dir, 2, partial(train_stage2, train_set, valid_set, model, scorer, train_cfg),
                                    model, scorer)
    _write_manifest(
        args, out_dir, seeds={"scorer": r["scorer_seed"], "train": train_cfg.seed},
        config={
            "model": asdict(model.cfg),
            "scorer": asdict(scorer_cfg),
            "train": asdict(train_cfg),
            "data": str(args.data),
            "stage1_checkpoint": str(ckpt_in),
        },
        checkpoints={"stage1": str(ckpt_in), "stage2": str(ckpt_path)},
    )
    print(f"best epoch {history.best_epoch}: valid page accuracy {history.best_metric:.2f}% -> {ckpt_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model, scorer = _load_stage2(args.checkpoint)
    dataset = _load_split(Path(args.data), args.split)
    if not dataset.questions:
        raise DataError(f"the {args.split} split of {args.data} has no questions to evaluate")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = evaluate_dataset(dataset, model, scorer)
    metrics = report_from_records(records)
    with open(out_dir / "results.jsonl", "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    _write_manifest(
        args, out_dir, seeds={},
        config={"model": asdict(model.cfg), "scorer": asdict(scorer.cfg), "data": str(args.data), "split": args.split},
        checkpoints={"eval": str(Path(args.checkpoint))},
    )
    print(report_table(metrics))
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    if args.max_answer_len is not None and args.max_answer_len < 1:
        raise UsageError(f"--max-answer-len must be at least 1, got {args.max_answer_len}")
    model, scorer = _load_stage2(args.checkpoint)
    doc_dir = _require_path(Path(args.doc_dir), "document directory")
    pages = sorted(doc_dir.glob("*.pgm"))
    if not pages:
        raise UsageError(f"no .pgm pages in {doc_dir}")
    doc = Document(
        doc_id=doc_dir.name,
        pages=tuple(PageRef(page_id=p.stem, path=p) for p in pages),
    )
    page_idx, answer = answer_question(args.question, doc, model, scorer, args.max_answer_len)
    print(f"page {page_idx} ({pages[page_idx].name})")
    print(answer)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    r = _resolve(args)
    layer_grid = _parse_int_list(args.layers, "layers")
    head_grid = _parse_int_list(args.heads, "heads")
    if not layer_grid or not head_grid:
        raise UsageError(f"--layers {args.layers} x --heads {args.heads} is an empty grid")
    ckpt_in = _require_path(Path(args.checkpoint), "stage-1 checkpoint")
    train_set = _load_split(Path(args.data), "train")
    valid_set = _load_split(Path(args.data), "valid")
    train_cfg = _build(TrainConfig, STAGE2_FLAGS, r, stage=2)
    model, _ = load_checkpoint(ckpt_in)  # stage 2 never changes the model, so every cell shares it
    # Every cell's scorer is made before any trains, so a bad cell fails the sweep up front.
    scorers = [
        SelfAttentionScorer(_build(ScorerConfig, HEAD_FLAGS, r, n_sa_layers=n_layers, n_heads=n_heads),
                            d_model=model.cfg.d_model, seed=r["scorer_seed"])
        for n_layers in layer_grid for n_heads in head_grid
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    cache = FrozenFeatureCache(model)  # the model is frozen and shared, so every cell reads the same features
    cells = []
    for scorer in scorers:
        history = train_stage2(train_set, valid_set, model, scorer, train_cfg, cache=cache)
        metrics = report_from_records(evaluate_dataset(valid_set, model, scorer))
        cells.append({"sa_layers": scorer.cfg.n_sa_layers, "sa_heads": scorer.cfg.n_heads,
                      "page_accuracy_pct": metrics["page_accuracy_pct"], "anls": metrics["anls"],
                      "best_epoch": history.best_epoch})
        print("layers={sa_layers} heads={sa_heads}: page_acc={page_accuracy_pct:.2f}% anls={anls:.4f}"
              .format(**cells[-1]))
    (out_dir / "sweep.json").write_text(json.dumps(cells, indent=2, sort_keys=True) + "\n")
    with open(out_dir / "sweep.tsv", "w") as fh:
        fh.write("sa_layers\tsa_heads\tpage_accuracy_pct\tanls\n")
        for cell in cells:
            fh.write(f"{cell['sa_layers']}\t{cell['sa_heads']}\t{cell['page_accuracy_pct']:.2f}\t{cell['anls']:.4f}\n")
    _write_manifest(
        args, out_dir, seeds={"scorer": r["scorer_seed"], "train": train_cfg.seed},
        config={"train": asdict(train_cfg), "layers": layer_grid, "heads": head_grid, "data": str(args.data)},
        checkpoints={"stage1": str(ckpt_in)},
    )
    return 0


# Fields `report` reads from each results.jsonl record, with their JSON types (true and false are not numbers).
RESULT_FIELDS = {"doc_id": str, "doc_pages": int, "pred_page": int, "gold_page": int, "anls": (int, float)}


def _result_error(record, pages_by_doc: dict) -> str | None:
    """What makes ``record`` no result record, given the page counts of the documents seen so far; None if nothing."""
    if not isinstance(record, dict) or not all(
        isinstance(record.get(name), kind) and not isinstance(record.get(name), bool)
        for name, kind in RESULT_FIELDS.items()
    ):
        fields = ", ".join(f"{name} ({getattr(kind, '__name__', 'number')})" for name, kind in RESULT_FIELDS.items())
        return f"a result record is an object with {fields}"
    doc_id, doc_pages = record["doc_id"], record["doc_pages"]
    if doc_pages < 1:
        return f"doc_pages {doc_pages} is below 1"
    for name in ("pred_page", "gold_page"):
        if not 0 <= record[name] < doc_pages:
            return f"{name} {record[name]} is outside the {doc_pages} pages of document {doc_id!r}"
    if not 0.0 <= record["anls"] <= 1.0:  # NaN fails this too
        return f"anls {record['anls']} is not in [0, 1]"
    if pages_by_doc.setdefault(doc_id, doc_pages) != doc_pages:
        return f"document {doc_id!r} has doc_pages {doc_pages} here and {pages_by_doc[doc_id]} on an earlier line"
    return None


def _read_results(path: Path) -> list[dict]:
    """The records of a results.jsonl file; a line that is not one raises DataError naming it."""
    try:
        lines = path.read_text().splitlines()
    except (OSError, ValueError) as exc:  # a directory, or bytes that are not UTF-8
        raise DataError(f"cannot read results file {path}: {exc}") from None
    records, pages_by_doc = [], {}
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path} line {lineno}: not valid JSON: {exc}") from None
        if error := _result_error(record, pages_by_doc):
            raise DataError(f"{path} line {lineno}: {error}")
        records.append(record)
    return records


def cmd_report(args: argparse.Namespace) -> int:
    results_path = _require_path(Path(args.results), "results file")
    records = _read_results(results_path)
    if not records:
        raise PixqaError(f"results file {results_path} is empty")
    metrics = report_from_records(records)
    print(report_table(metrics))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        _write_manifest(args, out_dir, seeds={}, config={"results": str(results_path)}, checkpoints={})
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
    _add_flags(p, COMMAND_DEFAULTS["gen"])
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-vqa", help="stage 1: train the single-page VQA model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_flags(p, COMMAND_DEFAULTS["train-vqa"])
    p.set_defaults(func=cmd_train_vqa)

    p = sub.add_parser("train-scorer", help="stage 2: train the scoring head on a frozen model")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_flags(p, COMMAND_DEFAULTS["train-scorer"])
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
    _add_flags(p, COMMAND_DEFAULTS["sweep"])
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
    args.raw_argv, args.started = argv, time.perf_counter()
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PixqaError, OSError, MemoryError) as exc:  # OSError: an --out that is a file; MemoryError: sizes too large
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
