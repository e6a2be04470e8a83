#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Generates the synthetic corpus, trains both stages, evaluates on the test
split, runs the aggregation ablation, and prints a summary table. Everything
goes through the CLI so each step leaves a manifest and can be rerun by hand.

The settings of the gen, train-vqa and train-scorer steps are the `--config`
files in `scripts/desk/`, which the acceptance suite's desk run reads too; the
options below override them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from pixqa.cli import main as cli

DESK = Path(__file__).resolve().parent / "desk"


def run(command: str, *args: str, **overrides) -> None:
    """``pixqa command args``, with the command's desk config file if it has one and the given overrides."""
    config = DESK / f"{command}.json"
    argv = [command, *args, *(["--config", str(config)] if config.exists() else [])]
    argv += [f"--{dest.replace('_', '-')}={value}" for dest, value in overrides.items() if value is not None]
    code = cli(argv)
    if code != 0:
        sys.exit(f"step failed ({code}): {' '.join(argv)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/desk", help="experiment root directory")
    ap.add_argument("--seed", type=int, help="corpus and training seed (default: the desk files')")
    ap.add_argument("--docs", type=int, help="corpus size (default: desk/gen.json's)")
    ap.add_argument("--stage1-epochs", type=int, help="default: desk/train-vqa.json's")
    ap.add_argument("--stage2-epochs", type=int, help="default: desk/train-scorer.json's")
    ap.add_argument("--skip-ablation", action="store_true")
    opts = ap.parse_args()

    root = Path(opts.out)
    corpus = root / "corpus"
    t0 = time.time()

    run("gen", "--out", str(corpus), seed=opts.seed, docs=opts.docs)
    run("train-vqa", "--data", str(corpus), "--out", str(root / "stage1"), seed=opts.seed, epochs=opts.stage1_epochs)

    stage1_ckpt = root / "stage1" / "stage1.ckpt"
    aggregations = ["first"] if opts.skip_ablation else ["first", "cls", "avgpool"]
    summary = {"elapsed_s": None, "aggregation_ablation": {}}
    for agg in aggregations:
        out = root / f"stage2-{agg}"
        run("train-scorer", "--data", str(corpus), "--checkpoint", str(stage1_ckpt), "--out", str(out),
            aggregation=agg, seed=opts.seed, epochs=opts.stage2_epochs)
        run("eval", "--data", str(corpus), "--checkpoint", str(out / "stage2.ckpt"),
            "--out", str(root / f"eval-{agg}"), "--split", "test")
        metrics = json.loads((root / f"eval-{agg}" / "metrics.json").read_text())
        summary["aggregation_ablation"][agg] = {
            "page_accuracy_pct": metrics["page_accuracy_pct"],
            "anls": metrics["anls"],
        }

    summary["elapsed_s"] = round(time.time() - t0, 1)
    (root / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print("\naggregation ablation (test split):")
    print(f"{'method':<12} {'page acc (%)':>12} {'ANLS':>8}")
    for agg, row in summary["aggregation_ablation"].items():
        print(f"{agg:<12} {row['page_accuracy_pct']:>12.2f} {row['anls']:>8.4f}")
    print(f"\ntotal elapsed: {summary['elapsed_s']}s")


if __name__ == "__main__":
    main()
