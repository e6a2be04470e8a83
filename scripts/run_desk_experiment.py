#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Generates the synthetic corpus, trains both stages, evaluates on the test
split, runs the aggregation ablation, and prints a summary table. Everything
goes through the CLI so each step leaves a manifest and can be rerun by hand.
`summary.json` holds the ablation, the total wall time and, under `phase_s`,
each step's `elapsed_s` from its manifest, keyed by the step's output
directory (`corpus`, `stage1`, `stage2-first`, `eval-first`, ...).

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


def run(command: str, out: Path, *args: str, **overrides) -> float:
    """``pixqa command --out out args``, with the command's desk config file if it has one and the given overrides.

    Returns the step's ``elapsed_s`` from the manifest it wrote.
    """
    config = DESK / f"{command}.json"
    argv = [command, "--out", str(out), *args, *(["--config", str(config)] if config.exists() else [])]
    argv += [f"--{dest.replace('_', '-')}={value}" for dest, value in overrides.items() if value is not None]
    code = cli(argv)
    if code != 0:
        sys.exit(f"step failed ({code}): {' '.join(argv)}")
    return json.loads((out / "manifest.json").read_text())["elapsed_s"]


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

    phase_s = {"corpus": run("gen", corpus, seed=opts.seed, docs=opts.docs),
               "stage1": run("train-vqa", root / "stage1", "--data", str(corpus), seed=opts.seed,
                             epochs=opts.stage1_epochs)}

    stage1_ckpt = root / "stage1" / "stage1.ckpt"
    aggregations = ["first"] if opts.skip_ablation else ["first", "cls", "avgpool"]
    summary = {"elapsed_s": None, "phase_s": phase_s, "aggregation_ablation": {}}
    for agg in aggregations:
        out = root / f"stage2-{agg}"
        phase_s[out.name] = run("train-scorer", out, "--data", str(corpus), "--checkpoint", str(stage1_ckpt),
                                aggregation=agg, seed=opts.seed, epochs=opts.stage2_epochs)
        phase_s[f"eval-{agg}"] = run("eval", root / f"eval-{agg}", "--data", str(corpus),
                                     "--checkpoint", str(out / "stage2.ckpt"), "--split", "test")
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
