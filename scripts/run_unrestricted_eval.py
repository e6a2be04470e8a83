#!/usr/bin/env python3
"""Unrestricted-page-count evaluation.

Generates a handful of very long documents (hundreds of pages), scores every
page of each against its question with a trained scorer, and reports the
gold-page rank plus peak additional memory, demonstrating that evaluation
streams one block of pages at a time no matter how long the document is.
"""

from __future__ import annotations

import argparse
import json
import tracemalloc
from pathlib import Path

from pixqa.checkpoint import load_checkpoint
from pixqa.cli import main as cli
from pixqa.data import load_mpdocvqa
from pixqa.evaluate import page_features, retrieve

# Pages like those of the desk corpus the checkpoint was trained on (see run_desk_experiment.py).
DESK_GEN = Path(__file__).resolve().parent / "desk" / "gen.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--checkpoint", required=True, help="stage-2 checkpoint")
    ap.add_argument("--out", default="runs/unrestricted")
    ap.add_argument("--docs", type=int, default=5)
    ap.add_argument("--pages", default="500:800")
    ap.add_argument("--seed", type=int, default=13)
    opts = ap.parse_args()

    root = Path(opts.out)
    corpus = root / "corpus"
    code = cli([
        "gen", "--out", str(corpus), "--config", str(DESK_GEN), "--seed", str(opts.seed), "--docs", str(opts.docs),
        "--pages", opts.pages, "--questions-per-doc", "1", "--fractions", "0,0,1",
    ])
    if code != 0:
        raise SystemExit(code)

    model, scorer = load_checkpoint(Path(opts.checkpoint))
    if scorer is None:
        raise SystemExit("checkpoint has no scorer parameters")
    dataset = load_mpdocvqa(corpus / "annotations.json", corpus / "images")

    results = []
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    for sample in dataset.questions:
        doc = dataset.document_for(sample)
        best_idx, _, scores = retrieve(doc.n_pages, page_features(sample.question, doc, model), scorer)
        gold_score = scores[sample.answer_page_index] if scores else None  # one page: not scored
        n_above_gold = sum(1 for v in scores if v > gold_score)
        results.append(
            {
                "question_id": sample.question_id,
                "doc_id": sample.doc_id,
                "pages": doc.n_pages,
                "gold_page": sample.answer_page_index,
                "top1": best_idx,
                "gold_rank": 1 + n_above_gold,
                "gold_score": gold_score,
                "top_score": scores[best_idx] if scores else None,
            }
        )
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    peak_mib = (peak - baseline) / (1024 * 1024)
    hits = sum(r["top1"] == r["gold_page"] for r in results)
    summary = {"results": results, "top1_hits": hits, "n_questions": len(results), "peak_additional_mib": round(peak_mib, 2)}
    root.mkdir(parents=True, exist_ok=True)
    (root / "unrestricted.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"{'doc':<10} {'pages':>6} {'gold':>5} {'top1':>5} {'gold rank':>9}")
    for r in results:
        print(f"{r['doc_id']:<10} {r['pages']:>6} {r['gold_page']:>5} {r['top1']:>5} {r['gold_rank']:>9}")
    print(f"\ntop-1 hits: {hits}/{len(results)}; peak additional memory: {peak_mib:.1f} MiB")


if __name__ == "__main__":
    main()
