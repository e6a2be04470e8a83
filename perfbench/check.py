"""Output checks: comparison against a stored reference, and seed-independent invariants.

Each check returns a list of problems; an empty list means the output passed.

Tolerances:
- Page scores may differ from the reference by at most 1e-12 (absolute), the
  bound ROADMAP sets for exact speed-ups; predicted pages and answers must be
  identical.
- Training curves (per-epoch train loss and validation metric) may differ by
  at most 1e-9, relative to max(1, |reference|). A float64 run on the same
  BLAS reproduces them bit for bit; the slack absorbs last-bit differences
  from another BLAS kernel (CPU dispatch, thread split) carried through a
  handful of Adam steps, while any change of data order, sampling or loss is
  orders of magnitude larger.
"""

from __future__ import annotations

import math

SCORE_TOL = 1e-12
CURVE_TOL = 1e-9
CURVE_KEYS = ("train_loss", "valid_anls", "valid_page_acc", "n_pos_pairs", "n_neg_pairs")


def qa_invariants(out: dict, n_pages: int, vocab: str, max_answer_len: int) -> list[str]:
    """Checks that hold for any seed: finite scores in [0, 1], a page in range, a well-formed answer."""
    problems = []
    scores = out["scores"]
    if n_pages > 1 and len(scores) != n_pages:
        problems.append(f"{len(scores)} page scores for {n_pages} pages")
    bad = [s for s in scores if not (math.isfinite(s) and 0.0 <= s <= 1.0)]
    if bad:
        problems.append(f"{len(bad)} scores outside [0, 1] or non-finite, e.g. {bad[0]!r}")
    if not 0 <= out["page"] < n_pages:
        problems.append(f"page {out['page']} out of range for {n_pages} pages")
    elif n_pages > 1 and len(scores) == n_pages and out["page"] != scores.index(max(scores)):
        problems.append(f"page {out['page']} is not the first top-scoring page")
    answer = out["answer"]
    if len(answer) > max_answer_len:
        problems.append(f"answer {answer!r} longer than {max_answer_len}")
    stray = sorted(set(answer) - set(vocab))
    if stray:
        problems.append(f"answer {answer!r} has characters outside the vocabulary: {stray}")
    return problems


def compare_qa(out: dict, ref: dict) -> list[str]:
    """Identical page and answer, and every page score within SCORE_TOL of the reference."""
    problems = []
    if out["page"] != ref["page"]:
        problems.append(f"page {out['page']} != reference {ref['page']}")
    if out["answer"] != ref["answer"]:
        problems.append(f"answer {out['answer']!r} != reference {ref['answer']!r}")
    if len(out["scores"]) != len(ref["scores"]):
        problems.append(f"{len(out['scores'])} scores != reference {len(ref['scores'])}")
    else:
        diffs = [abs(a - b) for a, b in zip(out["scores"], ref["scores"])]
        bad = [d for d in diffs if not d <= SCORE_TOL]  # a NaN difference counts as bad
        if bad:
            problems.append(f"score differs from reference by {bad[0]:.3g} > {SCORE_TOL:g} "
                            f"({len(bad)} of {len(diffs)} pages)")
    return problems


def curve_invariants(curves: dict, n_train: int) -> list[str]:
    """Checks that hold for any seed: finite losses, metrics in range, every question trained on."""
    problems = []
    for stage, records in curves.items():
        for rec in records:
            where = f"{stage} epoch {rec['epoch']}"
            if not math.isfinite(rec["train_loss"]) or rec["train_loss"] < 0.0:
                problems.append(f"{where}: train_loss {rec['train_loss']!r}")
            if "valid_anls" in rec and not 0.0 <= rec["valid_anls"] <= 1.0:
                problems.append(f"{where}: valid_anls {rec['valid_anls']!r} outside [0, 1]")
            if "valid_page_acc" in rec and not 0.0 <= rec["valid_page_acc"] <= 100.0:
                problems.append(f"{where}: valid_page_acc {rec['valid_page_acc']!r} outside [0, 100]")
            if "n_pos_pairs" in rec and rec["n_pos_pairs"] != n_train:
                problems.append(f"{where}: {rec['n_pos_pairs']} positive pairs for {n_train} questions")
    return problems


def compare_curves(curves: dict, ref: dict) -> list[str]:
    """Every per-epoch record within CURVE_TOL of the reference."""
    problems = []
    for stage, ref_records in ref.items():
        records = curves.get(stage, [])
        if len(records) != len(ref_records):
            problems.append(f"{stage}: {len(records)} epochs != reference {len(ref_records)}")
            continue
        for rec, want in zip(records, ref_records):
            for key in CURVE_KEYS:
                if key not in want:
                    continue
                if not abs(rec[key] - want[key]) <= CURVE_TOL * max(1.0, abs(want[key])):
                    problems.append(f"{stage} epoch {want['epoch']}: {key} {rec[key]!r} != reference {want[key]!r}")
    return problems
