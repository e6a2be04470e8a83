"""Inference pipeline and metrics.

Retrieval streams a document's pages through one pipeline: load a page,
fuse the question on top of it, encode it, score it. `page_features` is
that stream: it encodes the pages in blocks (consecutive pages that share a
patch grid are stacked, up to `BLOCK_ROWS` patch rows, and encoded in one
`encode_grid` call, which pays each op's per-call cost once per block
instead of once per page) and yields each page's feature, a stack of one,
in page order; stage 2's frozen-feature cache takes a validation
question's features from it too. `grid_stacks` is that grouping rule,
which stage-1 training and its validation use too, and stage 2 for the
scorer's stacks of frozen features; `encode_page` encodes one page as a
stack of one, which the frozen-feature cache uses for a training page.
`retrieve` scores a stream of features one at a time and keeps the
top-1. Retrieval runs without autograd, and the answer is decoded from
the feature it retrieved, so no page is encoded twice. Only one block
plus the best feature so far (a view that keeps its block's features)
is alive at a time, so peak memory stays bounded no matter how long the
document is.

Answer quality uses normalized Levenshtein similarity averaged over
questions (scores whose normalized distance reaches the threshold count
as zero); retrieval quality uses top-1 page accuracy. `evaluate_dataset`
writes one result record per question, and every reported metric is
computed from those records alone, by `report_from_records`.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from typing import TypeVar

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Dataset, Document
from .errors import NumericError
from .model import BLOCK_ROWS, VqaModel, fills_block
from .render import PatchGrid, fuse_question_page, stack_grids
from .scorer import SelfAttentionScorer

ANLS_TAU = 0.5

K = TypeVar("K")
V = TypeVar("V")


# ----------------------------------------------------------------------------
# String metrics
# ----------------------------------------------------------------------------

def levenshtein(a: str, b: str) -> int:
    """Minimum single-character insertions, deletions and substitutions."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _normalize_answer(s: str) -> str:
    return s.strip().lower()


def anls_single(pred: str, gts: Iterable[str]) -> float:
    """Best normalized-similarity match of a prediction against ground truths."""
    gts = list(gts)
    if not gts:
        raise ValueError("at least one ground-truth answer is required")
    p = _normalize_answer(pred)
    best = 0.0
    for gt in gts:
        g = _normalize_answer(gt)
        denom = max(len(p), len(g))
        nl = 0.0 if denom == 0 else levenshtein(p, g) / denom
        best = max(best, 1.0 - nl if nl < ANLS_TAU else 0.0)
    return best


# ----------------------------------------------------------------------------
# Retrieval pipeline
# ----------------------------------------------------------------------------

def fuse_page(question: str, doc: Document, index: int, model: VqaModel) -> PatchGrid:
    """Load page `index` of `doc` and fuse the question on top of it."""
    img = doc.load_page(index)
    return fuse_question_page(question, img, patch_size=model.cfg.patch_size, max_patches=model.cfg.max_patches)


def grid_size(grid: PatchGrid) -> tuple[tuple[int, int], int]:
    """A grid's shape, which its stack mates share, and its patch rows."""
    return (grid.rows, grid.cols), grid.n_patches


def grid_stacks(
    items: Iterable[tuple[K, V]], max_rows: int, size: Callable[[V], tuple[tuple, int]] = grid_size,
) -> Iterator[tuple[tuple[K, ...], tuple[V, ...]]]:
    """Group consecutive (key, grid) pairs into stacks that one `encode_grid` call can take.

    Each stack is yielded as two tuples in draw order: its keys and its
    grids. A stack's grids share a shape, and it holds at most `max_rows`
    patch rows, so a grid of more than half of them is a stack of its own;
    attention tiles a stack of any length. Pairs are drawn one at a time:
    a full stack is yielded before the next pair is drawn, and a pair whose
    shape ends a stack starts the next one, so every pair is drawn once.
    The same rule stacks other values, such as stage 2's page features for
    the scorer: `size` gives a value's shape and rows.
    """
    # A stack is handed over, not kept: while the generator waits it holds
    # no grid of the stack it yielded, so a consumer that drops the stack
    # frees its grids before the next page is fused (a 2048-patch grid is 4 MiB).
    def hand_over(stack: list) -> tuple[tuple, tuple]:
        keys, values = zip(*stack)
        stack.clear()
        return keys, values

    stack: list[tuple[K, V]] = []
    stack_shape = None
    for key, value in items:
        shape, rows = size(value)
        if stack and shape != stack_shape:
            yield hand_over(stack)
        stack.append((key, value))
        stack_shape = shape
        del key, value
        if fills_block(len(stack), rows, max_rows):
            yield hand_over(stack)
    if stack:
        yield hand_over(stack)


def encode_page(question: str, doc: Document, index: int, model: VqaModel) -> Tensor:
    """Load page `index` of `doc`, fuse the question on top of it and encode the result.

    Autograd follows the caller. Only `FrozenFeatureCache` and the tests
    call it: stage 1 trains on stacks of grids.
    """
    return model.encode_grid(fuse_page(question, doc, index, model))


def page_features(question: str, doc: Document, model: VqaModel) -> Iterator[Tensor]:
    """Each page of `doc` with `question` fused on top, encoded, in page order: `retrieve`'s feature stream.

    Pages are loaded and fused lazily and grouped into blocks by
    `grid_stacks` (a shared grid shape, within `BLOCK_ROWS` patch rows);
    each block is one `encode_grid` call. Each page is yielded as a
    one-page view of the block's array, with no graph. A block's grids are
    freed before its first feature is handed out, and no handed-out
    feature is kept, so the consumer decides which features stay alive.
    """
    pages = ((index, fuse_page(question, doc, index, model)) for index in range(doc.n_pages))
    for _, grids in grid_stacks(pages, BLOCK_ROWS):
        feature = model.encode_grid(stack_grids(grids))
        features = [Tensor(feature.data[i : i + 1]) for i in range(len(grids))]
        del grids, feature
        while features:
            yield features.pop(0)


def retrieve(features: Iterable[Tensor], scorer: SelfAttentionScorer) -> tuple[int, Tensor, list[float]]:
    """Score every feature of `features`, in page order; keep the top-1.

    Returns the best page index, its feature and every page's score. Only the
    best feature is kept while the other pages stream past, and a tie goes
    to the lowest index. An empty stream raises ValueError. Runs without
    autograd, the stream's own work included.
    """
    stream = iter(features)
    best_idx, best_feature, scores = 0, None, []
    with ag.no_grad():
        while (feature := next(stream, None)) is not None:
            value = scorer.score_value(feature)
            if not math.isfinite(value):
                raise NumericError(f"page {len(scores)} scored {value}")
            if not scores or value > scores[best_idx]:
                best_idx, best_feature = len(scores), feature
            scores.append(value)
            del feature
    if not scores:
        raise ValueError("cannot retrieve from a document without pages")
    return best_idx, best_feature, scores


def answer_question(
    question: str,
    doc: Document,
    model: VqaModel,
    scorer: SelfAttentionScorer,
    max_answer_len: int | None = None,
) -> tuple[int, str]:
    """Retrieve the best page, then decode the answer from its feature alone."""
    best, feature, _ = retrieve(page_features(question, doc, model), scorer)
    return best, model.generate_answer(feature, max_answer_len)


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

def evaluate_dataset(dataset: Dataset, model: VqaModel, scorer: SelfAttentionScorer) -> list[dict]:
    """Run the full pipeline over a dataset; one result record per question."""
    if not dataset.questions:
        raise ValueError("cannot evaluate an empty dataset")
    records: list[dict] = []
    for sample in dataset.questions:
        doc = dataset.document_for(sample)
        pred_page, pred_answer = answer_question(sample.question, doc, model, scorer)
        records.append({"question_id": sample.question_id, "doc_id": sample.doc_id, "pred_page": pred_page,
                        "gold_page": sample.answer_page_index, "pred_answer": pred_answer,
                        "anls": anls_single(pred_answer, sample.answers), "doc_pages": doc.n_pages})
    return records


def report_from_records(records: list[dict]) -> dict:
    """A run's metrics from its result records (as `evaluate_dataset` emits them).

    This is the object metrics.json and report.json hold: ANLS, top-1 page
    accuracy, the question count, the (page correct?) x (answer exact?)
    quadrants in the order their `order` names, and how many documents
    have each page count, in ascending page count.
    """
    if not records:
        raise ValueError("no result records")
    counts = [0, 0, 0, 0]
    for r in records:
        counts[2 * (r["pred_page"] != r["gold_page"]) + (r["anls"] < 1.0)] += 1
    pages_by_doc = {r["doc_id"]: r["doc_pages"] for r in records}
    return {
        "anls": float(np.mean([r["anls"] for r in records])),
        "page_accuracy_pct": 100.0 * sum(r["pred_page"] == r["gold_page"] for r in records) / len(records),
        "n_questions": len(records),
        "quadrants": {
            "counts": counts,
            "percentages": [round(100.0 * c / len(records), 2) for c in counts],
            "order": ["page_ok_exact", "page_ok_partial", "page_bad_exact", "page_bad_partial"],
        },
        "page_histogram": {str(k): v for k, v in sorted(Counter(pages_by_doc.values()).items())},
    }


def report_table(metrics: dict) -> str:
    """The metrics of `report_from_records` as the table `eval` and `report` print."""
    q = metrics["quadrants"]
    lines = [
        f"questions            {metrics['n_questions']}",
        f"ANLS                 {metrics['anls']:.4f}",
        f"page accuracy (%)    {metrics['page_accuracy_pct']:.2f}",
        "quadrants (count / %):",
    ]
    labels = ("page ok, answer exact", "page ok, answer partial",
              "page bad, answer exact", "page bad, answer partial")
    for label, count, pct in zip(labels, q["counts"], q["percentages"]):
        lines.append(f"  {label:<26} {count:>6} / {pct:.2f}")
    lines.append("page histogram (pages: documents):")
    for pages, docs in metrics["page_histogram"].items():
        lines.append(f"  {pages:>4}: {docs}")
    return "\n".join(lines)
