"""Workloads: corpus shapes, set-up, and the one operation each workload repeats.

The workload seed decides the corpus content (keys, values, gold pages);
the shape (pages per document, questions per document, page size) is fixed
per workload, so runs with different seeds do the same amount of work.
Model and scorer weights come from a fixed-seed random init of the
acceptance desk configuration; per-call compute does not depend on weight
values, except that the number of decoder steps does, which the traced run
counts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from pixqa import checkpoint, evaluate, training
from pixqa.autograd import Tensor
from pixqa.checkpoint import save_checkpoint
from pixqa.data import Dataset, Document, QASample, SynthConfig, gen_synthetic, load_mpdocvqa
from pixqa.model import ModelConfig, VqaModel
from pixqa.scorer import ScorerConfig, SelfAttentionScorer
from pixqa.training import TrainConfig

VOCAB = "abcdefghijklmnopqrstuvwxyzABCDEF0123456789?: "
MODEL_CFG = ModelConfig(
    d_model=96, n_heads=8, n_enc_layers=2, n_dec_layers=2, d_ff=384,
    max_patches=2048, max_answer_len=8, vocab_chars=VOCAB, seed=0,
)
SCORER_CFG = ScorerConfig(n_sa_layers=1, n_heads=16, aggregation="first", dropout_p=0.1)
SCORER_SEED = 1
# The acceptance optimizer settings, cut to a few epochs; patience exceeds the
# epoch count, so early stopping cannot end a round early.
STAGE1_CFG = TrainConfig(stage=1, optimizer="adam", learning_rate=1e-3, weight_decay=0.01,
                         batch_size=16, max_epochs=2, early_stop_patience=3, seed=7)
STAGE2_CFG = TrainConfig(stage=2, optimizer="adam", learning_rate=2e-3,
                         batch_size=16, max_epochs=4, early_stop_patience=5, seed=7)


@dataclass(frozen=True)
class Shape:
    kind: str  # "qa": answer_question per question; "train": stage 1 then stage 2 per round
    page_counts: tuple[int, ...]  # pages of each document, in corpus order
    questions_per_doc: int
    page_width: int
    page_height: int


DESK_PAGES = (4, 5, 6, 7, 8)
WORKLOADS = {
    "qa-desk": Shape("qa", DESK_PAGES * 8, 5, 208, 32),
    "qa-long": Shape("qa", (650,) * 4, 2, 208, 32),
    "qa-paper": Shape("qa", (2,) * 2, 2, 512, 1024),
    # The first half of the documents is the training split, the second half validation.
    "train-desk": Shape("train", DESK_PAGES * 2, 3, 208, 32),
}


@dataclass(frozen=True)
class Item:
    sample: QASample
    doc: Document


@dataclass
class Context:
    shape: Shape
    items: list[Item]
    model: VqaModel
    scorer: SelfAttentionScorer
    train: Dataset | None = None
    valid: Dataset | None = None


def corpus_part(root: Path, index: int) -> Path:
    return root / f"d{index:03d}"


def generate_corpus(root: Path, shape: Shape, seed: int) -> None:
    """Write the workload's input: one synthetic corpus per document, so each has exactly its listed page count."""
    rng = np.random.default_rng(seed)
    for j, n_pages in enumerate(shape.page_counts):
        gen_synthetic(
            SynthConfig(
                n_documents=1, pages_per_doc=(n_pages, n_pages), facts_per_page=1,
                questions_per_doc=shape.questions_per_doc, key_alphabet="ABCDEF", key_len=3,
                value_alphabet="0123456789", value_len=4, page_width=shape.page_width,
                page_height=shape.page_height, seed=int(rng.integers(2**31)),
            ),
            corpus_part(root, j),
        )


def load_corpus(root: Path, shape: Shape) -> list[Item]:
    """Load every document's annotations, as `pixqa eval` loads a corpus; pages stay on disk."""
    items = []
    for j in range(len(shape.page_counts)):
        part = corpus_part(root, j)
        dataset = load_mpdocvqa(part / "annotations.json", part / "images")
        (doc,) = dataset.documents.values()
        doc = replace(doc, doc_id=part.name)  # corpora number their documents from 0
        for q in dataset.questions:
            items.append(Item(replace(q, question_id=f"{part.name}.q{q.question_id}", doc_id=doc.doc_id), doc))
    return items


def _dataset(split: str, items: list[Item]) -> Dataset:
    return Dataset(split, [it.sample for it in items], {it.doc.doc_id: it.doc for it in items})


def setup(name: str, work: Path) -> Context:
    """The program's set-up: load the corpus in `work`, init model and scorer, save and load a checkpoint."""
    shape = WORKLOADS[name]
    items = load_corpus(work / "corpus", shape)
    ckpt = work / "init.ckpt"
    save_checkpoint(ckpt, VqaModel(MODEL_CFG), SelfAttentionScorer(SCORER_CFG, MODEL_CFG.d_model, seed=SCORER_SEED))
    model, scorer = checkpoint.load_checkpoint(ckpt)
    ctx = Context(shape, items, model, scorer)
    if shape.kind == "train":
        n_train_docs = len(shape.page_counts) // 2
        train_docs = {f"d{j:03d}" for j in range(n_train_docs)}
        ctx.train = _dataset("train", [it for it in items if it.doc.doc_id in train_docs])
        ctx.valid = _dataset("valid", [it for it in items if it.doc.doc_id not in train_docs])
    return ctx


class ScoreTap:
    """Collects every page score the scorer returns, so answers can be checked page by page."""

    def __init__(self):
        self.scores: list[float] = []
        self._original = None

    def install(self) -> None:
        original = self._original = SelfAttentionScorer.score_value
        tap = self

        def score_value(scorer, feature):
            value = original(scorer, feature)
            tap.scores.append(value)
            return value

        SelfAttentionScorer.score_value = score_value

    def uninstall(self) -> None:
        SelfAttentionScorer.score_value = self._original


def answer(ctx: Context, item: Item, tap: ScoreTap) -> dict:
    """One question through retrieval and decoding; returns the outputs the check needs."""
    tap.scores = []
    page, text = evaluate.answer_question(item.sample.question, item.doc, ctx.model, ctx.scorer)
    return {"page": page, "answer": text, "scores": tap.scores}


def _fresh(params: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}


def train_round(ctx: Context) -> dict:
    """Stage 1 then stage 2 from the set-up weights; returns both training curves and stage wall times."""
    model = VqaModel(ctx.model.cfg, params=_fresh(ctx.model.params))
    scorer = SelfAttentionScorer(ctx.scorer.cfg, ctx.scorer.d_model, params=_fresh(ctx.scorer.params))
    t0 = time.perf_counter()
    h1 = training.train_stage1(ctx.train, ctx.valid, model, STAGE1_CFG)
    t1 = time.perf_counter()
    h2 = training.train_stage2(ctx.train, ctx.valid, model, scorer, STAGE2_CFG)
    t2 = time.perf_counter()
    return {
        "curves": {"stage1": h1.records, "stage2": h2.records},
        "stage1_s": t1 - t0,
        "stage2_s": t2 - t1,
        "samples": sum(len(ctx.train.questions) for _ in h1.records),
        "pairs": sum(r["n_pos_pairs"] + r["n_neg_pairs"] for r in h2.records),
    }


def steps_per_round(ctx: Context) -> int:
    """Optimizer steps one round takes: the unit training failures are counted in."""
    n = len(ctx.train.questions)
    return sum(math.ceil(n / cfg.batch_size) * cfg.max_epochs for cfg in (STAGE1_CFG, STAGE2_CFG))
