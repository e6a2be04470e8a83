"""Two-stage training.

Stage 1 fits the encoder-decoder on positive question-page pairs only,
selecting the epoch with the best validation answer similarity. It walks
each optimizer batch in order and groups consecutive samples whose gold
pages share a patch grid into stacks of up to `STACK_ROWS` patch rows
(`evaluate.grid_stacks`); each stack is one encoder call, one
teacher-forced decoder call and one backward, and the next stack is built
only after that backward, so one stack's graph is alive at a time. Its
gradients add up in the order of the one-sample-at-a-time loop, so with
answers of one length per stack they are bit-identical to it. Validation
stacks and greedily decodes the gold pages the same way, without autograd.

Stage 2 freezes the model and fits the scoring head on balanced pairs:
each question contributes its gold page plus one page sampled uniformly
from the rest of the document (resampled every epoch); single-page
documents contribute only the positive pair. Scorer targets are
label-smoothed to 1-eps / eps and penalized with squared error.

Every epoch's record, in both stages, carries its wall time, validation
included, as `epoch_s`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Dataset, Document
from .errors import ConfigError, DataError
from .evaluate import BLOCK_ROWS, anls_single, encode_page, encode_stack, fuse_page, grid_stacks, retrieve
from .layers import ATTENTION_TILE
from .model import EncoderFeature, VqaModel
from .render import fuse_question_page  # noqa: F401  unused; perfbench/tests checks its tracer rebinds it here
from .scorer import SelfAttentionScorer

LogFn = Callable[[str], None]
# Patch rows of the gold pages in one stage-1 graph, at most: 4 desk pages of
# 39 patches. Larger stacks run faster still but hold more of the graph at once.
STACK_ROWS = 160
OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.3
    batch_size: int = 8
    max_epochs: int = 60
    early_stop_patience: int = 5
    label_smooth_eps: float = 0.1
    seed: int = 0
    stage: int = 1
    optimizer: str = "sgd"
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")
        if not 0.0 <= self.label_smooth_eps < 0.5:
            raise ConfigError("label_smooth_eps must lie in [0, 0.5) so targets stay ordered")
        if self.stage not in (1, 2):
            raise ConfigError(f"stage must be 1 or 2, got {self.stage}")
        if self.learning_rate <= 0 or self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("learning_rate, batch_size and max_epochs must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.weight_decay < 0.0:
            raise ConfigError("weight_decay must be >= 0")


@dataclass
class TrainHistory:
    records: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = float("-inf")


class Sgd:
    """Plain stochastic gradient descent with a fixed learning rate."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, accumulated: int) -> None:
        if accumulated < 1:
            return
        for p in self.params.values():
            if p.grad is not None:
                if self.weight_decay:
                    p.data *= 1.0 - self.lr * self.weight_decay
                g = p.grad  # dropped below, so scaled in place: (lr * grad) / accumulated
                g *= self.lr
                g /= accumulated
                p.data -= g
                p.grad = None


class Adam:
    """Adam with decoupled weight decay (applied only to stepped parameters).

    The moments are updated in place and each step's temporaries reuse one
    another's buffers; the arithmetic and its order are those of the
    textbook formulas, so the result is bit-identical to them.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, accumulated: int) -> None:
        if accumulated < 1:
            return
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            g /= accumulated
            m, v = self.m[name], self.v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            g_scaled = (1 - self.beta2) * g
            g_scaled *= g
            v += g_scaled
            update = m / (1 - self.beta1**self.t)  # lr * m_hat / (sqrt(v_hat) + eps)
            update *= self.lr
            denom = np.sqrt(v / (1 - self.beta2**self.t), out=g_scaled)
            denom += self.eps
            update /= denom
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= update
            p.grad = None


def make_optimizer(cfg: TrainConfig, params: dict[str, Tensor]):
    if cfg.optimizer == "adam":
        return Adam(params, cfg.learning_rate, cfg.weight_decay)
    return Sgd(params, cfg.learning_rate, cfg.weight_decay)


def sample_negative(doc: Document, positive_idx: int, rng: np.random.Generator) -> int | None:
    """Uniform page index != positive_idx, or None for single-page documents."""
    if doc.n_pages < 2:
        return None
    idx = int(rng.integers(doc.n_pages - 1))
    return idx + 1 if idx >= positive_idx else idx


def mse_smoothed_loss(pred, is_positive: bool, eps: float):
    """Squared error against the label-smoothed target 1-eps (positive) or eps."""
    target = 1.0 - eps if is_positive else eps
    if isinstance(pred, Tensor):
        return ag.powc(pred + (-target), 2.0)
    return float((pred - target) ** 2)


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in params.items()}


def _restore(params: dict[str, Tensor], snap: dict[str, np.ndarray]) -> None:
    for k, p in params.items():
        p.data = snap[k].copy()


def _gold_pages(dataset: Dataset, questions: list, model: VqaModel):
    """(sample, fused gold-page grid) for each of ``questions``, in order, fused as they are drawn."""
    for sample in questions:
        yield sample, fuse_page(sample.question, dataset.document_for(sample), sample.answer_page_index, model)


def validation_anls(valid_set: Dataset, model: VqaModel) -> float:
    """Single-page answer quality: decode each question's gold page.

    The gold pages are stacked as retrieval stacks its blocks (up to
    `BLOCK_ROWS` patch rows) and each stack is encoded and greedily decoded
    at once; every answer is the one its page gives alone.
    """
    scores = []
    with ag.no_grad():
        for stack in grid_stacks(_gold_pages(valid_set, valid_set.questions, model), BLOCK_ROWS):
            samples, grids = zip(*stack)
            answers = model.generate_answers(encode_stack(list(grids), model))
            scores += [anls_single(answer, sample.answers) for answer, sample in zip(answers, samples)]
    return float(np.mean(scores))


def _decoder_exceeds_tile(sample) -> bool:
    """Whether the sample's teacher-forced decoder rows (answer plus EOS) overflow one attention tile."""
    return len(sample.answers[0]) + 1 > ATTENTION_TILE


def _stage1_stack(model: VqaModel, stack: list) -> list[float]:
    """Loss and backward of one stack of (sample, gold-page grid) pairs; returns each sample's loss.

    The graph lives only inside this call, so it is freed before the caller
    builds the next stack.
    """
    samples, grids = zip(*stack)
    answers = [sample.answers[0] for sample in samples]
    loss = model.vqa_loss(encode_stack(list(grids), model), answers if len(answers) > 1 else answers[0])
    loss.backward()
    return np.atleast_1d(loss.data).tolist()


class FrozenFeatureCache:
    """Memoized encoder features for stage 2, where the encoder never changes.

    Keyed by (question_id, page index). Trades memory for a large speedup:
    every epoch revisits the same positive pairs and validation pages.
    """

    def __init__(self, model: VqaModel):
        self.model = model
        self._store: dict[tuple, EncoderFeature] = {}

    def get(self, sample, doc: Document, page_idx: int) -> EncoderFeature:
        key = (sample.question_id, doc.doc_id, page_idx)
        feature = self._store.get(key)
        if feature is None:
            with ag.no_grad():
                feature = encode_page(sample.question, doc, page_idx, self.model)
            self._store[key] = feature
        return feature


def validation_page_accuracy(
    valid_set: Dataset,
    model: VqaModel,
    scorer: SelfAttentionScorer,
    cache: FrozenFeatureCache,
) -> float:
    """Fraction (%) of validation questions whose top-scoring page is the gold one.

    Page features come from `cache`, which holds `model`'s features.
    """
    hits = 0
    for sample in valid_set.questions:
        doc = valid_set.document_for(sample)
        best_idx, _, _ = retrieve(doc.n_pages, (cache.get(sample, doc, i) for i in range(doc.n_pages)), scorer)
        hits += best_idx == sample.answer_page_index
    return 100.0 * hits / len(valid_set.questions)


def check_answers(dataset: Dataset, model: VqaModel) -> None:
    """Raise DataError naming the first question whose training answer the decoder cannot emit."""
    limit = model.cfg.max_answer_len
    for sample in dataset.questions:
        answer = sample.answers[0]
        unknown = sorted(set(answer) - set(model.vocab.chars))
        if unknown:
            raise DataError(
                f"question {sample.question_id}: answer {answer!r} has characters outside the vocabulary: {unknown}"
            )
        if len(answer) > limit:
            raise DataError(
                f"question {sample.question_id}: answer {answer!r} has {len(answer)} characters, "
                f"max_answer_len is {limit}"
            )


def check_splits(train_set: Dataset, valid_set: Dataset, stage: int) -> None:
    """Raise DataError naming a split without questions.

    Without validation questions stage 1's metric is NaN on every epoch, so
    it would keep and save the untrained weights, and stage 2's page
    accuracy would divide by zero.
    """
    for name, dataset in (("training", train_set), ("validation", valid_set)):
        if not dataset.questions:
            raise DataError(f"stage-{stage} training needs questions, and the {name} split ({dataset.split!r}) has none")


def train_stage1(
    train_set: Dataset,
    valid_set: Dataset,
    model: VqaModel,
    cfg: TrainConfig,
    log: LogFn | None = None,
    on_best: Callable[[int], None] | None = None,
) -> TrainHistory:
    """Fit the encoder-decoder on gold pages; keep the best-validation epoch.

    Both splits must have questions (see `check_splits`), and every training
    answer is checked against the vocabulary and ``max_answer_len`` (see
    `check_answers`), before the first epoch.
    """
    if cfg.stage != 1:
        raise ConfigError("train_stage1 needs a stage-1 TrainConfig")
    check_splits(train_set, valid_set, stage=1)
    check_answers(train_set, model)
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg, model.params)
    history = TrainHistory()
    best_params = _snapshot(model.params)

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_set.questions))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_set.questions[int(idx)] for idx in order[start : start + cfg.batch_size]]
            for stack in grid_stacks(_gold_pages(train_set, batch, model), STACK_ROWS, alone=_decoder_exceeds_tile):
                losses += _stage1_stack(model, stack)
            opt.step(len(batch))
        valid_metric = validation_anls(valid_set, model)
        record = {"epoch": epoch, "train_loss": float(np.mean(losses)), "valid_anls": valid_metric,
                  "epoch_s": time.perf_counter() - started}
        history.records.append(record)
        if log:
            log(f"stage1 epoch {epoch}: train_loss={record['train_loss']:.4f} valid_anls={valid_metric:.4f} "
                f"epoch_s={record['epoch_s']:.2f}")
        if valid_metric > history.best_metric:
            history.best_metric = valid_metric
            history.best_epoch = epoch
            best_params = _snapshot(model.params)
            if on_best:
                on_best(epoch)
        elif epoch - history.best_epoch >= cfg.early_stop_patience:
            break
    _restore(model.params, best_params)
    return history


def train_stage2(
    train_set: Dataset,
    valid_set: Dataset,
    model: VqaModel,
    scorer: SelfAttentionScorer,
    cfg: TrainConfig,
    log: LogFn | None = None,
    on_best: Callable[[int], None] | None = None,
    cache: FrozenFeatureCache | None = None,
) -> TrainHistory:
    """Fit the scoring head on balanced positive/negative pairs; model frozen.

    Both splits must have questions (see `check_splits`). Page features come
    from `cache`, a fresh one by default; runs that share one frozen
    `model`, like a sweep's cells, may share one cache of its features.
    """
    if cfg.stage != 2:
        raise ConfigError("train_stage2 needs a stage-2 TrainConfig")
    check_splits(train_set, valid_set, stage=2)
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg, scorer.params)  # only scorer parameters ever step
    history = TrainHistory()
    best_params = _snapshot(scorer.params)
    cache = FrozenFeatureCache(model) if cache is None else cache

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(len(train_set.questions))
        losses = []
        n_pos = n_neg = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            accumulated = 0
            for idx in batch:
                sample = train_set.questions[int(idx)]
                doc = train_set.document_for(sample)
                pairs = [(sample.answer_page_index, True)]
                negative = sample_negative(doc, sample.answer_page_index, rng)
                if negative is not None:
                    pairs.append((negative, False))
                for page_idx, is_positive in pairs:
                    feature = cache.get(sample, doc, page_idx)
                    pred = scorer.score(feature, training=True, rng=rng)
                    loss = mse_smoothed_loss(pred, is_positive, cfg.label_smooth_eps)
                    loss.backward()
                    losses.append(float(loss.data))
                    accumulated += 1
                    n_pos += is_positive
                    n_neg += not is_positive
            opt.step(accumulated)
        valid_metric = validation_page_accuracy(valid_set, model, scorer, cache=cache)
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "valid_page_acc": valid_metric,
            "n_pos_pairs": n_pos,
            "n_neg_pairs": n_neg,
            "epoch_s": time.perf_counter() - started,
        }
        history.records.append(record)
        if log:
            log(
                f"stage2 epoch {epoch}: train_loss={record['train_loss']:.5f} "
                f"valid_page_acc={valid_metric:.2f}% (pairs +{n_pos}/-{n_neg}) epoch_s={record['epoch_s']:.2f}"
            )
        if valid_metric > history.best_metric:
            history.best_metric = valid_metric
            history.best_epoch = epoch
            best_params = _snapshot(scorer.params)
            if on_best:
                on_best(epoch)
        elif epoch - history.best_epoch >= cfg.early_stop_patience:
            break
    _restore(scorer.params, best_params)
    return history
