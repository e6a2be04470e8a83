"""Two-stage training.

Both stages run one epoch loop, `_fit`, and differ only in their stacks,
their loss and their validation. A batch is a run of stacks: `_fit` draws
a stack, builds its loss, backpropagates it and drops the stack and its
graph before the next stack is drawn, so one stack's graph is alive at a
time; the optimizer steps once per batch. A stack groups consecutive
samples of the batch by `evaluate.grid_stacks`, so its pages share a
shape. Every epoch's record carries its wall time, validation included,
as `epoch_s`, and its log line shows every field of the record.

Stage 1 fits the encoder-decoder on positive question-page pairs only,
selecting the epoch with the best validation answer similarity. A stack
holds up to `STACK_ROWS` patch rows of gold pages, and its loss is one
encoder call and one teacher-forced decoder call. Its gradients add up in
the order of the one-sample-at-a-time loop, so with answers of one length
per stack they are bit-identical to it. Validation stacks and greedily
decodes the gold pages the same way, without autograd.

Stage 2 freezes the model and fits the scoring head on balanced pairs:
each question contributes its gold page plus one page sampled uniformly
from the rest of the document (resampled every epoch); single-page
documents contribute only the positive pair. Scorer targets are
label-smoothed to 1-eps / eps and penalized with squared error. Each
question's negative and then each pair's dropout mask are drawn from the
epoch rng as the pairs are drawn. A stack holds up to `BLOCK_ROWS`
attention rows of same-shape frozen features, and its loss is one scorer
call, bit-identical to one per pair. All stage-2 features come from one
frozen-feature cache: a training page missing from it is encoded alone,
and a validation document with any page missing is encoded whole, in
blocks as retrieval does (`evaluate.page_features`). Validation scores
each question's pages in stacks grouped by the same rule, without
autograd; every score is the one its page gets alone. Every stage-2
record carries the frozen-feature cache's size, `cache_mib`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import Dataset, Document
from .errors import ConfigError, DataError, NumericError
from .evaluate import anls_single, encode_page, fuse_page, grid_stacks, page_features
from .model import BLOCK_ROWS, VqaModel
from .render import fuse_question_page  # noqa: F401  unused; perfbench/tests checks its tracer rebinds it here
from .render import stack_grids
from .scorer import SelfAttentionScorer

LogFn = Callable[[str], None]
# Patch rows of the gold pages in one stage-1 graph, at most: 4 desk pages of
# 39 patches. Larger stacks run faster still but hold more of the graph at once.
STACK_ROWS = 160
OPTIMIZERS = ("sgd", "adam")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        if not 0.0 < self.learning_rate < math.inf:  # NaN fails the comparison too
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be positive")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainHistory:
    records: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = float("-inf")


class Sgd:
    """Plain stochastic gradient descent with a fixed learning rate."""

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self, accumulated: int) -> None:
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

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, accumulated: int) -> None:
        self.t += 1
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            g /= accumulated
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            g_scaled = (1 - ADAM_BETA2) * g
            g_scaled *= g
            v += g_scaled
            update = m / (1 - ADAM_BETA1**self.t)  # lr * m_hat / (sqrt(v_hat) + eps)
            update *= self.lr
            denom = np.sqrt(v / (1 - ADAM_BETA2**self.t), out=g_scaled)
            denom += ADAM_EPS
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


def mse_smoothed_loss(pred: Tensor, is_positive, eps: float) -> Tensor:
    """Squared error against the label-smoothed target 1-eps (positive) or eps; elementwise for a stack's pages."""
    diff = pred + (-np.where(is_positive, 1.0 - eps, eps))
    return ag.mul(diff, diff)


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
    at once; every answer is the one its page gives in a stack of its own.
    """
    scores = []
    with ag.no_grad():
        for samples, grids in grid_stacks(_gold_pages(valid_set, valid_set.questions, model), BLOCK_ROWS):
            answers = model.generate_answers(model.encode_grid(stack_grids(grids)))
            scores += [anls_single(answer, sample.answers) for answer, sample in zip(answers, samples)]
    return float(np.mean(scores))


class FrozenFeatureCache:
    """Memoized encoder features for stage 2, where the encoder never changes.

    Trades memory for a large speedup: every epoch revisits the same
    positive pairs and validation pages. One dict holds every feature, keyed
    by the question's text and the page's image file, so splits whose ids
    clash (two corpora generated apart both number from 0) never read each
    other's features. `get` encodes a missing training page alone;
    `question_pages` encodes a document with any page missing in blocks and
    holds all its pages, replacing any `get` held with its same-bits block
    view. ``nbytes`` sums the bytes of the features held.
    """

    def __init__(self, model: VqaModel):
        self.model = model
        self._store: dict[tuple, Tensor] = {}

    @property
    def nbytes(self) -> int:
        return sum(feature.data.nbytes for feature in self._store.values())

    def get(self, sample, doc: Document, page_idx: int) -> Tensor:
        """One page's feature; a page not held yet is encoded alone."""
        key = sample.question, doc.pages[page_idx].path
        if key not in self._store:
            with ag.no_grad():
                self._store[key] = encode_page(sample.question, doc, page_idx, self.model)
        return self._store[key]

    def question_pages(self, sample, doc: Document) -> list[Tensor]:
        """Every page's feature of ``sample``'s document, in page order.

        A document with any page not held yet is encoded in blocks, as
        retrieval encodes it (`evaluate.page_features`), and every page of
        it is held as a view of its block.
        """
        keys = [(sample.question, page.path) for page in doc.pages]
        if not all(key in self._store for key in keys):
            with ag.no_grad():
                self._store.update(zip(keys, page_features(sample.question, doc, self.model)))
        return [self._store[key] for key in keys]


def validation_page_accuracy(valid_set: Dataset, scorer: SelfAttentionScorer, cache: FrozenFeatureCache) -> float:
    """Fraction (%) of validation questions whose top-scoring page is the gold one; page features come from `cache`.

    Each question's pages come from `cache.question_pages` and are scored
    without autograd in stacks of consecutive same-shape features, grouped
    as the training stacks are; each page's score is the one it gets alone.
    A question's first top score wins, `retrieve`'s tie rule. A non-finite
    score raises NumericError naming the question and page.
    """
    questions = valid_set.questions
    scores: list[list[float]] = [[] for _ in questions]

    def pages():
        """((question index, page index), feature) of every page of every question's document."""
        for q, sample in enumerate(questions):
            for i, feature in enumerate(cache.question_pages(sample, valid_set.document_for(sample))):
                yield (q, i), feature

    with ag.no_grad():
        for keys, features in grid_stacks(pages(), BLOCK_ROWS, size=scorer.stack_size):
            for (q, page_idx), value in zip(keys, scorer.score(ag.concat_rows(features)).data.tolist()):
                if not math.isfinite(value):
                    raise NumericError(f"validation question {questions[q].question_id}: page {page_idx} scored {value}")
                scores[q].append(value)
    hits = sum(s.index(max(s)) == sample.answer_page_index for s, sample in zip(scores, questions))
    return 100.0 * hits / len(questions)


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


def _fit(params: dict[str, Tensor], cfg: TrainConfig, n_train: int,
         batch_stacks: Callable[[np.ndarray, np.random.Generator], Iterable[tuple[tuple, tuple]]],
         stack_loss: Callable[[tuple, tuple], Tensor], validate: Callable[[list[float]], dict], log: LogFn | None,
         on_best: Callable[[int], None] | None) -> TrainHistory:
    """The epoch loop of both stages: stops `early_stop_patience` epochs after the best one, and restores it.

    A batch is a run of stacks: ``batch_stacks(indices, rng)`` yields the
    (keys, values) stacks of a batch of training questions, in order, and
    ``stack_loss(keys, values)`` is a stack's loss vector, one loss per
    optimizer sample. Each stack's loss is backpropagated, adding its gradients to
    ``params``, and the stack and its graph are dropped before the next
    stack is drawn, so one stack's graph is alive at a time; the optimizer
    steps once per batch. ``validate(losses)`` returns the epoch's
    validation fields, metric first.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = make_optimizer(cfg, params)
    history = TrainHistory()
    best_params = _snapshot(params)
    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = rng.permutation(n_train)
        losses = []
        for start in range(0, n_train, cfg.batch_size):
            done = len(losses)
            for keys, values in batch_stacks(order[start : start + cfg.batch_size], rng):
                loss = stack_loss(keys, values)
                loss.backward()
                losses += loss.data.tolist()
                del keys, values, loss  # nothing of this stack is alive while the next is drawn and run
            opt.step(len(losses) - done)
        validation = validate(losses)
        metric = next(iter(validation.values()))
        record = {"epoch": epoch, "train_loss": float(np.mean(losses)), **validation,
                  "epoch_s": time.perf_counter() - started}
        history.records.append(record)
        if log:
            log(f"stage{cfg.stage} epoch {epoch}: " + " ".join(
                f"{key}={value:.4f}" if isinstance(value, float) else f"{key}={value}"
                for key, value in record.items() if key != "epoch"))
        if metric > history.best_metric:
            history.best_metric = metric
            history.best_epoch = epoch
            best_params = _snapshot(params)
            if on_best:
                on_best(epoch)
        elif epoch - history.best_epoch >= cfg.early_stop_patience:
            break
    _restore(params, best_params)
    return history


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

    def stacks(indices, rng):
        return grid_stacks(_gold_pages(train_set, [train_set.questions[int(idx)] for idx in indices], model),
                           STACK_ROWS)

    def stack_loss(samples, grids) -> Tensor:
        return model.vqa_loss(model.encode_grid(stack_grids(grids)), [sample.answers[0] for sample in samples])

    return _fit(model.params, cfg, len(train_set.questions), stacks, stack_loss,
                lambda losses: {"valid_anls": validation_anls(valid_set, model)}, log, on_best)


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
    cache = FrozenFeatureCache(model) if cache is None else cache
    n_train = len(train_set.questions)

    def pairs(indices, rng):
        """((is positive, dropout mask), feature) of each pair of the batch, in order: positive, then negative."""
        for idx in indices:
            sample = train_set.questions[int(idx)]
            doc = train_set.document_for(sample)
            negative = sample_negative(doc, sample.answer_page_index, rng)
            for page_idx, is_positive in ((sample.answer_page_index, True), (negative, False)):
                if page_idx is not None:
                    feature = cache.get(sample, doc, page_idx)
                    yield (is_positive, scorer.dropout_keep(rng)), feature

    def stacks(indices, rng):
        return grid_stacks(pairs(indices, rng), BLOCK_ROWS, size=scorer.stack_size)

    def stack_loss(keys, features) -> Tensor:
        positives, keeps = zip(*keys)
        pred = scorer.score(ag.concat_rows(features), training=True, keep=None if keeps[0] is None else np.stack(keeps))
        return mse_smoothed_loss(pred, np.array(positives), cfg.label_smooth_eps)

    def validate(losses: list[float]) -> dict:
        # One positive pair per question; the other pairs are negatives.
        return {"valid_page_acc": validation_page_accuracy(valid_set, scorer, cache=cache),
                "n_pos_pairs": n_train, "n_neg_pairs": len(losses) - n_train, "cache_mib": cache.nbytes / 2**20}

    return _fit(scorer.params, cfg, n_train, stacks, stack_loss, validate, log, on_best)  # only scorer parameters step
