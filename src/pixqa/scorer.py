"""Self-attention scoring head: encoder feature -> page relevance in [0, 1].

The head takes pages' features as the encoder returns them, a (pages,
length, d_model) ``Tensor``, runs one or more bare self-attention layers
over each page (no positional encoding of its own), pools each page's
output sequence to a single vector, and squashes it through a small MLP
ending in a logistic unit. Three pooling strategies are supported; taking
the first output vector is the default.

With ``first`` or ``cls`` pooling (``cls`` prepends a learned token) the
last self-attention layer attends from row 0 only: row 0 is its single
query and the whole sequence its keys and values, and its one output row
is the pooled vector. Each attention output row depends only on its own
query row, so the score and every gradient are those of full attention
followed by taking row 0, at O(length) cost instead of O(length^2) per
head. ``avgpool`` averages the last layer's output rows; earlier layers,
and the last layer under ``avgpool``, attend from every row.

``score`` computes each page of a stack as it would be in a stack of its
own: row 0 of each page is its query, the ``cls`` token is prepended to
each page, and ``avgpool`` averages each page's rows. Gradients of a stack
are added page by page (see ``autograd._accum``), so stage-2 training
scores and backpropagates a batch's pairs in a few stacked calls,
bit-identical to one call per pair. Dropout masks are drawn apart from the
call (``dropout_keep``, one per page), so the caller fixes the order of its
random draws.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError
from .layers import ParamEntry, attention_table, glorot, init_params, linear, multi_head_attention, normal, zeros

AGGREGATIONS = ("first", "cls", "avgpool")
FIRST_ROW = np.s_[:, :1, :]  # row 0 of each page of a stack


@dataclass(frozen=True)
class ScorerConfig:
    n_sa_layers: int = 1
    n_heads: int = 16
    aggregation: str = "first"
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.n_sa_layers < 1:
            raise ConfigError("scorer needs at least one self-attention layer")
        if self.n_heads < 1:
            raise ConfigError(f"scorer needs at least one head, got {self.n_heads}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"aggregation must be one of {AGGREGATIONS}, got {self.aggregation!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")


class SelfAttentionScorer:
    """Relevance head over frozen encoder features."""

    def __init__(self, cfg: ScorerConfig, d_model: int, seed: int = 0, params: dict[str, Tensor] | None = None):
        if d_model % cfg.n_heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by scorer heads {cfg.n_heads}")
        if seed < 0:
            raise ConfigError(f"scorer seed must be non-negative, got {seed}")
        self.cfg = cfg
        self.d_model = d_model
        self.params = params if params is not None else init_params(self.param_table(cfg, d_model), seed)

    @staticmethod
    def param_table(cfg: ScorerConfig, d_model: int) -> Iterator[ParamEntry]:
        """Name, shape and initializer of every parameter, in draw order, allocating nothing."""
        for i in range(cfg.n_sa_layers):
            yield from attention_table(f"sa.{i}", d_model)
        yield "cls", (1, d_model), normal(0.02)
        fan_in = d_model
        for j, width in enumerate((d_model, max(1, d_model // 2), 1), start=1):  # the MLP's output widths
            yield from [(f"head.w{j}", (fan_in, width), glorot), (f"head.b{j}", (width,), zeros)]
            fan_in = width

    def attention_inputs(self, feature: Tensor) -> Tensor:
        """The sequence the scorer's self-attention actually sees: under ``cls``, the token prepended to each page."""
        if self.cfg.aggregation != "cls":
            return feature
        # One token per page: its gradient is added page by page.
        token = ag.add(np.zeros((feature.shape[0], 1, 1)), self.params["cls"])
        return ag.concat_rows([token, feature], axis=-2)

    def stack_size(self, feature: Tensor) -> tuple[tuple[int, ...], int]:
        """A one-page feature's shape, which its stack mates share, and its attention rows (with the ``cls`` token).

        The `size` that `evaluate.grid_stacks` takes to stack one-page features; a stack's
        features joined along the page axis (`autograd.concat_rows`) are one ``score`` call.
        """
        return feature.shape, feature.shape[-2] + (self.cfg.aggregation == "cls")

    def dropout_keep(self, rng: np.random.Generator) -> np.ndarray | None:
        """One page's inverted-dropout scale of the pooled vector, (1, d_model), drawn from ``rng``; None without dropout."""
        p = self.cfg.dropout_p
        if p == 0.0:
            return None
        return (rng.random((1, self.d_model)) >= p) / (1.0 - p)

    def score(self, feature: Tensor, training: bool = False, keep: np.ndarray | None = None) -> Tensor:
        """Matching score in [0, 1] of each page of a (pages, length, d_model) feature: shape (pages,).

        Deterministic unless training: with dropout configured, a training
        call scales each page's pooled vector by ``keep``, the pages'
        `dropout_keep` draws stacked along the page axis.
        """
        if feature.data.ndim != 3:
            raise ValueError(f"a feature is a (pages, length, d_model) stack, got shape {feature.shape}")
        cfg, p = self.cfg, self.params
        x = self.attention_inputs(feature)
        last = cfg.n_sa_layers - 1
        for i in range(cfg.n_sa_layers):
            queries = x
            if i == last and cfg.aggregation in ("first", "cls"):
                queries = ag.take_rows(x, FIRST_ROW)  # row 0's output is the pooled vector
            x = multi_head_attention(queries, x, p, f"sa.{i}", cfg.n_heads)
        pooled = ag.mul(ag.sum_axis(x, axis=-2, keepdims=True), 1.0 / x.shape[-2]) if cfg.aggregation == "avgpool" else x
        if training and cfg.dropout_p > 0.0:
            if keep is None:
                raise ValueError("training-mode scoring needs each page's dropout mask (dropout_keep)")
            pooled = ag.mul(pooled, keep)
        h = ag.relu(linear(pooled, p["head.w1"], p["head.b1"]))
        h = ag.relu(linear(h, p["head.w2"], p["head.b2"]))
        out = ag.sigmoid(linear(h, p["head.w3"], p["head.b3"]))
        return ag.reshape(out, out.shape[:-2])

    def score_value(self, feature: Tensor) -> float:
        """Evaluation-mode score of a one-page feature, as a plain float."""
        with ag.no_grad():
            scores = self.score(feature).data
        if scores.size != 1:
            raise ValueError(f"score_value scores one page, got a stack of {scores.size} pages")
        return scores.item()
