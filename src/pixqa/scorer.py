"""Self-attention scoring head: encoder feature -> page relevance in [0, 1].

The head runs one or more bare self-attention layers over the frozen
encoder feature (no positional encoding of its own), pools the output
sequence to a single vector, and squashes it through a small MLP ending in
a logistic unit. Three pooling strategies are supported; taking the first
output vector is the default.

With ``first`` or ``cls`` pooling the last self-attention layer attends
from the pooled row only: row 0 is its single query and the whole sequence
its keys and values. Each attention output row depends only on its own
query row, so the score and every gradient are those of full attention
followed by pooling, at O(length) cost instead of O(length^2) per head.
Earlier layers, and the last layer under ``avgpool``, attend from every row.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError
from .layers import attention_shapes, glorot, init_attention, linear, multi_head_attention
from .model import EncoderFeature

AGGREGATIONS = ("first", "cls", "avgpool")
FIRST_ROW = np.array([0])


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


def aggregate(outputs: Tensor, strategy: str) -> Tensor:
    """Pool a (length, d) sequence to a (1, d) vector.

    "first" and "cls" both select position 0 (for "cls" the learned token
    was prepended before attention ran); "avgpool" averages all positions.
    """
    if strategy in ("first", "cls"):
        return ag.take_rows(outputs, FIRST_ROW)
    if strategy == "avgpool":
        return ag.mean_axis(outputs, axis=0, keepdims=True)
    raise ConfigError(f"unknown aggregation {strategy!r}")


class SelfAttentionScorer:
    """Relevance head over frozen encoder features."""

    def __init__(self, cfg: ScorerConfig, d_model: int, seed: int = 0, params: dict[str, Tensor] | None = None):
        if d_model % cfg.n_heads != 0:
            raise ConfigError(f"d_model {d_model} not divisible by scorer heads {cfg.n_heads}")
        self.cfg = cfg
        self.d_model = d_model
        self.params = params if params is not None else self._init_params(seed)

    @staticmethod
    def param_shapes(cfg: ScorerConfig, d_model: int) -> Iterator[tuple[str, tuple[int, ...]]]:
        """Name and shape of every parameter ``_init_params`` makes, in its order, allocating nothing."""
        for i in range(cfg.n_sa_layers):
            yield from attention_shapes(f"sa.{i}", d_model)
        yield "cls", (1, d_model)
        fan_in = d_model
        for j, width in enumerate((d_model, max(1, d_model // 2), 1), start=1):  # the MLP's output widths
            yield from [(f"head.w{j}", (fan_in, width)), (f"head.b{j}", (width,))]
            fan_in = width

    def _init_params(self, seed: int) -> dict[str, Tensor]:
        cfg = self.cfg
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}
        for i in range(cfg.n_sa_layers):
            init_attention(p, f"sa.{i}", self.d_model, rng)
        p["cls"] = Tensor(rng.normal(0.0, 0.02, (1, self.d_model)), requires_grad=True)
        for name, shape in self.param_shapes(cfg, self.d_model):
            if name.startswith("head.w"):
                p[name] = Tensor(glorot(rng, *shape), requires_grad=True)
            elif name.startswith("head.b"):
                p[name] = Tensor(np.zeros(shape), requires_grad=True)
        return p

    def attention_inputs(self, feature: EncoderFeature) -> Tensor:
        """The sequence the scorer's self-attention actually sees."""
        x = feature.vectors
        if self.cfg.aggregation == "cls":
            x = ag.concat_rows([self.params["cls"], x])
        return x

    def score(
        self,
        feature: EncoderFeature,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Scalar matching score in [0, 1]. Deterministic unless training."""
        cfg, p = self.cfg, self.params
        x = self.attention_inputs(feature)
        last = cfg.n_sa_layers - 1
        for i in range(cfg.n_sa_layers):
            queries = x
            if i == last and cfg.aggregation in ("first", "cls"):
                queries = ag.take_rows(x, FIRST_ROW)  # the only output row pooling reads
            x = multi_head_attention(queries, x, p, f"sa.{i}", cfg.n_heads)
        pooled = aggregate(x, cfg.aggregation)
        if training and cfg.dropout_p > 0.0:
            if rng is None:
                raise ValueError("training-mode scoring needs an rng for dropout")
            keep = (rng.random(pooled.shape) >= cfg.dropout_p) / (1.0 - cfg.dropout_p)
            pooled = ag.mul(pooled, keep)
        h = ag.relu(linear(pooled, p["head.w1"], p["head.b1"]))
        h = ag.relu(linear(h, p["head.w2"], p["head.b2"]))
        out = ag.sigmoid(linear(h, p["head.w3"], p["head.b3"]))
        return ag.reshape(out, ())

    def score_value(self, feature: EncoderFeature) -> float:
        """Evaluation-mode score as a plain float."""
        with ag.no_grad():
            return float(self.score(feature).data)
