"""Shared transformer building blocks used by the model and the scorer."""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .autograd import Tensor

LN_EPS = 1e-12
ATTENTION_TILE = 64  # query rows per attention block


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ag.matmul(x, w) + b


def normalize(x: Tensor, eps: float = LN_EPS) -> Tensor:
    """Per-row standardization: mean 0, variance 1 (before any affine)."""
    return ag.normalize_last(x, eps)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return ag.mul(normalize(x), gain) + bias


def attention_shapes(prefix: str, d_model: int) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of ``init_attention``'s parameters, in its order."""
    weights = [(f"{prefix}.{n}", (d_model, d_model)) for n in ("wq", "wk", "wv", "wo")]
    return weights + [(f"{prefix}.{n}", (d_model,)) for n in ("bq", "bk", "bv", "bo")]


def init_attention(params: dict[str, Tensor], prefix: str, d_model: int, rng: np.random.Generator) -> None:
    # Keys start as a copy of queries, so q.k = (Wq u).(Wq v) is a PSD
    # similarity form at init: heads begin life as content-match detectors,
    # which is the attention pattern retrieval-style tasks need first.
    # Training is free to break the symmetry.
    wq = glorot(rng, d_model, d_model)
    params[f"{prefix}.wq"] = Tensor(wq, requires_grad=True)
    params[f"{prefix}.wk"] = Tensor(wq.copy(), requires_grad=True)
    params[f"{prefix}.wv"] = Tensor(glorot(rng, d_model, d_model), requires_grad=True)
    params[f"{prefix}.wo"] = Tensor(glorot(rng, d_model, d_model), requires_grad=True)
    for b_name in ("bq", "bk", "bv", "bo"):
        params[f"{prefix}.{b_name}"] = Tensor(np.zeros(d_model), requires_grad=True)


def multi_head_attention(
    q_in: Tensor,
    kv_in: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention with an output projection.

    ``mask`` is an additive constant of shape (len_q, len_k) broadcast over
    heads (e.g. a causal mask of -1e30 above the diagonal).

    Q, K and V are projected once; attention weights and context then run
    over blocks of ``ATTENTION_TILE`` query rows, whose contexts are joined
    before the output projection. Each output row depends only on its own
    query row, so tiling is exact, and no online softmax is needed because
    every tile sees all keys. A tile's weights come from one fused
    ``ag.attention_weights`` node (QK^T, scale, mask and softmax in one
    (heads, tile, len_k) buffer). Without autograd only one tile's buffer
    is alive at a time: memory is O(heads * tile * len_k), not
    O(heads * len_q * len_k). A query sequence that fits in one tile runs
    as a single block with no extra graph node.
    """
    p = params
    len_q, d_model = q_in.shape
    len_k = kv_in.shape[0]
    head_dim = d_model // n_heads

    def split_heads(x: Tensor, length: int) -> Tensor:
        return ag.transpose(ag.reshape(x, (length, n_heads, head_dim)), (1, 0, 2))

    q = linear(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    k_t = ag.transpose(split_heads(linear(kv_in, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), len_k), (0, 2, 1))
    v = split_heads(linear(kv_in, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), len_k)

    def attend(q_rows: Tensor, tile_mask: np.ndarray | None) -> Tensor:
        n = q_rows.shape[0]
        attn = ag.attention_weights(split_heads(q_rows, n), k_t, 1.0 / math.sqrt(head_dim), tile_mask)
        return ag.reshape(ag.transpose(ag.matmul(attn, v), (1, 0, 2)), (n, d_model))

    if len_q <= ATTENTION_TILE:
        context = attend(q, mask)
    else:
        tiles = []
        for start in range(0, len_q, ATTENTION_TILE):
            rows = np.arange(start, min(start + ATTENTION_TILE, len_q))
            tiles.append(attend(ag.take_rows(q, rows), None if mask is None else mask[rows]))
        context = ag.concat_rows(tiles)
    return linear(context, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def init_ffn(params: dict[str, Tensor], prefix: str, d_model: int, d_ff: int, rng: np.random.Generator) -> None:
    params[f"{prefix}.w1"] = Tensor(glorot(rng, d_model, d_ff), requires_grad=True)
    params[f"{prefix}.b1"] = Tensor(np.zeros(d_ff), requires_grad=True)
    params[f"{prefix}.w2"] = Tensor(glorot(rng, d_ff, d_model), requires_grad=True)
    params[f"{prefix}.b2"] = Tensor(np.zeros(d_model), requires_grad=True)


def ffn(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    h = ag.relu(linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def init_layer_norm(params: dict[str, Tensor], prefix: str, d_model: int) -> None:
    params[f"{prefix}.g"] = Tensor(np.ones(d_model), requires_grad=True)
    params[f"{prefix}.b"] = Tensor(np.zeros(d_model), requires_grad=True)


def apply_layer_norm(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])
