"""Shared transformer building blocks used by the model and the scorer."""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np

from . import autograd as ag
from .autograd import Tensor

LN_EPS = 1e-12
ATTENTION_TILE = 64  # query rows per attention block


# A parameter table lists (name, shape, initializer) entries in draw order.
Initializer = Callable[[np.random.Generator, tuple[int, ...], dict[str, Tensor]], np.ndarray]  # (rng, shape, made so far)
ParamEntry = tuple[str, tuple[int, ...], Initializer]


def glorot(rng: np.random.Generator, shape: tuple[int, int], params: dict[str, Tensor]) -> np.ndarray:
    fan_in, fan_out = shape
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def zeros(rng: np.random.Generator, shape: tuple[int, ...], params: dict[str, Tensor]) -> np.ndarray:
    return np.zeros(shape)


def ones(rng: np.random.Generator, shape: tuple[int, ...], params: dict[str, Tensor]) -> np.ndarray:
    return np.ones(shape)


def normal(std: float) -> Initializer:
    return lambda rng, shape, params: rng.normal(0.0, std, shape)


def copy_of(name: str) -> Initializer:
    """A copy of the earlier entry ``name``; draws nothing."""
    return lambda rng, shape, params: params[name].data.copy()


def init_params(table: Iterable[ParamEntry], seed: int) -> dict[str, Tensor]:
    """Trainable parameters made from ``table``'s entries, in its order, from one rng seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, init in table:
        params[name] = Tensor(init(rng, shape, params), requires_grad=True)
    return params


linear = ag.linear  # x @ w + b as one graph node


def attention_table(prefix: str, d_model: int) -> list[ParamEntry]:
    # Keys start as a copy of queries, so q.k = (Wq u).(Wq v) is a PSD
    # similarity form at init: heads begin life as content-match detectors,
    # which is the attention pattern retrieval-style tasks need first.
    # Training is free to break the symmetry.
    square = (d_model, d_model)
    weights = [(f"{prefix}.wq", square, glorot), (f"{prefix}.wk", square, copy_of(f"{prefix}.wq")),
               (f"{prefix}.wv", square, glorot), (f"{prefix}.wo", square, glorot)]
    return weights + [(f"{prefix}.{n}", (d_model,), zeros) for n in ("bq", "bk", "bv", "bo")]


def attention_workers() -> int:
    """CPUs this process may run on: tiled attention splits its heads into this many groups at most."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@cache
def _attention_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=max(1, attention_workers() - 1), thread_name_prefix="pixqa-attention")


def project_kv(kv_in: Tensor, params: dict[str, Tensor], prefix: str, n_heads: int) -> tuple[Tensor, Tensor]:
    """Keys and values of ``kv_in`` (..., len_k, d_model), each (..., len_k, n_heads, head_dim).

    Row-major in the key axis, so a decoder's self-attention cache grows by
    ``ag.concat_rows`` along axis -3; ``attend`` takes the head-major views
    it needs.
    """
    p = params
    *lead, len_k, d_model = kv_in.shape
    shape = (*lead, len_k, n_heads, d_model // n_heads)
    return (ag.reshape(linear(kv_in, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), shape),
            ag.reshape(linear(kv_in, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), shape))


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

    The composition of ``project_kv`` (K and V of ``kv_in``) and ``attend``
    (everything else). The decoder calls the two apart: it projects the
    encoder feature's K/V once per answer and keeps its self-attention K/V
    rows in a cache that grows by one row per generated token.
    """
    return attend(q_in, *project_kv(kv_in, params, prefix, n_heads), params, prefix, n_heads, mask=mask)


def attend(
    q_in: Tensor,
    k: Tensor,
    v: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    n_heads: int,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Attention of ``q_in``'s rows over keys ``k`` and values ``v`` from ``project_kv``.

    Q is projected once; attention weights and context then run over
    blocks of ``ATTENTION_TILE`` query rows, whose contexts are joined
    before the output projection. Each output row depends only on its own
    query row, so tiling is exact, and no online softmax is needed because
    every tile sees all keys. A tile's weights come from one fused
    ``ag.attention_weights`` node (QK^T, scale, mask and softmax in one
    (heads, tile, len_k) buffer). A query sequence that fits in one tile
    runs as a single block with no extra graph node. Both paths take a
    stack of sequences with leading axes, (..., len_q, d_model), and
    compute each one as it would alone.

    A tiled call splits the heads into ``min(attention_workers(), n_heads)``
    contiguous groups, one tile loop each: the calling thread runs the
    first group and a shared pool of ``attention_workers() - 1`` threads
    runs the others (with one group no pool is made). Every head's
    arithmetic is the same whatever the group count, so outputs and
    gradients are bit-identical across CPU counts; ``backward`` stays
    serial. The calling thread allocates the one weight buffer and the tile
    loops fill their heads' part of it in place (``out=``), since buffers
    allocated on pool threads stay in per-thread malloc arenas. Without
    autograd it is one (..., heads, tile, len_k) buffer that every tile
    reuses, so memory is O(heads * tile * len_k) per sequence, not
    O(heads * len_q * len_k); with autograd it is (..., heads, len_q,
    len_k) and each tile keeps its own rows, which the graph holds anyway.
    Two rules keep the workers safe: they call only ``ag`` ops, never a
    model or scorer method that a tracer might wrap, and they never enter
    ``no_grad`` (the grad switch is one module global, which they only
    read while the caller waits).
    """
    p = params
    *lead, len_q, d_model = q_in.shape
    head_dim = d_model // n_heads
    scale = 1.0 / math.sqrt(head_dim)
    n = len(lead)
    swap = (*range(n), n + 1, n, n + 2)  # (..., rows, heads, head_dim) <-> (..., heads, rows, head_dim)

    def merge_heads(x: Tensor) -> Tensor:
        return ag.reshape(ag.transpose(x, swap), (*lead, x.shape[-2], d_model))

    q = ag.transpose(ag.reshape(linear(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), (*lead, len_q, n_heads, head_dim)), swap)
    k_t = ag.transpose(k, (*range(n), n + 1, n + 2, n))
    v = ag.transpose(v, swap)

    if len_q <= ATTENTION_TILE:
        return linear(merge_heads(ag.matmul(ag.attention_weights(q, k_t, scale, mask), v)),
                      p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    len_k = k_t.shape[-1]

    starts = range(0, len_q, ATTENTION_TILE)
    keep = q.requires_grad or k_t.requires_grad  # the graph will hold every tile's weights

    def group_tiles(q_g: Tensor, k_g: Tensor, v_g: Tensor, buf: np.ndarray) -> list[Tensor]:
        """One head group's tile contexts, (..., group, tile, head_dim) each; runs on a worker."""
        tiles = []
        for start in starts:
            stop = min(start + ATTENTION_TILE, len_q)
            out = buf[..., start:stop, :] if keep else buf[..., : stop - start, :]
            q_tile = ag.take_rows(q_g, np.s_[..., start:stop, :])
            attn = ag.attention_weights(q_tile, k_g, scale, None if mask is None else mask[start:stop], out=out)
            tiles.append(ag.matmul(attn, v_g))
        return tiles

    # A head group takes views (slices of the head axis) of Q, K, V and the one weight buffer.
    groups = [np.s_[..., h[0]:h[-1] + 1, :, :]
              for h in np.array_split(np.arange(n_heads), min(attention_workers(), n_heads))]
    buf = np.empty((*lead, n_heads, len_q if keep else ATTENTION_TILE, len_k))
    jobs = [(ag.take_rows(q, heads), ag.take_rows(k_t, heads), ag.take_rows(v, heads), buf[heads]) for heads in groups]
    rest = [_attention_pool().submit(group_tiles, *job) for job in jobs[1:]]
    try:
        first = group_tiles(*jobs[0])
    finally:  # even when the first group fails, wait for the others and read their errors
        others = [job.result() for job in rest]
    per_group = [first, *others]
    del buf, jobs  # without autograd nothing else holds the buffer: free it before the joins
    context = ag.concat_rows([merge_heads(ag.concat_rows(list(parts), axis=-3)) for parts in zip(*per_group)],
                             axis=-2)
    return linear(context, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def ffn_table(prefix: str, d_model: int, d_ff: int) -> list[ParamEntry]:
    return [(f"{prefix}.w1", (d_model, d_ff), glorot), (f"{prefix}.b1", (d_ff,), zeros),
            (f"{prefix}.w2", (d_ff, d_model), glorot), (f"{prefix}.b2", (d_model,), zeros)]


def ffn(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    h = ag.relu(linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return linear(h, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def norm_table(prefix: str, d_model: int) -> list[ParamEntry]:
    return [(f"{prefix}.g", (d_model,), ones), (f"{prefix}.b", (d_model,), zeros)]


def apply_layer_norm(x: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """Each row of ``x`` standardized (mean 0, variance 1), then scaled by ``prefix.g`` and shifted by ``prefix.b``."""
    return ag.mul(ag.normalize_last(x, LN_EPS), params[f"{prefix}.g"]) + params[f"{prefix}.b"]
