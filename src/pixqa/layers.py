"""Shared transformer building blocks used by the model and the scorer."""

from __future__ import annotations

import ctypes
import math
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cache

import numpy as np

from . import autograd as ag
from .autograd import ATTENTION_TILE, Tensor

LN_EPS = 1e-12
NEG_MASK = -1e30  # the additive mask of a key a causal query row may not see
M_ARENA_MAX = -8  # glibc's mallopt parameter: the most malloc arenas the process may make


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
    """CPUs this process may run on: the most head groups tiled attention runs, and parts a full block is encoded in."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@cache
def _attention_pool() -> ThreadPoolExecutor:
    """The shared worker threads, made on first use.

    First it caps glibc's malloc arenas at one, so the workers allocate from
    the main heap's free memory instead of each growing an arena of its own
    (a few MiB of peak RSS); a libc without ``mallopt`` is left as it is.
    The tiles' exponentials depend on the cap too: each tile allocates its
    own on the worker that runs it, and the cap lets a tile reuse the block
    any thread's last tile freed.
    """
    try:
        ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
    except (AttributeError, OSError, TypeError):  # not glibc
        pass
    return ThreadPoolExecutor(max_workers=max(1, attention_workers() - 1), thread_name_prefix="pixqa-attention")


def run_parts(fn: Callable, jobs: Sequence[tuple]) -> list:
    """``fn(*job)`` for each job, in order: the first on the calling thread, the others on the attention pool.

    Returns or raises only once every job has finished; the first job's
    error comes first, then the earliest failed pool job's. One job never
    touches the pool.

    Its jobs are ``attend``'s head groups and the parts of a full block of
    pages (``VqaModel.encode_grid``). Three rules keep the workers safe:
    they call only ``ag`` ops (a block part through
    ``VqaModel.embed_patches`` and ``encode``), never a model or scorer
    method that a tracer might wrap; they never enter ``no_grad`` (the grad
    switch is one module global, which they only read while the caller
    waits); and a block part holds only pages that fit one tile, so a
    worker never submits head groups to the pool it runs on, where they
    would wait for it forever.
    """
    rest = [_attention_pool().submit(fn, *job) for job in jobs[1:]]
    try:
        first = fn(*jobs[0])
    finally:
        wait(rest)
    return [first, *(job.result() for job in rest)]


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
) -> Tensor:
    """Multi-head scaled dot-product attention with an output projection, unmasked.

    The composition of ``project_kv`` (K and V of ``kv_in``) and ``attend``
    (everything else). The decoder calls the two apart: it projects the
    encoder feature's K/V once per answer, keeps its self-attention K/V
    rows in a cache that grows by one row per generated token, and calls
    ``attend`` with ``causal`` over that cache.
    """
    return attend(q_in, *project_kv(kv_in, params, prefix, n_heads), params, prefix, n_heads)


def attend(
    q_in: Tensor,
    k: Tensor,
    v: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    n_heads: int,
    causal: bool = False,
) -> Tensor:
    """Attention of ``q_in``'s rows over keys ``k`` and values ``v`` from ``project_kv``.

    Under ``causal`` the query rows are the last ``len_q`` of the keys'
    ``len_k`` positions, and each row sees the keys up to its own: more
    than one row adds ``NEG_MASK`` above that diagonal, and one row (a
    greedy step) sees every key, so it builds no mask.

    Q is projected once. A causal call, or one of at most
    ``ATTENTION_TILE`` query rows, runs as one block,
    ``matmul(attention_weights(...), v)``. A longer unmasked call splits
    its heads into ``min(attention_workers(), n_heads)`` contiguous groups,
    each one ``ag.attention`` node over the group's head slice, which tiles
    the query rows itself, so its outputs match one block within 1e-12, not
    bit for bit. The calling thread runs the first group and the shared
    pool the others (``run_parts``), and the groups' contexts are joined
    along the head axis once. Every head's arithmetic is the same whatever
    the group count, so outputs and gradients are bit-identical across CPU
    counts. Without autograd tiled memory is O(tile * len_k) per CPU; with
    autograd the graph holds every tile's exponentials, as one block holds
    its weights. A stack of sequences with leading axes, (..., len_q,
    d_model), computes each one as it would alone.
    """
    p = params
    *lead, len_q, d_model = q_in.shape
    len_k = k.shape[-3]
    head_dim = d_model // n_heads
    scale = 1.0 / math.sqrt(head_dim)
    n = len(lead)
    swap = (*range(n), n + 1, n, n + 2)  # (..., rows, heads, head_dim) <-> (..., heads, rows, head_dim)

    def merge_heads(x: Tensor) -> Tensor:
        return ag.reshape(ag.transpose(x, swap), (*lead, len_q, d_model))

    q = ag.transpose(ag.reshape(linear(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), (*lead, len_q, n_heads, head_dim)), swap)
    k_t = ag.transpose(k, (*range(n), n + 1, n + 2, n))
    v = ag.transpose(v, swap)

    if causal or len_q <= ATTENTION_TILE:
        mask = np.triu(np.full((len_q, len_k), NEG_MASK), k=len_k - len_q + 1) if causal and len_q > 1 else None
        context = ag.matmul(ag.attention_weights(q, k_t, scale, mask), v)
    else:
        groups = [slice(g[0], g[-1] + 1) for g in np.array_split(np.arange(n_heads), min(attention_workers(), n_heads))]
        context = ag.concat_rows(run_parts(
            lambda heads: ag.attention(*(ag.take_rows(x, np.s_[..., heads, :, :]) for x in (q, k_t, v)), scale),
            [(heads,) for heads in groups]), axis=-3)
    return linear(merge_heads(context), p[f"{prefix}.wo"], p[f"{prefix}.bo"])


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
