"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for a small transformer: ``add`` and ``mul``
(``Tensor`` spells them ``+`` and unary ``-``), (batched) ``matmul``, the
fused affine map ``linear`` (x @ w + b), ``reshape``, ``transpose``,
``sum_axis``, ``relu``, ``sigmoid``, fused ``attention_weights`` (scaled,
masked, max-shifted softmax of q @ k_t), a stable ``log_softmax_last``,
layer-norm standardization ``normalize_last``, row gathers ``take_rows``
and ``concat_rows``. Everything is double precision; gradients are
validated against central finite differences in the test suite.

Inside a ``no_grad()`` block (or when no input requires gradients) the same
ops run as plain numpy with no graph recorded, which is the evaluation path.

A graph may run several items at once along a leading stack axis (pages of
a stacked training batch). Gradients of a stack are summed the way running
its items one at a time would sum them, so they are bit-identical to that
loop: see ``_accum``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_grad_enabled: bool = True


@contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; a constant (ndarray / scalar) is allowed on the right of ``+``.
    def __add__(self, other):
        return add(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def backward(self) -> None:
        """Backpropagate from this (scalar or any-shape) tensor, seeding with ones.

        Leaves (parameters, inputs) keep their gradients; an interior node's
        gradient is dropped as soon as its own backward has run, so a large
        graph does not hold a gradient buffer per node.
        """
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # every consumer has run: an interior gradient is not needed again

    def zero_grad(self) -> None:
        self.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _needs_graph(*tensors: Tensor) -> bool:
    return _grad_enabled and any(t.requires_grad for t in tensors)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _needs_graph(*parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _wants(t: Tensor) -> bool:
    """Whether a gradient for ``t`` is used: a constant's gradient need not be computed.

    ``_node`` gives an output parents only with ``requires_grad``, so the flag alone tells.
    """
    return t.requires_grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, summed over the axes broadcasting added, to ``t.grad``.

    A ``g`` of three or more axes with more axes than ``t`` is a stack of
    items along axis 0. Each item is reduced as it would be on its own and
    added in stack order, so a stacked graph sums its gradient in the order
    of running its items one by one: bit-identical, not one flattened
    reduction. Within an item, broadcast axes are summed innermost first.
    """
    if not _wants(t):
        return
    if g.ndim > max(t.data.ndim, 2):
        for item in g:
            _accum(t, item)
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += _unbroadcast(g, t.data.shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a backward pass; over a contracted axis of length 1, a broadcast multiply.

    Each entry is then a single product, so the result is exact either way
    (up to the sign of a zero, which adding into a gradient drops), and a
    stack of outer products, such as the weight gradient of one-row items,
    skips a batched matmul that numpy runs slowly.
    """
    return a * b if a.shape[-1] == 1 else a @ b


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        if _wants(a):
            _accum(a, g * b.data)
        if _wants(b):
            _accum(b, g * a.data)

    return _node(data, (a, b), backward)


def matmul(a, b) -> Tensor:
    """Matrix product; supports 2-D and batched operands (a stack of matrices times one matrix, too)."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data @ b.data

    def backward(g):
        if _wants(a):
            _accum(a, _product(g, np.swapaxes(b.data, -1, -2)))
        if _wants(b):
            _accum(b, _product(np.swapaxes(a.data, -1, -2), g))

    return _node(data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """The affine map ``x @ w + b`` as one node, for x of shape (..., n, d_in).

    Bit-identical to ``add(matmul(x, w), b)``, forward and backward, but
    the bias is added in place in the product's buffer, so the graph holds
    one output array instead of two. With a stack of inputs, w's gradient
    is one product per item, added item by item (see ``_accum``).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    data = x.data @ w.data
    data += b.data

    def backward(g):
        if _wants(x):
            _accum(x, _product(g, w.data.T))
        if _wants(w):
            _accum(w, _product(np.swapaxes(x.data, -1, -2), g))
        _accum(b, g)

    return _node(data, (x, w, b), backward)


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(old))

    return _node(data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    data = a.data.transpose(axes)

    def backward(g):
        _accum(a, g.transpose(np.argsort(axes)))

    return _node(data, (a,), backward)


def sum_axis(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape).copy())

    return _node(data, (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    data = np.maximum(a.data, 0.0)

    def backward(g):
        _accum(a, g * mask)

    return _node(data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        _accum(a, g * data * (1.0 - data))

    return _node(data, (a,), backward)


def attention_weights(q, k_t, scale: float, mask: np.ndarray | None = None, out: np.ndarray | None = None) -> Tensor:
    """softmax(scale * (q @ k_t) + mask) over the last axis, max-shifted for stability.

    One fused node: every step after the matmul runs in place in the
    matmul's output, so a call allocates one (..., len_q, len_k) buffer.
    The arithmetic, forward and backward, is that of composing matmul, mul,
    add and a max-shifted softmax as separate ops, in the same order, so
    values and gradients are bit-identical to that composition. ``mask``
    is an additive constant broadcast against the logits; it gets no
    gradient. ``out``, when given, is the buffer to compute in: an array of
    the result's shape that the returned tensor's data then shares, so a
    caller can allocate it on one thread and fill it on another, or reuse
    it once the previous result is consumed.
    """
    q, k_t = _as_tensor(q), _as_tensor(k_t)
    data = np.matmul(q.data, k_t.data, out=out)
    data *= scale
    if mask is not None:
        data += mask
    data -= data.max(axis=-1, keepdims=True)
    np.exp(data, out=data)
    data /= data.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * data).sum(axis=-1, keepdims=True)
        gl = data * (g - inner) * scale
        if _wants(q):
            _accum(q, _product(gl, np.swapaxes(k_t.data, -1, -2)))
        if _wants(k_t):
            _accum(k_t, _product(np.swapaxes(q.data, -1, -2), gl))

    return _node(data, (q, k_t), backward)


def log_softmax_last(a) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - log_z
    soft = np.exp(data)

    def backward(g):
        _accum(a, g - soft * g.sum(axis=-1, keepdims=True))

    return _node(data, (a,), backward)


def normalize_last(a, eps: float) -> Tensor:
    """Standardize the last axis to mean 0 / variance 1 (pre-affine layer norm)."""
    a = _as_tensor(a)
    n = a.data.shape[-1]
    # sum / n is what np.mean computes, bit for bit, without its per-call overhead.
    mu = a.data.sum(axis=-1, keepdims=True) / n
    centered = a.data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    data = centered * inv

    def backward(g):
        # d/dx of (x - mu) / sigma with sigma = sqrt(var + eps):
        # (g - mean(g) - y * mean(g * y)) / sigma, exact for this sigma.
        g_mean = g.mean(axis=-1, keepdims=True)
        gy_mean = (g * data).mean(axis=-1, keepdims=True)
        _accum(a, (g - g_mean - data * gy_mean) * inv)

    return _node(data, (a,), backward)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0 (embedding lookup); a slice of rows is a view, not a copy.

    Indices of any shape gather a row each; the backward adds the rows'
    gradients back in index order (C order), so a (pages, n) index array
    adds one page's rows after another. A tuple of slices (``np.s_[:, :1,
    :]``) is a basic index over any axes, a view too; it selects each
    element at most once, so its backward adds the gradient in place.
    """
    a = _as_tensor(a)
    basic = isinstance(indices, (slice, tuple))
    idx = indices if basic else np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def backward(g):
        if not _wants(a):
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if basic:
            a.grad[idx] += g
        else:
            np.add.at(a.grad, idx, g)

    return _node(data, (a,), backward)


def concat_rows(parts: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``, axis 0 by default."""
    parts = [_as_tensor(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward(g):
        index = [slice(None)] * g.ndim
        offset = 0
        for p, n in zip(parts, sizes):
            index[axis] = slice(offset, offset + n)
            _accum(p, g[tuple(index)])
            offset += n

    return _node(data, tuple(parts), backward)
