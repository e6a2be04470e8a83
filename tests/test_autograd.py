import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa.autograd import Tensor
from pixqa.layers import LN_EPS, NEG_MASK, apply_layer_norm, multi_head_attention


def finite_diff(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function over every entry of x."""
    g = np.zeros_like(x)
    flat, gflat = x.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def check_op(build_loss, *leaves: Tensor, tol: float = 1e-6) -> None:
    loss = build_loss()
    loss.backward()
    for leaf in leaves:
        analytic = leaf.grad.copy()
        leaf.zero_grad()
        fd = finite_diff(lambda: float(build_loss().data), leaf.data)
        assert np.allclose(analytic, fd, rtol=tol, atol=tol), f"{analytic} vs {fd}"


rng = np.random.default_rng(12345)


def leaf(*shape) -> Tensor:
    return Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


class TestElementwise:
    def test_add_broadcast(self):
        a, b = leaf(3, 4), leaf(4)
        check_op(lambda: ag.sum_axis(ag.mul(ag.add(a, b), ag.add(a, b))), a, b)

    def test_mul_scalar_and_tensor(self):
        a, b = leaf(5), leaf(5)
        check_op(lambda: ag.sum_axis(ag.mul(ag.mul(a, 3.0), b)), a, b)

    def test_neg(self):
        a, b = leaf(4), leaf(4)
        check_op(lambda: ag.sum_axis(ag.mul(a + (-b), a + (-b))), a, b)

    def test_relu_away_from_kink(self):
        a = Tensor(np.array([-1.0, -0.3, 0.4, 2.0]), requires_grad=True)
        check_op(lambda: ag.sum_axis(ag.mul(ag.relu(a), ag.relu(a))), a)

    def test_relu_forward_equals_masked_select(self):
        # Same values and zero signs as np.where(a > 0, a, 0.0), the formula relu used before np.maximum.
        a = np.array([-0.0, 0.0, -1e-300, 1e-300, -2.5, 3.0, -np.inf, np.inf])
        out = ag.relu(Tensor(a)).data
        old = np.where(a > 0, a, 0.0)
        assert np.array_equal(out, old)
        assert np.array_equal(np.signbit(out), np.signbit(old))

    def test_relu_gradient_is_the_positive_mask(self):
        a = Tensor(np.array([-0.0, 0.0, -1.0, 2.0]), requires_grad=True)
        ag.sum_axis(ag.relu(a)).backward()
        assert np.array_equal(a.grad, [0.0, 0.0, 0.0, 1.0])

    def test_relu_propagates_nan(self):
        assert np.isnan(ag.relu(Tensor(np.array([np.nan]))).data).all()

    def test_sigmoid(self):
        a = leaf(7)
        check_op(lambda: ag.sum_axis(ag.sigmoid(a)), a)

    def test_sigmoid_extreme_inputs_stable(self):
        out = ag.sigmoid(Tensor(np.array([-1000.0, 1000.0])))
        assert np.allclose(out.data, [0.0, 1.0])
        assert np.isfinite(out.data).all()


class TestMatmulShapes:
    def test_matmul_2d(self):
        a, b = leaf(3, 4), leaf(4, 2)
        check_op(lambda: ag.sum_axis(ag.matmul(a, b)), a, b)

    def test_matmul_batched(self):
        a, b = leaf(2, 3, 4), leaf(2, 4, 5)
        check_op(lambda: ag.sum_axis(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), a, b)

    def test_reshape_transpose(self):
        a = leaf(2, 6)
        check_op(
            lambda: ag.sum_axis(ag.mul(ag.transpose(ag.reshape(a, (2, 3, 2)), (1, 0, 2)), 2.0)),
            a,
        )


class TestReductionsAndSoftmax:
    def test_sum_axis_keepdims(self):
        a = leaf(3, 5)
        check_op(lambda: ag.sum_axis(ag.mul(ag.sum_axis(a, axis=-1, keepdims=True), a)), a)

    def test_log_softmax_gradient(self):
        a = leaf(3, 5)
        w = rng.normal(0, 1, (3, 5))
        check_op(lambda: ag.sum_axis(ag.mul(ag.log_softmax_last(a), w)), a)


def causal(n: int) -> np.ndarray:
    return np.triu(np.full((n, n), NEG_MASK), k=1)


def unfused_attention_weights(q, k_t, scale, mask, g):
    """Plain numpy of the matmul -> mul -> add -> softmax chain: weights, then the q and k_t gradients for `g`."""
    logits = (q @ k_t) * scale
    if mask is not None:
        logits = logits + mask
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)
    g_logits = data * (g - (g * data).sum(axis=-1, keepdims=True))
    g_logits = g_logits * scale
    return data, g_logits @ np.swapaxes(k_t, -1, -2), np.swapaxes(q, -1, -2) @ g_logits


class TestAttentionWeights:
    def test_rows_sum_to_one(self):
        q, k_t = leaf(2, 5, 3), leaf(2, 3, 9)
        w = ag.attention_weights(q, k_t, 0.5)
        assert w.shape == (2, 5, 9)
        assert np.allclose(w.data.sum(axis=-1), 1.0)

    def test_stable_for_large_logits(self):
        q = Tensor(np.array([[1e3, 0.0]]))
        k_t = Tensor(np.array([[1e3, 1e3 - 1e-3], [0.0, 0.0]]))  # logits 1e6 and 1e6 - 1
        w = ag.attention_weights(q, k_t, 1.0)
        assert np.isfinite(w.data).all()
        assert np.allclose(w.data, [[1.0 / (1.0 + np.exp(-1.0)), 1.0 / (1.0 + np.exp(1.0))]])

    def test_gradient_with_scale_and_causal_mask(self):
        q, k_t = leaf(2, 4, 3), leaf(2, 3, 4)
        w = rng.normal(0, 1, (2, 4, 4))
        check_op(lambda: ag.sum_axis(ag.mul(ag.attention_weights(q, k_t, 0.37, causal(4)), w)), q, k_t)

    @pytest.mark.parametrize("masked", [False, True])
    def test_bit_identical_to_unfused_chain(self, masked):
        q, k_t = leaf(4, 6, 5), leaf(4, 5, 6)
        mask = causal(6) if masked else None
        g = rng.normal(0, 1, (4, 6, 6))
        out = ag.attention_weights(q, k_t, 1.0 / np.sqrt(5), mask)
        ag.sum_axis(ag.mul(out, g)).backward()
        data, g_q, g_k = unfused_attention_weights(q.data, k_t.data, 1.0 / np.sqrt(5), mask, g)
        assert np.array_equal(out.data, data)
        assert np.array_equal(q.grad, g_q)
        assert np.array_equal(k_t.grad, g_k)


def reference_attention(q, k_t, v, scale) -> Tensor:
    """The two-node composition that ``ag.attention`` fuses: weights, then the value product."""
    return ag.matmul(ag.attention_weights(q, k_t, scale), v)


def holder_bound(q: np.ndarray, k_t: np.ndarray, scale: float) -> float:
    """The largest logit magnitude Hölder's inequality allows: max row 1-norm of scale * q times max |k_t|."""
    return np.abs(scale * q).sum(axis=-1).max() * np.abs(k_t).max()


def attend_and_backward(op, data, scale, g) -> list[np.ndarray]:
    """``op``'s output on fresh leaves holding ``data``, then the leaves' gradients of sum(out * g)."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in data]
    out = op(*leaves, scale)
    ag.sum_axis(ag.mul(out, g)).backward()
    return [out.data, *(t.grad for t in leaves)]


class TestAttention:
    """``ag.attention``: the softmax normalized after the value product, one node."""

    def test_gradient_with_scale_and_stack_axes(self):
        q, k_t, v = leaf(2, 3, 4, 5), leaf(2, 3, 5, 7), leaf(2, 3, 7, 5)  # (stack, heads, rows, head_dim)
        w = rng.normal(0, 1, (2, 3, 4, 5))
        check_op(lambda: ag.sum_axis(ag.mul(ag.attention(q, k_t, v, 0.37), w)), q, k_t, v)

    @pytest.mark.parametrize("rows", [1, 6, 2 * ag.ATTENTION_TILE, 2 * ag.ATTENTION_TILE + 5],
                             ids=["one-row", "one-tile", "two-full-tiles", "three-tiles"])
    def test_matches_weights_then_value_product(self, rows):
        """Values and gradients within 1e-12 of ``matmul(attention_weights(...), v)``, from unshifted exponentials."""
        len_k = rows + 8
        shapes, scale = ((2, 3, rows, 5), (2, 3, 5, len_k), (2, 3, len_k, 5)), 1.0 / np.sqrt(5)
        data = [rng.normal(0.0, 2.0, shape) for shape in shapes]
        g = rng.normal(0.0, 1.0, (2, 3, rows, 5))
        assert holder_bound(*data[:2], scale) <= ag.EXP_BOUND

        for got, want in zip(attend_and_backward(ag.attention, data, scale, g),
                             attend_and_backward(reference_attention, data, scale, g)):
            assert np.abs(got - want).max() <= 1e-12

    def test_a_tile_past_the_bound_after_one_under_it(self):
        """An item whose first tile is under the bound and whose second is past it still matches the composition."""
        tile, rows, len_k = ag.ATTENTION_TILE, 2 * ag.ATTENTION_TILE + 5, 2 * ag.ATTENTION_TILE + 13
        shapes, scale = ((2, rows, 5), (2, 5, len_k), (2, len_k, 5)), 1.0 / np.sqrt(5)
        q, k_t, v = (rng.normal(0.0, 1.0, shape) for shape in shapes)
        q[:, tile:2 * tile] *= 1000.0 / np.abs(scale * q[:, tile:2 * tile] @ k_t).max()
        g = rng.normal(0.0, 1.0, (2, rows, 5))
        for q_i, k_i in zip(q, k_t):
            assert holder_bound(q_i[:tile], k_i, scale) <= ag.EXP_BOUND < holder_bound(q_i[tile:2 * tile], k_i, scale)

        got = attend_and_backward(ag.attention, [q, k_t, v], scale, g)
        want = attend_and_backward(reference_attention, [q, k_t, v], scale, g)
        for a, b in zip(got, want):
            assert np.isfinite(a).all()
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    def test_logits_past_the_bound_keep_the_max_shift(self):
        """Logits of about +-1000, where unshifted exponentials overflow, still match the unfused composition."""
        shapes, scale = ((2, 3, 6, 5), (2, 3, 5, 9), (2, 3, 9, 5)), 1.0 / np.sqrt(5)
        q, k_t, v = (rng.normal(0.0, 1.0, shape) for shape in shapes)
        q *= 1000.0 / np.abs(scale * q @ k_t).max()
        g = rng.normal(0.0, 1.0, (2, 3, 6, 5))
        with np.errstate(over="ignore"):
            assert np.isinf(np.exp(scale * q @ k_t)).any()

        got = attend_and_backward(ag.attention, [q, k_t, v], scale, g)
        want = attend_and_backward(reference_attention, [q, k_t, v], scale, g)
        for a, b in zip(got, want):
            assert np.isfinite(a).all()
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    def test_a_stack_chooses_the_shift_item_by_item(self):
        """An item under the bound and one over it, stacked, give each item's values and gradients alone."""
        shapes, scale = ((2, 6, 5), (2, 5, 9), (2, 9, 5)), 0.5
        q, k_t, v = (rng.normal(0.0, 1.0, shape) for shape in shapes)
        k_t[1] *= 1000.0
        g = rng.normal(0.0, 1.0, (2, 6, 5))
        assert holder_bound(q[0], k_t[0], scale) <= ag.EXP_BOUND < holder_bound(q[1], k_t[1], scale)

        stacked = attend_and_backward(ag.attention, [q, k_t, v], scale, g)
        for i in range(2):
            alone = attend_and_backward(ag.attention, [q[i], k_t[i], v[i]], scale, g[i])
            assert all(np.array_equal(a[i], b) for a, b in zip(stacked, alone))

    def test_stable_for_large_logits(self):
        q = Tensor(np.array([[1e3, 0.0]]))
        k_t = Tensor(np.array([[1e3, 1e3 - 1e-3], [0.0, 0.0]]))  # logits 1e6 and 1e6 - 1
        v = Tensor(np.array([[1.0], [0.0]]))
        out = ag.attention(q, k_t, v, 1.0)
        assert np.allclose(out.data, [[1.0 / (1.0 + np.exp(-1.0))]])


# One-row operands of each op whose backward contracts an axis of length 1: the weight gradient of a stack
# of one-row items, the input gradient of a one-column weight, the key gradient of a single query.
ONE_ROW_OPS = {
    "linear": (lambda x, w, b: ag.linear(x, w, b), ((5, 1, 7), (7, 1), (1,))),
    "matmul": (lambda a, b: ag.matmul(a, b), ((5, 1, 7), (7, 1))),
    "attention_weights": (lambda q, k_t: ag.attention_weights(q, k_t, 0.5), ((2, 3, 1, 4), (2, 3, 4, 6))),
    "attention": (lambda q, k_t, v: ag.attention(q, k_t, v, 0.5), ((2, 3, 1, 4), (2, 3, 4, 6), (2, 3, 6, 4))),
}


class TestOneRowProducts:
    @pytest.mark.parametrize("op", sorted(ONE_ROW_OPS))
    def test_gradients_equal_those_of_matmul(self, monkeypatch, op):
        """A backward product over a contracted axis of length 1 is a multiply; the gradients are matmul's bit for bit."""
        build, shapes = ONE_ROW_OPS[op]
        inputs = [rng.normal(0.0, 1.0, shape) for shape in shapes]

        def gradients():
            leaves = [Tensor(x.copy(), requires_grad=True) for x in inputs]
            out = build(*leaves)
            ag.sum_axis(ag.mul(out, np.random.default_rng(3).normal(0.0, 1.0, out.shape))).backward()
            return [t.grad for t in leaves]

        product, one_row = ag._product, []
        monkeypatch.setattr(ag, "_product", lambda a, b: one_row.append(a.shape[-1] == 1) or product(a, b))
        got = gradients()
        assert any(one_row)
        monkeypatch.setattr(ag, "_product", lambda a, b: a @ b)
        for g, want in zip(got, gradients()):
            assert np.array_equal(g, want)


class TestGatherConcat:
    def test_take_rows_scatters_gradient(self):
        table = leaf(6, 3)
        idx = np.array([0, 2, 2, 5])
        check_op(lambda: ag.sum_axis(ag.mul(ag.take_rows(table, idx), ag.take_rows(table, idx))), table)

    def test_take_rows_slice_is_a_view(self):
        table = leaf(6, 3)
        assert np.shares_memory(ag.take_rows(table, slice(1, 4)).data, table.data)
        w = rng.normal(0, 1, (3, 3))
        check_op(lambda: ag.sum_axis(ag.mul(ag.take_rows(table, slice(1, 4)), w)), table)

    @pytest.mark.parametrize("idx", [slice(1, 4), np.s_[:, :1, :], np.s_[..., 2:5, :], np.s_[..., 1:3, :, :]],
                             ids=["slice", "first-row", "query-tile", "head-group"])
    def test_basic_index_gradient_adds_as_add_at_does(self, idx):
        """A basic index's gradient is added in place, bit for bit as ``np.add.at`` adds it."""
        table = leaf(4, 6, 3, 2)
        table.grad = rng.normal(0.0, 1.0, table.shape)  # added onto, so rounding shows
        want = table.grad.copy()
        w = rng.normal(0.0, 1.0, table.data[idx].shape)
        np.add.at(want, idx, w)
        ag.sum_axis(ag.mul(ag.take_rows(table, idx), w)).backward()
        assert np.array_equal(table.grad, want)

    def test_concat_rows(self):
        a, b = leaf(2, 3), leaf(4, 3)
        check_op(lambda: ag.sum_axis(ag.mul(ag.concat_rows([a, b]), ag.concat_rows([a, b]))), a, b)


class TestGraphMechanics:
    def test_diamond_reuse_accumulates(self):
        a = leaf(3)
        y = ag.add(ag.mul(a, 2.0), ag.mul(a, 3.0))  # y = 5a
        ag.sum_axis(y).backward()
        assert np.allclose(a.grad, 5.0)

    def test_no_grad_builds_no_graph(self):
        a = leaf(3)
        with ag.no_grad():
            out = ag.mul(a, 2.0)
        assert out._parents == ()
        assert not out.requires_grad

    def test_constant_inputs_build_no_graph(self):
        out = ag.mul(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert out._parents == ()

    def test_loss_scaling_scales_gradients(self):
        a = leaf(4)
        ag.sum_axis(ag.mul(a, a)).backward()
        g1 = a.grad.copy()
        a.zero_grad()
        ag.mul(ag.sum_axis(ag.mul(a, a)), 2.0).backward()
        assert np.allclose(a.grad, 2.0 * g1)

    def test_grad_accumulates_across_backwards(self):
        a = leaf(2)
        ag.sum_axis(ag.mul(a, 1.0)).backward()
        ag.sum_axis(ag.mul(a, 1.0)).backward()
        assert np.allclose(a.grad, 2.0)


class TestNormalization:
    def test_normalize_stats(self):
        x = leaf(7, 16)
        y = ag.normalize_last(x, LN_EPS)
        assert np.abs(y.data.mean(axis=-1)).max() < 1e-9
        assert np.abs(y.data.var(axis=-1) - 1.0).max() < 1e-9

    def test_normalize_gradient(self):
        x = leaf(3, 6)
        w = rng.normal(0, 1, (3, 6))
        check_op(lambda: ag.sum_axis(ag.mul(ag.normalize_last(x, LN_EPS), w)), x, tol=1e-5)

    def test_normalize_constant_rows_are_finite(self):
        y = ag.normalize_last(Tensor(np.full((2, 4), 3.0)), LN_EPS)
        assert np.isfinite(y.data).all()
        assert np.allclose(y.data, 0.0)

    def test_layer_norm_affine(self):
        x, g, b = leaf(4, 8), leaf(8), leaf(8)
        params = {"ln.g": g, "ln.b": b}
        check_op(lambda: ag.sum_axis(ag.mul(apply_layer_norm(x, params, "ln"), 0.5)), x, g, b, tol=1e-5)


class TestAttentionLayer:
    def test_hand_checkable_single_head(self):
        # identity projections, zero biases: attention reduces to softmax(q k^T / sqrt(d)) v
        d = 2
        params = {}
        for name in ("wq", "wk", "wv", "wo"):
            params[f"a.{name}"] = Tensor(np.eye(d), requires_grad=True)
        for name in ("bq", "bk", "bv", "bo"):
            params[f"a.{name}"] = Tensor(np.zeros(d), requires_grad=True)
        x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        out = multi_head_attention(x, x, params, "a", n_heads=1)
        import math

        logits = x.data @ x.data.T / math.sqrt(2)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected = (e / e.sum(axis=-1, keepdims=True)) @ x.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_attention_gradient(self):
        d, params = 4, {}
        for name in ("wq", "wk", "wv", "wo"):
            params[f"a.{name}"] = Tensor(rng.normal(0, 0.5, (d, d)), requires_grad=True)
        for name in ("bq", "bk", "bv", "bo"):
            params[f"a.{name}"] = Tensor(rng.normal(0, 0.1, d), requires_grad=True)
        x = Tensor(rng.normal(0, 1, (3, d)))

        def loss():
            return ag.sum_axis(ag.mul(multi_head_attention(x, x, params, "a", n_heads=2), 1.0))

        loss_node = loss()
        loss_node.backward()
        for name, p in params.items():
            analytic = p.grad.copy()
            p.zero_grad()
            fd = finite_diff(lambda: float(loss().data), p.data)
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7), name
