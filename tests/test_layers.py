import hashlib
import sys

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa import layers
from pixqa.autograd import Tensor
from pixqa.layers import ATTENTION_TILE, attention_table, init_params, multi_head_attention
from pixqa.model import NEG_MASK, ModelConfig, VqaModel
from pixqa.render import PatchGrid
from pixqa.scorer import AGGREGATIONS, ScorerConfig, SelfAttentionScorer

D_MODEL, N_HEADS = 8, 2


def attention_params(seed=0) -> dict[str, Tensor]:
    return init_params(attention_table("a", D_MODEL), seed)


def run(q_in, kv_in, params, mask, grad: bool):
    """Output, then (when grad) the gradients of a fixed random projection of it."""
    for t in (q_in, kv_in, *params.values()):
        t.zero_grad()
    if not grad:
        with ag.no_grad():
            return multi_head_attention(q_in, kv_in, params, "a", N_HEADS, mask=mask).data, {}
    out = multi_head_attention(q_in, kv_in, params, "a", N_HEADS, mask=mask)
    weights = np.random.default_rng(1).normal(0.0, 1.0, out.shape)
    ag.sum_axis(ag.mul(out, weights)).backward()
    named = {"q_in": q_in, "kv_in": kv_in, **params}
    return out.data, {name: t.grad.copy() for name, t in named.items()}


class TestQueryTiling:
    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize(
        "len_q, len_k, causal",
        [(150, 150, False), (150, 150, True), (150, 90, False), (ATTENTION_TILE + 1, 40, False)],
    )
    def test_tiled_matches_untiled(self, monkeypatch, len_q, len_k, causal, grad):
        assert len_q > ATTENTION_TILE and len_q % ATTENTION_TILE != 0
        r = np.random.default_rng(7)
        q_in = Tensor(r.normal(0.0, 1.0, (len_q, D_MODEL)), requires_grad=True)
        kv_in = q_in if len_q == len_k else Tensor(r.normal(0.0, 1.0, (len_k, D_MODEL)), requires_grad=True)
        mask = np.triu(np.full((len_q, len_k), NEG_MASK), k=1) if causal else None
        params = attention_params()

        tiled, tiled_grads = run(q_in, kv_in, params, mask, grad)
        monkeypatch.setattr(layers, "ATTENTION_TILE", len_q)  # one block of every query row
        untiled, untiled_grads = run(q_in, kv_in, params, mask, grad)

        assert np.abs(tiled - untiled).max() <= 1e-12
        assert tiled_grads.keys() == untiled_grads.keys()
        for name, g in untiled_grads.items():
            assert np.abs(tiled_grads[name] - g).max() <= 1e-12, name

    def test_causal_mask_sliced_by_tile_rows(self):
        # Row i may only see keys 0..i, so changing the last key leaves all earlier rows unchanged.
        r = np.random.default_rng(3)
        n = 2 * ATTENTION_TILE + 5
        x = r.normal(0.0, 1.0, (n, D_MODEL))
        mask = np.triu(np.full((n, n), NEG_MASK), k=1)
        params = attention_params()
        with ag.no_grad():
            base = multi_head_attention(Tensor(x), Tensor(x), params, "a", N_HEADS, mask=mask).data
            x[-1] += 1.0
            moved = multi_head_attention(Tensor(x), Tensor(x), params, "a", N_HEADS, mask=mask).data
        assert (base[:-1] == moved[:-1]).all()
        assert not np.allclose(base[-1], moved[-1])

    def test_one_tile_adds_no_graph_node(self):
        def graph_size(len_q: int) -> int:
            x = Tensor(np.random.default_rng(4).normal(0.0, 1.0, (len_q, D_MODEL)))
            root = multi_head_attention(x, x, attention_params(), "a", N_HEADS)
            seen, stack = set(), [root]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        assert graph_size(1) == graph_size(ATTENTION_TILE) < graph_size(ATTENTION_TILE + 1)


def force_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(layers, "attention_workers", lambda: n)


class TestHeadGroups:
    """Tiled attention split across 1, 2 or more head groups gives the same bits."""

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("len_q, len_k, causal", [(150, 150, False), (150, 150, True), (150, 90, False)])
    def test_groups_are_bit_identical(self, monkeypatch, len_q, len_k, causal, grad):
        r = np.random.default_rng(11)
        q_in = Tensor(r.normal(0.0, 1.0, (len_q, D_MODEL)), requires_grad=True)
        kv_in = q_in if len_q == len_k else Tensor(r.normal(0.0, 1.0, (len_k, D_MODEL)), requires_grad=True)
        mask = np.triu(np.full((len_q, len_k), NEG_MASK), k=1) if causal else None
        params = attention_params()

        results = []
        for workers in (1, 2, 5):  # 5 is capped at N_HEADS groups
            force_workers(monkeypatch, workers)
            results.append(run(q_in, kv_in, params, mask, grad))
        (one, one_grads), *others = results
        for out, grads in others:
            assert np.array_equal(out, one)
            assert grads.keys() == one_grads.keys()
            for name, g in one_grads.items():
                assert np.array_equal(grads[name], g), name

    def test_stress_more_workers_than_cores(self, monkeypatch):
        """Eight head groups on their own pool threads, switching threads as often as the interpreter can."""
        d_model, n_heads = 16, 8
        params = init_params(attention_table("a", d_model), 13)
        x = Tensor(np.random.default_rng(14).normal(0.0, 1.0, (200, d_model)), requires_grad=True)

        def attend() -> list[np.ndarray]:
            for t in (x, *params.values()):
                t.zero_grad()
            out = multi_head_attention(x, x, params, "a", n_heads)
            ag.sum_axis(ag.mul(out, out)).backward()
            return [out.data, x.grad.copy(), *(t.grad.copy() for t in params.values())]

        force_workers(monkeypatch, 1)
        expected = attend()
        force_workers(monkeypatch, n_heads)
        layers._attention_pool.cache_clear()  # a pool with n_heads - 1 threads
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert all(np.array_equal(a, b) for a, b in zip(attend(), expected))
        finally:
            sys.setswitchinterval(interval)
            layers._attention_pool().shutdown()
            layers._attention_pool.cache_clear()

    def test_one_group_runs_inline(self, monkeypatch):
        force_workers(monkeypatch, 1)
        monkeypatch.setattr(layers, "_attention_pool", lambda: pytest.fail("one head group must not use the pool"))
        x = Tensor(np.random.default_rng(12).normal(0.0, 1.0, (150, D_MODEL)))
        with ag.no_grad():
            multi_head_attention(x, x, attention_params(), "a", N_HEADS)

    def test_paper_budget_encode_is_bit_identical(self, monkeypatch):
        cfg = ModelConfig(d_model=96, n_heads=8, n_enc_layers=2, n_dec_layers=2, d_ff=384,
                          max_patches=2048, max_answer_len=8, vocab_chars="ABCDEF0123456789? ", seed=0)
        model = VqaModel(cfg)
        grid = PatchGrid(rows=32, cols=64, patch_size=16, patches=np.random.default_rng(0).random((1, 2048, 256)))
        features = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            with ag.no_grad():
                features.append(model.encode_grid(grid).data)
        assert np.array_equal(features[0], features[1])


class TestPageStacks:
    """A stack with a leading page axis computes each page as it would alone."""

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("n", [20, 2 * ATTENTION_TILE + 5], ids=["one-tile", "tiled"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_stacked_attention_equals_each_sequence_alone(self, monkeypatch, causal, n, grad):
        """Values, and gradients that add up page by page in stack order; tiled with two head groups."""
        force_workers(monkeypatch, 2)  # one head group on the calling thread, one on a pool thread
        pages = 3
        r = np.random.default_rng(15)
        x = r.normal(0.0, 1.0, (pages, n, D_MODEL))
        weights = r.normal(0.0, 1.0, x.shape)
        mask = np.triu(np.full((n, n), NEG_MASK), k=1) if causal else None
        params = attention_params()

        def attend(x_in: Tensor, w: np.ndarray) -> np.ndarray:
            if not grad:
                with ag.no_grad():
                    return multi_head_attention(x_in, x_in, params, "a", N_HEADS, mask=mask).data
            out = multi_head_attention(x_in, x_in, params, "a", N_HEADS, mask=mask)
            ag.sum_axis(ag.mul(out, w)).backward()
            return out.data

        stack = Tensor(x, requires_grad=True)
        out = attend(stack, weights)
        stacked_grads = {name: t.grad.copy() for name, t in params.items()} if grad else {}
        for t in params.values():
            t.zero_grad()
        for i in range(pages):  # parameter gradients accumulate over the pages in order
            page = Tensor(x[i], requires_grad=True)
            assert np.array_equal(out[i], attend(page, weights[i]))
            if grad:
                assert np.array_equal(stack.grad[i], page.grad)
        for name, g in stacked_grads.items():
            assert np.array_equal(params[name].grad, g), name


SMALL = ModelConfig(d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=3, d_ff=32, patch_size=4,
                    max_patches=16, vocab_chars="abcdef", max_answer_len=5, seed=1)
SCORER_1_LAYER = "8f9f45df2c146db1ceb22d3995fd1b76a275a5594499367c5306177693a0a487"
SCORER_2_LAYERS = "37920c64f67e689b896a7ca21516b77b35ed0457115e67441dfe59bc624f0529"


class TestParamTable:
    """Each network's parameters, drawn from its table, are pinned by value: a changed draw order fails here."""

    @staticmethod
    def digest(params: dict[str, Tensor]) -> str:
        h = hashlib.sha256()
        for name, p in params.items():
            h.update(name.encode() + p.data.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("cfg, expected", [
        (ModelConfig(), "560f380f160da7b5c20edf29f2133c5048933e016ff0698fecdd2c5f51aa5579"),
        (SMALL, "882d7cbf31a2d077c5065d789c3d53311b669da952fc0a28494669309f62e709"),
    ], ids=["default", "small-3-dec"])
    def test_model_parameters_are_pinned(self, cfg, expected):
        assert self.digest(VqaModel(cfg).params) == expected

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    @pytest.mark.parametrize("n_layers, expected", [(1, SCORER_1_LAYER), (2, SCORER_2_LAYERS)])
    def test_scorer_parameters_are_pinned(self, aggregation, n_layers, expected):
        cfg = ScorerConfig(n_sa_layers=n_layers, n_heads=2, aggregation=aggregation)
        assert self.digest(SelfAttentionScorer(cfg, 16, seed=3).params) == expected

    def test_keys_start_as_a_copy_of_queries(self):
        params = attention_params()
        assert np.array_equal(params["a.wk"].data, params["a.wq"].data)
        assert params["a.wk"].data is not params["a.wq"].data
