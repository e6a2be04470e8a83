import hashlib
import sys
import tracemalloc

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa import layers
from pixqa.autograd import Tensor
from pixqa.layers import (
    ATTENTION_TILE,
    NEG_MASK,
    attend,
    attention_table,
    init_params,
    linear,
    multi_head_attention,
    project_kv,
)
from pixqa.model import ModelConfig, VqaModel
from pixqa.render import PatchGrid
from pixqa.scorer import AGGREGATIONS, ScorerConfig, SelfAttentionScorer

D_MODEL, N_HEADS = 8, 2


def attention_params(seed=0) -> dict[str, Tensor]:
    return init_params(attention_table("a", D_MODEL), seed)


def decoder_attention(q_in, kv_in, params, causal: bool) -> Tensor:
    """Attention of ``q_in``'s rows over ``kv_in``'s, called as the decoder calls it."""
    return attend(q_in, *project_kv(kv_in, params, "a", N_HEADS), params, "a", N_HEADS, causal=causal)


def one_block_attention(q_in, kv_in, params, mask) -> Tensor:
    """``attend``'s one-block composition of one sequence under an additive ``mask``, built from the ops it uses."""
    len_q, head_dim = q_in.shape[0], D_MODEL // N_HEADS
    k, v = project_kv(kv_in, params, "a", N_HEADS)
    q = ag.transpose(ag.reshape(linear(q_in, params["a.wq"], params["a.bq"]), (len_q, N_HEADS, head_dim)), (1, 0, 2))
    weights = ag.attention_weights(q, ag.transpose(k, (1, 2, 0)), 1.0 / np.sqrt(head_dim), mask)
    context = ag.matmul(weights, ag.transpose(v, (1, 0, 2)))
    return linear(ag.reshape(ag.transpose(context, (1, 0, 2)), (len_q, D_MODEL)), params["a.wo"], params["a.bo"])


def run(q_in, kv_in, params, causal, grad: bool, op=decoder_attention):
    """``op``'s output, then (when grad) the gradients of a fixed random projection of it."""
    for t in (q_in, kv_in, *params.values()):
        t.zero_grad()
    if not grad:
        with ag.no_grad():
            return op(q_in, kv_in, params, causal).data, {}
    out = op(q_in, kv_in, params, causal)
    weights = np.random.default_rng(1).normal(0.0, 1.0, out.shape)
    ag.sum_axis(ag.mul(out, weights)).backward()
    named = {"q_in": q_in, "kv_in": kv_in, **params}
    return out.data, {name: t.grad.copy() for name, t in named.items()}


class TestQueryTiling:
    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("len_q, len_k", [(150, 150), (150, 90), (ATTENTION_TILE + 1, 40)])
    def test_tiled_matches_untiled(self, monkeypatch, len_q, len_k, grad):
        assert len_q > ATTENTION_TILE and len_q % ATTENTION_TILE != 0
        r = np.random.default_rng(7)
        q_in = Tensor(r.normal(0.0, 1.0, (len_q, D_MODEL)), requires_grad=True)
        kv_in = q_in if len_q == len_k else Tensor(r.normal(0.0, 1.0, (len_k, D_MODEL)), requires_grad=True)
        params = attention_params()

        tiled, tiled_grads = run(q_in, kv_in, params, False, grad)
        monkeypatch.setattr(layers, "ATTENTION_TILE", len_q)  # one block of every query row
        untiled, untiled_grads = run(q_in, kv_in, params, False, grad)

        assert np.abs(tiled - untiled).max() <= 1e-12
        assert tiled_grads.keys() == untiled_grads.keys()
        for name, g in untiled_grads.items():
            assert np.abs(tiled_grads[name] - g).max() <= 1e-12, name

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
        assert graph_size(ATTENTION_TILE + 1) == graph_size(4 * ATTENTION_TILE + 3)  # one node per head group


class TestCausal:
    """``attend(causal=True)`` runs one block under the triangle mask, never ``ag.attention``'s tiles."""

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("past", [0, 3])
    def test_past_one_tile_equals_one_block_under_the_triangle_mask(self, monkeypatch, past, grad):
        """Values and (when grad) gradients bit for bit, with ``past`` keys before the first query row's own.

        Without autograd a causal call runs one block too, although tiles would free their exponentials there.
        """
        n = 2 * ATTENTION_TILE + 5
        r = np.random.default_rng(17)
        q_in = Tensor(r.normal(0.0, 1.0, (n, D_MODEL)), requires_grad=True)
        kv_in = Tensor(r.normal(0.0, 1.0, (past + n, D_MODEL)), requires_grad=True)
        params = attention_params()
        mask = np.triu(np.full((n, past + n), NEG_MASK), k=past + 1)

        want, want_grads = run(q_in, kv_in, params, True, grad, op=lambda *args: one_block_attention(*args[:3], mask))
        monkeypatch.setattr(ag, "attention", lambda *args: pytest.fail("a causal call must not tile"))
        got, got_grads = run(q_in, kv_in, params, True, grad)
        assert np.array_equal(got, want)
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert np.array_equal(got_grads[name], g), name

    @pytest.mark.parametrize("grad", [True, False])
    def test_one_row_builds_no_mask(self, monkeypatch, grad):
        """A greedy step's query is the newest token, which sees every key: the unmasked call, bit for bit."""
        r = np.random.default_rng(18)
        q_in = Tensor(r.normal(0.0, 1.0, (1, D_MODEL)), requires_grad=True)
        kv_in = Tensor(r.normal(0.0, 1.0, (9, D_MODEL)), requires_grad=True)
        params = attention_params()
        unmasked, unmasked_grads = run(q_in, kv_in, params, False, grad)

        masks = []
        weights = ag.attention_weights
        monkeypatch.setattr(ag, "attention_weights", lambda *args: masks.append(args[3]) or weights(*args))
        out, grads = run(q_in, kv_in, params, True, grad)
        assert masks == [None]
        assert np.array_equal(out, unmasked)
        assert grads.keys() == unmasked_grads.keys()
        for name, g in unmasked_grads.items():
            assert np.array_equal(grads[name], g), name

    @pytest.mark.parametrize("grad", [True, False])
    def test_rows_do_not_see_later_keys(self, grad):
        # Row i may only see keys 0..i, so changing the last key leaves all earlier rows unchanged.
        r = np.random.default_rng(3)
        n = 2 * ATTENTION_TILE + 5
        x = r.normal(0.0, 1.0, (n, D_MODEL))
        params = attention_params()
        base, _ = run(Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True), params, True, grad)
        x[-1] += 1.0
        moved, _ = run(Tensor(x.copy(), requires_grad=True), Tensor(x.copy(), requires_grad=True), params, True, grad)
        assert (base[:-1] == moved[:-1]).all()
        assert not np.allclose(base[-1], moved[-1])


def force_workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(layers, "attention_workers", lambda: n)


class TestHeadGroups:
    """Tiled attention split across 1, 2 or more head groups gives the same bits."""

    @pytest.mark.parametrize("grad", [True, False])
    @pytest.mark.parametrize("len_q, len_k", [(150, 150), (150, 90)])
    def test_groups_are_bit_identical(self, monkeypatch, len_q, len_k, grad):
        r = np.random.default_rng(11)
        q_in = Tensor(r.normal(0.0, 1.0, (len_q, D_MODEL)), requires_grad=True)
        kv_in = q_in if len_q == len_k else Tensor(r.normal(0.0, 1.0, (len_k, D_MODEL)), requires_grad=True)
        params = attention_params()

        results = []
        for workers in (1, 2, 5):  # 5 is capped at N_HEADS groups
            force_workers(monkeypatch, workers)
            results.append(run(q_in, kv_in, params, False, grad))
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


class TestTileMemory:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_grad_peak_stays_within_two_tiles_of_exponentials(self, monkeypatch, workers):
        """Without autograd each tile's exponentials are freed before the next tile of the item allocates its own.

        A tile's exponentials are one item's (one head's), 64 x 1024 doubles: 512 KiB. While the tiles run,
        the rest of the call holds four (rows, d_model) activations (Q, K, V and the contexts) and, per
        worker, one item's scaled Q and its K^T and V copies; its tail (the joined, merged and projected
        outputs) holds six activations, less than the bound. The bound allows each worker a tile and a half,
        half a tile for the tile's small temporaries, so a tile kept alive until the next one has allocated
        its own (two per worker) breaks it.
        """
        d_model, n_heads, rows = 32, 8, 1024
        force_workers(monkeypatch, workers)
        params = init_params(attention_table("a", d_model), 0)
        x = Tensor(np.random.default_rng(0).normal(0.0, 1.0, (rows, d_model)))
        with ag.no_grad():
            multi_head_attention(x, x, params, "a", n_heads)  # the pool's threads start before the trace
            tracemalloc.start()
            try:
                multi_head_attention(x, x, params, "a", n_heads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        rest = 4 * rows * d_model * 8 + workers * 3 * rows * (d_model // n_heads) * 8
        tile = ATTENTION_TILE * rows * 8
        assert peak < rest + workers * 1.5 * tile, f"peak {peak / 2**20:.2f} MiB"


def weights_then_value_product(q, k_t, v, scale):
    """A head group's ``ag.attention`` call unfused and untiled: the softmax weights, then their product with v."""
    return ag.matmul(ag.attention_weights(q, k_t, scale), v)


class TestFusedTiles:
    def test_paper_budget_page_matches_weights_then_value_product(self, monkeypatch):
        """A 2048-patch page's feature and scores within 1e-12, and its greedy answer identical.

        The reference replaces every ``ag.attention`` call, one per head group and tiled layer, by the
        unfused, untiled composition.
        """
        cfg = ModelConfig(d_model=96, n_heads=8, n_enc_layers=2, n_dec_layers=2, d_ff=384,
                          max_patches=2048, max_answer_len=8, vocab_chars="ABCDEF0123456789? ", seed=0)
        model = VqaModel(cfg)
        scorers = [SelfAttentionScorer(ScorerConfig(aggregation=a), cfg.d_model, seed=1) for a in AGGREGATIONS]
        grid = PatchGrid(rows=32, cols=64, patch_size=16, patches=np.random.default_rng(5).random((1, 2048, 256)))

        def outputs():
            with ag.no_grad():
                feature = model.encode_grid(grid)
                return feature.data, [s.score(feature).data.item() for s in scorers], model.generate_answer(feature)

        feature, scores, answer = outputs()
        group_calls = []
        monkeypatch.setattr(ag, "attention",
                            lambda *args: group_calls.append(1) or weights_then_value_product(*args))
        want_feature, want_scores, want_answer = outputs()
        assert group_calls  # the encoder and the avgpool scorer ran tiled
        assert np.abs(feature - want_feature).max() <= 1e-12
        assert np.abs(np.subtract(scores, want_scores)).max() <= 1e-12
        assert answer == want_answer


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
        params = attention_params()

        def attend(x_in: Tensor, w: np.ndarray) -> np.ndarray:
            if not grad:
                with ag.no_grad():
                    return decoder_attention(x_in, x_in, params, causal).data
            out = decoder_attention(x_in, x_in, params, causal)
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


class TestKeyBias:
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("n", [39, 150], ids=["one-block", "tiled"])
    def test_key_bias_gradient_is_zero_to_rounding(self, causal, n):
        """q . bk adds one constant to a query's every logit, which the softmax cancels: bk's exact gradient is 0."""
        r = np.random.default_rng(16)
        x = Tensor(r.normal(0.0, 1.0, (n, D_MODEL)), requires_grad=True)
        params = attention_params()
        for name in ("a.bq", "a.bk"):
            params[name].data = r.normal(0.0, 0.5, D_MODEL)
        _, grads = run(x, x, params, causal, grad=True)
        assert np.abs(grads["a.bq"]).max() > 1.0
        assert np.abs(grads["a.bk"]).max() <= 1e-12 * np.abs(grads["a.bq"]).max()


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
