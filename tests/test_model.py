import contextlib
import math
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa import layers
from pixqa import model as model_module
from pixqa.autograd import Tensor, no_grad
from pixqa.errors import BudgetError, ConfigError, NumericError
from pixqa.model import BLOCK_ROWS, BOS, EOS, PAD, ModelConfig, Vocab, VqaModel, parameter_gradients
from pixqa.render import PatchGrid, stack_grids

TINY = ModelConfig(
    d_model=8,
    n_heads=2,
    n_enc_layers=1,
    n_dec_layers=1,
    d_ff=16,
    patch_size=4,
    max_patches=8,
    vocab_chars="abcdef",
    max_answer_len=5,
    seed=0,
)


def tiny_grid(n_rows=2, n_cols=3, seed=0) -> PatchGrid:
    rng = np.random.default_rng(seed)
    return PatchGrid(rows=n_rows, cols=n_cols, patch_size=4, patches=rng.random((1, n_rows * n_cols, 16)))


class TestVocab:
    def test_specials_reserved_once(self):
        v = Vocab("abc")
        assert v.size == 6
        assert (PAD, BOS, EOS) == (0, 1, 2)

    def test_answer_roundtrip(self):
        v = Vocab("abc")
        ids = v.encode_answer("cab")
        assert ids[-1] == EOS
        assert v.decode(ids) == "cab"

    def test_unknown_character_rejected(self):
        with pytest.raises(ValueError, match="'z'"):
            Vocab("abc").encode_answer("z")

    def test_duplicate_chars_rejected(self):
        with pytest.raises(ConfigError):
            Vocab("aa")

    def test_decode_stops_at_eos(self):
        v = Vocab("abc")
        assert v.decode([3, 4, EOS, 5]) == "ab"


class TestConfig:
    def test_heads_must_divide(self):
        with pytest.raises(ConfigError):
            ModelConfig(d_model=10, n_heads=4)

    @pytest.mark.parametrize("field", ["d_model", "n_heads", "n_enc_layers", "d_ff", "max_patches"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_sizes_must_be_positive(self, field, value):
        with pytest.raises(ConfigError):
            ModelConfig(**{field: value})

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            ModelConfig(seed=-1)

    @pytest.mark.parametrize("cfg", [TINY, ModelConfig(n_dec_layers=3)], ids=["tiny", "default-3-dec"])
    def test_param_shapes_match_init(self, cfg):
        model = VqaModel(cfg)
        table = VqaModel.param_table(cfg)
        assert [(name, shape) for name, shape, _ in table] == [(name, p.shape) for name, p in model.params.items()]

    def test_defaults_are_paper_gap_decisions(self):
        cfg = ModelConfig()
        assert (cfg.d_model, cfg.n_enc_layers, cfg.n_dec_layers, cfg.n_heads) == (64, 2, 2, 4)
        assert (cfg.patch_size, cfg.max_patches) == (16, 2048)


class TestEmbedPatches:
    def test_one_vector_per_patch(self):
        m = VqaModel(TINY)
        out = m.embed_patches(tiny_grid())
        assert out.shape == (1, 6, 8)

    def test_zero_parameters_give_zero_vectors(self):
        m = VqaModel(TINY)
        for name in ("embed.proj_w", "embed.proj_b", "embed.row_emb", "embed.col_emb"):
            m.params[name].data[:] = 0.0
        assert (m.embed_patches(tiny_grid()).data == 0.0).all()

    def test_hand_computed_affine(self):
        cfg = ModelConfig(
            d_model=2, n_heads=1, n_enc_layers=1, n_dec_layers=1, d_ff=4,
            patch_size=1, max_patches=4, vocab_chars="ab", max_answer_len=2, seed=0,
        )
        m = VqaModel(cfg)
        m.params["embed.proj_w"].data = np.array([[2.0, -1.0]])
        m.params["embed.proj_b"].data = np.array([0.5, 0.25])
        m.params["embed.row_emb"].data = np.array([[10.0, 20.0], [30.0, 40.0], [0, 0], [0, 0]])
        m.params["embed.col_emb"].data = np.array([[1.0, 2.0], [3.0, 4.0], [0, 0], [0, 0]])
        grid = PatchGrid(rows=1, cols=1, patch_size=1, patches=np.array([[[0.5]]]))
        # white-centered patch value 0.5 - 1.0 = -0.5:
        # projection [-1.0, 0.5] + bias [.5,.25] + row0 [10,20] + col0 [1,2]
        assert np.allclose(m.embed_patches(grid).data, [[[10.5, 22.75]]])

    def test_budget_violation(self):
        m = VqaModel(TINY)
        with pytest.raises(BudgetError):
            m.embed_patches(tiny_grid(3, 3))

    def test_patch_size_mismatch(self):
        m = VqaModel(TINY)
        grid = PatchGrid(rows=1, cols=1, patch_size=2, patches=np.zeros((1, 1, 4)))
        with pytest.raises(ConfigError):
            m.embed_patches(grid)


class TestEncode:
    def test_length_preserved(self):
        m = VqaModel(TINY)
        for n in (1, 4, 7):
            grid = tiny_grid(1, n)
            assert m.encode(m.embed_patches(grid)).shape[-2] == n

    def test_eval_bit_identical(self):
        m = VqaModel(TINY)
        grid = tiny_grid()
        with no_grad():
            a = m.encode_grid(grid).data
            b = m.encode_grid(grid).data
        assert (a == b).all()

    @pytest.mark.parametrize("grad", [True, False])
    def test_stacked_grid_encodes_each_page_as_alone(self, grad):
        m = VqaModel(TINY)
        grids = [tiny_grid(seed=s) for s in range(3)]
        with ag.no_grad() if not grad else contextlib.nullcontext():
            alone = [m.encode_grid(g).data for g in grids]
            stacked = m.encode_grid(stack_grids(grids))
        assert stacked.shape == (3, 6, TINY.d_model)
        assert all(np.array_equal(stacked.data[i : i + 1], a) for i, a in enumerate(alone))

    def test_seed_reproducibility(self):
        a, b = VqaModel(TINY), VqaModel(TINY)
        for name in a.params:
            assert (a.params[name].data == b.params[name].data).all()
        c = VqaModel(ModelConfig(**{**TINY.__dict__, "seed": 99}))
        assert any((a.params[n].data != c.params[n].data).any() for n in a.params)

    def test_single_layer_matches_plain_numpy_reference(self):
        """Independent dense re-implementation of one pre-norm block."""
        m = VqaModel(TINY)
        grid = tiny_grid(seed=3)
        with no_grad():
            ours = m.encode(m.embed_patches(grid)).data[0]
            x = m.embed_patches(grid).data[0]

        p = {k: t.data for k, t in m.params.items()}

        def norm(v):
            mu = v.mean(-1, keepdims=True)
            var = ((v - mu) ** 2).mean(-1, keepdims=True)
            return (v - mu) / np.sqrt(var + 1e-12)

        def mha(q_in, kv_in, pre, heads=2):
            d = q_in.shape[1]
            hd = d // heads
            q = q_in @ p[f"{pre}.wq"] + p[f"{pre}.bq"]
            k = kv_in @ p[f"{pre}.wk"] + p[f"{pre}.bk"]
            v = kv_in @ p[f"{pre}.wv"] + p[f"{pre}.bv"]
            outs = []
            for h in range(heads):
                sl = slice(h * hd, (h + 1) * hd)
                logits = q[:, sl] @ k[:, sl].T / math.sqrt(hd)
                e = np.exp(logits - logits.max(-1, keepdims=True))
                attn = e / e.sum(-1, keepdims=True)
                outs.append(attn @ v[:, sl])
            return np.concatenate(outs, axis=1) @ p[f"{pre}.wo"] + p[f"{pre}.bo"]

        a = norm(x) * p["enc.0.ln1.g"] + p["enc.0.ln1.b"]
        x = x + mha(a, a, "enc.0.attn")
        b = norm(x) * p["enc.0.ln2.g"] + p["enc.0.ln2.b"]
        h = np.maximum(b @ p["enc.0.ffn.w1"] + p["enc.0.ffn.b1"], 0.0)
        x = x + h @ p["enc.0.ffn.w2"] + p["enc.0.ffn.b2"]
        expected = norm(x) * p["enc.final_ln.g"] + p["enc.final_ln.b"]
        assert np.allclose(ours, expected, atol=1e-12)

    def test_nonfinite_named_layer(self):
        m = VqaModel(TINY)
        m.params["enc.0.ffn.w2"].data[:] = 1e308
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericError, match="encoder layer 0"):
            with no_grad():
                m.encode_grid(tiny_grid())

    def test_empty_sequence_rejected(self):
        m = VqaModel(TINY)
        with pytest.raises(ValueError):
            m.encode(Tensor(np.zeros((1, 0, 8))))


DESK = ModelConfig(d_model=96, n_heads=8, n_enc_layers=2, n_dec_layers=2, d_ff=384, max_patches=2048,
                   max_answer_len=8, vocab_chars="ABCDEF0123456789? ", seed=0)


def desk_block(pages: int, rows: int = 3, cols: int = 13) -> PatchGrid:
    """A stack of random pages, 39 patches each by default: desk pages with the question fused on top."""
    return PatchGrid(rows, cols, 16, np.random.default_rng(pages).random((pages, rows * cols, 256)))


def encode_page_at_a_time(m: VqaModel, grid: PatchGrid) -> np.ndarray:
    return np.concatenate([m.encode_grid(replace(grid, patches=page[None])).data for page in grid.patches])


class TestBlockSplit:
    """Without autograd, a stack that fills a block is encoded in parts, one per CPU, bit for bit."""

    @staticmethod
    def force_workers(monkeypatch, n: int) -> list[list[int]]:
        """Let encode_grid see ``n`` CPUs; return the pages of each part of each split block, one list per block."""
        monkeypatch.setattr(model_module, "attention_workers", lambda: n)
        blocks, run_parts = [], model_module.run_parts

        def recorded(fn, jobs):
            blocks.append([len(part.patches) for part, in jobs])
            return run_parts(fn, jobs)

        monkeypatch.setattr(model_module, "run_parts", recorded)
        return blocks

    def test_full_desk_block_is_bit_identical_across_cpu_counts(self, monkeypatch):
        m, grid = VqaModel(DESK), desk_block(13)
        assert (13 + 1) * grid.n_patches > BLOCK_ROWS  # no room for a 14th page
        features = []
        for workers in (1, 2):
            blocks = self.force_workers(monkeypatch, workers)
            with no_grad():
                features.append(m.encode_grid(grid).data)
            assert blocks == ([] if workers == 1 else [[7, 6]])
        with no_grad():
            alone = encode_page_at_a_time(m, grid)
        assert np.array_equal(features[0], features[1])
        assert np.array_equal(features[0], alone)

    def test_a_part_is_no_smaller_than_a_quarter_block(self, monkeypatch):
        blocks = self.force_workers(monkeypatch, 16)
        with no_grad():
            VqaModel(DESK).encode_grid(desk_block(13))
        assert blocks == [[5, 4, 4]]  # 4 pages of 39 patches is the fewest that reach BLOCK_ROWS // 4 rows

    @pytest.mark.parametrize("workers, pages, rows, grad", [(1, 13, 3, False), (2, 8, 3, False), (2, 13, 3, True),
                                                            (2, 3, 10, False)],
                             ids=["one-cpu", "8-page-block", "autograd", "150-patch-pages"])
    def test_block_that_does_not_split_never_touches_the_pool(self, monkeypatch, workers, pages, rows, grad):
        """150-patch pages fill a block at 3 pages, but a part on the pool would tile its attention and
        submit head groups to the pool it runs on; so they are not split."""
        self.force_workers(monkeypatch, workers)
        monkeypatch.setattr(layers, "attention_workers", lambda: 1)  # head groups stay on the calling thread
        monkeypatch.setattr(layers, "_attention_pool", lambda: pytest.fail("this block must not use the pool"))
        m = VqaModel(DESK)
        with contextlib.nullcontext() if grad else no_grad():
            assert m.encode_grid(desk_block(pages, rows)).shape == (pages, rows * 13, DESK.d_model)

    def test_full_block_of_tiled_pages_finishes_on_two_cpus(self, monkeypatch):
        """Head groups on the pool and no block split: it ends, and matches one page at a time.

        A pool thread that submitted to its own one-thread pool would wait forever; here it raises instead.
        """
        blocks = self.force_workers(monkeypatch, 2)
        monkeypatch.setattr(layers, "attention_workers", lambda: 2)
        pool = layers._attention_pool()

        def submit(fn, *args):
            assert not threading.current_thread().name.startswith("pixqa-attention"), "a pool thread waits on its pool"
            return pool.submit(fn, *args)

        monkeypatch.setattr(layers, "_attention_pool", lambda: SimpleNamespace(submit=submit))
        m, grid = VqaModel(DESK), desk_block(3, rows=10)
        with no_grad():
            assert np.array_equal(m.encode_grid(grid).data, encode_page_at_a_time(m, grid))
        assert blocks == []

    def test_nonfinite_page_in_the_pools_part_raises_and_the_next_call_works(self, monkeypatch):
        self.force_workers(monkeypatch, 2)
        m, grid = VqaModel(DESK), desk_block(13)
        bad = replace(grid, patches=grid.patches.copy())
        bad.patches[12] = np.nan  # the last page is in the second part, which the pool encodes
        with no_grad():
            with pytest.raises(NumericError, match="encoder layer 0"):
                m.encode_grid(bad)
            assert np.array_equal(m.encode_grid(grid).data, encode_page_at_a_time(m, grid))


class TestLoss:
    def test_uniform_logits_give_log_vocab(self):
        m = VqaModel(TINY)
        m.params["dec.out_w"].data[:] = 0.0
        m.params["dec.out_b"].data[:] = 0.0
        with no_grad():
            f = m.encode_grid(tiny_grid())
        loss = m.vqa_loss(f, ["ab"])
        assert loss.data.item() == pytest.approx(math.log(m.vocab.size), abs=1e-12)

    def test_onehot_distribution_gives_zero(self):
        """Saturated logits on the target tokens make the loss exactly zero."""
        m = VqaModel(TINY)
        target = m.vocab.encode_answer("ba")
        logits = np.full((len(target), m.vocab.size), -2000.0)
        logits[np.arange(len(target)), target] = 2000.0
        ls = ag.log_softmax_last(Tensor(logits))
        picked = ls.data[np.arange(len(target)), target]
        assert float(-(picked.mean())) == 0.0

    def test_hand_computed_three_way(self):
        # V=3 step logits, hand-evaluated cross-entropy
        logits = np.array([[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]])
        targets = np.array([0, 2])
        def ce(row, t):
            z = np.exp(row - row.max())
            return -math.log(z[t] / z.sum())
        expected = (ce(logits[0], 0) + ce(logits[1], 2)) / 2
        ls = ag.log_softmax_last(Tensor(logits))
        got = -float(ls.data[np.arange(2), targets].mean())
        assert got == pytest.approx(expected, abs=1e-12)

    def test_vqa_loss_positive_and_finite(self):
        m = VqaModel(TINY)
        with no_grad():
            f = m.encode_grid(tiny_grid())
        loss = m.vqa_loss(f, ["fed"])
        assert loss.data.item() > 0.0 and np.isfinite(loss.data).all()

    def test_empty_answer_allowed_eos_only(self):
        m = VqaModel(TINY)
        with no_grad():
            f = m.encode_grid(tiny_grid())
        loss = m.vqa_loss(f, [""])
        assert np.isfinite(loss.data).all()

    def test_too_long_answer_rejected(self):
        m = VqaModel(TINY)
        with no_grad():
            f = m.encode_grid(tiny_grid())
        with pytest.raises(ValueError):
            m.vqa_loss(f, ["a" * 10])


class TestGenerate:
    def _rigged_model(self, favored_token: int) -> VqaModel:
        m = VqaModel(TINY)
        m.params["dec.out_w"].data[:] = 0.0
        m.params["dec.out_b"].data[:] = 0.0
        m.params["dec.out_b"].data[favored_token] = 10.0
        return m

    def test_immediate_eos_gives_empty(self):
        m = self._rigged_model(EOS)
        with no_grad():
            f = m.encode_grid(tiny_grid())
        assert m.generate_answer(f) == ""

    def test_length_cap_when_eos_never_wins(self):
        m = self._rigged_model(3)  # 'a'
        with no_grad():
            f = m.encode_grid(tiny_grid())
        assert m.generate_answer(f, max_answer_len=3) == "aaa"

    def test_cap_respects_model_limit(self):
        m = self._rigged_model(4)
        with no_grad():
            f = m.encode_grid(tiny_grid())
        assert m.generate_answer(f) == "b" * TINY.max_answer_len

    def test_deterministic(self):
        m = VqaModel(TINY)
        with no_grad():
            f = m.encode_grid(tiny_grid())
        assert m.generate_answer(f) == m.generate_answer(f)


class TestParameterGradients:
    def test_every_parameter_has_gradient(self):
        m = VqaModel(TINY)
        loss = m.vqa_loss(m.encode_grid(tiny_grid()), ["abc"])
        grads = parameter_gradients(loss, m.params)
        assert set(grads) == set(m.params)
        for g in grads.values():
            assert np.isfinite(g).all()

    def test_unused_parameter_gets_exact_zero(self):
        m = VqaModel(TINY)
        loss = m.vqa_loss(m.encode_grid(tiny_grid(1, 2)), ["a"])
        grads = parameter_gradients(loss, m.params)
        # rows beyond the grid and unused vocab rows never participate
        assert (grads["embed.row_emb"][1:] == 0.0).all()
        assert (grads["dec.pos_emb"][3:] == 0.0).all()

    def test_loss_scaling_is_linear(self):
        m = VqaModel(TINY)
        loss = m.vqa_loss(m.encode_grid(tiny_grid()), ["ab"])
        g1 = parameter_gradients(loss, m.params)["embed.proj_w"].copy()
        for p in m.params.values():
            p.zero_grad()
        loss2 = ag.mul(m.vqa_loss(m.encode_grid(tiny_grid()), ["ab"]), 2.0)
        g2 = parameter_gradients(loss2, m.params)["embed.proj_w"]
        assert np.allclose(g2, 2.0 * g1, rtol=1e-12)

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(NumericError):
            parameter_gradients(Tensor(np.array(float("nan"))), {})
