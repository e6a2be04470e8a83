"""Incremental decoding against the decoder that recomputes every prefix.

``reference_logits`` is the decoder as it was before the cache, on one
page's (length, d_model) matrix: every layer runs over all tokens so far,
projects the feature's cross-attention K/V again, and builds each
one-block attention from the ops ``multi_head_attention`` used (K
transposed twice); a query sequence longer than one tile goes through
``multi_head_attention``'s tiled path, which ``test_layers`` holds to the
one-block result. Teacher forcing must equal the
reference bit for bit; greedy decoding must emit its tokens with logits
within 1e-12.
"""

import math

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa import model as model_module
from pixqa.autograd import Tensor
from pixqa.errors import NumericError
from pixqa.layers import ATTENTION_TILE, apply_layer_norm, ffn, linear, multi_head_attention
from pixqa.model import BOS, EOS, NEG_MASK, ModelConfig, VqaModel

CFG = ModelConfig(d_model=16, n_heads=4, n_enc_layers=1, n_dec_layers=2, d_ff=32, patch_size=4,
                  max_patches=8, vocab_chars="abcdefgh", max_answer_len=72, seed=3)


def reference_attention(q_in, kv_in, p, prefix, n_heads, mask=None):
    len_q, d_model = q_in.shape
    if len_q > ATTENTION_TILE:
        return multi_head_attention(q_in, kv_in, p, prefix, n_heads, mask=mask)
    head_dim = d_model // n_heads

    def split_heads(x, length):
        return ag.transpose(ag.reshape(x, (length, n_heads, head_dim)), (1, 0, 2))

    q = split_heads(linear(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"]), len_q)
    k_t = ag.transpose(split_heads(linear(kv_in, p[f"{prefix}.wk"], p[f"{prefix}.bk"]), kv_in.shape[0]), (0, 2, 1))
    v = split_heads(linear(kv_in, p[f"{prefix}.wv"], p[f"{prefix}.bv"]), kv_in.shape[0])
    context = ag.matmul(ag.attention_weights(q, k_t, 1.0 / math.sqrt(head_dim), mask), v)
    merged = ag.reshape(ag.transpose(context, (1, 0, 2)), (len_q, d_model))
    return linear(merged, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def reference_logits(model, feature, tokens_in):
    cfg, p = model.cfg, model.params
    n = len(tokens_in)
    x = ag.take_rows(p["dec.tok_emb"], tokens_in) + ag.take_rows(p["dec.pos_emb"], np.arange(n))
    mask = np.triu(np.full((n, n), NEG_MASK), k=1)
    for i in range(cfg.n_dec_layers):
        a = apply_layer_norm(x, p, f"dec.{i}.ln1")
        x = x + reference_attention(a, a, p, f"dec.{i}.self_attn", cfg.n_heads, mask=mask)
        b = apply_layer_norm(x, p, f"dec.{i}.ln2")
        x = x + reference_attention(b, feature, p, f"dec.{i}.cross_attn", cfg.n_heads)
        c = apply_layer_norm(x, p, f"dec.{i}.ln3")
        x = x + ffn(c, p, f"dec.{i}.ffn")
    x = apply_layer_norm(x, p, "dec.final_ln")
    return linear(x, p["dec.out_w"], p["dec.out_b"])


def page_of(feature):
    """The one page of a one-page feature, as the (length, d_model) matrix the reference decoder takes."""
    return ag.reshape(feature, feature.shape[1:])


def reference_loss(model, feature, answer):
    """The loss of a one-page feature, shaped (1,) as ``vqa_loss`` returns it."""
    target = model.vocab.encode_answer(answer)
    log_probs = ag.log_softmax_last(reference_logits(model, page_of(feature), np.concatenate(([BOS], target[:-1]))))
    onehot = np.zeros((len(target), model.vocab.size))
    onehot[np.arange(len(target)), target] = 1.0
    return ag.reshape(-ag.mul(ag.sum_axis(ag.sum_axis(ag.mul(log_probs, onehot), axis=-1)), 1.0 / len(target)), (1,))


def random_feature(length, seed=0, requires_grad=False):
    return Tensor(np.random.default_rng(seed).normal(0.0, 1.0, (1, length, CFG.d_model)), requires_grad=requires_grad)


def loss_and_grads(loss_fn, model, feature, answer):
    for t in (feature, *model.params.values()):
        t.zero_grad()
    loss = loss_fn(model, feature, answer)
    loss.backward()
    return loss.data, {"feature": feature.grad.copy(),
                       **{name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                          for name, t in model.params.items()}}


def never_eos(model):
    """Greedy decoding then runs to the length cap, through every cache size."""
    model.params["dec.out_b"].data[EOS] = -1e3
    return model


def greedy_both_ways(model, feature, limit):
    """Greedy tokens and per-step last-row logits, cached and by full-prefix recompute."""
    tokens, cached, full = [BOS], [], []
    with ag.no_grad():
        cache = model.decoder_cache(feature)
        for _ in range(limit):
            cached.append(model._decode_logits(np.array([tokens[-1:]]), cache).data[0, -1])
            full.append(reference_logits(model, page_of(feature), np.array(tokens)).data[-1])
            nxt = int(np.argmax(full[-1]))
            if nxt == EOS:
                break
            tokens.append(nxt)
    return tokens, cached, full


class TestTeacherForcing:
    # 73 decoder rows: the self- and cross-attention run tiled.
    @pytest.mark.parametrize("answer", ["", "a", "hgfedcba", "abcdefgh" * 9])
    @pytest.mark.parametrize("feature_len", [1, 9, 100])
    def test_loss_and_gradients_bit_identical(self, answer, feature_len):
        model = VqaModel(CFG)
        feature = random_feature(feature_len, requires_grad=True)
        loss, grads = loss_and_grads(lambda m, f, a: m.vqa_loss(f, [a]), model, feature, answer)
        ref_loss, ref_grads = loss_and_grads(reference_loss, model, feature, answer)
        assert np.array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name, g in ref_grads.items():
            assert np.array_equal(grads[name], g), name


class TestCachedGreedy:
    @pytest.mark.parametrize("feature_len", [1, 9, 100])
    def test_same_tokens_and_logits_as_full_prefix(self, feature_len):
        model = never_eos(VqaModel(CFG))
        feature = random_feature(feature_len, seed=feature_len)
        tokens, cached, full = greedy_both_ways(model, feature, CFG.max_answer_len)
        assert len(tokens) == CFG.max_answer_len + 1  # every step ran; past step 64 the full-prefix pass is tiled
        for step, (c, f) in enumerate(zip(cached, full)):
            assert np.abs(c - f).max() <= 1e-12, step
            assert int(np.argmax(c)) == int(np.argmax(f)), step
        assert model.generate_answer(feature) == model.vocab.decode(tokens[1:])

    @pytest.mark.parametrize("seed", range(4))
    def test_generate_answer_matches_full_prefix(self, seed):
        model = VqaModel(CFG)
        feature = random_feature(1 + 7 * seed, seed=seed)
        tokens, _, _ = greedy_both_ways(model, feature, 12)
        assert model.generate_answer(feature, max_answer_len=12) == model.vocab.decode(tokens[1:])

    def test_one_step(self):
        model = never_eos(VqaModel(CFG))
        feature = random_feature(5)
        tokens, cached, full = greedy_both_ways(model, feature, 1)
        assert len(tokens) == 2 and np.abs(cached[0] - full[0]).max() <= 1e-12
        assert model.generate_answer(feature, max_answer_len=1) == model.vocab.decode(tokens[1:])

    def test_cache_rows_match_a_full_prefix_pass(self):
        # Row j of every layer's cache holds token j's K/V, as teacher forcing over the prefix computes them.
        model = never_eos(VqaModel(CFG))
        feature = random_feature(6)
        tokens = [BOS, 5, 3, 9, 4]
        with ag.no_grad():
            cache = model.decoder_cache(feature)
            for step, token in enumerate(tokens, start=1):
                model._decode_logits(np.array([[token]]), cache)
                full = model.decoder_cache(feature)
                model._decode_logits(np.array([tokens[:step]]), full)
                assert cache.length == full.length == step
                for cached_kv, full_kv in zip(cache.self_kv, full.self_kv):
                    for c, f in zip(cached_kv, full_kv):
                        assert c.shape == f.shape == (1, step, CFG.n_heads, CFG.d_model // CFG.n_heads)
                        assert np.abs(c.data - f.data).max() <= 1e-12

    def test_cross_attention_projected_once_per_answer(self, monkeypatch):
        calls = []
        project_kv = model_module.project_kv
        monkeypatch.setattr(model_module, "project_kv", lambda x, *a: calls.append(x.shape[-2]) or project_kv(x, *a))
        model = never_eos(VqaModel(CFG))
        model.generate_answer(random_feature(30), max_answer_len=5)
        # Two layers: the 30-row feature twice, then one new row per layer per step.
        assert calls == [30, 30] + [1] * (2 * 5)


def test_a_bare_page_feature_is_rejected():
    # A (length, d_model) matrix would otherwise decode as `length` pages of one row each.
    with pytest.raises(ValueError, match="pages, length, d_model"):
        VqaModel(CFG).decoder_cache(Tensor(random_feature(5).data[0]))


class TestNonFiniteLogits:
    def test_nan_weight_raises(self):
        model = VqaModel(CFG)
        model.params["dec.0.ffn.w1"].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="step 0"):
            model.generate_answer(random_feature(4))

    def test_infinite_output_bias_raises(self):
        model = VqaModel(CFG)
        model.params["dec.out_b"].data[3] = np.inf
        with pytest.raises(NumericError):
            model.generate_answer(random_feature(4))
