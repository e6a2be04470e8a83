import math

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa.autograd import Tensor
from pixqa.errors import ConfigError
from pixqa.layers import linear, multi_head_attention
from pixqa.model import EncoderFeature
from pixqa.scorer import AGGREGATIONS, ScorerConfig, SelfAttentionScorer, aggregate

rng = np.random.default_rng(2024)


def feature(length=6, d=8, seed=None) -> EncoderFeature:
    r = rng if seed is None else np.random.default_rng(seed)
    return EncoderFeature(Tensor(r.normal(0.0, 1.0, (length, d))))


def scorer(agg="first", d=8, heads=2, layers=1, dropout=0.0, seed=3) -> SelfAttentionScorer:
    cfg = ScorerConfig(n_sa_layers=layers, n_heads=heads, aggregation=agg, dropout_p=dropout)
    return SelfAttentionScorer(cfg, d_model=d, seed=seed)


class TestConfig:
    def test_defaults_match_grid_optimum(self):
        cfg = ScorerConfig()
        assert (cfg.n_sa_layers, cfg.n_heads, cfg.aggregation) == (1, 16, "first")

    def test_head_widths_default_to_halving(self):
        shapes = dict(SelfAttentionScorer.param_shapes(ScorerConfig(), 64))
        assert [shapes[f"head.w{j}"] for j in (1, 2, 3)] == [(64, 64), (64, 32), (32, 1)]

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            ScorerConfig(dropout_p=1.0)

    def test_unknown_aggregation(self):
        with pytest.raises(ConfigError):
            ScorerConfig(aggregation="max")

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            SelfAttentionScorer(ScorerConfig(n_heads=3), d_model=8)

    @pytest.mark.parametrize("cfg", [{"n_heads": 0}, {"n_heads": -4}])
    def test_heads_and_widths_must_be_positive(self, cfg):
        with pytest.raises(ConfigError):
            ScorerConfig(**cfg)

    @pytest.mark.parametrize(
        "cfg", [ScorerConfig(), ScorerConfig(n_sa_layers=2, n_heads=2, aggregation="cls")]
    )
    def test_param_shapes_match_init(self, cfg):
        head = SelfAttentionScorer(cfg, d_model=8 if cfg.n_heads == 2 else 16)
        assert list(SelfAttentionScorer.param_shapes(cfg, head.d_model)) == [(n, p.shape) for n, p in head.params.items()]


class TestAggregate:
    def test_first_selects_position_zero(self):
        seq = Tensor(np.arange(12.0).reshape(3, 4))
        assert (aggregate(seq, "first").data == [[0.0, 1.0, 2.0, 3.0]]).all()

    def test_avgpool_of_constant_sequence_is_constant(self):
        c = np.array([2.0, -1.0, 0.5, 3.0])
        seq = Tensor(np.tile(c, (5, 1)))
        assert np.allclose(aggregate(seq, "avgpool").data, c)

    def test_cls_runs_attention_on_length_plus_one(self):
        s = scorer(agg="cls")
        f = feature(length=6)
        assert s.attention_inputs(f).shape == (7, 8)
        s2 = scorer(agg="first")
        assert s2.attention_inputs(f).shape == (6, 8)


class TestScoreContract:
    def test_eval_deterministic_even_with_dropout_configured(self):
        s = scorer(dropout=0.5)
        f = feature()
        values = {s.score_value(f) for _ in range(10)}
        assert len(values) == 1  # variance exactly zero

    def test_training_dropout_needs_rng(self):
        s = scorer(dropout=0.5)
        with pytest.raises(ValueError):
            s.score(feature(), training=True)

    def test_training_dropout_changes_scores(self):
        s = scorer(dropout=0.5)
        f = feature()
        r = np.random.default_rng(0)
        vals = {float(s.score(f, training=True, rng=r).data) for _ in range(8)}
        assert len(vals) > 1

    def test_logistic_identity_with_zero_weights(self):
        s = scorer()
        for p in s.params.values():
            p.data[:] = 0.0
        for b in (-2.0, 0.0, 0.7, 3.0):
            s.params["head.b3"].data[:] = b
            assert s.score_value(feature()) == pytest.approx(1 / (1 + math.exp(-b)), abs=1e-12)

    def test_range_on_fuzzed_inputs(self):
        s = scorer(heads=4, layers=2)
        r = np.random.default_rng(9)
        for _ in range(200):
            length = int(r.integers(1, 12))
            scale = float(r.choice([0.01, 1.0, 100.0]))
            f = EncoderFeature(Tensor(r.normal(0, scale, (length, 8))))
            assert 0.0 <= s.score_value(f) <= 1.0

    def test_hand_computed_two_vector_case(self):
        """d=2, one head, identity attention projections, fixed head weights."""
        cfg = ScorerConfig(n_sa_layers=1, n_heads=1, aggregation="first", dropout_p=0.0)
        s = SelfAttentionScorer(cfg, d_model=2, seed=0)
        for name in ("wq", "wk", "wv", "wo"):
            s.params[f"sa.0.{name}"].data = np.eye(2)
        for name in ("bq", "bk", "bv", "bo"):
            s.params[f"sa.0.{name}"].data = np.zeros(2)
        s.params["head.w1"].data = np.eye(2)
        s.params["head.b1"].data = np.zeros(2)
        s.params["head.w2"].data = np.array([[1.0], [1.0]])
        s.params["head.b2"].data = np.zeros(1)
        s.params["head.w3"].data = np.array([[2.0]])
        s.params["head.b3"].data = np.array([-0.5])

        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        logits = F @ F.T / math.sqrt(2)
        e = np.exp(logits - logits.max(-1, keepdims=True))
        attn = (e / e.sum(-1, keepdims=True))
        first = (attn @ F)[0]
        h1 = np.maximum(first, 0.0)
        h2 = np.maximum(h1.sum(), 0.0)
        expected = 1 / (1 + math.exp(-(2.0 * h2 - 0.5)))
        got = s.score_value(EncoderFeature(Tensor(F)))
        assert got == pytest.approx(expected, abs=1e-12)


class TestPermutationInvariance:
    def test_first_vector_invariant_to_tail_permutations(self):
        s = scorer(agg="first", heads=4)
        arr = rng.normal(0, 1, (9, 8))
        base = s.score_value(EncoderFeature(Tensor(arr)))
        r = np.random.default_rng(1)
        for _ in range(20):
            perm = np.concatenate([[0], 1 + r.permutation(8)])
            assert s.score_value(EncoderFeature(Tensor(arr[perm]))) == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("agg", ["cls", "avgpool"])
    def test_full_permutation_invariance(self, agg):
        s = scorer(agg=agg, heads=4)
        arr = rng.normal(0, 1, (9, 8))
        base = s.score_value(EncoderFeature(Tensor(arr)))
        r = np.random.default_rng(2)
        for _ in range(20):
            perm = r.permutation(9)
            assert s.score_value(EncoderFeature(Tensor(arr[perm]))) == pytest.approx(base, abs=1e-9)

    def test_first_vector_not_invariant_to_moving_position_zero(self):
        # sanity: position 0 carries meaning for the first-vector strategy
        s = scorer(agg="first", heads=4)
        arr = rng.normal(0, 1, (5, 8))
        swapped = arr[[1, 0, 2, 3, 4]]
        assert s.score_value(EncoderFeature(Tensor(arr))) != pytest.approx(
            s.score_value(EncoderFeature(Tensor(swapped))), abs=1e-12
        )


def full_attention_score(s: SelfAttentionScorer, f: EncoderFeature, rng: np.random.Generator | None = None) -> Tensor:
    """The score with every layer attending from all rows, then pooling; dropout when given an rng."""
    cfg, p = s.cfg, s.params
    x = s.attention_inputs(f)
    for i in range(cfg.n_sa_layers):
        x = multi_head_attention(x, x, p, f"sa.{i}", cfg.n_heads)
    pooled = aggregate(x, cfg.aggregation)
    if rng is not None:
        pooled = ag.mul(pooled, (rng.random(pooled.shape) >= cfg.dropout_p) / (1.0 - cfg.dropout_p))
    h = ag.relu(linear(pooled, p["head.w1"], p["head.b1"]))
    h = ag.relu(linear(h, p["head.w2"], p["head.b2"]))
    return ag.reshape(ag.sigmoid(linear(h, p["head.w3"], p["head.b3"])), ())


def score_and_grads(s: SelfAttentionScorer, score_fn) -> tuple[float, dict[str, np.ndarray]]:
    out = score_fn()
    out.backward()
    grads = {name: p.grad.copy() for name, p in s.params.items() if p.grad is not None}
    for p in s.params.values():
        p.zero_grad()
    return float(out.data), grads


class TestFullAttentionEquivalence:
    """The scorer's pooled-row attention equals full attention followed by pooling."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("agg", AGGREGATIONS)
    def test_score_and_gradients_match(self, agg, layers):
        s = scorer(agg=agg, heads=2, layers=layers, dropout=0.1)
        f = feature(length=70, seed=11)  # longer than one attention tile
        got, got_grads = score_and_grads(s, lambda: s.score(f, training=True, rng=np.random.default_rng(5)))
        want, want_grads = score_and_grads(s, lambda: full_attention_score(s, f, np.random.default_rng(5)))
        assert got == pytest.approx(want, abs=1e-12)
        with ag.no_grad():
            assert s.score_value(f) == pytest.approx(float(full_attention_score(s, f).data), abs=1e-12)
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert np.abs(got_grads[name] - g).max() <= 1e-12, name
