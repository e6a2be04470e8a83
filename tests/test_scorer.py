import math

import numpy as np
import pytest

from pixqa import autograd as ag
from pixqa.autograd import Tensor
from pixqa.errors import ConfigError
from pixqa.layers import linear, multi_head_attention
from pixqa.scorer import AGGREGATIONS, ScorerConfig, SelfAttentionScorer

rng = np.random.default_rng(2024)


def feature(length=6, d=8, seed=None) -> Tensor:
    """A one-page feature, (1, length, d)."""
    r = rng if seed is None else np.random.default_rng(seed)
    return Tensor(r.normal(0.0, 1.0, (1, length, d)))


def scorer(agg="first", d=8, heads=2, layers=1, dropout=0.0, seed=3) -> SelfAttentionScorer:
    cfg = ScorerConfig(n_sa_layers=layers, n_heads=heads, aggregation=agg, dropout_p=dropout)
    return SelfAttentionScorer(cfg, d_model=d, seed=seed)


class TestConfig:
    def test_defaults_match_grid_optimum(self):
        cfg = ScorerConfig()
        assert (cfg.n_sa_layers, cfg.n_heads, cfg.aggregation) == (1, 16, "first")

    def test_head_widths_default_to_halving(self):
        shapes = {name: shape for name, shape, _ in SelfAttentionScorer.param_table(ScorerConfig(), 64)}
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

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=8, seed=-1)

    @pytest.mark.parametrize("cfg", [{"n_heads": 0}, {"n_heads": -4}])
    def test_heads_and_widths_must_be_positive(self, cfg):
        with pytest.raises(ConfigError):
            ScorerConfig(**cfg)

    @pytest.mark.parametrize(
        "cfg", [ScorerConfig(), ScorerConfig(n_sa_layers=2, n_heads=2, aggregation="cls")]
    )
    def test_param_shapes_match_init(self, cfg):
        head = SelfAttentionScorer(cfg, d_model=8 if cfg.n_heads == 2 else 16)
        table = SelfAttentionScorer.param_table(cfg, head.d_model)
        assert [(n, shape) for n, shape, _ in table] == [(n, p.shape) for n, p in head.params.items()]


class TestAggregate:
    def test_cls_runs_attention_on_length_plus_one(self):
        s = scorer(agg="cls")
        f = feature(length=6)
        assert s.attention_inputs(f).shape == (1, 7, 8)
        s2 = scorer(agg="first")
        assert s2.attention_inputs(f).shape == (1, 6, 8)


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
        vals = {s.score(f, training=True, keep=s.dropout_keep(r)).data.item() for _ in range(8)}
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
            f = Tensor(r.normal(0, scale, (1, length, 8)))
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
        got = s.score_value(Tensor(F[None]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_a_bare_page_feature_is_rejected(self):
        # A (length, d) matrix would otherwise score as `length` pages of one row each.
        with pytest.raises(ValueError, match="pages, length, d_model"):
            scorer().score(Tensor(feature().data[0]))

    def test_score_value_scores_one_page(self):
        pages = Tensor(np.random.default_rng(4).normal(0.0, 1.0, (3, 6, 8)))
        with pytest.raises(ValueError, match="stack of 3 pages"):
            scorer().score_value(pages)


class TestPermutationInvariance:
    def test_first_vector_invariant_to_tail_permutations(self):
        s = scorer(agg="first", heads=4)
        arr = rng.normal(0, 1, (1, 9, 8))
        base = s.score_value(Tensor(arr))
        r = np.random.default_rng(1)
        for _ in range(20):
            perm = np.concatenate([[0], 1 + r.permutation(8)])
            assert s.score_value(Tensor(arr[:, perm])) == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("agg", ["cls", "avgpool"])
    def test_full_permutation_invariance(self, agg):
        s = scorer(agg=agg, heads=4)
        arr = rng.normal(0, 1, (1, 9, 8))
        base = s.score_value(Tensor(arr))
        r = np.random.default_rng(2)
        for _ in range(20):
            perm = r.permutation(9)
            assert s.score_value(Tensor(arr[:, perm])) == pytest.approx(base, abs=1e-9)

    def test_first_vector_not_invariant_to_moving_position_zero(self):
        # sanity: position 0 carries meaning for the first-vector strategy
        s = scorer(agg="first", heads=4)
        arr = rng.normal(0, 1, (1, 5, 8))
        swapped = arr[:, [1, 0, 2, 3, 4]]
        assert s.score_value(Tensor(arr)) != pytest.approx(
            s.score_value(Tensor(swapped)), abs=1e-12
        )


def full_attention_score(s: SelfAttentionScorer, f: Tensor, rng: np.random.Generator | None = None) -> Tensor:
    """A one-page feature's score with every layer attending from all rows, then pooling; dropout when given an rng."""
    cfg, p = s.cfg, s.params
    x = s.attention_inputs(f)
    x = ag.reshape(x, x.shape[1:])  # the page as one (rows, d) matrix
    for i in range(cfg.n_sa_layers):
        x = multi_head_attention(x, x, p, f"sa.{i}", cfg.n_heads)
    if cfg.aggregation == "avgpool":
        pooled = ag.mul(ag.sum_axis(x, axis=0, keepdims=True), 1.0 / x.shape[0])
    else:
        pooled = ag.take_rows(x, [0])
    if rng is not None:
        pooled = ag.mul(pooled, (rng.random(pooled.shape) >= cfg.dropout_p) / (1.0 - cfg.dropout_p))
    h = ag.relu(linear(pooled, p["head.w1"], p["head.b1"]))
    h = ag.relu(linear(h, p["head.w2"], p["head.b2"]))
    return ag.reshape(ag.sigmoid(linear(h, p["head.w3"], p["head.b3"])), (1,))


def score_and_grads(s: SelfAttentionScorer, score_fn) -> tuple[float, dict[str, np.ndarray]]:
    out = score_fn()
    out.backward()
    grads = {name: p.grad.copy() for name, p in s.params.items() if p.grad is not None}
    for p in s.params.values():
        p.zero_grad()
    return out.data.item(), grads


class TestFullAttentionEquivalence:
    """The scorer's pooled-row attention equals full attention followed by pooling."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("agg", AGGREGATIONS)
    def test_score_and_gradients_match(self, agg, layers):
        s = scorer(agg=agg, heads=2, layers=layers, dropout=0.1)
        f = feature(length=70, seed=11)  # longer than one attention tile
        got, got_grads = score_and_grads(
            s, lambda: s.score(f, training=True, keep=s.dropout_keep(np.random.default_rng(5))))
        want, want_grads = score_and_grads(s, lambda: full_attention_score(s, f, np.random.default_rng(5)))
        assert got == pytest.approx(want, abs=1e-12)
        with ag.no_grad():
            assert s.score_value(f) == pytest.approx(full_attention_score(s, f).data.item(), abs=1e-12)
        assert got_grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert np.abs(got_grads[name] - g).max() <= 1e-12, name


class TestStackedScoring:
    """A (pages, length, d) stack scores each page as a one-page stack would, in values and in every gradient."""

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("agg", AGGREGATIONS)
    def test_values_and_gradients_equal_each_page_alone(self, agg, layers, dropout):
        s = scorer(agg=agg, heads=2, layers=layers, dropout=dropout)
        pages = np.random.default_rng(12).normal(0.0, 1.0, (4, 9, 8))
        r = np.random.default_rng(13)
        keeps = [s.dropout_keep(r) for _ in pages]
        for p in s.params.values():  # gradients are added onto what the parameters already hold
            p.grad = np.random.default_rng(14).normal(0.0, 1.0, p.shape)
        primed = {name: p.grad.copy() for name, p in s.params.items()}
        want = []
        for i, keep in enumerate(keeps):
            out = s.score(Tensor(pages[i : i + 1]), training=True, keep=keep)
            out.backward()
            want.append(out.data.item())
        want_grads = {name: p.grad.copy() for name, p in s.params.items()}
        for name, p in s.params.items():
            p.grad = primed[name].copy()
        out = s.score(Tensor(pages), training=True, keep=None if dropout == 0.0 else np.stack(keeps))
        assert out.shape == (4,)
        out.backward()
        assert out.data.tolist() == want
        for name, p in s.params.items():
            assert np.array_equal(p.grad, want_grads[name]), name
        cls_moved = not np.array_equal(want_grads["cls"], primed["cls"])
        assert cls_moved == (agg == "cls")  # the token's gradient is checked above, page by page
        with ag.no_grad():
            assert s.score(Tensor(pages)).data.tolist() == [s.score_value(Tensor(pages[i : i + 1])) for i in range(4)]

    def test_dropout_keep_draws_one_page_mask_or_nothing(self):
        r = np.random.default_rng(0)
        assert scorer(dropout=0.0).dropout_keep(r) is None
        assert r.random() == np.random.default_rng(0).random()  # no dropout: nothing drawn
        keep = scorer(dropout=0.5).dropout_keep(np.random.default_rng(1))
        assert keep.shape == (1, 8) and set(np.unique(keep)) <= {0.0, 2.0}

    @pytest.mark.parametrize("agg, rows", [("first", 64), ("cls", 65), ("avgpool", 64)])
    def test_stack_size_counts_the_cls_token(self, agg, rows):
        assert scorer(agg=agg).stack_size(feature(length=64)) == ((1, 64, 8), rows)
