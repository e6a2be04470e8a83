import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixqa.autograd import Tensor
from pixqa.data import SynthConfig, gen_synthetic
from pixqa.errors import NumericError
from pixqa.evaluate import (
    anls,
    anls_single,
    answer_question,
    encode_page,
    levenshtein,
    page_accuracy,
    page_histogram,
    quadrant_report,
    report_from_records,
    retrieve,
)
from pixqa.model import EncoderFeature, ModelConfig, VqaModel
from pixqa.scorer import ScorerConfig, SelfAttentionScorer


def levenshtein_oracle(a: str, b: str) -> int:
    """Independent full-matrix dynamic program."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[m][n]


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("abc", "abc", 0), ("", "abc", 3), ("abc", "", 3), ("kitten", "sitting", 3), ("flaw", "lawn", 2)],
    )
    def test_known_cases(self, a, b, expected):
        assert levenshtein(a, b) == expected
        assert levenshtein_oracle(a, b) == expected

    @given(st.text(alphabet="abcdef", max_size=12), st.text(alphabet="abcdef", max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, a, b):
        assert levenshtein(a, b) == levenshtein_oracle(a, b)

    @given(
        st.text(alphabet="abc", max_size=8),
        st.text(alphabet="abc", max_size=8),
        st.text(alphabet="abc", max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms(self, a, b, c):
        assert levenshtein(a, a) == 0
        assert levenshtein(a, b) == levenshtein(b, a)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)
        if a != b:
            assert levenshtein(a, b) > 0


class TestAnlsSingle:
    def test_case_insensitive_exact(self):
        assert anls_single("Arial", {"arial"}) == 1.0

    def test_kitten_sitting(self):
        assert anls_single("sitting", {"kitten"}) == pytest.approx(1 - 3 / 7, abs=1e-12)

    def test_threshold_cutoff(self):
        assert anls_single("xyz", {"abcdef"}) == 0.0

    def test_trims_outer_whitespace(self):
        assert anls_single("  42\n", {"42"}) == 1.0

    def test_best_over_ground_truths(self):
        assert anls_single("cat", {"dog", "cat", "cot"}) == 1.0

    def test_both_empty_scores_one(self):
        assert anls_single("", {""}) == 1.0

    def test_empty_pred_nonempty_gt(self):
        assert anls_single("", {"abc"}) == 0.0

    def test_empty_gts_rejected(self):
        with pytest.raises(ValueError):
            anls_single("x", set())

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, pred, gt):
        assert 0.0 <= anls_single(pred, {gt}) <= 1.0

    @given(st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_self_match_is_one(self, s):
        assert anls_single(s, {s}) == 1.0


class TestAnlsMean:
    def test_all_ones(self):
        assert anls([1.0, 1.0, 1.0]) == 1.0

    def test_all_zero(self):
        assert anls([0.0, 0.0]) == 0.0

    def test_mean(self):
        assert anls([1.0, 0.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anls([])


class StubScorer:
    """Scores a feature by its single entry and counts its calls."""

    def __init__(self):
        self.calls = 0

    def score_value(self, feature):
        self.calls += 1
        return float(feature.array[0, 0])


def retrieve_stub(scores):
    """retrieve() over one-entry features that hold the given scores."""
    features = [EncoderFeature(Tensor(np.array([[s]]))) for s in scores]
    scorer = StubScorer()
    best, feature, seen = retrieve(len(scores), features.__getitem__, scorer)
    assert feature is features[best]
    return best, seen, scorer


class TestTop1:
    def test_tie_breaks_to_lowest_index(self):
        best, seen, _ = retrieve_stub([0.2, 0.9, 0.9])
        assert best == 1
        assert seen == [0.2, 0.9, 0.9]

    def test_singleton(self):
        best, seen, scorer = retrieve_stub([0.7])
        assert (best, seen, scorer.calls) == (0, [], 0)

    def test_strictly_increasing(self):
        assert retrieve_stub(list(np.linspace(0.1, 0.9, 7)))[0] == 6

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores = list(rng.random(6))
            assert retrieve_stub(scores)[0] == retrieve_stub([np.exp(4 * s) for s in scores])[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            retrieve_stub([])

    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_score_raises(self, position):
        scores = [0.3, 0.6, 0.9]
        scores[position] = float("nan")
        with pytest.raises(NumericError):
            retrieve_stub(scores)


TINY_MODEL = ModelConfig(
    d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
    patch_size=16, max_patches=64, max_answer_len=4, seed=0,
)


class TestAnswerQuestion:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        cfg = SynthConfig(
            n_documents=1, pages_per_doc=(3, 3), facts_per_page=1, questions_per_doc=1,
            key_alphabet="ABCDEFGH", key_len=3, value_alphabet="01", value_len=2,
            page_width=208, page_height=16, seed=3,
        )
        ds = gen_synthetic(cfg, tmp_path_factory.mktemp("doc"))
        q = ds.questions[0]
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16, seed=1)
        return q.question, ds.document_for(q), VqaModel(TINY_MODEL), scorer

    def test_encodes_each_page_once(self, pipeline, monkeypatch):
        question, doc, model, scorer = pipeline
        grids = []
        encode_grid = VqaModel.encode_grid
        monkeypatch.setattr(VqaModel, "encode_grid", lambda self, grid: grids.append(grid) or encode_grid(self, grid))
        answer_question(question, doc, model, scorer)
        assert len(grids) == doc.n_pages

    def test_decodes_the_retrieved_page(self, pipeline):
        question, doc, model, scorer = pipeline
        page, answer = answer_question(question, doc, model, scorer)
        _, _, scores = retrieve(doc.n_pages, lambda i: encode_page(question, doc, i, model), scorer)
        assert page == scores.index(max(scores))
        assert answer == model.generate_answer(encode_page(question, doc, page, model))

    def test_retrieved_feature_has_no_graph(self, pipeline):
        question, doc, model, scorer = pipeline
        _, feature, _ = retrieve(doc.n_pages, lambda i: encode_page(question, doc, i, model), scorer)
        assert not feature.vectors.requires_grad
        assert feature.vectors._parents == ()

    def test_nan_scorer_raises(self, pipeline):
        question, doc, model, _ = pipeline
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16, seed=1)
        scorer.params["head.b3"].data[:] = np.nan
        with pytest.raises(NumericError, match="scored nan"):
            answer_question(question, doc, model, scorer)


class TestPageAccuracy:
    def test_all_match(self):
        assert page_accuracy([1, 2], [1, 2]) == 100.0

    def test_none_match(self):
        assert page_accuracy([1, 2], [2, 1]) == 0.0

    def test_three_of_four(self):
        assert page_accuracy([0, 1, 2, 3], [0, 1, 2, 9]) == 75.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            page_accuracy([1], [1, 2])


class TestQuadrants:
    def test_reference_distribution(self):
        # 2488 / 1727 / 172 / 800 over 5187 questions -> 47.97 / 33.29 / 3.32 / 15.42
        per_question = (
            [(True, 1.0)] * 2488 + [(True, 0.4)] * 1727 + [(False, 1.0)] * 172 + [(False, 0.0)] * 800
        )
        q = quadrant_report(per_question)
        assert q.counts == (2488, 1727, 172, 800)
        assert q.percentages == (47.97, 33.29, 3.32, 15.42)
        assert q.total == 5187

    def test_single_cell_holds_everything(self):
        q = quadrant_report([(True, 1.0)] * 10)
        assert q.counts == (10, 0, 0, 0)
        assert q.percentages[0] == 100.0

    def test_one_partial_miss(self):
        q = quadrant_report([(False, 0.3)])
        assert q.counts == (0, 0, 0, 1)

    def test_counts_sum_and_percentages_sum(self):
        rng = np.random.default_rng(11)
        flags = [(bool(rng.integers(2)), float(rng.choice([1.0, 0.6, 0.0]))) for _ in range(333)]
        q = quadrant_report(flags)
        assert q.total == 333
        assert abs(sum(q.percentages) - 100.0) <= 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quadrant_report([])


class TestHistogramAndRecords:
    def test_histogram_counts(self):
        from pixqa.data import Dataset, Document, PageRef
        from pathlib import Path

        def doc(doc_id, n):
            refs = tuple(PageRef(f"{doc_id}_p{k}", Path(f"/nonexistent/{doc_id}_{k}.pgm")) for k in range(n))
            return Document(doc_id=doc_id, pages=refs)

        ds = Dataset(split="x", questions=[], documents={"a": doc("a", 1), "b": doc("b", 1), "c": doc("c", 5)})
        assert page_histogram(ds) == {1: 2, 5: 1}

    def test_empty_histogram(self):
        from pixqa.data import Dataset

        assert page_histogram(Dataset(split="x", questions=[], documents={})) == {}

    def test_report_from_records_roundtrip(self):
        records = [
            {"question_id": 0, "doc_id": "a", "pred_page": 1, "gold_page": 1, "pred_answer": "x", "anls": 1.0, "doc_pages": 3},
            {"question_id": 1, "doc_id": "a", "pred_page": 0, "gold_page": 2, "pred_answer": "y", "anls": 0.0, "doc_pages": 3},
            {"question_id": 2, "doc_id": "b", "pred_page": 0, "gold_page": 0, "pred_answer": "z", "anls": 0.6, "doc_pages": 1},
        ]
        report = report_from_records(records)
        assert report.n_questions == 3
        assert report.anls == pytest.approx((1.0 + 0.0 + 0.6) / 3)
        assert report.page_accuracy_pct == pytest.approx(200 / 3)
        assert report.quadrants.counts == (1, 1, 0, 1)
        assert report.page_histogram == {3: 1, 1: 1}
        assert "page accuracy" in report.table()
