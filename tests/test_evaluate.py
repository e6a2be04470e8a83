import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pixqa import evaluate
from pixqa.autograd import Tensor, no_grad
from pixqa.data import Document, PageRef, SynthConfig, gen_synthetic, write_pgm
from pixqa.errors import NumericError
from pixqa.evaluate import (
    BLOCK_ROWS,
    anls,
    anls_single,
    answer_question,
    encode_page,
    levenshtein,
    page_accuracy,
    page_features,
    report_from_records,
    report_table,
    retrieve,
)
from pixqa.layers import ATTENTION_TILE
from pixqa.model import ModelConfig, VqaModel
from pixqa.render import PatchGrid, RasterImage
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
        return float(feature.data[0, 0, 0])


def retrieve_stub(scores):
    """retrieve() over one-page, one-entry features that hold the given scores."""
    features = [Tensor(np.full((1, 1, 1), s)) for s in scores]
    scorer = StubScorer()
    best, feature, seen = retrieve(len(scores), features, scorer)
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

    @pytest.mark.parametrize(
        "n_pages, n_features, message",
        [(3, 2, "ended after 2 of 3"), (3, 4, "more than 3"), (1, 0, "ended after 0 of 1"), (1, 2, "more than 1")],
    )
    def test_stream_of_the_wrong_length_raises(self, n_pages, n_features, message):
        features = (Tensor(np.full((1, 1, 1), 0.5)) for _ in range(n_features))
        with pytest.raises(ValueError, match=message):
            retrieve(n_pages, features, StubScorer())


TINY_MODEL = ModelConfig(
    d_model=16, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=32,
    patch_size=16, max_patches=64, max_answer_len=4, seed=0,
)
DESK_MODEL = ModelConfig(d_model=96, n_heads=8, n_enc_layers=2, n_dec_layers=2, d_ff=384,
                         max_patches=2048, max_answer_len=8, vocab_chars="ABCDEF0123456789? ", seed=0)


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
        pages = record_encoded_pages(monkeypatch)
        answer_question(question, doc, model, scorer)
        assert sum(pages) == doc.n_pages

    def test_decodes_the_retrieved_page(self, pipeline):
        question, doc, model, scorer = pipeline
        page, answer = answer_question(question, doc, model, scorer)
        _, _, scores = retrieve(doc.n_pages, (encode_page(question, doc, i, model) for i in range(doc.n_pages)), scorer)
        assert page == scores.index(max(scores))
        assert answer == model.generate_answer(encode_page(question, doc, page, model))

    def test_retrieved_feature_has_no_graph(self, pipeline):
        question, doc, model, scorer = pipeline
        _, feature, _ = retrieve(doc.n_pages,
                                 (encode_page(question, doc, i, model) for i in range(doc.n_pages)), scorer)
        assert not feature.requires_grad
        assert feature._parents == ()

    def test_nan_scorer_raises(self, pipeline):
        question, doc, model, _ = pipeline
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16, seed=1)
        scorer.params["head.b3"].data[:] = np.nan
        with pytest.raises(NumericError, match="scored nan"):
            answer_question(question, doc, model, scorer)


def record_encoded_pages(monkeypatch) -> list[int]:
    """Pages in each later ``encode_grid`` call, one entry per call."""
    pages = []
    encode_grid = VqaModel.encode_grid

    def counted(self, grid):
        pages.append(len(grid.patches))
        return encode_grid(self, grid)

    monkeypatch.setattr(VqaModel, "encode_grid", counted)
    return pages


QUESTION = "what is the value of ABC?"  # one 16-pixel line at a page width of 208


def ink_page(seed: int, height: int = 16, width: int = 208) -> np.ndarray:
    return np.where(np.random.default_rng(seed).random((height, width)) < 0.2, 0, 255).astype(np.uint8)


def write_document(root, images: list[np.ndarray]) -> Document:
    refs = []
    for i, pixels in enumerate(images):
        path = root / f"p{i:03d}.pgm"
        write_pgm(RasterImage(pixels), path)
        refs.append(PageRef(f"p{i:03d}", path))
    return Document("doc", tuple(refs))


class TestBlockEncoding:
    """page_features stacks pages into blocks; every feature and score equals encoding the page alone."""

    scorer = SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=16, seed=1)

    @staticmethod
    def encode_in_blocks(doc: Document, model: VqaModel, monkeypatch) -> list[int]:
        """Assert page_features' features equal encode_page's; return the pages of each block it encoded."""
        with no_grad():
            alone = [encode_page(QUESTION, doc, i, model) for i in range(doc.n_pages)]
            pages = record_encoded_pages(monkeypatch)
            stacked = list(page_features(QUESTION, doc, model))
        for a, b in zip(alone, stacked, strict=True):
            assert a.shape == b.shape
            assert np.array_equal(a.data, b.data)
        return pages

    @pytest.mark.parametrize("n_pages", [1, 2, 3, 13])
    def test_features_and_scores_equal_per_page_encoding(self, tmp_path, monkeypatch, n_pages):
        model = VqaModel(TINY_MODEL)
        doc = write_document(tmp_path, [ink_page(i) for i in range(n_pages)])
        with no_grad():
            best, _, scores = retrieve(n_pages,
                                       (encode_page(QUESTION, doc, i, model) for i in range(n_pages)), self.scorer)
        assert self.encode_in_blocks(doc, model, monkeypatch) == [n_pages]  # 26 patches a page: one block
        block_best, _, block_scores = retrieve(n_pages, page_features(QUESTION, doc, model), self.scorer)
        assert (block_best, block_scores) == (best, scores)

    def test_stacked_block_yields_views_of_its_buffer_without_graph(self, tmp_path, monkeypatch):
        """With autograd on, a stacked block's pages come out as views of the block's array, with no graph."""
        doc = write_document(tmp_path, [ink_page(i) for i in range(3)])
        blocks, encode_grid = [], VqaModel.encode_grid

        def encode(self, grid):
            blocks.append(encode_grid(self, grid))
            return blocks[-1]

        monkeypatch.setattr(VqaModel, "encode_grid", encode)
        features = list(page_features(QUESTION, doc, VqaModel(TINY_MODEL)))
        assert len(blocks) == 1 and blocks[0].shape[0] == 3 and blocks[0].requires_grad
        assert all(f.data.base is blocks[0].data for f in features)
        assert all(not f.requires_grad and f._parents == () for f in features)

    def test_grid_shape_change_splits_the_block(self, tmp_path, monkeypatch):
        heights = [16, 16, 16, 32, 16, 16]
        doc = write_document(tmp_path, [ink_page(i, h) for i, h in enumerate(heights)])
        loads = []
        load_page = Document.load_page
        monkeypatch.setattr(Document, "load_page", lambda self, index: loads.append(index) or load_page(self, index))
        assert self.encode_in_blocks(doc, VqaModel(TINY_MODEL), monkeypatch) == [3, 1, 2]
        # encode_page loads each page, then page_features does: the page that ended a block is not loaded twice
        assert loads == list(range(doc.n_pages)) * 2

    def test_stream_frees_features_and_grids_as_it_goes(self, tmp_path, monkeypatch):
        """Pages of more than BLOCK_ROWS // 2 patches are blocks of their own. A block's grids are freed before
        its feature is handed out, and a feature the consumer dropped is freed before the next page is encoded."""
        doc = write_document(tmp_path, [ink_page(i, 160, 416) for i in range(4)])  # 286 patches a page
        model = VqaModel(replace(TINY_MODEL, max_patches=512))
        grids, dropped, freed_at_encode = [], [], []
        fuse_page, encode_grid = evaluate.fuse_page, VqaModel.encode_grid

        def fuse(*args):
            grid = fuse_page(*args)
            grids.append(weakref.ref(grid))
            return grid

        def encode(self, grid):
            freed_at_encode.append([ref() is None for ref in dropped])
            return encode_grid(self, grid)

        monkeypatch.setattr(evaluate, "fuse_page", fuse)
        monkeypatch.setattr(VqaModel, "encode_grid", encode)
        with no_grad():
            for feature in page_features(QUESTION, doc, model):
                assert [ref() for ref in grids] == [None] * len(grids)
                dropped.append(weakref.ref(feature.data))  # a Tensor takes no weak reference
                del feature
        assert len(grids) == 4 and freed_at_encode == [[], [True], [True, True], [True, True, True]]

    def test_retrieve_keeps_only_the_best_feature(self, tmp_path, monkeypatch):
        """A scored feature that is not the best is freed before the next page is encoded."""

        class FirstPageBest:
            def __init__(self):
                self.refs = []

            def score_value(self, feature):
                self.refs.append(weakref.ref(feature.data))
                return -float(len(self.refs))

        doc = write_document(tmp_path, [ink_page(i, 160, 416) for i in range(4)])  # one block a page
        model = VqaModel(replace(TINY_MODEL, max_patches=512))
        scorer, freed_at_encode = FirstPageBest(), []
        encode_grid = VqaModel.encode_grid

        def encode(self, grid):
            freed_at_encode.append([ref() is None for ref in scorer.refs])
            return encode_grid(self, grid)

        monkeypatch.setattr(VqaModel, "encode_grid", encode)
        best, feature, _ = retrieve(doc.n_pages, page_features(QUESTION, doc, model), scorer)
        assert best == 0 and scorer.refs[0]() is feature.data
        assert freed_at_encode == [[], [False], [False, True], [False, True, True]]

    def test_ties_go_to_the_lowest_index(self, tmp_path):
        x, y = ink_page(1), ink_page(2)
        doc = write_document(tmp_path, [x, y, y, x, y])
        model = VqaModel(TINY_MODEL)
        best, _, scores = retrieve(doc.n_pages, page_features(QUESTION, doc, model), self.scorer)
        assert scores[0] == scores[3] and scores[1] == scores[2] == scores[4]
        assert best == (0 if scores[0] >= scores[1] else 1)
        assert answer_question(QUESTION, doc, model, self.scorer)[0] == best

    def test_nan_encoder_weight_raises(self, tmp_path):
        model = VqaModel(TINY_MODEL)
        model.params["enc.0.ffn.b1"].data[:] = np.nan
        doc = write_document(tmp_path, [ink_page(i) for i in range(4)])
        with pytest.raises(NumericError, match="encoder layer 0 produced non-finite values"):
            answer_question(QUESTION, doc, model, self.scorer)

    def test_pages_longer_than_one_tile_stack_within_the_row_cap(self, tmp_path, monkeypatch):
        doc = write_document(tmp_path, [ink_page(i, 48, 416) for i in range(5)])
        model = VqaModel(replace(TINY_MODEL, max_patches=256))
        with no_grad():
            assert encode_page(QUESTION, doc, 0, model).shape[-2] == 104 > ATTENTION_TILE
        assert self.encode_in_blocks(doc, model, monkeypatch) == [BLOCK_ROWS // 104, 1] == [4, 1]

    def test_desk_size_block_peak_memory(self, tmp_path, monkeypatch):
        """One block of 13 desk pages (39 patches each) peaks at about 7 MiB of traced memory.

        The pages' patches are 1 MiB, once as grids and once stacked, and
        the largest encoder temporary, the FFN hidden layer, 1.5 MiB.
        """
        model = VqaModel(DESK_MODEL)
        doc = write_document(tmp_path, [ink_page(i, 32) for i in range(13)])
        stream = page_features(QUESTION, doc, model)
        pages = record_encoded_pages(monkeypatch)
        tracemalloc.start()
        try:
            with no_grad():
                feature = next(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert feature.shape[-2] == 39 and pages == [BLOCK_ROWS // 39] == [13]
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestPaperBudgetMemory:
    @pytest.fixture(scope="class")
    def score_and_peak(self) -> tuple[float, int]:
        """Score and tracemalloc peak of encoding and scoring one page at the paper's patch budget."""
        cfg = DESK_MODEL
        model = VqaModel(cfg)
        scorer = SelfAttentionScorer(ScorerConfig(n_heads=16), d_model=cfg.d_model, seed=1)
        grid = PatchGrid(rows=32, cols=64, patch_size=16, patches=np.random.default_rng(0).random((1, 2048, 256)))
        tracemalloc.start()
        try:
            with no_grad():
                score = scorer.score_value(model.encode_grid(grid))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return score, peak

    def test_one_page_at_2048_patches_stays_under_64_mib(self, score_and_peak):
        """Encoding and scoring a page at the paper's patch budget holds no (heads, L, L) attention."""
        score, peak = score_and_peak
        assert 0.0 <= score <= 1.0
        assert peak <= 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_one_page_at_2048_patches_holds_one_attention_buffer_per_tile(self, score_and_peak):
        """Each 64-row tile's QK^T, scale, mask and softmax share one (heads, 64, L) buffer (8 MiB here)."""
        _, peak = score_and_peak
        assert peak <= 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def quadrants_of(per_question: list[tuple[bool, float]]) -> dict:
    """The quadrants of one-document records with the given (page correct?, ANLS) pairs."""
    records = [{"doc_id": "d", "doc_pages": 2, "pred_page": 0, "gold_page": 0 if page_ok else 1, "anls": score}
               for page_ok, score in per_question]
    return report_from_records(records)["quadrants"]


class TestQuadrants:
    def test_reference_distribution(self):
        # 2488 / 1727 / 172 / 800 over 5187 questions -> 47.97 / 33.29 / 3.32 / 15.42
        per_question = (
            [(True, 1.0)] * 2488 + [(True, 0.4)] * 1727 + [(False, 1.0)] * 172 + [(False, 0.0)] * 800
        )
        q = quadrants_of(per_question)
        assert q["counts"] == [2488, 1727, 172, 800]
        assert q["percentages"] == [47.97, 33.29, 3.32, 15.42]
        assert sum(q["counts"]) == 5187
        assert q["order"] == ["page_ok_exact", "page_ok_partial", "page_bad_exact", "page_bad_partial"]

    def test_single_cell_holds_everything(self):
        q = quadrants_of([(True, 1.0)] * 10)
        assert q["counts"] == [10, 0, 0, 0]
        assert q["percentages"][0] == 100.0

    def test_one_partial_miss(self):
        q = quadrants_of([(False, 0.3)])
        assert q["counts"] == [0, 0, 0, 1]

    def test_counts_sum_and_percentages_sum(self):
        rng = np.random.default_rng(11)
        flags = [(bool(rng.integers(2)), float(rng.choice([1.0, 0.6, 0.0]))) for _ in range(333)]
        q = quadrants_of(flags)
        assert sum(q["counts"]) == 333
        assert abs(sum(q["percentages"]) - 100.0) <= 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report_from_records([])


class TestHistogramAndRecords:
    def test_report_from_records_roundtrip(self):
        records = [
            {"question_id": 0, "doc_id": "a", "pred_page": 1, "gold_page": 1, "pred_answer": "x", "anls": 1.0, "doc_pages": 3},
            {"question_id": 1, "doc_id": "a", "pred_page": 0, "gold_page": 2, "pred_answer": "y", "anls": 0.0, "doc_pages": 3},
            {"question_id": 2, "doc_id": "b", "pred_page": 0, "gold_page": 0, "pred_answer": "z", "anls": 0.6, "doc_pages": 1},
        ]
        report = report_from_records(records)
        assert report["n_questions"] == 3
        assert report["anls"] == pytest.approx((1.0 + 0.0 + 0.6) / 3)
        assert report["page_accuracy_pct"] == pytest.approx(200 / 3)
        assert report["quadrants"]["counts"] == [1, 1, 0, 1]
        assert list(report["page_histogram"].items()) == [("1", 1), ("3", 1)]
        assert "page accuracy" in report_table(report)
