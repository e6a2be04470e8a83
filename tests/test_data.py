import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonfuzz import DELETE, JSON_VALUES, replace_field

from pixqa.checkpoint import save_checkpoint
from pixqa.cli import main
from pixqa.data import (
    Dataset,
    Document,
    PageRef,
    QASample,
    SynthConfig,
    fact_line,
    gen_synthetic,
    load_mpdocvqa,
    read_pgm,
    split,
    write_pgm,
)
from pixqa.errors import AnnotationParseError, ConfigError, DataError, PixqaError
from pixqa.font import GLYPH_HEIGHT, GLYPH_WIDTH
from pixqa.model import ModelConfig, VqaModel
from pixqa.render import RasterImage, render_text
from pixqa.scorer import ScorerConfig, SelfAttentionScorer

TINY = SynthConfig(n_documents=3, pages_per_doc=(2, 4), questions_per_doc=2, seed=5)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = RasterImage(rng.integers(0, 256, size=(37, 53), dtype=np.uint8))
        write_pgm(img, tmp_path / "x.pgm")
        back = read_pgm(tmp_path / "x.pgm")
        assert (back.pixels == img.pixels).all()

    def test_roundtrip_bytes_deterministic(self, tmp_path):
        img = RasterImage(np.arange(64, dtype=np.uint8).reshape(8, 8))
        write_pgm(img, tmp_path / "a.pgm")
        write_pgm(img, tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_comments_and_whitespace(self, tmp_path):
        raw = b"P5 # comment\n# another\n 2 2\n255\n" + bytes([0, 100, 200, 255])
        (tmp_path / "c.pgm").write_bytes(raw)
        img = read_pgm(tmp_path / "c.pgm")
        assert img.pixels.tolist() == [[0, 100], [200, 255]]

    def test_sixteen_bit_rescaled(self, tmp_path):
        samples = np.array([[0, 32768], [65535, 16384]], dtype=">u2")
        (tmp_path / "d.pgm").write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
        img = read_pgm(tmp_path / "d.pgm")
        assert img.pixels.tolist() == [[0, 128], [255, 64]]

    def test_color_reduced_by_channel_average(self, tmp_path):
        rgb = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 90, 90, 90])
        (tmp_path / "e.ppm").write_bytes(b"P6\n2 2\n255\n" + rgb)
        img = read_pgm(tmp_path / "e.ppm")
        assert img.pixels.tolist() == [[85, 85], [85, 90]]

    @pytest.mark.parametrize("width, height", [(1, 1), (53, 37), (512, 1024)])
    def test_eight_bit_gray_equals_the_general_decode(self, tmp_path, width, height):
        """An 8-bit P5 raster is returned as its bytes: the float round trip of the general path is the identity."""
        raster = np.random.default_rng(width).integers(0, 256, size=width * height, dtype=np.uint8).tobytes()
        (tmp_path / "r.pgm").write_bytes(f"P5 # random\n{width} {height}\n255\n".encode() + raster)
        img = read_pgm(tmp_path / "r.pgm")
        general = np.clip(np.rint(np.frombuffer(raster, dtype=np.uint8).astype(np.float64)), 0, 255).astype(np.uint8)
        assert img.pixels.dtype == np.uint8
        assert np.array_equal(img.pixels, general.reshape(height, width))

    def test_truncated_rejected(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DataError):
            read_pgm(tmp_path / "t.pgm")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "m.pgm").write_bytes(b"JUNKJUNK")
        with pytest.raises(DataError):
            read_pgm(tmp_path / "m.pgm")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_pgm(tmp_path / "absent.pgm")


class TestLoader:
    def _write_fixture(self, tmp_path, n_questions=2, break_image=False, pages=3):
        images = tmp_path / "images"
        images.mkdir()
        page_ids = [f"docA_p{k:03d}" for k in range(pages)]
        for pid in page_ids:
            if break_image and pid == page_ids[-1]:
                continue
            write_pgm(RasterImage(np.full((8, 8), 255, dtype=np.uint8)), images / f"{pid}.pgm")
        data = [
            {
                "questionId": i,
                "question": f"what is the value of K{i}?",
                "doc_id": "docA",
                "page_ids": page_ids,
                "answers": [f"v{i}"],
                "answer_page_idx": i % pages,
            }
            for i in range(n_questions)
        ]
        ann = tmp_path / "annotations.json"
        ann.write_text(json.dumps({"dataset_split": "test", "data": data}))
        return ann, images

    def test_wellformed_fixture(self, tmp_path):
        ann, images = self._write_fixture(tmp_path)
        ds = load_mpdocvqa(ann, images)
        assert ds.n_questions == 2
        assert ds.split == "test"
        assert ds.questions[0].answer_page_index == 0
        assert ds.questions[1].answer_page_index == 1
        assert ds.documents["docA"].n_pages == 3

    def test_missing_image_names_page_id(self, tmp_path):
        ann, images = self._write_fixture(tmp_path, break_image=True)
        with pytest.raises(DataError, match="docA_p002"):
            load_mpdocvqa(ann, images)

    def test_missing_field_names_record(self, tmp_path):
        ann, images = self._write_fixture(tmp_path)
        payload = json.loads(ann.read_text())
        del payload["data"][1]["answers"]
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match="record 1"):
            load_mpdocvqa(ann, images)

    def test_gold_out_of_range_rejected(self, tmp_path):
        ann, images = self._write_fixture(tmp_path)
        payload = json.loads(ann.read_text())
        payload["data"][0]["answer_page_idx"] = 99
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match="record 0"):
            load_mpdocvqa(ann, images)

    def test_inconsistent_page_lists_rejected(self, tmp_path):
        ann, images = self._write_fixture(tmp_path)
        payload = json.loads(ann.read_text())
        payload["data"][1]["page_ids"] = payload["data"][1]["page_ids"][:2]
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match="record 1"):
            load_mpdocvqa(ann, images)

    @pytest.mark.parametrize(
        "content",
        [
            b'{"data": [], "dataset_split": "\xff\xfe"}',  # not UTF-8
            b"[" * 100_000 + b"]" * 100_000,  # nested deeper than the parser recurses
            b'{"data": [' + b"1" * 5000 + b"]}",  # an int past the parser's digit limit
        ],
        ids=["invalid-utf8", "deep-nesting", "huge-int"],
    )
    def test_unparsable_file_raises_parse_error(self, tmp_path, content):
        ann, images = self._write_fixture(tmp_path)
        ann.write_bytes(content)
        with pytest.raises(AnnotationParseError, match="invalid JSON"):
            load_mpdocvqa(ann, images)

    @pytest.mark.parametrize(
        "record, value",
        [
            (0, {"doc_id": ["docA"]}),  # unhashable
            (0, {"questionId": True}),
            (1, {"question": 7}),
            (1, {"page_ids": ["docA_p000", 3]}),
            (0, {"answers": [None]}),
            (1, {"answer_page_idx": 1.0}),
            (0, "not an object"),
        ],
    )
    def test_field_of_wrong_type_names_record(self, tmp_path, record, value):
        ann, images = self._write_fixture(tmp_path)
        payload = json.loads(ann.read_text())
        if isinstance(value, dict):
            payload["data"][record].update(value)
        else:
            payload["data"][record] = value
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match=f"record {record}"):
            load_mpdocvqa(ann, images)

    @pytest.mark.parametrize("qid", [0, "q7"])
    def test_repeated_question_id_rejected(self, tmp_path, qid):
        # Frozen features and result rows are keyed by the id, so a repeat would share them between questions.
        ann, images = self._write_fixture(tmp_path, n_questions=3)
        payload = json.loads(ann.read_text())
        payload["data"][0]["questionId"] = payload["data"][2]["questionId"] = qid
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match=f"record 2: questionId {qid!r}"):
            load_mpdocvqa(ann, images)

    def test_split_name_must_be_a_string(self, tmp_path):
        ann, images = self._write_fixture(tmp_path)
        payload = json.loads(ann.read_text())
        payload["dataset_split"] = ["test"]
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match="dataset_split"):
            load_mpdocvqa(ann, images)

    def test_page_id_too_long_for_a_file_name(self, tmp_path):
        ann, images = self._write_fixture(tmp_path)
        payload = json.loads(ann.read_text())
        for rec in payload["data"]:
            rec["page_ids"][0] = "p" * 5000
        ann.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="page image not found"):
            load_mpdocvqa(ann, images)

    @pytest.mark.parametrize("outside", ["../outside", "abs"])
    def test_page_id_that_is_not_a_file_name_rejected(self, tmp_path, outside):
        ann, images = self._write_fixture(tmp_path)
        write_pgm(RasterImage(np.full((8, 8), 255, dtype=np.uint8)), tmp_path / "outside.pgm")
        payload = json.loads(ann.read_text())
        for rec in payload["data"]:
            rec["page_ids"][0] = str(tmp_path / "outside") if outside == "abs" else outside
        ann.write_text(json.dumps(payload))
        with pytest.raises(AnnotationParseError, match="record 0.*not a file name"):
            load_mpdocvqa(ann, images)

    def test_missing_annotations_file(self, tmp_path):
        with pytest.raises(DataError):
            load_mpdocvqa(tmp_path / "nope.json", tmp_path)

    def test_793_page_document(self, tmp_path):
        cfg = SynthConfig(n_documents=1, pages_per_doc=(793, 793), questions_per_doc=1, seed=1)
        ds = gen_synthetic(cfg, tmp_path)
        loaded = load_mpdocvqa(tmp_path / "annotations.json", tmp_path / "images")
        assert [doc.n_pages for doc in loaded.documents.values()] == [793]
        assert loaded.documents[ds.questions[0].doc_id].n_pages == 793


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        gen_synthetic(TINY, a)
        gen_synthetic(TINY, b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_question_and_answer_wiring(self, tmp_path):
        ds = gen_synthetic(TINY, tmp_path)
        assert ds.n_questions == 3 * 2
        for q in ds.questions:
            assert q.question.startswith("what is the value of ")
            assert q.question.endswith("?")
            assert len(q.answers) == 1
            doc = ds.document_for(q)
            assert 0 <= q.answer_page_index < doc.n_pages

    def test_one_evidence_page_by_pixel_scan(self, tmp_path):
        """The rendered key prefix appears on exactly the gold page, nowhere else."""
        ds = gen_synthetic(TINY, tmp_path)
        for q in ds.questions:
            key = q.question[len("what is the value of ") : -1]
            prefix = fact_line(key, "")[:-1]  # " KEY:" without trailing space
            target = render_text(prefix, line_width=len(prefix) * GLYPH_WIDTH).pixels
            doc = ds.document_for(q)
            hits = []
            for k in range(doc.n_pages):
                page = doc.load_page(k).pixels
                for slot in range(page.shape[0] // GLYPH_HEIGHT):
                    region = page[slot * GLYPH_HEIGHT : (slot + 1) * GLYPH_HEIGHT, : target.shape[1]]
                    if (region == target).all():
                        hits.append(k)
            assert hits == [q.answer_page_index], q.question_id

    def test_loader_roundtrip_equal(self, tmp_path):
        ds = gen_synthetic(TINY, tmp_path)
        loaded = load_mpdocvqa(tmp_path / "annotations.json", tmp_path / "images")
        assert loaded.n_questions == ds.n_questions
        for a, b in zip(ds.questions, loaded.questions):
            assert (a.question_id, a.question, a.doc_id, a.answers, a.answer_page_index) == (
                b.question_id,
                b.question,
                b.doc_id,
                b.answers,
                b.answer_page_index,
            )
        for doc_id, doc in ds.documents.items():
            assert [r.page_id for r in loaded.documents[doc_id].pages] == [r.page_id for r in doc.pages]

    def test_histogram_matches_disk(self, tmp_path):
        cfg = SynthConfig(n_documents=12, pages_per_doc=(4, 8), seed=7)
        ds = gen_synthetic(cfg, tmp_path)
        hist = Counter(doc.n_pages for doc in ds.documents.values())
        # independent route: count page files on disk per document
        disk = Counter()
        for doc_id in ds.documents:
            disk[len(list((tmp_path / "images").glob(f"{doc_id}_p*.pgm")))] += 1
        assert hist == disk
        assert sum(hist.values()) == 12
        assert all(4 <= pages <= 8 for pages in hist)

    def test_key_space_too_small_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(key_alphabet="AB", key_len=1, questions_per_doc=5)

    def test_facts_exceed_page_height_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(page_height=32, facts_per_page=5)


class TestSplit:
    def _fake_dataset(self, n_docs):
        documents = {}
        questions = []
        for d in range(n_docs):
            doc_id = f"doc{d:04d}"
            documents[doc_id] = Document(doc_id=doc_id, pages=(PageRef(f"{doc_id}_p0", Path("/x.pgm")),))
            questions.append(
                QASample(question_id=d, question="q?", doc_id=doc_id, answers=("a",), answer_page_index=0)
            )
        return Dataset(split="full", questions=questions, documents=documents)

    def test_all_train(self):
        ds = self._fake_dataset(10)
        train, valid, test = split(ds, (1.0, 0.0, 0.0), seed=0)
        assert len(train.documents) == 10 and not valid.documents and not test.documents

    def test_deterministic(self):
        ds = self._fake_dataset(30)
        a = split(ds, (0.8, 0.1, 0.1), seed=42)
        b = split(ds, (0.8, 0.1, 0.1), seed=42)
        for x, y in zip(a, b):
            assert list(x.documents) == list(y.documents)

    def test_200_docs_sizes(self):
        ds = self._fake_dataset(200)
        train, valid, test = split(ds, (0.8, 0.1, 0.1), seed=7)
        assert (len(train.documents), len(valid.documents), len(test.documents)) == (160, 20, 20)

    def test_document_level_disjoint(self):
        ds = self._fake_dataset(50)
        train, valid, test = split(ds, (0.6, 0.2, 0.2), seed=3)
        sets = [set(part.documents) for part in (train, valid, test)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
        assert sets[0] | sets[1] | sets[2] == set(ds.documents)
        for part in (train, valid, test):
            for q in part.questions:
                assert q.doc_id in part.documents

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            split(self._fake_dataset(4), (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("fractions", [(-0.5, 0.5, 1.0), (1.5, -0.25, -0.25), (float("nan"), 0.5, 0.5),
                                           (float("inf"), 0.5, 0.5)])
    def test_fractions_outside_the_unit_interval_rejected(self, fractions):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            split(self._fake_dataset(4), fractions, seed=0)


def annotation_fields(payload: dict) -> list[tuple]:
    """Paths of the fields of an annotations payload: top-level keys, records, record fields, list items."""
    paths = [(key,) for key in payload]
    for i, rec in enumerate(payload["data"]):
        paths += [("data", i)] + [("data", i, key) for key in rec]
        paths += [("data", i, key, j) for key in ("page_ids", "answers") for j in range(len(rec[key]))]
    return paths


class TestAnnotationFuzz:
    """Only PixqaError subclasses escape the loader, and `pixqa eval` exits 0, 1 or 2."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("annotation-fuzz")
        corpus = root / "corpus"
        gen = ["gen", "--out", str(corpus), "--seed", "2", "--docs", "4", "--pages", "2:2", "--facts-per-page", "1",
               "--page-width", "208", "--page-height", "32", "--fractions", "0.5,0.25,0.25"]
        assert main(gen) == 0
        cfg = ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16, patch_size=4,
                          max_patches=8, vocab_chars="abc", max_answer_len=3, seed=1)
        ckpt = root / "stage2.ckpt"
        save_checkpoint(ckpt, VqaModel(cfg), SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=8, seed=2))
        assert main(["eval", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(root / "eval")]) == 0
        return corpus, ckpt, json.loads((corpus / "annotations.test.json").read_text())

    def check(self, corpus, ckpt, content: bytes) -> None:
        ann = corpus / "annotations.test.json"
        ann.write_bytes(content)
        try:
            load_mpdocvqa(ann, corpus / "images")
            loaded = True
        except PixqaError:
            loaded = False
        rc = main(["eval", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(corpus.parent / "eval")])
        assert rc in (0, 1) if loaded else rc == 1

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fields_replaced_by_arbitrary_json(self, corpus, data):
        corpus_dir, ckpt, clean = corpus
        payload = json.loads(json.dumps(clean))
        paths = data.draw(st.lists(st.sampled_from(annotation_fields(payload)), min_size=1, max_size=3, unique=True))
        for path in paths:
            replace_field(payload, path, data.draw(JSON_VALUES | st.just(DELETE), label=str(path)))
        self.check(corpus_dir, ckpt, json.dumps(payload).encode())

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=64) | st.text(max_size=64).map(str.encode))
    def test_arbitrary_bytes(self, corpus, content):
        corpus_dir, ckpt, _ = corpus
        self.check(corpus_dir, ckpt, content)


PNM_MAGIC = st.sampled_from([b"P6", b"P2", b"P3", b"P4", b"p5", b"P", b""]) | st.binary(max_size=3)
PNM_TOKEN = st.one_of(
    st.integers(-3, 70000).map(lambda n: str(n).encode()),
    st.integers(min_value=2**63).map(lambda n: str(n).encode()),
    st.just(b"9" * 5000),  # past int()'s digit limit
    st.sampled_from([b"0x10", b"1e3", b"+8", b"1_0", b"08", b"\xd9\xa3", b"-0", b""]),
    st.binary(max_size=4),
)
PNM_SEPARATOR = (st.sampled_from([b" ", b"\t", b"\r\n", b"  ", b""])
                 | st.binary(max_size=8).map(lambda text: b"#" + text + b"\n")
                 | st.binary(max_size=2))


@st.composite
def mutated_pnm(draw, pixels: np.ndarray) -> bytes:
    """A valid P5 file of `pixels` with up to three header fields and, maybe, the raster length mutated."""
    height, width = pixels.shape
    fields = [b"P5", b"\n", str(width).encode(), b" ", str(height).encode(), b"\n", b"255", b"\n"]
    mutations = [PNM_MAGIC, PNM_SEPARATOR, PNM_TOKEN, PNM_SEPARATOR, PNM_TOKEN, PNM_SEPARATOR, PNM_TOKEN, PNM_SEPARATOR]
    for i in draw(st.sets(st.integers(0, len(fields) - 1), max_size=3)):
        fields[i] = draw(mutations[i], label=f"header field {i}")
    raster = pixels.tobytes()
    if draw(st.booleans()):  # truncated, or extra bytes, up to what a P6 or 16-bit header would need
        size = draw(st.integers(0, 3 * len(raster) + 8), label="raster bytes")
        raster = (raster * 4)[:size]
    return b"".join(fields) + raster


class TestPgmHeaderFuzz:
    """Only DataError escapes the page reader, and `pixqa eval` on a corpus with such a page exits 1."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("pgm-fuzz")
        corpus = root / "corpus"
        gen = ["gen", "--out", str(corpus), "--seed", "2", "--docs", "4", "--pages", "2:2", "--facts-per-page", "1",
               "--page-width", "208", "--page-height", "32", "--fractions", "0.5,0.25,0.25"]
        assert main(gen) == 0
        cfg = ModelConfig(d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16, patch_size=4,
                          max_patches=8, vocab_chars="abc", max_answer_len=3, seed=1)
        ckpt = root / "stage2.ckpt"
        save_checkpoint(ckpt, VqaModel(cfg), SelfAttentionScorer(ScorerConfig(n_heads=2), d_model=8, seed=2))
        page_id = json.loads((corpus / "annotations.test.json").read_text())["data"][0]["page_ids"][0]
        page = corpus / "images" / f"{page_id}.pgm"
        clean = page.read_bytes()
        assert main(["eval", "--data", str(corpus), "--checkpoint", str(ckpt), "--out", str(root / "eval")]) == 0
        yield corpus, ckpt, page, read_pgm(page).pixels
        page.write_bytes(clean)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_only_data_error_escapes(self, corpus, data):
        corpus_dir, ckpt, page, pixels = corpus
        page.write_bytes(data.draw(mutated_pnm(pixels)))
        try:
            read_pgm(page)
            loaded = True
        except DataError:
            loaded = False
        if not loaded:
            with pytest.raises(DataError, match=page.stem):
                Document("d", (PageRef(page.stem, page),)).load_page(0)
        rc = main(["eval", "--data", str(corpus_dir), "--checkpoint", str(ckpt), "--out", str(corpus_dir.parent / "ev")])
        assert rc in (0, 1) if loaded else rc == 1
