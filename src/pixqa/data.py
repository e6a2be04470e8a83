"""Dataset layer: on-disk corpus format, loader, and synthetic generator.

The on-disk layout mirrors the public multi-page DocVQA release: a JSON
annotations file whose ``data`` list holds one record per question
(``questionId``, ``question``, ``doc_id``, ``page_ids``, ``answers``,
``answer_page_idx``), next to an images directory with one binary PGM per
page id. Synthetic corpora are written in exactly this format, so real
data drops in unchanged.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AnnotationParseError, ConfigError, DataError
from .font import GLYPH_HEIGHT, GLYPH_WIDTH
from .render import RasterImage, render_text

LINE_HEIGHT = GLYPH_HEIGHT  # pages are laid out on the builtin font's line grid


# ----------------------------------------------------------------------------
# PGM image files
# ----------------------------------------------------------------------------

def write_pgm(img: RasterImage, path: Path) -> None:
    path = Path(path)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + img.pixels.tobytes())


def _read_pnm_tokens(blob: bytes, count: int) -> tuple[list[int], int]:
    """Parse `count` whitespace-separated header integers, skipping # comments.

    Returns the values and the offset of the first raster byte.
    """
    tokens: list[int] = []
    i = 0
    while len(tokens) < count:
        if i >= len(blob):
            raise ValueError("truncated header")
        ch = blob[i : i + 1]
        if ch == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(blob) and not blob[j : j + 1].isspace() and blob[j : j + 1] != b"#":
                j += 1
            tokens.append(int(blob[i:j]))
            i = j
    return tokens, i + 1  # single whitespace byte after the last header token


def read_pgm(path: Path) -> RasterImage:
    """Read a binary PGM (P5) or PPM (P6) file as 8-bit grayscale.

    16-bit samples are rescaled to 0..255; color images are reduced by
    averaging the three channels. An 8-bit grayscale file's pixels are its
    raster bytes as they are, a read-only array.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read image file {path}: {exc}") from exc
    try:
        magic = blob[:2]
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"unsupported magic {magic!r}")
        (width, height, maxval), offset = _read_pnm_tokens(blob[2:], 3)
        offset += 2
        if width < 1 or height < 1 or not 0 < maxval < 65536:
            raise ValueError(f"bad dimensions {width}x{height} maxval {maxval}")
        channels = 3 if magic == b"P6" else 1
        deep = maxval > 255
        nbytes = width * height * channels * (2 if deep else 1)
        raster = blob[offset : offset + nbytes]
        if len(raster) != nbytes:
            raise ValueError(f"expected {nbytes} raster bytes, found {len(raster)}")
        if channels == 1 and maxval == 255:  # the samples are the pixels: no rescale, nothing to round
            return RasterImage(np.frombuffer(raster, dtype=np.uint8).reshape(height, width))
        dtype = ">u2" if deep else np.uint8
        arr = np.frombuffer(raster, dtype=dtype).astype(np.float64)
        if channels == 3:
            arr = arr.reshape(height, width, 3).mean(axis=2)
        else:
            arr = arr.reshape(height, width)
        if deep or maxval != 255:
            arr = arr * (255.0 / maxval)
        return RasterImage(np.clip(np.rint(arr), 0, 255).astype(np.uint8))
    except ValueError as exc:
        raise DataError(f"corrupt image file {path}: {exc}") from exc


# ----------------------------------------------------------------------------
# Dataset types
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PageRef:
    page_id: str
    path: Path


@dataclass(frozen=True)
class Document:
    doc_id: str
    pages: tuple[PageRef, ...]

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    def load_page(self, index: int) -> RasterImage:
        ref = self.pages[index]
        try:
            return read_pgm(ref.path)
        except DataError as exc:
            raise DataError(f"page {index} ({ref.page_id!r}) of {self.doc_id!r}: {exc}") from exc


@dataclass(frozen=True)
class QASample:
    question_id: int | str
    question: str
    doc_id: str
    answers: tuple[str, ...]
    answer_page_index: int


@dataclass
class Dataset:
    split: str
    questions: list[QASample]
    documents: dict[str, Document]

    def document_for(self, sample: QASample) -> Document:
        return self.documents[sample.doc_id]

    @property
    def n_questions(self) -> int:
        return len(self.questions)


# ----------------------------------------------------------------------------
# Loader
# ----------------------------------------------------------------------------

RECORD_FIELDS = ("questionId", "question", "doc_id", "page_ids", "answers", "answer_page_idx")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)


def load_mpdocvqa(annotations_path: Path, images_dir: Path) -> Dataset:
    """Load a corpus in the multi-page DocVQA annotation schema.

    Every way the file can break the schema (bytes that are not UTF-8 JSON,
    nesting too deep to parse, a field of the wrong type) raises
    ``AnnotationParseError``; a page image that cannot be found raises
    ``DataError``.
    """
    annotations_path = Path(annotations_path)
    images_dir = Path(images_dir)
    if not annotations_path.exists():
        raise DataError(f"annotations file not found: {annotations_path}")
    try:
        blob = annotations_path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read annotations file {annotations_path}: {exc}") from None
    try:
        payload = json.loads(blob)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bytes that are not UTF-8, nesting too deep
        raise AnnotationParseError(f"{annotations_path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("data"), list):
        raise AnnotationParseError(f"{annotations_path}: top level must be an object with a 'data' list")
    split = payload.get("dataset_split", "full")
    if not isinstance(split, str):
        raise AnnotationParseError(f"{annotations_path}: dataset_split must be a string, got {type(split).__name__}")

    questions: list[QASample] = []
    question_ids: set[int | str] = set()
    doc_pages: dict[str, list[str]] = {}
    for idx, rec in enumerate(payload["data"]):
        if not isinstance(rec, dict):
            raise AnnotationParseError(f"record {idx}: must be an object, got {type(rec).__name__}")
        missing = [name for name in RECORD_FIELDS if name not in rec]
        if missing:
            raise AnnotationParseError(f"record {idx}: missing field {missing[0]!r}")
        qid, question, doc_id, page_ids, answers, gold = (rec[name] for name in RECORD_FIELDS)
        if type(qid) not in (int, str):  # JSON true/false is not an id
            raise AnnotationParseError(f"record {idx}: questionId must be an int or a string")
        if qid in question_ids:  # features and results are keyed by it
            raise AnnotationParseError(f"record {idx}: questionId {qid!r} repeats an earlier record's")
        question_ids.add(qid)
        if not isinstance(question, str) or not isinstance(doc_id, str):
            raise AnnotationParseError(f"record {idx}: question and doc_id must be strings")
        if not _is_str_list(page_ids):
            raise AnnotationParseError(f"record {idx}: page_ids must be a non-empty list of strings")
        if doc_id not in doc_pages:  # a page id names a file in images_dir, never a path out of it
            outside = next((pid for pid in page_ids if pid in (".", "..") or "/" in pid or "\\" in pid), None)
            if outside is not None:
                raise AnnotationParseError(f"record {idx}: page id {outside!r} is not a file name")
        if not _is_str_list(answers):
            raise AnnotationParseError(f"record {idx}: answers must be a non-empty list of strings")
        if type(gold) is not int or not 0 <= gold < len(page_ids):
            raise AnnotationParseError(f"record {idx}: answer_page_idx {gold!r} out of range for {len(page_ids)} pages")
        if doc_id in doc_pages and doc_pages[doc_id] != page_ids:
            raise AnnotationParseError(f"record {idx}: document {doc_id!r} listed with inconsistent page_ids")
        doc_pages.setdefault(doc_id, list(page_ids))
        questions.append(
            QASample(question_id=qid, question=question, doc_id=doc_id, answers=tuple(answers), answer_page_index=gold)
        )

    documents: dict[str, Document] = {}
    for doc_id, page_ids in doc_pages.items():
        refs = []
        for page_id in page_ids:
            path = images_dir / f"{page_id}.pgm"
            try:
                found = path.exists()
            except OSError:  # e.g. a page id longer than a file name may be
                found = False
            if not found:
                raise DataError(f"page image not found for page id {page_id!r} (looked at {path})")
            refs.append(PageRef(page_id=page_id, path=path))
        documents[doc_id] = Document(doc_id=doc_id, pages=tuple(refs))
    return Dataset(split=split, questions=questions, documents=documents)


def write_annotations(dataset: Dataset, path: Path) -> None:
    """Write a Dataset back out in the loader's annotation schema."""
    records = []
    for q in dataset.questions:
        doc = dataset.documents[q.doc_id]
        records.append(
            {
                "questionId": q.question_id,
                "question": q.question,
                "doc_id": q.doc_id,
                "page_ids": [ref.page_id for ref in doc.pages],
                "answers": list(q.answers),
                "answer_page_idx": q.answer_page_index,
            }
        )
    payload = {"dataset_name": "pixqa-synthetic", "dataset_split": dataset.split, "data": records}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------------
# Synthetic corpus generator
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    n_documents: int = 200
    pages_per_doc: tuple[int, int] = (4, 8)
    facts_per_page: int = 3
    questions_per_doc: int = 5
    key_alphabet: str = string.ascii_uppercase
    key_len: int = 4
    value_alphabet: str = string.digits
    value_len: int = 4
    page_width: int = 224
    page_height: int = 48
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.pages_per_doc
        if lo < 1 or hi < lo:
            raise ConfigError(f"pages_per_doc range {self.pages_per_doc} invalid")
        if min(self.n_documents, self.facts_per_page, self.questions_per_doc, self.key_len, self.value_len) < 1:
            raise ConfigError("all corpus counts must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # The exponent is capped where any alphabet of 2+ keys already passes, so a huge key_len costs nothing.
        needed = 2 * self.questions_per_doc + 2
        key_space = len(set(self.key_alphabet)) ** min(self.key_len, needed.bit_length())
        if key_space < needed:
            raise ConfigError(
                f"key alphabet too small: {key_space} possible keys cannot guarantee "
                f"{self.questions_per_doc} unique keys per document plus distractors"
            )
        if not self.value_alphabet:
            raise ConfigError("value alphabet must be non-empty")
        if self.page_height // LINE_HEIGHT < self.facts_per_page:
            raise ConfigError(
                f"page height {self.page_height} fits {self.page_height // LINE_HEIGHT} fact lines, "
                f"need {self.facts_per_page}"
            )
        line_chars = 1 + self.key_len + 2 + self.value_len
        if line_chars * GLYPH_WIDTH > self.page_width:
            raise ConfigError(f"page width {self.page_width} too narrow for {line_chars}-character fact lines")
        question_chars = len(question_text("K" * self.key_len))
        if question_chars * GLYPH_WIDTH > self.page_width:
            raise ConfigError(f"page width {self.page_width} too narrow for the {question_chars}-character question")


def question_text(key: str) -> str:
    return f"what is the value of {key}?"


def fact_line(key: str, value: str) -> str:
    return f" {key}: {value}"


def _random_string(rng: np.random.Generator, alphabet: str, length: int) -> str:
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=length))


def gen_synthetic(cfg: SynthConfig, out_dir: Path) -> Dataset:
    """Generate and materialize a synthetic key-value corpus.

    Every page is a list of ``KEY: VALUE`` fact lines. For each question a
    unique key appears on exactly one page of its document (the gold page)
    and nowhere else in that document; all other fact slots hold distractor
    facts drawn from the same alphabets. Fully deterministic given the seed.
    """
    out_dir = Path(out_dir)
    images_dir = out_dir / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    slots_per_page = cfg.facts_per_page
    questions: list[QASample] = []
    documents: dict[str, Document] = {}
    next_qid = 0

    for d in range(cfg.n_documents):
        doc_id = f"doc{d:04d}"
        lo, hi = cfg.pages_per_doc
        n_pages = int(rng.integers(lo, hi + 1))

        # A page holds at most facts_per_page gold facts, so short documents
        # cap how many questions they can host.
        n_questions = min(cfg.questions_per_doc, n_pages * slots_per_page)
        question_keys: list[str] = []
        seen: set[str] = set()
        while len(question_keys) < n_questions:
            key = _random_string(rng, cfg.key_alphabet, cfg.key_len)
            if key not in seen:
                seen.add(key)
                question_keys.append(key)

        # Assign each question's gold page, never overfilling a page's slots.
        golds_per_page: list[list[tuple[str, str]]] = [[] for _ in range(n_pages)]
        for key in question_keys:
            while True:
                k = int(rng.integers(n_pages))
                if len(golds_per_page[k]) < slots_per_page:
                    break
            value = _random_string(rng, cfg.value_alphabet, cfg.value_len)
            golds_per_page[k].append((key, value))
            questions.append(
                QASample(
                    question_id=next_qid,
                    question=question_text(key),
                    doc_id=doc_id,
                    answers=(value,),
                    answer_page_index=k,
                )
            )
            next_qid += 1

        refs = []
        for k in range(n_pages):
            facts = list(golds_per_page[k])
            while len(facts) < slots_per_page:
                key = _random_string(rng, cfg.key_alphabet, cfg.key_len)
                if key in seen:
                    continue
                facts.append((key, _random_string(rng, cfg.value_alphabet, cfg.value_len)))
            order = rng.permutation(len(facts))
            page = np.full((cfg.page_height, cfg.page_width), 255, dtype=np.uint8)
            for slot, fact_idx in enumerate(order):
                key, value = facts[fact_idx]
                line_img = render_text(fact_line(key, value), line_width=cfg.page_width)
                page[slot * LINE_HEIGHT : (slot + 1) * LINE_HEIGHT, :] = line_img.pixels
            page_id = f"{doc_id}_p{k:03d}"
            path = images_dir / f"{page_id}.pgm"
            write_pgm(RasterImage(page), path)
            refs.append(PageRef(page_id=page_id, path=path))
        documents[doc_id] = Document(doc_id=doc_id, pages=tuple(refs))

    dataset = Dataset(split="full", questions=questions, documents=documents)
    write_annotations(dataset, out_dir / "annotations.json")
    return dataset


# ----------------------------------------------------------------------------
# Splits
# ----------------------------------------------------------------------------

def check_fractions(fractions: tuple[float, float, float]) -> None:
    """Raise ConfigError unless the train/valid/test fractions lie in [0, 1] and sum to 1."""
    if not all(0.0 <= f <= 1.0 for f in fractions):  # NaN fails every comparison
        raise ConfigError(f"split fractions must lie in [0, 1], got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")


def split(dataset: Dataset, fractions: tuple[float, float, float], seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint document-level partition into train/valid/test."""
    check_fractions(fractions)
    doc_ids = list(dataset.documents)
    rng = np.random.default_rng(seed)
    order = [doc_ids[i] for i in rng.permutation(len(doc_ids))]
    n = len(order)
    n_train = round(fractions[0] * n)
    n_valid = min(round(fractions[1] * n), n - n_train)
    members = {
        "train": set(order[:n_train]),
        "valid": set(order[n_train : n_train + n_valid]),
        "test": set(order[n_train + n_valid :]),
    }
    parts = []
    for name in ("train", "valid", "test"):
        chosen = members[name]
        parts.append(
            Dataset(
                split=name,
                questions=[q for q in dataset.questions if q.doc_id in chosen],
                documents={doc_id: doc for doc_id, doc in dataset.documents.items() if doc_id in chosen},
            )
        )
    return tuple(parts)
