import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonfuzz import JSON_VALUES, replace_field

from pixqa.checkpoint import load_checkpoint, save_checkpoint
from pixqa.cli import main
from pixqa.errors import CheckpointError
from pixqa.model import ModelConfig, VqaModel
from pixqa.scorer import ScorerConfig, SelfAttentionScorer

CFG = ModelConfig(
    d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
    patch_size=4, max_patches=8, vocab_chars="abc", max_answer_len=3, seed=1,
)


def rewrite_header(path, edit) -> dict:
    """Apply `edit` to the JSON header of the checkpoint at `path` in place; return the new header."""
    blob = path.read_bytes()
    magic_end = blob.index(b"\n") + 1
    header_len_end = blob.index(b"\n", magic_end) + 1
    header_len = int(blob[magic_end : header_len_end - 1])
    header = json.loads(blob[header_len_end : header_len_end + header_len])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:magic_end] + f"{len(new_header)}\n".encode() + new_header + blob[header_len_end + header_len :])
    return header


def make_pair():
    model = VqaModel(CFG)
    scorer = SelfAttentionScorer(ScorerConfig(n_heads=2, dropout_p=0.2), d_model=8, seed=2)
    return model, scorer


class TestRoundTrip:
    def test_save_load_save_identical_bytes(self, tmp_path):
        model, scorer = make_pair()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, model, scorer)
        loaded_model, loaded_scorer = load_checkpoint(p1)
        save_checkpoint(p2, loaded_model, loaded_scorer)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_with_the_retired_head_dims_null_loads(self, tmp_path):
        """Headers written while ScorerConfig had head_dims hold "head_dims": null, which meant today's widths."""
        model, scorer = make_pair()
        path = tmp_path / "old.ckpt"
        save_checkpoint(path, model, scorer)
        rewrite_header(path, lambda h: h["scorer_config"].update(head_dims=None))
        _, loaded = load_checkpoint(path)
        assert loaded.cfg == scorer.cfg
        rewrite_header(path, lambda h: h["scorer_config"].update(head_dims=[8, 4, 1]))
        with pytest.raises(CheckpointError, match="head_dims"):
            load_checkpoint(path)

    def test_parameters_bit_exact(self, tmp_path):
        model, scorer = make_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, scorer)
        lm, ls = load_checkpoint(path)
        for name, p in model.params.items():
            assert lm.params[name].data.tobytes() == p.data.tobytes(), name
        for name, p in scorer.params.items():
            assert ls.params[name].data.tobytes() == p.data.tobytes(), name

    def test_configs_survive(self, tmp_path):
        model, scorer = make_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, scorer)
        lm, ls = load_checkpoint(path)
        assert lm.cfg == CFG
        assert ls.cfg == scorer.cfg

    def test_stage1_has_no_scorer(self, tmp_path):
        model, _ = make_pair()
        path = tmp_path / "s1.ckpt"
        save_checkpoint(path, model)
        lm, ls = load_checkpoint(path)
        assert ls is None
        assert set(lm.params) == set(model.params)

    def test_stage2_superset_of_stage1(self, tmp_path):
        """Same model bytes appear under model/ in both stage files."""
        model, scorer = make_pair()
        p1, p2 = tmp_path / "s1.ckpt", tmp_path / "s2.ckpt"
        save_checkpoint(p1, model)
        save_checkpoint(p2, model, scorer)
        m1, _ = load_checkpoint(p1)
        m2, s2 = load_checkpoint(p2)
        assert s2 is not None
        for name in model.params:
            assert m1.params[name].data.tobytes() == m2.params[name].data.tobytes()


class FailsToWrite:
    """A parameter array whose bytes cannot be produced, so a save fails after writing part of the file."""

    def __init__(self, arr: np.ndarray):
        self.shape, self.size = arr.shape, arr.size

    def __array__(self, dtype=None, copy=None):
        raise MemoryError("no room for the payload")


class TestFailedSave:
    def test_previous_checkpoint_survives_a_save_that_fails_partway(self, tmp_path):
        model, scorer = make_pair()
        path = tmp_path / "stage2.ckpt"
        save_checkpoint(path, model, scorer)
        before = path.read_bytes()
        last = sorted(scorer.params)[-1]  # scorer entries come after every model entry
        scorer.params[last].data = FailsToWrite(scorer.params[last].data)
        with pytest.raises(MemoryError):
            save_checkpoint(path, model, scorer)
        assert path.read_bytes() == before
        assert load_checkpoint(path)[1] is not None
        assert [p.name for p in tmp_path.iterdir()] == ["stage2.ckpt"]


class TestCorruption:
    def test_truncated_payload(self, tmp_path):
        model, _ = make_pair()
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOT A CHECKPOINT\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_shape_mismatch_names_entry(self, tmp_path):
        model, _ = make_pair()
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, model)
        header = rewrite_header(path, lambda h: h["entries"][0].update(shape=[1, 1]))
        with pytest.raises(CheckpointError, match=header["entries"][0]["name"]):
            load_checkpoint(path)

    def test_unexpected_entry_rejected(self, tmp_path):
        model, _ = make_pair()
        path = tmp_path / "u.ckpt"
        save_checkpoint(path, model)
        rewrite_header(path, lambda h: h["entries"][0].update(name="model/not.a.real.parameter"))
        with pytest.raises(CheckpointError, match="not.a.real.parameter"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section", ["model_config", "scorer_config"])
    def test_unknown_config_key_rejected(self, tmp_path, section):
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, *make_pair())
        rewrite_header(path, lambda h: h[section].update(not_a_field=1))
        with pytest.raises(CheckpointError, match="not_a_field"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "section, value",
        [("model_config", "d_model=8"), ("model_config", None), ("model_config", [["d_model", 8]]),
         ("scorer_config", "first"), ("scorer_config", 3)],
    )
    def test_config_section_of_wrong_type_rejected(self, tmp_path, section, value):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, *make_pair())
        rewrite_header(path, lambda h: h.update({section: value}))
        with pytest.raises(CheckpointError, match=section):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda h: h.update(entries="model/embed.proj_w"), "entries"),
            (lambda h: h["entries"].__setitem__(0, "model/embed.proj_w"), "entry 0"),
            (lambda h: h["entries"][0].pop("shape"), "dec.0.cross_attn.bk"),
            (lambda h: h["entries"][0].update(offset="x"), "dec.0.cross_attn.bk"),
            (lambda h: h["scorer_config"].update(head_dims=5), "head_dims"),
        ],
        ids=["entries-not-a-list", "entry-not-an-object", "entry-without-shape", "offset-not-an-int", "head-dims-not-a-list"],
    )
    def test_malformed_entry_or_field_names_it(self, tmp_path, edit, names):
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, *make_pair())
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError, match=names):
            load_checkpoint(path)

    def test_config_cannot_make_the_loader_allocate_past_the_payload(self, tmp_path):
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, *make_pair())
        rewrite_header(path, lambda h: h["model_config"].update(d_model=2**40, n_enc_layers=10**12))
        with pytest.raises(CheckpointError, match="missing parameter entries"):
            load_checkpoint(path)


def header_fields(header: dict) -> list[tuple]:
    """Paths of the header's fields: top-level keys, config fields, entries and entry fields."""
    paths = [(key,) for key in header]
    paths += [(section, key) for section in ("model_config", "scorer_config") for key in header[section]]
    for i, entry in enumerate(header["entries"]):
        paths += [("entries", i)] + [("entries", i, key) for key in entry]
    return paths


class TestHeaderFuzz:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        corpus = root / "corpus"
        gen = ["gen", "--out", str(corpus), "--seed", "1", "--docs", "4", "--pages", "2:2", "--facts-per-page", "1",
               "--page-width", "208", "--page-height", "32", "--fractions", "0.5,0.25,0.25"]
        assert main(gen) == 0
        clean = root / "clean.ckpt"
        save_checkpoint(clean, *make_pair())
        return corpus, clean, rewrite_header(clean, lambda h: None)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_only_checkpoint_error_escapes(self, saved, data):
        """With header fields replaced by arbitrary JSON values a checkpoint loads or raises
        CheckpointError, and when it raises, `pixqa eval` exits 1."""
        corpus, clean, header = saved
        paths = data.draw(st.lists(st.sampled_from(header_fields(header)), min_size=1, max_size=3, unique=True))

        def edit(h):
            for field in paths:
                replace_field(h, field, data.draw(JSON_VALUES, label=str(field)))

        path = clean.with_name("fuzzed.ckpt")
        path.write_bytes(clean.read_bytes())
        rewrite_header(path, edit)
        try:
            load_checkpoint(path)
        except CheckpointError:
            out = path.with_name("eval")
            assert main(["eval", "--checkpoint", str(path), "--data", str(corpus), "--out", str(out)]) == 1
