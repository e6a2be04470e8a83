import json

import numpy as np
import pytest

from pixqa.checkpoint import load_checkpoint, save_checkpoint
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
