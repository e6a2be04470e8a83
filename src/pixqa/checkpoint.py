"""Self-describing checkpoint container.

Layout: a magic line, a decimal header-length line, a JSON header (configs
plus one entry per parameter with name, shape and byte offset), a newline,
then the raw little-endian float64 arrays concatenated in entry order.
Entries are sorted by name, so save -> load -> save is byte-identical.

Model parameters live under the ``model/`` namespace, scorer parameters
under ``scorer/``; a stage-2 file is a strict superset of a stage-1 file.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, VqaModel
from .scorer import ScorerConfig, SelfAttentionScorer

MAGIC = b"PIXQA-CKPT 1\n"


def _named_arrays(model: VqaModel, scorer: SelfAttentionScorer | None) -> dict[str, np.ndarray]:
    arrays = {f"model/{name}": p.data for name, p in model.params.items()}
    if scorer is not None:
        arrays.update({f"scorer/{name}": p.data for name, p in scorer.params.items()})
    return arrays


def save_checkpoint(path: Path, model: VqaModel, scorer: SelfAttentionScorer | None = None) -> None:
    arrays = _named_arrays(model, scorer)
    entries = []
    offset = 0
    for name in sorted(arrays):
        arr = arrays[name]
        nbytes = arr.size * 8
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += nbytes
    header = {
        "model_config": asdict(model.cfg),
        "scorer_config": None if scorer is None else asdict(scorer.cfg),
        "entries": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # Written beside `path` and then renamed onto it, so a save that fails
    # partway leaves the previous checkpoint at `path` whole.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(f"{len(header_bytes)}\n".encode("ascii"))
            fh.write(header_bytes)
            fh.write(b"\n")
            for entry in entries:
                fh.write(np.ascontiguousarray(arrays[entry["name"]], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def fits_default(value, default) -> bool:
    """Whether a JSON value may set a config field with this default: same type, or an int for a float (not a bool)."""
    return type(value) is type(default) or (type(default) is float and type(value) is int)


def _config(cls, values: dict, path: Path):
    """``cls(**values)``, each value first checked against the type of its field's default."""
    defaults = {f.name: f.default for f in fields(cls)}
    kwargs = {}
    for key, value in values.items():
        if cls is ScorerConfig and key == "head_dims" and value is None:  # retired field; null meant today's widths
            continue
        if key not in defaults:
            raise CheckpointError(f"{path}: unknown {cls.__name__} field {key!r} in header")
        if not fits_default(value, defaults[key]):
            raise CheckpointError(f"{path}: {cls.__name__}.{key} must be {type(defaults[key]).__name__}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid {cls.__name__} in header: {exc}") from None


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _entry_bytes(entries, payload: memoryview, path: Path) -> dict[str, tuple[tuple[int, ...], memoryview]]:
    """Each header entry's shape and its bytes in the payload, after checking its fields."""
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: header entries must be a JSON list")
    found: dict[str, tuple[tuple[int, ...], memoryview]] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: header entry {i} must be a JSON object, got {type(entry).__name__}")
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: header entry {i} needs a string name, got {name!r}")
        if not (isinstance(shape, list) and all(_is_count(n) for n in shape)):
            raise CheckpointError(f"{path}: entry {name!r} needs a shape of non-negative ints, got {shape!r}")
        if not _is_count(offset):
            raise CheckpointError(f"{path}: entry {name!r} needs a non-negative int offset, got {offset!r}")
        if name in found:
            raise CheckpointError(f"{path}: duplicate parameter entry {name!r}")
        nbytes = math.prod(shape) * 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: entry {name!r} truncated ({len(chunk)} of {nbytes} bytes)")
        found[name] = tuple(shape), chunk
    return found


def load_checkpoint(path: Path) -> tuple[VqaModel, SelfAttentionScorer | None]:
    """Model and scorer (None for a stage-1 file) rebuilt from a checkpoint.

    Every header field is checked, and the entries are matched against the
    parameter tables init draws from before any parameter is allocated, so a
    malformed or inconsistent file raises ``CheckpointError`` and a header
    cannot make the loader allocate more than the payload holds.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    newline = blob.find(b"\n", len(MAGIC))
    if newline < 0:
        raise CheckpointError(f"{path}: truncated before header length")
    try:
        header_len = int(blob[len(MAGIC) : newline])
    except ValueError:
        raise CheckpointError(f"{path}: malformed header length") from None
    header_start = newline + 1
    header_bytes = blob[header_start : header_start + header_len]
    if len(header_bytes) != header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an int past 4300 digits, deep nesting
        raise CheckpointError(f"{path}: invalid header JSON: {exc}") from exc
    payload = memoryview(blob)[header_start + header_len + 1 :]  # a view: each array is copied once, below

    try:
        model_cfg_dict = header["model_config"]
        scorer_cfg_dict = header["scorer_config"]
        entries = header["entries"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: header missing field {exc}") from None
    if not isinstance(model_cfg_dict, dict):
        raise CheckpointError(f"{path}: header model_config must be a JSON object")
    if not (scorer_cfg_dict is None or isinstance(scorer_cfg_dict, dict)):
        raise CheckpointError(f"{path}: header scorer_config must be null or a JSON object")
    model_cfg = _config(ModelConfig, model_cfg_dict, path)
    scorer_cfg = None if scorer_cfg_dict is None else _config(ScorerConfig, scorer_cfg_dict, path)
    found = _entry_bytes(entries, payload, path)

    shapes = ((f"model/{n}", s) for n, s, _ in VqaModel.param_table(model_cfg))
    if scorer_cfg is not None:
        shapes = chain(shapes, ((f"scorer/{n}", s) for n, s, _ in SelfAttentionScorer.param_table(scorer_cfg, model_cfg.d_model)))
    expected = dict(islice(shapes, len(found) + 1))  # a header's layer counts may be huge
    if len(expected) > len(found):
        raise CheckpointError(f"{path}: missing parameter entries: {[n for n in expected if n not in found][:3]}")
    for name, (shape, _) in found.items():
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter entry {name!r}")
        if shape != expected[name]:
            raise CheckpointError(f"{path}: entry {name!r} has shape {shape}, expected {expected[name]}")

    def params(namespace: str) -> dict[str, Tensor]:
        out = {}
        for name, shape in expected.items():
            if name.startswith(namespace):
                data = np.frombuffer(found[name][1], dtype="<f8").reshape(shape).copy()
                out[name.removeprefix(namespace)] = Tensor(data, requires_grad=True)
        return out

    model = VqaModel(model_cfg, params("model/"))
    if scorer_cfg is None:
        return model, None
    try:
        return model, SelfAttentionScorer(scorer_cfg, d_model=model_cfg.d_model, params=params("scorer/"))
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid scorer in header: {exc}") from None
