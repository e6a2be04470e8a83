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
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import CheckpointError
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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(header_bytes)}\n".encode("ascii"))
        fh.write(header_bytes)
        fh.write(b"\n")
        for entry in entries:
            fh.write(np.ascontiguousarray(arrays[entry["name"]], dtype="<f8").tobytes())


def _config(cls, values: dict, path: Path):
    try:
        return cls(**values)
    except TypeError as exc:  # an unknown field, or a value of the wrong type
        raise CheckpointError(f"{path}: invalid {cls.__name__} in header: {exc}") from None


def load_checkpoint(path: Path) -> tuple[VqaModel, SelfAttentionScorer | None]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    rest = blob[len(MAGIC) :]
    newline = rest.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: truncated before header length")
    try:
        header_len = int(rest[:newline])
    except ValueError:
        raise CheckpointError(f"{path}: malformed header length") from None
    header_start = newline + 1
    header_bytes = rest[header_start : header_start + header_len]
    if len(header_bytes) != header_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: invalid header JSON: {exc}") from exc
    payload = rest[header_start + header_len + 1 :]

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
    model = VqaModel(model_cfg)

    scorer = None
    if scorer_cfg_dict is not None:
        if scorer_cfg_dict.get("head_dims") is not None:
            scorer_cfg_dict["head_dims"] = tuple(scorer_cfg_dict["head_dims"])
        scorer = SelfAttentionScorer(_config(ScorerConfig, scorer_cfg_dict, path), d_model=model_cfg.d_model)

    expected: dict[str, Tensor] = {}
    for name, p in model.params.items():
        expected[f"model/{name}"] = p
    if scorer is not None:
        for name, p in scorer.params.items():
            expected[f"scorer/{name}"] = p

    seen = set()
    for entry in entries:
        name = entry.get("name")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter entry {name!r}")
        shape = tuple(entry["shape"])
        param = expected[name]
        if shape != param.data.shape:
            raise CheckpointError(f"{path}: entry {name!r} has shape {shape}, expected {param.data.shape}")
        offset = int(entry["offset"])
        nbytes = int(np.prod(shape)) * 8 if shape else 8
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: entry {name!r} truncated ({len(chunk)} of {nbytes} bytes)")
        param.data = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise CheckpointError(f"{path}: missing parameter entries: {sorted(missing)[:3]}")
    return model, scorer
