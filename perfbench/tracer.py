"""Span tracer that wraps pixqa's public functions from outside the package.

A function imported by name into another module (``from .render import
fuse_question_page``) is a separate binding there, so each hook replaces the
function in every loaded ``pixqa`` module that binds it; methods are replaced
on their class. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    op: int  # question or training round the span belongs to
    step: int  # optimizer steps taken before the span started
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - covered(s.start, s.end, children.get(i, ())) for i, s in enumerate(spans)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


# ----------------------------------------------------------------------------
# Hooks: what to wrap, and what to note about each call
# ----------------------------------------------------------------------------

def _patches(args, kwargs, result) -> dict:
    return {"patches": result.n_patches}


def _step_limit(args, kwargs, result) -> dict:
    model = args[0]
    requested = args[2] if len(args) > 2 else kwargs.get("max_answer_len")
    return {"limit": model.cfg.max_answer_len if requested is None else min(requested, model.cfg.max_answer_len)}


def _decoded_ids(args, kwargs, result) -> dict:
    """The ids generate_answer appended, one per decoder step that did not emit EOS."""
    return {"ids": len(args[1])}


def decode_steps(limit: int, ids: int) -> int:
    """Decoder steps of one generate_answer: one per appended id, plus the EOS step if it stopped early."""
    return ids + (ids < limit)


def _cache_key(args, kwargs, result) -> dict:
    _, sample, doc, page_idx = args
    return {"key": [sample.question_id, doc.doc_id, page_idx]}


def _training_only(args, kwargs) -> bool:
    return bool(kwargs.get("training", args[2] if len(args) > 2 else False))


@dataclass(frozen=True)
class Hook:
    span: str
    module: str
    attr: str  # "function" or "Class.method"
    observe: Callable | None = None  # (args, kwargs, result) -> attrs
    when: Callable | None = None  # (args, kwargs) -> record this call?


HOOKS = (
    Hook("data.load_page", "pixqa.data", "Document.load_page"),
    Hook("render.fuse_question_page", "pixqa.render", "fuse_question_page", observe=_patches),
    Hook("model.encode_grid", "pixqa.model", "VqaModel.encode_grid"),
    Hook("model.generate_answer", "pixqa.model", "VqaModel.generate_answer", observe=_step_limit),
    Hook("model.vocab.decode", "pixqa.model", "Vocab.decode", observe=_decoded_ids),
    Hook("model.vqa_loss", "pixqa.model", "VqaModel.vqa_loss"),
    Hook("scorer.score_value", "pixqa.scorer", "SelfAttentionScorer.score_value"),
    # score() also runs inside score_value(); only the training-mode calls are stage-2 work.
    Hook("scorer.score", "pixqa.scorer", "SelfAttentionScorer.score", when=_training_only),
    Hook("evaluate.answer_question", "pixqa.evaluate", "answer_question"),
    Hook("training.train_stage1", "pixqa.training", "train_stage1"),
    Hook("training.train_stage2", "pixqa.training", "train_stage2"),
    Hook("autograd.backward", "pixqa.autograd", "Tensor.backward"),
    Hook("training.optimizer_step", "pixqa.training", "Adam.step"),
    Hook("training.optimizer_step", "pixqa.training", "Sgd.step"),
    Hook("training.feature_cache.get", "pixqa.training", "FrozenFeatureCache.get", observe=_cache_key),
    Hook("training.validation_anls", "pixqa.training", "validation_anls"),
    Hook("training.validation_page_accuracy", "pixqa.training", "validation_page_accuracy"),
    Hook("checkpoint.load_checkpoint", "pixqa.checkpoint", "load_checkpoint"),
)


# Layers whose calls also record their tracemalloc peak while tracemalloc runs.
PEAK_LAYERS = frozenset({"model.encode_grid", "scorer.score_value"})


class Tracer:
    """Records one span per hooked call while installed.

    ``op`` and ``phase`` are set by the caller; ``step`` advances after every
    optimizer step.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self.step = 0
        self.phase = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook.when is not None and not hook.when(args, kwargs):
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = Span(hook.span, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                        tracer.op, tracer.step, tracer.phase)
            tracer.spans.append(span)
            tracer._stack.append(index)
            peak = hook.span in PEAK_LAYERS and tracemalloc.is_tracing()
            if peak:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if peak:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            if hook.observe is not None:
                span.attrs.update(hook.observe(args, kwargs, result))
            if hook.span == "training.optimizer_step":
                tracer.step += 1
            return result

        return wrapper

    def install(self) -> None:
        self.missing = []
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            owner_name, _, name = hook.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            if owner_name:
                targets = [owner]
            else:  # rebind the function wherever a pixqa module imported it by name
                targets = [m for key, m in list(sys.modules.items())
                           if (key == "pixqa" or key.startswith("pixqa.")) and getattr(m, name, None) is original]
            wrapper = self._wrap(hook, original)
            for target in targets:
                self._restore.append((target, name, original))
                setattr(target, name, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            target, name, original = self._restore.pop()
            setattr(target, name, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")
