"""The per-layer table of a traced run, computed from its spans.

Self times and call counts come from the spans of the traced phase; load
times of checkpoints from the set-up phase; tracemalloc peaks from the
replay phase, which runs one more operation with tracemalloc on so that its
cost stays out of the timed spans. A layer the workload does not exercise
reports 0 calls and 0 ms.
"""

from __future__ import annotations

from collections import defaultdict

from stats import median, percentile
from tracer import Span, decode_steps, has_ancestor, self_times

MIB = 2**20


def _p(values: list[float], p: float) -> float:
    return percentile(values, p) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(spans: list[Span], overhead_pct: float) -> dict[str, float]:
    selfs = self_times(spans)
    traced = defaultdict(list)  # name -> span indices in the traced phase
    for i, s in enumerate(spans):
        if s.phase == "traced":
            traced[s.name].append(i)

    def calls(name):
        return len(traced[name])

    def self_ms(name):
        return [selfs[i] * 1e3 for i in traced[name]]

    def peak_mib(name):
        return max((s.attrs["peak_bytes"] / MIB for s in spans
                    if s.phase == "peak" and s.name == name and "peak_bytes" in s.attrs), default=0.0)

    t: dict[str, float] = {}
    for name in ("data.load_page", "render.fuse_question_page", "model.encode_grid",
                 "scorer.score_value", "model.generate_answer", "autograd.backward"):
        t[f"{name}.calls"] = calls(name)
    for name in ("data.load_page", "render.fuse_question_page", "model.encode_grid", "scorer.score_value",
                 "evaluate.answer_question", "model.vqa_loss"):
        t[f"{name}.self_ms_p50"] = _p(self_ms(name), 50)
    # A stage-1 backward runs the whole encoder-decoder, a stage-2 one only the scorer: report them apart.
    for name in ("autograd.backward", "training.optimizer_step"):
        for stage in (1, 2):
            in_stage = [selfs[i] * 1e3 for i in traced[name] if has_ancestor(spans, i, f"training.train_stage{stage}")]
            t[f"{name}.stage{stage}_self_ms_p50"] = _p(in_stage, 50)
    t["model.encode_grid.self_ms_p90"] = _p(self_ms("model.encode_grid"), 90)
    t["model.encode_grid.peak_mib"] = peak_mib("model.encode_grid")
    t["scorer.score_value.peak_mib"] = peak_mib("scorer.score_value")
    t["scorer.score.train_self_ms_p50"] = _p(self_ms("scorer.score"), 50)
    t["render.patches_per_page"] = _p([spans[i].attrs["patches"] for i in traced["render.fuse_question_page"]], 50)

    decoded = {spans[i].parent: spans[i].attrs["ids"] for i in traced["model.vocab.decode"]}
    tokens = sum(decode_steps(spans[i].attrs["limit"], decoded.get(i, 0)) for i in traced["model.generate_answer"])
    t["model.generate_answer.tokens"] = tokens
    t["model.generate_answer.ms_per_token"] = _ratio(sum(self_ms("model.generate_answer")), tokens)

    # Work inside answer_question: every page is scored once; encodes beyond that are redundant.
    def in_question(name):
        return sum(has_ancestor(spans, i, "evaluate.answer_question") for i in traced[name])

    questions = calls("evaluate.answer_question")
    encodes = in_question("model.encode_grid")
    t["evaluate.encodes_per_question"] = _ratio(encodes, questions)
    t["evaluate.useful_encode_ratio"] = _ratio(in_question("scorer.score_value"), encodes)

    gets = traced["training.feature_cache.get"]
    encode_parents = {spans[i].parent for i in traced["model.encode_grid"]}
    misses = sum(i in encode_parents for i in gets)
    t["training.feature_cache.misses"] = misses
    t["training.feature_cache.hit_ratio"] = _ratio(len(gets) - misses, len(gets))
    for name in ("training.validation_anls", "training.validation_page_accuracy"):
        t[f"{name}.s"] = median([spans[i].duration for i in traced[name]]) if traced[name] else 0.0

    loads = [s.duration * 1e3 for s in spans if s.phase == "setup" and s.name == "checkpoint.load_checkpoint"]
    t["checkpoint.load_checkpoint.ms"] = median(loads) if loads else 0.0
    t["trace.overhead_pct"] = overhead_pct
    return t


def hook_problems(spans: list[Span], pages_by_op: dict[int, int]) -> list[str]:
    """Exact counts that hold whatever the program's design, so a missed hook shows.

    Each question calls answer_question, generate_answer and Vocab.decode once and scores
    each of its pages once; in stage 2, the feature cache misses exactly once
    per distinct (question, page) pair it is asked for.
    """
    per_op = defaultdict(lambda: defaultdict(int))
    keys = defaultdict(set)
    misses = defaultdict(int)
    children_encode = {s.parent for s in spans if s.name == "model.encode_grid" and s.parent is not None}
    for i, s in enumerate(spans):
        if s.phase != "traced":
            continue
        per_op[s.op][s.name] += 1
        if s.name == "training.feature_cache.get":
            keys[s.op].add(tuple(s.attrs["key"]))
            misses[s.op] += i in children_encode
    problems = []
    for op, n_pages in pages_by_op.items():
        counts = per_op[op]
        names = ("evaluate.answer_question", "model.generate_answer", "model.vocab.decode")
        if any(counts[name] != 1 for name in names):
            problems.append(f"op {op}: " + ", ".join(f"{counts[name]} {name}" for name in names)
                            + " spans, expected 1 each")
        if n_pages > 1 and counts["scorer.score_value"] != n_pages:
            problems.append(f"op {op}: {counts['scorer.score_value']} score_value spans for {n_pages} pages")
    for op in keys:
        if misses[op] != len(keys[op]):
            problems.append(f"op {op}: {misses[op]} feature-cache misses for {len(keys[op])} distinct pairs")
    return problems
