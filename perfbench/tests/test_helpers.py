"""Tests for the benchmark's own helpers: self times, percentiles, output checks, hooks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import time
from types import SimpleNamespace

import pytest

import check
from perlayer import hook_problems, layer_table
from stats import MIN_BEYOND, percentile, quartile_spread, samples_beyond
from tracer import Span, Tracer, covered, decode_steps, self_times


def span(name, start, end, parent=None, op=0, phase="traced", **attrs):
    return Span(name, start, end, parent, op, 0, phase, dict(attrs))


# ----------------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------------

def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span("question", 0.0, 10.0),
        span("encode", 1.0, 4.0, parent=0),
        span("embed", 1.5, 2.5, parent=1),
        span("score", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(4.0)
    spans = [span("p", 0.0, 10.0), span("a", 1.0, 3.0, parent=0), span("b", 2.0, 4.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_cache_hit_is_a_get_without_an_encode_child():
    spans = [
        span("training.feature_cache.get", 0.0, 2.0, key=["q1", "d", 0]),
        span("model.encode_grid", 0.5, 1.5, parent=0),
        span("training.feature_cache.get", 3.0, 3.1, key=["q1", "d", 0]),
        span("training.feature_cache.get", 4.0, 5.0, key=["q1", "d", 1]),
        span("model.encode_grid", 4.2, 4.8, parent=3),
    ]
    table = layer_table(spans, overhead_pct=1.0)
    assert table["training.feature_cache.misses"] == 2
    assert table["training.feature_cache.hit_ratio"] == pytest.approx(1 / 3)
    assert hook_problems(spans, {}) == []
    spans[4].parent = None  # an encode the cache did not cause: misses no longer match distinct pairs
    assert hook_problems(spans, {}) == ["op 0: 1 feature-cache misses for 2 distinct pairs"]


def test_decode_steps_count_the_eos_step_only_when_decoding_stopped_early():
    assert decode_steps(limit=8, ids=8) == 8
    assert decode_steps(limit=8, ids=3) == 4
    assert decode_steps(limit=8, ids=0) == 1


def test_training_self_times_are_split_by_stage():
    spans = [
        span("training.train_stage1", 0.0, 10.0),
        span("autograd.backward", 1.0, 9.0, parent=0),
        span("training.train_stage2", 10.0, 20.0),
        span("autograd.backward", 11.0, 12.0, parent=2),
        span("autograd.backward", 13.0, 14.0, parent=2),
        span("training.optimizer_step", 15.0, 15.5, parent=2),
    ]
    table = layer_table(spans, overhead_pct=0.0)
    assert table["autograd.backward.calls"] == 3
    assert table["autograd.backward.stage1_self_ms_p50"] == pytest.approx(8000.0)
    assert table["autograd.backward.stage2_self_ms_p50"] == pytest.approx(1000.0)
    assert table["training.optimizer_step.stage1_self_ms_p50"] == 0.0
    assert table["training.optimizer_step.stage2_self_ms_p50"] == pytest.approx(500.0)


def test_question_counts_per_layer():
    # A 2-page question: two scored encodes plus the best page encoded again, then a decode.
    spans = [span("evaluate.answer_question", 0.0, 10.0)]
    for k in range(3):
        spans.append(span("model.encode_grid", 1.0 + 2 * k, 2.0 + 2 * k, parent=0))
    spans += [span("scorer.score_value", 2.1, 2.5, parent=0), span("scorer.score_value", 4.1, 4.5, parent=0),
              span("model.generate_answer", 7.0, 9.0, parent=0, limit=8),
              span("model.vocab.decode", 8.9, 9.0, parent=6, ids=3)]
    table = layer_table(spans, overhead_pct=0.0)
    assert table["evaluate.encodes_per_question"] == 3
    assert table["evaluate.useful_encode_ratio"] == pytest.approx(2 / 3)
    assert table["model.generate_answer.tokens"] == 4
    assert table["model.generate_answer.ms_per_token"] == pytest.approx(1900.0 / 4)
    assert hook_problems(spans, {0: 2}) == []
    assert hook_problems(spans, {0: 3}) == ["op 0: 2 score_value spans for 3 pages"]
    assert hook_problems(spans[:-1], {0: 2}) == [
        "op 0: 1 evaluate.answer_question, 1 model.generate_answer, 0 model.vocab.decode spans, expected 1 each"]


# ----------------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------------

def test_nearest_rank_percentile():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 100) == 10.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, p, beyond", [(99, 90.0, 9), (100, 90.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)])
def test_samples_beyond_a_nearest_rank_percentile(n, p, beyond):
    assert samples_beyond(n, p) == beyond


@pytest.mark.parametrize("questions, has_p90", [(99, False), (100, True), (5000, True)])
def test_question_p90_is_reported_once_ten_samples_lie_beyond_it(questions, has_p90):
    from run import summarize

    ops = [{"seconds": 0.001 * (k + 1), "n_pages": 4} for k in range(questions)]
    detail = summarize(ops, "qa")
    assert ("question_p90_ms" in detail) == has_p90
    assert not any(name.startswith("question_p99") for name in detail)
    if has_p90:
        assert detail["question_p90_ms"]["beyond"] >= MIN_BEYOND


def test_interleaved_tasks_run_once_each_between_operations(monkeypatch):
    import run
    import workloads

    events = []
    monkeypatch.setattr(workloads, "train_round", lambda ctx: events.append("op") or time.sleep(0.002) or {})
    ctx = SimpleNamespace(shape=SimpleNamespace(kind="train"))
    tasks = tuple(lambda k=k: events.append(k) for k in range(4))
    ops = run.run_ops(ctx, 0.05, 0, tap=None, interleave=tasks)
    assert [e for e in events if e != "op"] == [0, 1, 2, 3]
    assert events[0] == "op" and events[-1] == "op" and events.count("op") == len(ops)


def test_throughput_is_work_over_time_summed_over_the_run():
    from run import summarize

    detail = summarize([{"seconds": 1.0, "n_pages": 4}, {"seconds": 3.0, "n_pages": 8}], "qa")
    assert detail["pages_per_s"]["value"] == pytest.approx(12 / 4.0)
    assert detail["question_p50_ms"]["value"] == pytest.approx(2000.0)


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0, 10.0]) == pytest.approx(0.1)


# ----------------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------------

REF = {"page": 1, "answer": "1234", "scores": [0.25, 0.75, 0.5]}


def test_reference_comparison_flags_a_1e_11_score_change():
    moved = {**REF, "scores": [0.25, 0.75 + 1e-11, 0.5]}
    problems = check.compare_qa(moved, REF)
    assert len(problems) == 1 and "score differs" in problems[0]


def test_reference_comparison_accepts_changes_within_1e_12():
    assert check.compare_qa({**REF, "scores": [0.25 - 5e-13, 0.75, 0.5 + 1e-13]}, REF) == []


def test_reference_comparison_flags_page_answer_and_length():
    assert len(check.compare_qa({**REF, "page": 2}, REF)) == 1
    assert len(check.compare_qa({**REF, "answer": "1235"}, REF)) == 1
    assert len(check.compare_qa({**REF, "scores": [0.25, 0.75]}, REF)) == 1
    assert len(check.compare_qa({**REF, "scores": [0.25, math.nan, 0.5]}, REF)) == 1


def test_invariants_for_any_seed():
    assert check.qa_invariants(REF, 3, "0123456789", 8) == []
    assert check.qa_invariants({**REF, "scores": [0.25, 1.5, 0.5]}, 3, "0123456789", 8)
    assert check.qa_invariants({**REF, "page": 3}, 3, "0123456789", 8)
    assert check.qa_invariants({**REF, "page": 2}, 3, "0123456789", 8)  # not the top-scoring page
    assert check.qa_invariants({**REF, "answer": "12x"}, 3, "0123456789", 8)
    assert check.qa_invariants({**REF, "answer": "123456789"}, 3, "0123456789", 8)


def test_training_curve_comparison():
    ref = {"stage1": [{"epoch": 1, "train_loss": 4.0, "valid_anls": 0.5}]}
    assert check.compare_curves({"stage1": [{"epoch": 1, "train_loss": 4.0 + 1e-12, "valid_anls": 0.5}]}, ref) == []
    assert check.compare_curves({"stage1": [{"epoch": 1, "train_loss": 4.0 + 1e-6, "valid_anls": 0.5}]}, ref)
    assert check.compare_curves({"stage1": []}, ref)


# ----------------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------------

def test_tracer_wraps_names_where_they_are_looked_up():
    from pixqa import evaluate, render, training
    from pixqa.render import blank_image

    original = render.fuse_question_page
    tracer = Tracer()
    tracer.phase = "traced"
    tracer.install()
    try:
        assert tracer.missing == []
        assert evaluate.fuse_question_page is training.fuse_question_page is render.fuse_question_page
        grid = evaluate.fuse_question_page("what?", blank_image(64, 16), patch_size=16, max_patches=64)
    finally:
        tracer.uninstall()
    assert render.fuse_question_page is original and evaluate.fuse_question_page is original
    (recorded,) = tracer.spans
    assert recorded.name == "render.fuse_question_page" and recorded.attrs == {"patches": grid.n_patches}
