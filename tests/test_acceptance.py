"""Acceptance suite: one test per criterion, each printing a PASS line.

The desk-scale experiment (corpus generation, both training stages, the
aggregation ablation, evaluation, and the long-document scenario) runs once
in a session fixture; criteria assert on its artifacts. Everything is
seeded, so the numbers below are reproducible.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pixqa
from pixqa import autograd as ag
from pixqa.autograd import Tensor
from pixqa.checkpoint import load_checkpoint, save_checkpoint
from pixqa.cli import main as cli
from pixqa.data import SynthConfig, gen_synthetic, load_mpdocvqa, split
from pixqa.evaluate import anls_single, encode_page, levenshtein, retrieve
from pixqa.model import ModelConfig, VqaModel, parameter_gradients
from pixqa.render import PatchGrid, blank_image, patchify, resize_to_patch_budget
from pixqa.scorer import ScorerConfig, SelfAttentionScorer
from pixqa.training import mse_smoothed_loss, validation_anls

# The desk experiment's gen, train-vqa and train-scorer settings, shared with
# scripts/run_desk_experiment.py; the gates below were measured with them.
DESK = Path(__file__).resolve().parents[1] / "scripts" / "desk"
DESK_GEN = json.loads((DESK / "gen.json").read_text())
KEY_ALPHABET = DESK_GEN["key_alphabet"]
VALUE_ALPHABET = DESK_GEN["value_alphabet"]


def desk_config(command: str) -> list[str]:
    return ["--config", str(DESK / f"{command}.json")]


def run_cli(args: list[str]) -> None:
    code = cli(args)
    assert code == 0, f"command failed ({code}): {' '.join(args)}"


def run_cli_child(args: list[str]) -> float:
    """Run one command in a fresh interpreter with one BLAS thread; return its wall time.

    The desk fixture runs two of these side by side. With the default BLAS
    thread count each would busy-wait on the other's CPU (about 4x slower).
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(pixqa.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from pixqa.cli import main; sys.exit(main(sys.argv[1:]))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    print(proc.stdout, end="")
    assert proc.returncode == 0, f"command failed ({proc.returncode}): {' '.join(args)}\n{proc.stderr}"
    return elapsed


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """The end-to-end desk-scale experiment; shared by several criteria."""
    root = tmp_path_factory.mktemp("desk")
    corpus = root / "corpus"
    t0 = time.perf_counter()

    run_cli(["gen", "--out", str(corpus)] + desk_config("gen"))
    run_cli(["train-vqa", "--data", str(corpus), "--out", str(root / "stage1")] + desk_config("train-vqa"))
    stage1_ckpt = root / "stage1" / "stage1.ckpt"
    serial_s = time.perf_counter() - t0

    stage2 = {agg: root / f"stage2-{agg}" / "stage2.ckpt" for agg in ("first", "cls", "avgpool")}
    evals = {"first": root / "eval", "cls": root / "eval-cls", "avgpool": root / "eval-avgpool"}

    def head(agg: str) -> tuple[float, float]:
        train_s = run_cli_child(
            ["train-scorer", "--data", str(corpus), "--checkpoint", str(stage1_ckpt),
             "--out", str(stage2[agg].parent), "--aggregation", agg] + desk_config("train-scorer")
        )
        eval_s = run_cli_child(["eval", "--data", str(corpus), "--checkpoint", str(stage2[agg]),
                                "--out", str(evals[agg]), "--split", "test"])
        return train_s, eval_s

    # The three heads are independent given stage 1: train and evaluate them
    # two at a time, the longest (avgpool) alone and first then cls beside it.
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = {agg: pool.submit(head, agg) for agg in ("avgpool", "first", "cls")}
    times = {agg: run.result() for agg, run in runs.items()}

    # Serial-equivalent runtime: each command's own wall time, summed as if
    # the commands ran one after another (stage 2 of all heads + eval of first).
    core_elapsed = serial_s + sum(train_s for train_s, _ in times.values())
    elapsed = core_elapsed + times["first"][1]

    ablation = {agg: json.loads((out / "metrics.json").read_text()) for agg, out in evals.items()}

    return {
        "root": root,
        "corpus": corpus,
        "stage1_ckpt": stage1_ckpt,
        "stage2_ckpts": stage2,
        "metrics": ablation["first"],
        "ablation": ablation,
        "elapsed_s": elapsed,
        "core_elapsed_s": core_elapsed,
    }


def _ok(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE[{name}]: PASS ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: metric oracle suite (< 1 s)
# ---------------------------------------------------------------------------

def _lev_oracle(a: str, b: str) -> int:
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[m][n]


def _oracle_anls(pred: str, gts: list[str], tau: float = 0.5) -> float:
    p = pred.strip().lower()
    best = 0.0
    for gt in gts:
        g = gt.strip().lower()
        denom = max(len(p), len(g))
        nl = 0.0 if denom == 0 else _lev_oracle(p, g) / denom
        best = max(best, 1.0 - nl if nl < tau else 0.0)
    return best


def test_metric_oracle_suite():
    start = time.perf_counter()
    cases = [
        ("sitting", ["kitten"]),        # the classic distance-3 pair -> 1 - 3/7
        ("Arial", ["arial"]),
        ("xyz", ["abcdef"]),            # cutoff at tau
        ("", [""]),
        ("", ["abc"]),
        ("abc", [""]),
        (" 42 ", ["42"]),
        ("answer", ["answer", "other"]),
        ("answe", ["answer"]),
        ("nswer", ["answer"]),
        ("a", ["b"]),
        ("ab", ["ba"]),
        ("aaaa", ["aaab"]),
        ("1234", ["1243"]),
        ("respuesta", ["respuesta final"]),
        ("total amount", ["total"]),
        ("0", ["00000"]),
        ("March 3", ["march 3rd"]),
        ("q7", ["q8", "q7 "]),
        ("First Vector", ["first vector"]),
        ("banana", ["bananas", "banan"]),
        ("xyzzy", ["zzyzx"]),
    ]
    assert len(cases) >= 20
    for pred, gts in cases:
        got = anls_single(pred, gts)
        want = _oracle_anls(pred, gts)
        assert abs(got - want) <= 1e-12, (pred, gts, got, want)
    assert abs(anls_single("sitting", ["kitten"]) - (1 - 3 / 7)) <= 1e-12
    assert anls_single("xyz", ["abcdef"]) == 0.0
    rng = np.random.default_rng(0)
    alphabet = "abcdef "
    for _ in range(150):
        a = "".join(rng.choice(list(alphabet), rng.integers(0, 10)))
        b = "".join(rng.choice(list(alphabet), rng.integers(0, 10)))
        assert levenshtein(a, b) == _lev_oracle(a, b)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"metric suite took {elapsed:.2f}s"
    _ok("metric-oracle", f"{len(cases)} ANLS cases + 150 fuzzed distances in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: gradient suite (< 2 min)
# ---------------------------------------------------------------------------

def _central_diff_check(params: dict, loss_fn, tol: float = 1e-4, h: float = 1e-5) -> tuple[int, float]:
    loss = loss_fn()
    grads = parameter_gradients(loss, params)
    for p in params.values():
        p.zero_grad()
    checked, worst = 0, 0.0
    for name, p in params.items():
        flat = p.data.ravel()
        gflat = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn().data.item()
            flat[i] = orig - h
            lm = loss_fn().data.item()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            assert rel <= tol, f"{name}[{i}]: analytic {gflat[i]:.6e} vs fd {fd:.6e} (rel {rel:.2e})"
            worst = max(worst, rel)
            checked += 1
    return checked, worst


def test_gradient_suite():
    start = time.perf_counter()
    cfg = ModelConfig(
        d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ff=16,
        patch_size=4, max_patches=6, vocab_chars="abcdefghi",  # 9 chars + 3 specials = vocab 12
        max_answer_len=4, seed=3,
    )
    model = VqaModel(cfg)
    assert model.vocab.size == 12
    rng = np.random.default_rng(7)
    grid = PatchGrid(rows=2, cols=3, patch_size=4, patches=rng.random((1, 6, 16)))

    n_model, worst_model = _central_diff_check(
        model.params, lambda: model.vqa_loss(model.encode(model.embed_patches(grid)), ["abca"])
    )

    feature = Tensor(rng.normal(0.0, 1.0, (1, 6, 8)))
    scorer = SelfAttentionScorer(
        ScorerConfig(n_sa_layers=1, n_heads=2, aggregation="first", dropout_p=0.0), d_model=8, seed=11
    )
    n_scorer, worst_scorer = _central_diff_check(
        scorer.params, lambda: mse_smoothed_loss(scorer.score(feature), True, 0.1)
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    _ok(
        "gradient-suite",
        f"{n_model} model + {n_scorer} scorer parameters, worst rel err "
        f"{max(worst_model, worst_scorer):.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: scorer invariants
# ---------------------------------------------------------------------------

def test_scorer_invariants():
    rng = np.random.default_rng(21)
    scorer = SelfAttentionScorer(ScorerConfig(dropout_p=0.1), d_model=32, seed=5)

    for _ in range(1000):
        length = int(rng.integers(1, 20))
        scale = float(rng.choice([0.01, 0.3, 1.0, 10.0, 1000.0]))
        f = Tensor(rng.normal(0.0, scale, (1, length, 32)))
        v = scorer.score_value(f)
        assert 0.0 <= v <= 1.0

    arr = rng.normal(0.0, 1.0, (1, 11, 32))
    by_agg = {}
    for agg in ("first", "cls", "avgpool"):
        s = SelfAttentionScorer(ScorerConfig(aggregation=agg, dropout_p=0.1), d_model=32, seed=5)
        base = s.score_value(Tensor(arr))
        for _ in range(25):
            if agg == "first":
                perm = np.concatenate([[0], 1 + rng.permutation(10)])
            else:
                perm = rng.permutation(11)
            assert abs(s.score_value(Tensor(arr[:, perm])) - base) <= 1e-9
        repeats = {s.score_value(Tensor(arr)) for _ in range(20)}
        assert len(repeats) == 1, "evaluation-mode variance must be exactly zero"
        by_agg[agg] = base
    _ok("scorer-invariants", f"1000 fuzzed scores in [0,1]; permutation + determinism hold; {by_agg}")


# ---------------------------------------------------------------------------
# Criterion 4: patch-budget fuzz
# ---------------------------------------------------------------------------

def test_patch_budget_fuzz():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        w = int(rng.integers(1, 4000))
        h = int(rng.integers(1, 4000))
        budget = int(rng.integers(1, 2500))
        out = resize_to_patch_budget(blank_image(w, h), 16, budget)
        grid = patchify(out, 16)
        assert grid.n_patches <= budget, (w, h, budget, out.width, out.height)
        if out.width != w or out.height != h:
            # aspect preserved within rounding: H' = round(W' * h / w) +- clamp
            expected_h = max(1, math.floor(out.width * h / w + 0.5))
            assert abs(out.height - expected_h) <= 1 or out.height == budget * 16
        checked += 1
    _ok("patch-budget-fuzz", f"{checked} size/budget combinations never exceeded the budget")


# ---------------------------------------------------------------------------
# Criterion 5: freeze invariant (stage-2 model bytes == stage-1 bytes)
# ---------------------------------------------------------------------------

def test_freeze_invariant(desk_run):
    m1, s1 = load_checkpoint(desk_run["stage1_ckpt"])
    assert s1 is None
    for agg, ckpt in desk_run["stage2_ckpts"].items():
        m2, s2 = load_checkpoint(ckpt)
        assert s2 is not None
        for name, p in m1.params.items():
            assert p.data.tobytes() == m2.params[name].data.tobytes(), (agg, name)
    _ok("freeze-invariant", "all non-scorer parameter bytes identical across stage-1 and 3 stage-2 checkpoints")


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale end-to-end
# ---------------------------------------------------------------------------

def test_desk_scale_end_to_end(desk_run):
    corpus = desk_run["corpus"]
    full = load_mpdocvqa(corpus / "annotations.json", corpus / "images")
    n_docs = len(full.documents)
    assert n_docs == 200
    assert 900 <= full.n_questions <= 1100, f"expected ~1000 questions, got {full.n_questions}"
    pages = [d.n_pages for d in full.documents.values()]
    assert min(pages) >= 4 and max(pages) <= 8

    test_set = load_mpdocvqa(corpus / "annotations.test.json", corpus / "images")
    model, _ = load_checkpoint(desk_run["stage1_ckpt"])
    stage1_anls = validation_anls(test_set, model)
    assert stage1_anls >= 0.80, f"stage-1 held-out ANLS {stage1_anls:.4f} < 0.80"

    metrics = desk_run["metrics"]
    page_acc = metrics["page_accuracy_pct"]
    assert page_acc >= 90.0, f"stage-2 held-out page accuracy {page_acc:.2f}% < 90%"

    quadrants = metrics["quadrants"]["counts"]
    assert sum(quadrants) == test_set.n_questions

    assert desk_run["elapsed_s"] <= 45 * 60, f"desk run took {desk_run['elapsed_s']:.0f}s"
    _ok(
        "desk-scale-e2e",
        f"stage1 ANLS {stage1_anls:.4f} >= 0.80; page accuracy {page_acc:.2f}% >= 90% "
        f"(random ~16.7%); quadrants sum {sum(quadrants)} == {test_set.n_questions}; "
        f"runtime {desk_run['elapsed_s']:.0f}s <= 2700s",
    )


# ---------------------------------------------------------------------------
# Criterion 8: aggregation ablation table (runs before criterion 7, whose
# long-document scan takes minutes)
# ---------------------------------------------------------------------------

def test_aggregation_ablation(desk_run):
    rows = []
    for agg in ("first", "cls", "avgpool"):
        m = desk_run["ablation"][agg]
        rows.append((agg, m["page_accuracy_pct"], m["anls"]))
    table = "\n".join(f"  {name:<10} {acc:>10.2f} {a:>8.4f}" for name, acc, a in rows)
    print(f"\naggregation ablation (test split):\n  {'method':<10} {'page acc':>10} {'ANLS':>8}\n{table}")
    assert len(rows) == 3
    assert all(0.0 <= acc <= 100.0 and 0.0 <= a <= 1.0 for _, acc, a in rows)
    _ok("aggregation-ablation", "; ".join(f"{n}={acc:.2f}%" for n, acc, _ in rows))


# ---------------------------------------------------------------------------
# Criterion 7: unrestricted page counts (500-800 pages, streamed)
# ---------------------------------------------------------------------------

def test_unrestricted_long_documents(desk_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("big")
    cfg = SynthConfig(
        n_documents=5, pages_per_doc=(500, 800), facts_per_page=1, questions_per_doc=1,
        key_alphabet=KEY_ALPHABET, key_len=3, value_alphabet=VALUE_ALPHABET, value_len=4,
        page_width=208, page_height=32, seed=13,
    )
    dataset = gen_synthetic(cfg, out)
    pages = [d.n_pages for d in dataset.documents.values()]
    assert min(pages) >= 500 and max(pages) <= 800

    model, scorer = load_checkpoint(desk_run["stage2_ckpts"]["first"])

    # One page's pipeline buffers: fused image + patch grid + activations.
    # ~4 MiB at this configuration; 16 MiB allows allocator slack while
    # staying far below materializing hundreds of pages (> 30 MiB).
    bound_bytes = 16 * 1024 * 1024

    hits = 0
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    for q in dataset.questions:
        doc = dataset.document_for(q)
        best_idx, _, _ = retrieve(doc.n_pages,
                                  (encode_page(q.question, doc, i, model) for i in range(doc.n_pages)), scorer)
        hits += best_idx == q.answer_page_index
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    additional = peak - baseline

    assert additional <= bound_bytes, f"peak additional memory {additional/2**20:.1f} MiB > 16 MiB"
    assert hits >= 3, f"gold page top-1 in only {hits}/5 long documents"
    _ok(
        "unrestricted-pages",
        f"top-1 gold in {hits}/5 docs of {min(pages)}..{max(pages)} pages; "
        f"peak additional memory {additional/2**20:.2f} MiB <= 16 MiB",
    )
