"""pixqa benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload qa-desk --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                # each workload in its own process
    python3 perfbench/run.py --workload qa-desk --seed 0 --write-reference

Run from the root of a source checkout: the program is imported from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
The exit code is 0 only if every output check passed. Each run also writes
its outputs, environment and (traced) spans under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_DIR = HERE / "reference"
SPEC = ROOT / "BENCHMARK.json"
# One thread: on these shapes a second OpenBLAS thread busy-waits on the other CPU
# and answers no faster (see README.md).
BLAS_THREADS = 1
SETUP_REPEATS = 15


def pin_blas_threads() -> int:
    """Pin BLAS threads to BLAS_THREADS; must run before numpy is imported."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program() -> str | None:
    """Import pixqa from this checkout's src; return why not, or None on success."""
    sys.path.insert(0, str(SRC))
    try:
        import pixqa
    except ImportError as exc:
        return f"cannot import pixqa from {SRC}: {exc}"
    if SRC.resolve() not in Path(pixqa.__file__).resolve().parents:
        return f"pixqa was imported from {pixqa.__file__}, not from {SRC}"
    return None


def git_revision() -> str | None:
    """HEAD of the checkout, or None outside a git repository; git does not search above ROOT."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int, threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "seed": seed,
    }


# ----------------------------------------------------------------------------
# Timed phases
# ----------------------------------------------------------------------------

def run_ops(ctx, seconds: float, first_op: int, tap, tracer=None, max_ops: int | None = None,
            interleave: tuple[Callable[[], None], ...] = ()) -> list[dict]:
    """Closed loop with one client: start the next operation until operations have run for `seconds`.

    The `interleave` tasks run between operations, spread evenly over their
    busy time; those not yet due when the loop ends run after it.
    """
    import workloads

    ops = []
    busy = 0.0
    pending = list(interleave)
    while not ops or (busy < seconds and (max_ops is None or len(ops) < max_ops)):
        while pending and busy >= seconds * (len(interleave) - len(pending) + 1) / (len(interleave) + 1):
            pending.pop(0)()
        index = first_op + len(ops)
        if tracer is not None:
            tracer.op = index
        op = {"op": index}
        t0 = time.perf_counter()
        try:
            if ctx.shape.kind == "qa":
                item = ctx.items[index % len(ctx.items)]
                op.update(key=item.sample.question_id, n_pages=item.doc.n_pages,
                          output=workloads.answer(ctx, item, tap))
            else:
                op.update(workloads.train_round(ctx))
        except Exception:  # one failed operation is counted, the run goes on
            op["error"] = traceback.format_exc()
        op["seconds"] = time.perf_counter() - t0
        busy += op["seconds"]
        ops.append(op)
    for task in pending:
        task()
    return ops


def check_ops(ops: list[dict], ctx, reference: dict | None) -> None:
    """Attach a list of problems to every operation."""
    import check
    import workloads

    first: dict = {}
    for op in ops:
        if "error" in op:
            op["problems"] = [op["error"].strip().splitlines()[-1]]
            continue
        if ctx.shape.kind == "qa":
            out, key = op["output"], op["key"]
            problems = check.qa_invariants(out, op["n_pages"], workloads.VOCAB, workloads.MODEL_CFG.max_answer_len)
            if reference is not None:
                problems += check.compare_qa(out, reference["questions"][key])
            problems += [f"repeat differs: {p}" for p in check.compare_qa(out, first.setdefault(key, out))]
        else:
            key = "round"
            problems = check.curve_invariants(op["curves"], len(ctx.train.questions))
            if reference is not None:
                problems += check.compare_curves(op["curves"], reference["curves"])
            problems += [f"repeat differs: {p}" for p in check.compare_curves(op["curves"], first.setdefault(key, op["curves"]))]
        op["problems"] = problems


def summarize(ops: list[dict], kind: str) -> dict:
    """The workload's end-to-end numbers under the names users know them by, with sample counts.

    A throughput is work done over the time spent doing it, summed over the
    run; a latency is a percentile over operations.
    """
    from stats import MIN_BEYOND, median, percentile, samples_beyond

    done = [op for op in ops if "error" not in op]

    def rate(work: str, seconds: str) -> float:
        return sum(op[work] for op in done) / sum(op[seconds] for op in done)

    if kind == "qa":
        lat = [op["seconds"] * 1e3 for op in done]
        detail = {
            "pages_per_s": {"value": rate("n_pages", "seconds"), "unit": "pages/s", "n": len(lat)},
            "question_p50_ms": {"value": median(lat), "unit": "ms", "n": len(lat)},
        }
        beyond = samples_beyond(len(lat), 90)
        if beyond >= MIN_BEYOND:
            detail["question_p90_ms"] = {"value": percentile(lat, 90), "unit": "ms", "n": len(lat), "beyond": beyond}
        return detail
    per_pair = [op["stage2_s"] * 1e3 / op["pairs"] for op in done]
    return {
        "stage1_samples_per_s": {"value": rate("samples", "stage1_s"), "unit": "samples/s", "n": len(done)},
        "stage2_pairs_per_s": {"value": rate("pairs", "stage2_s"), "unit": "pairs/s", "n": len(done)},
        "stage2_pair_p50_ms": {"value": median(per_pair), "unit": "ms", "n": len(per_pair)},
    }


def end_to_end(detail: dict, kind: str, setup_s: float, rss_mib: float) -> dict[str, float]:
    """The result line's workload-independent names; see perfbench/README.md for the mapping."""
    if kind == "qa":
        throughput, latency = detail["pages_per_s"]["value"], detail["question_p50_ms"]["value"]
    else:
        throughput, latency = detail["stage1_samples_per_s"]["value"], detail["stage2_pair_p50_ms"]["value"]
    return {"setup_s": setup_s, "peak_rss_mib": rss_mib, "throughput_per_s": throughput, "latency_p50_ms": latency}


def measure(name: str, seed: int, seconds: float, trace: bool, threads: int) -> tuple[dict, bool]:
    import tracemalloc

    import workloads
    from perlayer import hook_problems, layer_table
    from stats import median
    from tracer import Tracer

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    tap = workloads.ScoreTap()
    try:
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        workloads.generate_corpus(work / "corpus", workloads.WORKLOADS[name], seed)
        corpus_s = time.perf_counter() - t0
        setup_times = []

        def timed_setup():
            if tracer is not None:
                tracer.phase = "setup"
                tracer.install()
            t0 = time.perf_counter()
            ctx = workloads.setup(name, work)
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
            return ctx

        # The operations use the first set-up; the others are timed between them, so
        # that set-up samples the host over the whole run, not one moment of it.
        ctx = timed_setup()
        repeats = (timed_setup,) * (SETUP_REPEATS - 1)

        ref_path = REFERENCE_DIR / f"{name}.json"
        reference = json.loads(ref_path.read_text())
        if reference["seed"] != seed:
            reference = None

        tap.install()
        if tracer is None:
            ops = measured = run_ops(ctx, seconds, 0, tap, interleave=repeats)
        else:
            # Untraced and traced halves answer the same sequence, so their medians compare.
            measured = run_ops(ctx, seconds / 2, 0, tap, interleave=repeats)
            tracer.phase = "traced"
            tracer.install()
            traced = run_ops(ctx, seconds / 2, len(measured), tap, tracer)
            tracer.phase = "peak"
            tracemalloc.start()
            replay = run_ops(ctx, 0, len(measured) + len(traced), tap, tracer, max_ops=1)
            tracemalloc.stop()
            tracer.uninstall()
            ops = measured + traced + replay
        tap.uninstall()
        check_ops(ops, ctx, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if all("error" in op for op in measured):
        raise SystemExit(f"perfbench: every operation of {name} failed; the first:\n{ops[0]['error']}")

    kind = ctx.shape.kind
    setup_s = median(setup_times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steps = 1 if kind == "qa" else workloads.steps_per_round(ctx)
    attempted = steps * len(ops)
    failed = steps * sum(bool(op["problems"]) for op in ops)
    detail = summarize(measured, kind)
    detail["setup_s"] = {"value": setup_s, "unit": "s", "n": len(setup_times), "samples": setup_times}
    detail["corpus_s"] = {"value": corpus_s, "unit": "s", "n": 1}
    detail["peak_rss_mib"] = {"value": rss_mib, "unit": "MiB", "n": 1}
    detail["error_rate"] = {"value": failed / attempted, "unit": "fraction", "n": attempted}
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed, threads),
        "detail": detail,
        "end_to_end": end_to_end(detail, kind, setup_s, rss_mib),
        "problems": {str(op["op"]): op["problems"] for op in ops if op["problems"]},
        "outputs": [{k: op[k] for k in ("op", "key", "seconds", "output", "curves") if k in op} for op in ops],
    }
    correct = failed == 0
    if tracer is not None:
        def op_seconds(phase_ops):
            return median([op["seconds"] for op in phase_ops])

        overhead = 100.0 * (op_seconds(traced) / op_seconds(measured) - 1.0)
        result["per_layer"] = layer_table(tracer.spans, overhead)
        hooks = hook_problems(tracer.spans, {op["op"]: op["n_pages"] for op in traced if "n_pages" in op})
        hooks += [f"hook target missing: {m}" for m in tracer.missing]
        result["hook_problems"] = hooks
        correct = correct and not hooks
        tracer.write(OUT / f"{name}-seed{seed}-spans.jsonl")
    result["attempted"], result["failed"], result["correct"] = attempted, failed, correct
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result, correct


def print_report(result: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {env['seed']}  trace {result['trace']}  "
          f"blas {env['blas']} x{env['blas_threads']}  nproc {env['nproc']}  git {env['git_revision']}")
    for name, m in result["detail"].items():
        extra = f"  ({m['beyond']} beyond)" if "beyond" in m else ""
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']:<10} n={m['n']}{extra}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<42} {value:>14.6g}")
    for op, problems in list(result["problems"].items())[:5]:
        print(f"  op {op} FAILED: {'; '.join(problems)[:300]}")
    for problem in result.get("hook_problems", [])[:5]:
        print(f"  trace check FAILED: {problem}")


def result_line(result: dict, spec: dict) -> dict:
    group = "per_layer" if result["trace"] else "end_to_end"
    values = result[group]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]},
    }


def write_reference(name: str, seed: int) -> None:
    """Record every distinct question's outputs (or one training round) for later runs to match."""
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    tap = workloads.ScoreTap()
    try:
        workloads.generate_corpus(work / "corpus", workloads.WORKLOADS[name], seed)
        ctx = workloads.setup(name, work)
        tap.install()
        if ctx.shape.kind == "qa":
            body = {"questions": {it.sample.question_id: workloads.answer(ctx, it, tap) for it in ctx.items}}
        else:
            body = {"curves": workloads.train_round(ctx)["curves"]}
        tap.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(json.dumps({"workload": name, "seed": seed, **body}))


def run_each(names: list[str], args) -> int:
    """Run every named workload in its own process, so each peak RSS is that workload's alone."""
    lines = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n").splitlines()
        try:
            lines[name] = json.loads(out.pop())
        except (IndexError, ValueError):  # the run ended without a result line
            lines[name] = None
        print("\n".join(out))
    ok = all(line is not None and line["correct"] for line in lines.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(line["attempted"] for line in lines.values() if line),
        "failed": sum(line["failed"] for line in lines.values() if line),
        "metrics": {f"{n}/{k}": v for n, line in lines.items() if line for k, v in line["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        help="qa-desk, qa-long, qa-paper or train-desk; a comma-separated list; or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's outputs as the reference instead of measuring")
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    problem = import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.write_reference:
        for name in names:
            write_reference(name, args.seed)
        return 0
    if len(names) > 1:
        return run_each(names, args)
    spec = json.loads(SPEC.read_text())
    result, correct = measure(names[0], args.seed, args.seconds, bool(args.trace), threads)
    print_report(result)
    print(json.dumps(result_line(result, spec)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
