"""Run one workload with several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload qa-desk --seeds 10

Spread is (Q3 - Q1) / median over the runs, with quartiles from
statistics.quantiles(n=4); it is compared with a third of the metric's
bound in BENCHMARK.json. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="runs, with seeds 1..N")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in range(1, args.seeds + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and proc.returncode == 0 and line["correct"]
        for name, m in line["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()), flush=True)

    print(f"{args.workload}: {args.seeds} runs of {seconds:g} s, all correct: {ok}")
    for m in spec["end_to_end"]:
        spread = quartile_spread(values[m["name"]])
        flag = "ok" if spread < m["bound"] / 3 else "WIDE"
        print(f"  {m['name']:<18} median {median(values[m['name']]):>12.6g} {m['unit']:<6} "
              f"spread {spread:7.2%}  bound/3 {m['bound'] / 3:6.2%}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
