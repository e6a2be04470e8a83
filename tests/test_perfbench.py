"""The benchmark's seed-0 reference check, run as from a shell at the root of the checkout.

Each workload runs for the shortest time that checks its outputs against
perfbench/reference/: one operation, except qa-paper, which answers each
of its four questions at least once (5 s at about 0.5 s a question on
two CPUs), so every 2048-patch score and answer is compared with the stored
one.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SECONDS = {"qa-desk": 0, "qa-long": 0, "qa-paper": 5, "train-desk": 0}


@pytest.mark.parametrize("workload", sorted(SECONDS))
def test_seed_0_outputs_match_the_reference(workload):
    done = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
                           "--seconds", str(SECONDS[workload]), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{workload} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    if workload == "qa-paper":
        answered = json.loads((PERFBENCH / "out" / f"{workload}-seed0-trace0.json").read_text())["outputs"]
        reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())["questions"]
        assert {op["key"] for op in answered} == set(reference)
