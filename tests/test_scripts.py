"""The experiment scripts run end to end at a small size.

Each runs in a subprocess, as from a shell, with one BLAS thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name: str, *args: str, cwd: Path) -> None:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, f"{name} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"


@pytest.fixture(scope="module")
def desk(tmp_path_factory) -> Path:
    cwd = tmp_path_factory.mktemp("scripts")
    run_script("run_desk_experiment.py", "--out", "desk", "--docs", "10", "--stage1-epochs", "1",
               "--stage2-epochs", "1", "--skip-ablation", cwd=cwd)
    return cwd / "desk"


def test_desk_experiment_writes_its_summary(desk):
    summary = json.loads((desk / "summary.json").read_text())
    assert sorted(summary) == ["aggregation_ablation", "elapsed_s", "phase_s"]
    assert sorted(summary["aggregation_ablation"]) == ["first"]
    assert sorted(summary["phase_s"]) == ["corpus", "eval-first", "stage1", "stage2-first"]
    for phase, seconds in summary["phase_s"].items():
        assert seconds == json.loads((desk / phase / "manifest.json").read_text())["elapsed_s"], phase
    assert sum(summary["phase_s"].values()) <= summary["elapsed_s"] + 0.1
    assert sorted(summary["aggregation_ablation"]["first"]) == ["anls", "page_accuracy_pct"]


def test_unrestricted_eval_on_the_desk_checkpoint(desk, tmp_path):
    run_script("run_unrestricted_eval.py", "--checkpoint", str(desk / "stage2-first" / "stage2.ckpt"),
               "--out", "unrestricted", "--docs", "1", "--pages", "20:20", cwd=tmp_path)
    report = json.loads((tmp_path / "unrestricted" / "unrestricted.json").read_text())
    assert sorted(report) == ["attention_workers", "n_questions", "peak_additional_mib", "results", "top1_hits"]
    assert report["attention_workers"] >= 1
    assert report["n_questions"] == len(report["results"]) == 1
    record = report["results"][0]
    assert sorted(record) == ["doc_id", "gold_page", "gold_rank", "gold_score", "pages", "pages_per_s",
                              "question_id", "retrieve_s", "top1", "top_score"]
    assert record["pages"] == 20
    assert record["retrieve_s"] > 0 and record["pages_per_s"] == pytest.approx(20 / record["retrieve_s"], rel=0.05)
