"""Smoke runs of the benchmark at tiny sizes.

    python3 -m pytest bench/tests

Checks that every metric declared in BENCHMARK.json is emitted with its
unit, that a failed output check makes the run exit non-zero, and that the
benchmark refuses to run without the program's sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=600, check=False,
    )


def smoke_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--size", "smoke"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, *smoke_args(workload, trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    env = json.loads(lines[-1])["env"]
    assert {"nproc", "blas", "blas_threads", "numpy", "scipy", "python", "git_sha"} <= set(env)


def test_failed_reference_check_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["train-desk"]["losses"][-1] *= 1.01
    (tmp_path / "bench" / "reference.json").write_text(json.dumps(reference))
    proc = run_bench(tmp_path, *smoke_args("train-desk", 0))
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "--workload", "eval-paper", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
