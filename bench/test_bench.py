"""Tests of the benchmark itself.

Each workload runs at a small size through the same code as a full run, in
both modes, and must report exactly the metrics `BENCHMARK.json` declares. A
deliberately corrupted output must be counted as a failed invocation.

Run from the repository root: python3 -m pytest bench/test_bench.py
"""

import json
import math
import os
import subprocess
import sys

import shutil

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_workloads_match_the_spec():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_run_reports_the_declared_metrics(name, trace):
    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


# (invocation index, column) of one number to corrupt per workload
_CORRUPT = {"sweep_closed_form": (0, 3), "sweep_propagator": (0, 2), "rk4_oracle": (0, 2)}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_corrupted_output_is_counted_as_failed(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, small=True)
    tally = run.Tally(workload, str(tmp_path))

    def run_all(invocations):
        codes = {}
        for inv in invocations:
            code, _, _, err = run.run_cli(inv.argv(str(tmp_path)))
            codes[inv.name] = (code, err)
        return codes

    tally.record_references(run_all(workload.references))
    codes = run_all(workload.invocations)
    index, column = _CORRUPT[name]
    path = workload.invocations[index].output(str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[column] = f"{float(cells[column]) + 1e-3:.12e}"
    lines[1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    tally.record(workload.invocations, codes)
    assert tally.failed == 1
    assert tally.attempted == len(workload.references) + len(workload.invocations)


def test_refuses_to_run_without_the_sources(tmp_path):
    """Outside a checkout (no src/twospin) the benchmark exits non-zero and prints no result."""
    copy = tmp_path / "bench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(os.path.join(BENCH_DIR, name), copy / name)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rk4_oracle", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
