"""Smoke test of the benchmark at tiny sizes; gates no timings.

    python3 -m pytest perfbench/test_smoke.py -q

Covers every workload untraced and traced, the output contract of
run.py, failure accounting for a corrupted reference and for forced exit
codes 2 and 3, and the refusal to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture
def bench(tmp_path):
    return harness.Harness(tmp_path / "reports")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_untraced_and_traced(bench, name):
    wl = workloads.build(name, seed=3, smoke=True)
    record = bench.run(wl, seconds=0, trace=True)
    assert record.failed == 0, record.problems
    assert record.attempted == 2 * len(wl.ops)
    [traced] = record.traced()
    assert set(traced.layers) | {"trace.overhead_s"} == set(_units("per_layer"))
    assert traced.wall_s > 0 and record.untraced()[0].wall_s > 0
    # one calibration probe before the first operation and one after each
    assert len(record.calibration_s) == record.attempted + 1
    assert harness.wall_rel(record) > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_command_line_contract(name, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())


def test_corrupted_reference_is_a_failure(bench):
    wl = workloads.build("window", seed=0, smoke=True)
    good = bench.run(wl, seconds=0, trace=False)
    assert good.failed == 0
    reference = json.loads(json.dumps(good.observables))
    reference["certificate"]["0.lhs_direct"] *= 1 + 1e-6
    reference["witness_search"]["0.count"] += 1
    checked = harness.Harness(bench.report_dir, reference).run(wl, seconds=0, trace=False)
    assert (checked.attempted, checked.failed) == (3, 2)
    assert any("lhs_direct" in p for p in checked.problems)
    assert any("0.count" in p for p in checked.problems)
    # floats within 1e-9 relative still match
    reference = json.loads(json.dumps(good.observables))
    reference["certificate"]["0.lhs_direct"] *= 1 + 1e-12
    assert harness.Harness(bench.report_dir, reference).run(wl, seconds=0, trace=False).failed == 0


def test_forced_exit_codes_are_failures(bench):
    wl = workloads.Workload(
        "selftest",
        [
            workloads.Op("validation", "selftest_s", ["ap-sums", "--sum", "bogus"]),
            workloads.Op("guard", "selftest_s", ["build-table", "--N", "3e9"]),
            workloads.Op("fine", "selftest_s", ["pigeonhole", "--rows", "5;5,7"]),
        ],
    )
    record = bench.run(wl, seconds=0, trace=True)
    assert (record.attempted, record.failed) == (6, 4)
    assert sum("exit code 2" in p for p in record.problems) == 2
    assert sum("exit code 3" in p for p in record.problems) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_summarize_percentile():
    assert harness.summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "samples": 3}
    s = harness.summarize([float(i) for i in range(1, 21)])
    assert s["p50"] == 10.0  # ten samples (11..20) lie beyond it
