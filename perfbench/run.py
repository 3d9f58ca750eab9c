"""Benchmark of the twosquares toolkit.

    python3 perfbench/run.py --workload window --seed 0 --seconds 38 --trace 0

Runs one workload (window, tables or fourier; see perfbench/README.md)
for about --seconds seconds from the repository root, with the package
imported from ./src.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.  The gated time, wall_rel, is the
workload's time in units of a fixed calibration probe timed between its
operations, and setup_s is scaled by the same probe (see harness.py); the
raw seconds are printed beside them.  Human-readable lines come first;
the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A results file with the environment record, every pass and every failed
check goes to .perfbench_out/.  --smoke runs tiny inputs (see
perfbench/test_smoke.py).
"""

from __future__ import annotations

import os

# one thread everywhere: set before numpy loads, for this process and
# for the fresh interpreters that time the import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"

END_TO_END_UNITS = {"wall_rel": "probes", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def import_package():
    """Import twosquares from ./src and nowhere else; exit 1 if absent."""
    if not (SRC / "twosquares" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'twosquares'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import twosquares

    if Path(twosquares.__file__).resolve().parent != (SRC / "twosquares").resolve():
        sys.exit(f"perfbench: twosquares imported from {twosquares.__file__}, not {SRC}")


def measure_setup(repeats: int) -> tuple[float, float]:
    """(setup_s, raw seconds) of `import twosquares.cli` in a fresh interpreter.

    The raw value is the median wall time of `repeats` imports.  A
    calibration probe runs before each import and after the last one, and
    setup_s is the median ratio of import time to the mean of the two probes
    around it, times harness.REFERENCE_PROBE_S: the import's seconds at the
    baseline machine's host speed.
    """
    import harness

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import twosquares.cli"]

    def once() -> float:
        # no timeout: with one, subprocess polls the child in 50 ms steps
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0

    once()  # byte-compiles src/ on a fresh checkout
    probes = [harness.time_calibration()]
    raw, scaled = [], []
    for _ in range(repeats):
        raw.append(once())
        probes.append(harness.time_calibration())
        scaled.append(raw[-1] / statistics.fmean(probes[-2:]) * harness.REFERENCE_PROBE_S)
    return statistics.median(scaled), statistics.median(raw)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("window", "tables", "fourier"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; no reference check")
    args = ap.parse_args(argv)

    # the calibration probes and the work they scale share one vCPU, and
    # the import-timing interpreters inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_package()
    import harness
    import machine
    import workloads

    workload = workloads.build(args.workload, args.seed, smoke=args.smoke)
    reference = None
    if args.seed == 0 and not args.smoke:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    env = machine.environment(ROOT)
    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(2 if args.smoke else SETUP_REPEATS)

    bench = harness.Harness(OUT / "reports", reference)
    record = bench.run(workload, args.seconds, bool(args.trace))

    untraced = record.untraced()
    walls = [p.wall_s for p in untraced]
    commands = {m: [p.command_s[m] for p in untraced] for m in untraced[0].command_s}
    lines = [
        f"twosquares benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} passes={len(record.passes)}",
        _line("wall_rel", harness.summarize([p.wall_rel for p in untraced]), "probes"),
        _line("wall_s", harness.summarize(walls), "s"),
        f"  {'calibration_s':<36} {statistics.median(record.calibration_s):.6g} s  "
        f"(median of {len(record.calibration_s)} calibration probes)",
    ]
    lines += [_line(m, harness.summarize(v), "s") for m, v in commands.items()]
    result = {"environment": env, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "operations": [op.argv or op.key for op in workload.ops],
              "wall_rel": harness.summarize([p.wall_rel for p in untraced]),
              "wall_s": harness.summarize(walls),
              "calibration_s": record.calibration_s,
              "command_s": {m: harness.summarize(v) for m, v in commands.items()}}

    if args.trace:
        traced = record.traced()
        metrics = harness.median_layers([p.layers for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - statistics.median(walls)
        )
        units = {name: layer_unit(name) for name in metrics}
        lines += [f"  {name:<36} {value:.6g} {units[name]}" for name, value in metrics.items()]
        result["byte_metrics"] = {
            name: {"value": value, "kind": "computed", "llc": env["llc"], "llc_bytes": env["llc_bytes"],
                   "share_of_llc": value / env["llc_bytes"] if env["llc_bytes"] else None}
            for name, value in metrics.items() if units[name] == "bytes"
        }
        result["passes"] = [{"traced": p.traced, "wall_s": p.wall_s, "layers": p.layers} for p in record.passes]
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(bench.tracer.spans))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_rel": harness.wall_rel(record), "setup_s": setup_s, "peak_rss_mb": peak_mb}
        units = dict(END_TO_END_UNITS)
        lines += [
            f"  {'setup_s':<36} {setup_s:.6g} s  (median of {SETUP_REPEATS} fresh imports of twosquares.cli, "
            f"at the reference probe speed; raw median {setup_raw_s:.6g} s)",
            f"  {'peak_rss_mb':<36} {peak_mb:.6g} MB",
        ]
        result["setup_raw_s"] = setup_raw_s
        result["passes"] = [{"wall_s": p.wall_s, "wall_rel": p.wall_rel, "command_s": dict(p.command_s)}
                            for p in record.passes]

    failed_frac = record.failed / record.attempted
    lines.append(f"  {'failed_frac':<36} {failed_frac:.6g}  ({record.failed} of {record.attempted} operations)")
    result.update(metrics=metrics, attempted=record.attempted, failed=record.failed,
                  failed_frac=failed_frac, problems=record.problems)
    results_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(result, indent=1, default=str))
    lines.append(f"  results: {results_path.relative_to(ROOT)}")

    for problem in record.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _line(name: str, summary: dict, unit: str) -> str:
    extra = ", ".join(f"{k} {v:.6g}" for k, v in summary.items() if k not in ("median", "samples"))
    tail = extra or "no high percentile: fewer than 11 samples"
    return f"  {name:<36} {summary['median']:.6g} {unit}  (median of {summary['samples']} passes; {tail})"


if __name__ == "__main__":
    sys.exit(main())
