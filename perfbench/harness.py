"""Pass loop: runs a workload's operations back to back (closed loop, one
caller), times each one, checks its output outside the timed region and
counts failures.

Every operation starts with cold functools caches, because a CLI user
pays for them on each invocation.  A traced run alternates untraced and
traced passes, so the tracing overhead is measured inside one run.

The speed of the shared host drifts by tens of percent within seconds and
over minutes.  So a fixed calibration probe, which does not touch the
package, is timed once before the first operation and after every
operation, for at least a tenth of the operation's time.  Each
operation's seconds are divided by the mean of the two probes around it,
and `wall_rel` is the median over untraced passes of the summed ratios.
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer
from workloads import Op, Workload

clock = time.perf_counter

PROBE_ROUNDS = 4
# a probe after an operation lasts at least this share of the operation
PROBE_SHARE = 0.1
# the calibration probe's mean time on the baseline machine (perfbench/README.md);
# it turns a time in probe units back into seconds at that host speed
REFERENCE_PROBE_S = 0.015
_SORT_INPUT = np.random.default_rng(20080111).random(200_000)


def calibration_round() -> None:
    """Fixed work: interpreter-bound integer and dict updates, then a numpy sort."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(40_000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + i
        acc += k * k % 97
    np.sort(_SORT_INPUT)


def time_calibration(min_seconds: float = 0.0) -> float:
    """Mean seconds of back-to-back calibration rounds: at least PROBE_ROUNDS,
    and more until they take `min_seconds`."""
    t0 = clock()
    rounds = 0
    while rounds < PROBE_ROUNDS or clock() - t0 < min_seconds:
        calibration_round()
        rounds += 1
    return (clock() - t0) / rounds


def _cache_clearers() -> list:
    """cache_clear of every functools cache in the twosquares package."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "twosquares" or name.startswith("twosquares."):
            for obj in vars(mod).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    found[id(obj)] = clear
    return list(found.values())


@dataclass
class PassRecord:
    traced: bool
    wall_s: float = 0.0
    wall_rel: float = 0.0
    command_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    layers: dict[str, float] | None = None


@dataclass
class RunRecord:
    passes: list[PassRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    observables: dict[str, dict] = field(default_factory=dict)
    calibration_s: list[float] = field(default_factory=list)

    def untraced(self) -> list[PassRecord]:
        return [p for p in self.passes if not p.traced]

    def traced(self) -> list[PassRecord]:
        return [p for p in self.passes if p.traced]


def compare(observed: dict, expected: dict | None) -> list[str]:
    """Exact values must be equal; floats agree within 1e-9 relative."""
    if expected is None:
        return ["no reference recorded for this operation"]
    problems = []
    for key in sorted(set(observed) | set(expected)):
        if key not in observed or key not in expected:
            problems.append(f"reference mismatch: {key} present on one side only")
        elif not _same(observed[key], expected[key]):
            problems.append(f"reference mismatch: {key} = {observed[key]!r}, recorded {expected[key]!r}")
    return problems


def _same(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        numbers = (int, float)  # by exact type, so a bool never passes for a number
        return type(got) in numbers and type(want) in numbers and math.isclose(got, want, rel_tol=1e-9)
    return got == want


class Harness:
    def __init__(self, report_dir: Path, reference: dict | None = None) -> None:
        self.report_dir = report_dir
        self.reference = reference
        self.tracer = Tracer()
        self._clear_caches = _cache_clearers()

    def run(self, workload: Workload, seconds: float, trace: bool) -> RunRecord:
        """Passes back to back until the next one would overrun `seconds`
        (always at least one pass, and one of each kind when tracing)."""
        self.report_dir.mkdir(parents=True, exist_ok=True)
        record = RunRecord()
        record.calibration_s.append(time_calibration())
        start = clock()
        while True:
            traced = trace and len(record.passes) % 2 == 1
            record.passes.append(self._pass(workload, traced, len(record.passes), record))
            elapsed = clock() - start
            per_pass = elapsed / len(record.passes)
            if trace and not record.traced():
                continue
            if elapsed + per_pass > seconds:
                return record

    def _pass(self, workload: Workload, traced: bool, index: int, record: RunRecord) -> PassRecord:
        rec = PassRecord(traced)
        tracer = self.tracer
        first_span = tracer.reset_pass()
        report_bytes = 0
        for op in workload.ops:
            path = self.report_dir / f"{workload.name}-{op.key}.json"
            path.unlink(missing_ok=True)
            for clear in self._clear_caches:
                clear()
            gc.collect()
            raw, error, elapsed = self._execute(op, path, traced, f"{index}/{op.key}")
            before = record.calibration_s[-1]
            record.calibration_s.append(time_calibration(PROBE_SHARE * elapsed))
            rec.wall_s += elapsed
            rec.wall_rel += elapsed / statistics.fmean((before, record.calibration_s[-1]))
            rec.command_s[op.metric] += elapsed
            if op.argv is not None and path.exists():
                report_bytes += path.stat().st_size
            problems = [error] if error else self._evaluate(op, raw, path, record)
            record.attempted += 1
            if problems:
                record.failed += 1
                record.problems += [f"pass {index} {op.key}: {p}" for p in problems]
        if traced:
            rec.layers = tracer.pass_metrics(first_span, report_bytes)
        return rec

    def _execute(self, op: Op, path: Path, traced: bool, op_id: str):
        tracer = self.tracer
        if traced:
            tracer.op_id = op_id
            tracer.install()
            sid = tracer.begin("cli.main" if op.argv is not None else f"api.{op.key}")
        error = raw = None
        t0 = clock()
        try:
            raw = op.execute(path)
        except SystemExit as exc:  # argparse rejects the command line
            error = f"exit code {exc.code} from argument parsing"
        except Exception:
            error = "raised " + traceback.format_exc(limit=-1).strip()
        elapsed = clock() - t0
        if traced:
            tracer.end(sid)
            tracer.restore()
        return raw, error, elapsed

    def _evaluate(self, op: Op, raw, path: Path, record: RunRecord) -> list[str]:
        try:
            observed, problems = op.evaluate(raw, path)
        except Exception:
            return ["output check raised " + traceback.format_exc(limit=-1).strip()]
        record.observables[op.key] = observed
        if self.reference is not None and observed:
            problems = problems + compare(observed, self.reference.get(op.key))
        return problems


def summarize(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    rank = len(values) - 10
    if rank >= 1:
        out[f"p{100 * rank // len(values)}"] = sorted(values)[rank - 1]
    return out


def wall_rel(record: RunRecord) -> float:
    """Median over untraced passes of the pass time in calibration-probe units."""
    return statistics.median(p.wall_rel for p in record.untraced())


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
