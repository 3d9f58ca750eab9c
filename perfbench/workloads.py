"""The benchmark's workloads: fixed operation sequences whose inputs come
from the seed.

Each operation is either a `twosquares` CLI invocation run in-process
through `twosquares.cli.main(argv)` or one public-API sequence (the
weights oracle).  An operation has a timed part (`execute`) and an untimed
part (`evaluate`) that reads the output back, applies the library's own
independent oracles and returns the observables compared against the
seed-0 reference.

Seeds perturb inputs inside one cost class: N, v and prime bounds move by
well under 1%, chosen so that derived parameters (R, the lambda support)
stay put, and the Fourier workload permutes the first three legs of 32045,
which reassigns amplitude classes but keeps the support set.  Seed 0 gives
exactly the sizes written in perfbench/README.md.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from twosquares import arith, cli, quantum, sieve

# every leg a of M = 5*13*17*29 with M - a^2 a perfect square, ascending
M_FOURIER = 32045
LEGS = (2, 19, 46, 67, 74, 86, 109, 122, 131, 142, 157, 163, 166, 173, 178, 179)

# derived differences: computed from observed values, so a change of
# summation order in either operand can move them far more than 1e-9
_UNREFERENCED_KEYS = {"rel_error", "rel_difference", "slack", "abs_difference"}


@dataclass
class Op:
    """One timed operation.  `metric` names the per-command time it adds to."""

    key: str
    metric: str
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    verify: Callable[[Any], list[str]] = lambda out: []
    observe: Callable[[Any], dict] | None = None

    def execute(self, report_path: Path) -> Any:
        """The timed part: a CLI exit code, or the API sequence's result."""
        if self.argv is not None:
            return cli.main([*self.argv, "--output", str(report_path)])
        return self.call()

    def evaluate(self, raw: Any, report_path: Path) -> tuple[dict, list[str]]:
        """(observables, problems) for one execution, after its timer stopped."""
        if self.argv is not None:
            if raw != 0:
                return {}, [f"exit code {raw}: {_error_message(report_path)}"]
            out = json.loads(report_path.read_text())
        else:
            out = raw
        observables = (self.observe or _observe_results)(out)
        return observables, self.verify(out)


def _error_message(path: Path) -> str:
    try:
        return json.loads(path.read_text())["error"]["message"]
    except (OSError, ValueError, KeyError, TypeError):
        return "no error report"


def flatten(obj: Any, prefix: str = "") -> dict:
    """Nested dicts/lists as one {"a.b.0": leaf} dict."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for k, v in items:
        if str(k) in _UNREFERENCED_KEYS:
            continue
        out.update(flatten(v, f"{prefix}.{k}" if prefix else str(k)))
    return out


def _observe_results(report: dict) -> dict:
    return flatten(report["results"])


def _csv(*xs: int) -> str:
    return ",".join(map(str, xs))


# ---------------------------------------------------------------------------
# oracles applied on every seed
# ---------------------------------------------------------------------------


def _verify_certificate(report: dict) -> list[str]:
    rd = report["results"][0]["rel_difference"]
    return [] if rd <= 1e-9 else [f"certificate: evaluators differ by {rd:.3e} > 1e-9"]


def _verify_witnesses(report: dict) -> list[str]:
    res = report["results"][0]
    return [] if res["all_verified"] is True else ["witness-search: a certificate failed to verify"]


def _window_size(N: int, D0: int, h: tuple[int, ...]) -> int:
    params = sieve.SieveParams(N=N, theta1=0.1, theta2=1.0, D0=D0, strict=False)
    v0 = sieve.find_v0(params, sieve.AdmissibleTuple(h))
    r, mod = arith.crt([v0, 1], [params.W, 4])
    return arith.count_in_class(N, 2 * N, r, mod)


def _verify_window_terms(N: int, D0: int, h: tuple[int, ...]) -> Callable[[dict], list[str]]:
    def verify(report: dict) -> list[str]:
        want = _window_size(N, D0, h)
        bad = [r["sum"] for r in report["results"] if r["n_terms"] != want]
        return [f"sieve-run: {s} scanned a window of the wrong size (want {want})" for s in bad]

    return verify


def _verify_prime_count(N: int) -> Callable[[dict], list[str]]:
    def verify(report: dict) -> list[str]:
        got = report["results"][0]["primes_below_limit"]
        want = len(arith.primes_up_to(N))
        return [] if got == want else [f"build-table: {got} primes below {N}, sieve says {want}"]

    return verify


def _verify_bounds(report: dict) -> list[str]:
    return [f"quantum bounds: class {r['i']} does not hold" for r in report["results"] if r["holds"] is not True]


def _btable_checks(a_list: tuple[int, ...], k: int, seed: int):
    """all_btau against the scalar b_tau oracle at sampled tau."""

    def sample(table: dict) -> list[str]:
        keys = sorted(table)
        zero = ",".join(["0"] * 5)
        return [zero] + random.Random(seed).sample(keys, min(16, len(keys)))

    def verify(report: dict) -> list[str]:
        table = report["results"][0]["b_tau"]
        fam = quantum.build_family("ql_ii", quantum.FamilyInputs(k=k, M=M_FOURIER, a=a_list, d=5))
        problems = []
        for key in sample(table):
            want = quantum.b_tau(fam, tuple(map(int, key.split(",")))).value
            if not math.isclose(table[key], want, rel_tol=1e-9, abs_tol=1e-15):
                problems.append(f"btable: b_tau({key}) = {table[key]!r}, scalar oracle {want!r}")
        return problems

    def observe(report: dict) -> dict:
        table = report["results"][0]["b_tau"]
        out = {"tau_count": len(table), "value_sum": math.fsum(table.values())}
        for key in sample(table):
            out[f"b_tau.{key}"] = table[key]
        return out

    return verify, observe


# ---------------------------------------------------------------------------
# the weights oracle: a public-API sequence, not a CLI command
# ---------------------------------------------------------------------------


@dataclass
class WeightsOracleResult:
    entries: int
    y_roundtrip_equal: bool
    s1_exact: Any
    s1_pairs: Any


def _weights_oracle(N: int) -> Callable[[], WeightsOracleResult]:
    def call() -> WeightsOracleResult:
        params = sieve.SieveParams(N=N, theta1=0.1, theta2=1.6, D0=10, strict=False)
        tup = sieve.AdmissibleTuple((0, 4))
        table = sieve.lambda_from_F(params, sieve.single_bin_spec(tup.k, 1.0))
        y = sieve.y_from_lambda(table)
        s1 = sieve.s_direct("S1", params, tup, table, exact=True)
        pairs, _ = sieve.s1_pair_expansion(params, tup, table)
        return WeightsOracleResult(len(table.entries), y == table.y_entries, s1.exact, pairs)

    return call


def _verify_weights(res: WeightsOracleResult) -> list[str]:
    problems = []
    if not res.y_roundtrip_equal:
        problems.append("weights: y_from_lambda(lambda_from_F) != y")
    if res.s1_exact != res.s1_pairs:
        problems.append("weights: exact S1 scan != pair expansion")
    return problems


def _observe_weights(res: WeightsOracleResult) -> dict:
    return {
        "entries": res.entries,
        "s1_num": str(res.s1_exact.numerator),
        "s1_den": str(res.s1_exact.denominator),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    ops: list[Op]


def _window(seed: int, smoke: bool) -> Workload:
    s = seed % 30
    # R = isqrt(N) stays 316 / 547 over these offsets
    N1 = 2000 if smoke else 100_000 + 16 * s
    N3 = 3000 if smoke else 300_000 + 10 * s
    sieve_args = ["--theta1", "0.1", "--theta2", "1", "--D0", "1"]
    bins_args = ["--tuple", "0,4,16", "--bins", "1:1,2:2"]
    return Workload(
        "window",
        [
            Op(
                "certificate",
                "certificate_s",
                ["certificate", "--N", str(N1), *sieve_args, *bins_args, "--mu", "1.5,2.5", "--t", "1,2"],
                verify=_verify_certificate,
            ),
            Op(
                "witness_search",
                "witness_s",
                ["witness-search", "--N", str(N1), "--limit", str(4 * N1), *sieve_args, *bins_args],
                verify=_verify_witnesses,
            ),
            Op(
                "sieve_run",
                "sieve_sums_s",
                ["sieve-run", "--N", str(N3), *sieve_args, "--tuple", "0,4", "--which", "S1,S2,S3,S4"],
                verify=_verify_window_terms(N3, 1, (0, 4)),
            ),
        ],
    )


def _tables(seed: int, smoke: bool) -> Workload:
    s = seed % 50
    if smoke:
        trend, v, pb_const, n_table, pb_gamma, n_sieve = (1000, 10_000), 300, 10_000, 50_000, 10_000, 20_000
    else:
        trend = (100_000 + 7 * s, 1_000_000 + 70 * s, 10_000_000 + 700 * s)
        v = 30_000 + 3 * s
        pb_const = 10_000_000 + 1000 * s
        n_table = 20_000_000 + 1000 * s
        pb_gamma = 1_000_000 + 100 * s
        n_sieve = 1_000_000 + 20 * s  # R = floor(N^0.8) stays 63095..63100
    trend_arg = _csv(*trend)
    ap = [
        Op(f"ap_sums_{name}", "ap_sums_s", ["ap-sums", "--sum", name, "--trend", trend_arg, *extra])
        for name, extra in (
            ("r", ["--q", "3", "--a", "1"]),
            ("rr", ["--h", "4"]),
            ("r2", []),
        )
    ]
    return Workload(
        "tables",
        [
            *ap,
            Op("aux_sums", "aux_pairs_s", ["aux-sums", "--v", str(v), "--which", "x,y,z1,z2"]),
            Op("constants", "constants_s", ["constants", "--prime-bound", str(pb_const)]),
            Op(
                "build_table",
                "build_table_s",
                ["build-table", "--N", str(n_table)],
                verify=_verify_prime_count(n_table),
            ),
            Op("c_gamma", "c_gamma_s", ["c-gamma", "--D0", "10", "--prime-bound", str(pb_gamma)]),
            Op(
                "sieve_run",
                "sieve_sums_s",
                [
                    "sieve-run", "--N", str(n_sieve), "--theta1", "0.1", "--theta2", "1.6",
                    "--D0", "10", "--tuple", "0,4", "--which", "S1,S2,S3,S4",
                ],
                verify=_verify_window_terms(n_sieve, 10, (0, 4)),
            ),
            Op(
                "weights_oracle",
                "weights_oracle_s",
                call=_weights_oracle(n_sieve),
                verify=_verify_weights,
                observe=_observe_weights,
            ),
        ],
    )


def _fourier(seed: int, smoke: bool) -> Workload:
    a_list = (*list(itertools.permutations(LEGS[:3]))[seed % 6], *LEGS[3:8])
    k_table, k_bounds = (2, 2) if smoke else (4, 3)
    family = ["--rule", "ql_ii", "--dim", "5", "--M", str(M_FOURIER), "--a-list", _csv(*a_list)]
    verify_table, observe_table = _btable_checks(a_list, k_table, seed)
    return Workload(
        "fourier",
        [
            Op(
                "btable",
                "btable_s",
                ["quantum", "--what", "btable", *family, "--k", str(k_table)],
                verify=verify_table,
                observe=observe_table,
            ),
            Op(
                "bounds",
                "mass_bounds_s",
                ["quantum", "--what", "bounds", *family, "--k", str(k_bounds)],
                verify=_verify_bounds,
            ),
        ],
    )


WORKLOADS = {"window": _window, "tables": _tables, "fourier": _fourier}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
