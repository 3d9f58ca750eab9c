"""Layer tracing from outside the program.

The tracer replaces each layer's public functions in the namespace of the
module that calls them (for example `bins.s_direct`, `sieve.rho`,
`cli.build_factor_table`) with wrappers that record spans, and restores
the originals afterwards.  Nothing under src/ knows about it.

A span is (name, start, end, parent span, operation id); spans stay in
memory and are written out when the run ends.  Per-element functions
(`FactorTable.factorize`, `rho`, `is_sum_of_two_squares`) are too hot
for spans: they only bump counters, and `rho` also adds up its busy time.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Callable

from twosquares import (
    aux_sums,
    ap_sums,
    arith,
    bins,
    cli,
    constants,
    quantum,
    sieve,
)

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.op_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent, self.op_id])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = clock()
        self._stack.pop()

    def spanned(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap fn in a span; after(result, *args) records counts."""

        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable, timed: bool = False) -> Callable:
        counters = self.counters
        calls = name + "_calls"
        if not timed:

            def wrapper(*args, **kwargs):
                counters[calls] += 1
                return fn(*args, **kwargs)

            return wrapper
        busy = name + "_s"

        def timed_wrapper(*args, **kwargs):
            counters[calls] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[busy] += clock() - t0

        return timed_wrapper

    def keep_max(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    # -- installing -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function; undo with restore()."""
        c = self.counters
        span = self.spanned

        def table_bytes(table, *_):
            c["arith.factor_table_bytes"] += table.spf.nbytes

        def window_n(res, *_):
            c["sieve.window_n"] += res.n_terms

        def weight_entries(table, *_):
            self.keep_max("sieve.weight_entries", len(table.entries))

        def pair_terms(_res, _params, _tup, table, *rest):
            c["sieve.pair_terms"] += len(table.entries) ** 2

        def witness_counts(records, params, tup, _part, n_limit, *rest):
            v0 = sieve.find_v0(params, tup)
            r, mod = arith.crt([v0, 1], [params.W, 4])
            c["bins.witness_candidates"] += arith.count_in_class(params.N, n_limit, r, mod)
            c["bins.witness_records"] += len(records)

        def smooth_elements(res, *_):
            n = len(res[0])
            c["aux_sums.elements"] += n
            c["aux_sums.gcd_pairs"] += n * n

        def support_size(fam, *_):
            self.keep_max("quantum.support_size", len(fam.support))

        def btau_counts(table, fam, *rest):
            c["quantum.pairs"] += len(fam.support) ** 2
            c["quantum.tau_count"] += len(table)

        p = self._patch
        p(cli, "build_factor_table", span("arith.factor_table", cli.build_factor_table, table_bytes))
        p(ap_sums, "r2_lattice_range", span("arith.r2_range", ap_sums.r2_lattice_range))
        for mod in (sieve, constants, ap_sums, aux_sums):
            p(mod, "primes_up_to", span("arith.primes_up_to", mod.primes_up_to))
        for mod in (cli, sieve, aux_sums):
            p(mod, "landau_ramanujan_A", span("constants.landau_A", mod.landau_ramanujan_A))
        p(arith.FactorTable, "factorize", self.counted("arith.factorize", arith.FactorTable.factorize))
        p(bins, "is_sum_of_two_squares", self.counted("arith.is_sum_of_two_squares", bins.is_sum_of_two_squares))
        for mod in (sieve, bins):
            p(mod, "rho", self.counted("hooley.rho", mod.rho, timed=True))
        runners = ap_sums._RUNNERS
        p(
            ap_sums,
            "_RUNNERS",
            {
                name: (span("ap_sums.empirical", emp), span("ap_sums.predicted", pred))
                for name, (emp, pred) in runners.items()
            },
        )
        p(ap_sums, "gamma_singular_series", span("ap_sums.gamma_series", ap_sums.gamma_singular_series))
        p(aux_sums, "x_direct", span("aux_sums.x", aux_sums.x_direct))
        for name in ("y_direct", "z1_direct", "z2_direct"):
            p(aux_sums, name, span("aux_sums.pair", getattr(aux_sums, name)))
        p(aux_sums, "enumerate_smooth", span("aux_sums.enumerate_smooth", aux_sums.enumerate_smooth, smooth_elements))
        p(sieve, "lambda_from_F", span("sieve.lambda_from_F", sieve.lambda_from_F, weight_entries))
        p(sieve, "y_from_lambda", span("sieve.y_from_lambda", sieve.y_from_lambda))
        p(sieve, "s1_pair_expansion", span("sieve.s1_pair_expansion", sieve.s1_pair_expansion, pair_terms))
        for mod in (sieve, bins):
            p(mod, "s_direct", span("sieve.s_direct", mod.s_direct, window_n))
        p(bins, "second_moment_lhs", span("bins.second_moment", bins.second_moment_lhs))
        p(bins, "witness_search", span("bins.witness_search", bins.witness_search, witness_counts))
        p(bins, "verify_witness", span("bins.verify", bins.verify_witness))
        p(quantum, "build_family", span("quantum.build_family", quantum.build_family, support_size))
        p(quantum, "all_btau", span("quantum.all_btau", quantum.all_btau, btau_counts))
        p(quantum, "mass_lower_bound", span("quantum.mass_bound", quantum.mass_lower_bound))
        # spans with no metric of their own, so that cli.self_s keeps only
        # the front end's parsing and report writing
        p(sieve, "s_predicted", span("sieve.s_predicted", sieve.s_predicted))
        p(sieve, "c_gamma_check", span("sieve.c_gamma", sieve.c_gamma_check))
        p(cli, "special_constants", span("constants.special", cli.special_constants))
        for name in ("x_predicted", "y_predicted", "z1_predicted", "z2_predicted"):
            p(aux_sums, name, span("aux_sums.predicted", getattr(aux_sums, name)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reducing ---------------------------------------------------------

    def pass_metrics(self, first_span: int, report_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the spans from first_span on (one pass)."""
        spans = self.spans[first_span:]
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans, start=first_span):
            total[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child_time[parent] += t1 - t0

        def self_time(name: str) -> float:
            return sum(
                (t1 - t0) - child_time[i]
                for i, (n, t0, t1, _, _) in enumerate(spans, start=first_span)
                if n == name
            )

        c = self.counters
        candidates = c["bins.witness_candidates"]
        return {
            "arith.factorize_calls": c["arith.factorize_calls"],
            "arith.is_sum_of_two_squares_calls": c["arith.is_sum_of_two_squares_calls"],
            "hooley.rho_calls": c["hooley.rho_calls"],
            "hooley.rho_s": c["hooley.rho_s"],
            "sieve.s_direct_s": total["sieve.s_direct"],
            "sieve.s_direct_calls": calls["sieve.s_direct"],
            "sieve.window_n": c["sieve.window_n"],
            "bins.second_moment_s": total["bins.second_moment"],
            "bins.second_moment_self_s": self_time("bins.second_moment"),
            "bins.witness_search_s": total["bins.witness_search"],
            "bins.witness_candidates": candidates,
            "bins.witness_hit_ratio": c["bins.witness_records"] / candidates if candidates else 0.0,
            "bins.verify_s": total["bins.verify"],
            "sieve.lambda_from_F_s": total["sieve.lambda_from_F"],
            "sieve.weight_entries": self.maxima.get("sieve.weight_entries", 0),
            "sieve.y_from_lambda_s": total["sieve.y_from_lambda"],
            "sieve.s1_pair_expansion_s": total["sieve.s1_pair_expansion"],
            "sieve.pair_terms": c["sieve.pair_terms"],
            "arith.factor_table_s": total["arith.factor_table"],
            "arith.factor_table_bytes": c["arith.factor_table_bytes"],
            "arith.r2_range_s": total["arith.r2_range"],
            "arith.r2_range_calls": calls["arith.r2_range"],
            "ap_sums.empirical_s": total["ap_sums.empirical"],
            "ap_sums.predicted_s": total["ap_sums.predicted"],
            "ap_sums.gamma_series_s": total["ap_sums.gamma_series"],
            "aux_sums.x_s": total["aux_sums.x"],
            "aux_sums.pair_s": total["aux_sums.pair"],
            "aux_sums.elements": c["aux_sums.elements"],
            "aux_sums.gcd_pairs": c["aux_sums.gcd_pairs"],
            "arith.primes_up_to_s": total["arith.primes_up_to"],
            "arith.primes_up_to_calls": calls["arith.primes_up_to"],
            "constants.landau_A_s": total["constants.landau_A"],
            "constants.landau_A_calls": calls["constants.landau_A"],
            "quantum.build_family_s": total["quantum.build_family"],
            "quantum.support_size": self.maxima.get("quantum.support_size", 0),
            "quantum.all_btau_s": total["quantum.all_btau"],
            "quantum.all_btau_calls": calls["quantum.all_btau"],
            "quantum.pairs": c["quantum.pairs"],
            "quantum.tau_count": c["quantum.tau_count"],
            "quantum.mass_bound_s": total["quantum.mass_bound"],
            "cli.self_s": self_time("cli.main"),
            "cli.report_bytes": report_bytes,
        }

    def reset_pass(self) -> int:
        """Zero the counters for a new pass; returns its first span index."""
        self.counters.clear()
        self.maxima.clear()
        return len(self.spans)
