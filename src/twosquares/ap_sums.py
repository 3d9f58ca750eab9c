"""Arithmetic-progression sums of r(n), r(n)r(n+h) and r^2(n), empirical
versus predicted main terms.

Each empirical sum sieves r_2 with `r2_on` over its own CRT-combined
residue class (no per-n modulus checks); the pair sum reads r(n) and
r(n+h) as `on_shifts` views of the class and its shift by h.  A trend of
several N sieves once, up to the largest.  Partial sums are integers, so
results are independent of any internal blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .arith import (
    chi4,
    crt,
    g1,
    g2,
    g3,
    g4,
    g5,
    g6,
    on_shifts,
    primes_up_to,
    r2_lattice_range,  # noqa: F401  (not called here; perfbench/tracer.py wraps it)
    r2_on,
    shift_spans,
    trial_factorize,
)
from .constants import ConstantEstimate, a2_constant
from .errors import ValidationError, check_bytes
from .report import CorrelationReport


@dataclass(frozen=True)
class APQuery:
    """Parameters for the progression sums.

    q, a cut the progression n = a (mod q); the sums always also impose
    n = 1 (mod 4).  d (single-sum / square-sum) or d1, d2 (pair sum) are
    divisibility moduli; h is the pair-correlation shift.
    """

    N: int
    q: int = 1
    a: int = 1
    d: int = 1
    d1: int = 1
    d2: int = 1
    h: int = 4


def _check_odd_squarefree(n: int, name: str) -> None:
    if n < 1 or n % 2 == 0:
        raise ValidationError(f"{name}={n} must be odd and positive")
    if not trial_factorize(n).is_squarefree():
        raise ValidationError(f"{name}={n} must be squarefree")


def validate_single(query: APQuery) -> None:
    """Hypotheses shared by the r(n) and r^2(n) sums: q, d odd squarefree,
    (a,q) = (d,q) = 1."""
    _check_odd_squarefree(query.q, "q")
    _check_odd_squarefree(query.d, "d")
    if math.gcd(query.a, query.q) != 1:
        raise ValidationError(f"(a,q) = {math.gcd(query.a, query.q)} != 1")
    if math.gcd(query.d, query.q) != 1:
        raise ValidationError(f"(d,q) = {math.gcd(query.d, query.q)} != 1")
    if query.N < 0:
        raise ValidationError(f"N={query.N} must be >= 0")


def validate_pair(query: APQuery) -> None:
    """Pair-sum hypotheses: additionally (d1,d2)=1, 4|h, h>0, and every
    prime of h divides 2q (which forces the Ramanujan sums to mu(r))."""
    _check_odd_squarefree(query.q, "q")
    _check_odd_squarefree(query.d1, "d1")
    _check_odd_squarefree(query.d2, "d2")
    for name, dd in (("d1", query.d1), ("d2", query.d2)):
        if math.gcd(dd, query.q) != 1:
            raise ValidationError(f"({name},q) != 1")
    if math.gcd(query.d1, query.d2) != 1:
        raise ValidationError("(d1,d2) != 1")
    if query.h <= 0 or query.h % 4 != 0:
        raise ValidationError(f"h={query.h} must be positive and divisible by 4")
    if math.gcd(query.a, query.q) != 1 or math.gcd(query.a + query.h, query.q) != 1:
        raise ValidationError("(a,q) and (a+h,q) must both be 1")
    for p in trial_factorize(query.h // (query.h & -query.h)).primes():  # the odd part of h
        if (2 * query.q) % p != 0:
            raise ValidationError(f"prime {p} | h does not divide 2q")
    if query.N < 0:
        raise ValidationError(f"N={query.N} must be >= 0")


# tracemalloc peak of a sum over the sieved terms, int32 counts summed a block
# at a time: 10.0-13.9 bytes per term at N = 10^7, 11.0-16.9 at 10^6, up to
# 0.44 MB for 25,001 terms at 10^5 (int32 terms), and 14.0 per term above 2^31
# (int64 terms); charged 1 MiB + 19 per term (>= 1.33x)
AP_BYTES = (1 << 20, 19)
# terms per block of a trend's checkpoint sums: the int64 products stay 512 KiB
_SUM_BLOCK = 1 << 16


def _class(query: APQuery, extra: list[tuple[int, int]]) -> range:
    """The n in [1, N] with n = a (q), n = 1 (4) and the extra congruences
    (residue, modulus).  The moduli are pairwise coprime, and the least
    member is positive because 4 | step."""
    residues, moduli = zip((query.a % query.q, query.q), (1, 4), *extra)
    start, step = crt(residues, moduli)
    return range(start, query.N + 1, step)


def _charge(terms: int) -> None:
    check_bytes("AP sums: r2_on", AP_BYTES[0] + AP_BYTES[1] * terms, f"{terms} progression terms")


def _trend(
    validate: Callable, query: APQuery, Ns: Sequence[int], extra: list[tuple[int, int]], hs: list[int], block_sum: Callable
) -> list[int]:
    """For every N of Ns, the sum over the n <= N of the class (query,
    extra) of block_sum(r_2(n + h) for h in hs): one on_shifts sieve of the
    class up to max(Ns), then the sums between consecutive checkpoints in
    ascending order, a _SUM_BLOCK at a time."""
    for N in Ns:
        validate(replace(query, N=N))
    cls = _class(replace(query, N=max(Ns)), extra)
    _charge(sum(len(span) for span, _ in shift_spans(cls, hs)))
    r = on_shifts(r2_on, cls, hs)
    at, total, done = {}, 0, 0
    for N in sorted(set(Ns)):
        upto = len(range(cls.start, N + 1, cls.step))
        for i in range(done, upto, _SUM_BLOCK):
            total += int(block_sum(*(r[h][i : min(i + _SUM_BLOCK, upto)] for h in hs)))
        at[N], done = total, upto
    return [at[N] for N in Ns]


# ---------------------------------------------------------------------------
# single sums:   sum r(n),  n <= N, n = a (q), n = 1 (4), d | n
# ---------------------------------------------------------------------------


def empirical_trend_r(query: APQuery, Ns: Sequence[int]) -> list[int]:
    return _trend(validate_single, query, Ns, [(0, query.d)], [0], lambda r: r.sum(dtype=np.int64))


def empirical_sum_r(query: APQuery) -> int:
    return empirical_trend_r(query, [query.N])[0]


def predicted_sum_r(query: APQuery) -> float:
    validate_single(query)
    gq = float(g1(trial_factorize(query.q)))
    gd = float(g2(trial_factorize(query.d)))
    return gq * gd / (2 * query.q * query.d) * math.pi * query.N


# ---------------------------------------------------------------------------
# pair sums:   sum r(n) r(n+h)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def gamma_singular_series(
    d1: int, d2: int, q: int, tail_prime_bound: int = 10**6
) -> ConstantEstimate:
    """Gamma(d1,d2,q) as an Euler product, cached: it does not depend on N,
    so a trend computes it once.

    The mu(r) sum has multiplicative summand, so it factors: primes p | d1 d2
    contribute the exact factor (1 - chi4(p)/p); the remaining odd primes
    coprime to q d1 d2 contribute (1 - p^-2), truncated at the bound; the
    whole thing carries g2(d1) g2(d2)/(d1 d2).
    """
    _check_odd_squarefree(q, "q")
    _check_odd_squarefree(d1, "d1")
    _check_odd_squarefree(d2, "d2")
    if math.gcd(d1, d2) != 1 or math.gcd(d1 * d2, q) != 1:
        raise ValidationError("d1, d2, q must be pairwise coprime")
    f1, f2 = trial_factorize(d1), trial_factorize(d2)
    head = float(g2(f1)) * float(g2(f2)) / (d1 * d2)
    for p, _ in f1.pairs + f2.pairs:
        head *= 1 - chi4(p) / p
    ps = primes_up_to(tail_prime_bound)
    excluded = [2, *trial_factorize(q).primes(), *f1.primes(), *f2.primes()]
    keep = ~np.isin(ps, excluded)
    tail = float(np.exp(np.sum(np.log1p(-1.0 / ps[keep].astype(np.float64) ** 2))))
    value = head * tail
    bound = abs(value) * 2.0 / tail_prime_bound
    return ConstantEstimate(value, bound, f"tail product truncated at p <= {tail_prime_bound}")


def empirical_trend_rr(query: APQuery, Ns: Sequence[int]) -> list[int]:
    """r(n) and r(n + h) are on_shifts views: of one sieve of the class run
    on to N + h when the class modulus m divides h, and otherwise of two
    sieves, over the class and over its shift by h, since the one
    progression holding both has step gcd(m, h), m/gcd(m, h) times as many
    terms."""
    extra = [(0, query.d1), (-query.h, query.d2)]
    product = lambda a, b: np.multiply(a, b, dtype=np.int64).sum()
    return _trend(validate_pair, query, Ns, extra, [0, query.h], product)


def empirical_sum_rr(query: APQuery) -> int:
    return empirical_trend_rr(query, [query.N])[0]


def predicted_sum_rr(query: APQuery, tail_prime_bound: int = 10**6) -> float:
    validate_pair(query)
    gq = float(g1(trial_factorize(query.q)))
    gamma = gamma_singular_series(query.d1, query.d2, query.q, tail_prime_bound)
    return gq * gq * gamma.value / query.q * math.pi**2 * query.N


# ---------------------------------------------------------------------------
# square sums:   sum r^2(n)
# ---------------------------------------------------------------------------


def empirical_trend_r2(query: APQuery, Ns: Sequence[int]) -> list[int]:
    square = lambda r: np.square(r, dtype=np.int64).sum()
    return _trend(validate_single, query, Ns, [(0, query.d)], [0], square)


def empirical_sum_r2(query: APQuery) -> int:
    return empirical_trend_r2(query, [query.N])[0]


def predicted_sum_r2(query: APQuery) -> float:
    """(g3(q) g4(d)/(qd)) (log N + A2 + 2 sum_{p|q} g5(p) - 2 sum_{p|d} g6(p)) N.

    This is the paper's displayed form.  Exact sums are twice it for every
    (q, a, d) probed: at N = 1e7 the ratio empirical/predicted is 1.99991 to
    2.00007 for (q, a, d) in {(1,1,1), (3,1,1), (3,2,1), (1,1,5), (3,1,5),
    (7,3,1)}.  For q = d = 1 the factor follows from the Ramanujan-Wilson
    asymptotic of the full sum (acceptance criterion 7).
    """
    validate_single(query)
    if query.N == 0:
        return 0.0
    fq, fd = trial_factorize(query.q), trial_factorize(query.d)
    a2 = a2_constant().value
    bracket = math.log(query.N) + a2 + 2 * g5(fq) - 2 * g6(fd)
    return float(g3(fq)) * float(g4(fd)) / (query.q * query.d) * bracket * query.N


# ---------------------------------------------------------------------------
# report wrappers
# ---------------------------------------------------------------------------

_RUNNERS = {
    "ap_r": (empirical_trend_r, predicted_sum_r),
    "ap_rr": (empirical_trend_rr, predicted_sum_rr),
    "ap_r2": (empirical_trend_r2, predicted_sum_r2),
}


def run_trend(name: str, query: APQuery, Ns: Sequence[int]) -> list[CorrelationReport]:
    """The experiment at query with N replaced by each of Ns, in that order;
    the empirical sums come from one sieve up to max(Ns)."""
    if name not in _RUNNERS:
        raise ValidationError(f"unknown AP experiment {name!r}")
    emp_fn, pred_fn = _RUNNERS[name]
    params = {k: getattr(query, k) for k in ("q", "a", "d", "d1", "d2", "h")}
    return [
        CorrelationReport(name, float(emp), pred_fn(replace(query, N=N)), N, params)
        for N, emp in zip(Ns, emp_fn(query, Ns))
    ]


def run_experiment(name: str, query: APQuery) -> CorrelationReport:
    return run_trend(name, query, [query.N])[0]
