"""Arithmetic-progression sums of r(n), r(n)r(n+h) and r^2(n), empirical
versus predicted main terms.

Each empirical sum sieves r_2 with `r2_on` over its own CRT-combined
residue class (no per-n modulus checks); the pair sum reads r(n) and
r(n+h) from the class and its shift by h.  Partial sums are integers, so
results are independent of any internal blocking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    primes_up_to,
    r2_lattice_range,  # noqa: F401  (not called here; perfbench/tracer.py wraps it)
    r2_on,
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


# tracemalloc peak per sieved term, int32 counts with int64 products: 10.0-13.9
# bytes at N = 10^7, up to 19.4 at N = 10^5 (int32 terms), 14.0 above 2^31
# (int64 terms); charged 28 (>= 1.33x)
AP_BYTES = 28


def _class(query: APQuery, extra: list[tuple[int, int]]) -> range:
    """The n in [1, N] with n = a (q), n = 1 (4) and the extra congruences
    (residue, modulus).  The moduli are pairwise coprime, and the least
    member is positive because 4 | step."""
    residues, moduli = zip((query.a % query.q, query.q), (1, 4), *extra)
    start, step = crt(residues, moduli)
    return range(start, query.N + 1, step)


def _charge(terms: int) -> None:
    check_bytes("AP sums: r2_on", AP_BYTES * terms, f"{terms} progression terms")


def _r2_on(terms: range) -> np.ndarray:
    _charge(len(terms))
    return r2_on(terms)


# ---------------------------------------------------------------------------
# single sums:   sum r(n),  n <= N, n = a (q), n = 1 (4), d | n
# ---------------------------------------------------------------------------


def empirical_sum_r(query: APQuery) -> int:
    validate_single(query)
    return int(_r2_on(_class(query, [(0, query.d)])).sum(dtype=np.int64))


def predicted_sum_r(query: APQuery) -> float:
    validate_single(query)
    gq = float(g1(trial_factorize(query.q)))
    gd = float(g2(trial_factorize(query.d)))
    return gq * gd / (2 * query.q * query.d) * math.pi * query.N


# ---------------------------------------------------------------------------
# pair sums:   sum r(n) r(n+h)
# ---------------------------------------------------------------------------


def gamma_singular_series(
    d1: int, d2: int, q: int, tail_prime_bound: int = 10**6
) -> ConstantEstimate:
    """Gamma(d1,d2,q) as an Euler product.

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


def gamma_direct_sum(d1: int, d2: int, q: int, r_max: int = 10**4) -> float:
    """Brute-force oracle: the defining mu(r) sum truncated at r <= r_max."""
    mu = np.ones(r_max + 1, dtype=np.int64)
    for p in primes_up_to(r_max):
        p = int(p)
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    r = np.arange(1, r_max + 1, dtype=np.int64)
    mur = mu[1:]
    mask = r % 2 == 1
    if q > 1:
        mask &= np.gcd(r, q) == 1
    g1r = np.gcd(r, d1)
    g2r = np.gcd(r, d2)
    # for squarefree r, (d^2, r) = (d, r)
    chi1 = np.where(g1r % 4 == 1, 1, -1)
    chi2 = np.where(g2r % 4 == 1, 1, -1)
    terms = mur * g1r * g2r * chi1 * chi2 / r.astype(np.float64) ** 2
    total = float(np.sum(terms[mask]))
    head = float(g2(trial_factorize(d1))) * float(g2(trial_factorize(d2))) / (d1 * d2)
    return head * total


def empirical_sum_rr(query: APQuery) -> int:
    """When the class modulus m divides h, r(n) and r(n + h) are views of
    r_2 on the class itself, run on to N + h.  Otherwise the class and its
    shift by h are sieved apart: the one progression holding both has step
    gcd(m, h), m/gcd(m, h) times as many terms."""
    validate_pair(query)
    cls = _class(query, [(0, query.d1), (-query.h, query.d2)])
    if query.h % cls.step == 0:
        r = _r2_on(range(cls.start, query.N + query.h + 1, cls.step))
        return int(np.multiply(r[: len(cls)], r[query.h // cls.step :][: len(cls)], dtype=np.int64).sum())
    shifted = range(cls.start + query.h, query.N + query.h + 1, cls.step)
    _charge(2 * len(cls))
    return int(np.multiply(r2_on(cls), r2_on(shifted), dtype=np.int64).sum())


def predicted_sum_rr(query: APQuery, tail_prime_bound: int = 10**6) -> float:
    validate_pair(query)
    gq = float(g1(trial_factorize(query.q)))
    gamma = gamma_singular_series(query.d1, query.d2, query.q, tail_prime_bound)
    return gq * gq * gamma.value / query.q * math.pi**2 * query.N


# ---------------------------------------------------------------------------
# square sums:   sum r^2(n)
# ---------------------------------------------------------------------------


def empirical_sum_r2(query: APQuery) -> int:
    validate_single(query)
    r = _r2_on(_class(query, [(0, query.d)]))
    return int(np.square(r, dtype=np.int64).sum())


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
    "ap_r": (empirical_sum_r, predicted_sum_r),
    "ap_rr": (empirical_sum_rr, predicted_sum_rr),
    "ap_r2": (empirical_sum_r2, predicted_sum_r2),
}


def run_experiment(name: str, query: APQuery) -> CorrelationReport:
    if name not in _RUNNERS:
        raise ValidationError(f"unknown AP experiment {name!r}")
    emp_fn, pred_fn = _RUNNERS[name]
    emp = emp_fn(query)
    pred = pred_fn(query)
    params = {k: getattr(query, k) for k in ("q", "a", "d", "d1", "d2", "h")}
    return CorrelationReport(name, float(emp), pred, query.N, params)
