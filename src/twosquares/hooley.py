"""Hooley's damped representation function rho(n) = t(n) r_2(n).

t(n) is a truncated divisor sum over squarefree divisors supported on
primes 1 mod 4; it damps the oscillation of r_2 so two-point correlation
asymptotics exist.  It reads the window only through v = floor(N^theta1),
which SieveParams derives.  rho is used as-is: the mu(a) signs permit
t(n) < 0 for specific n, and callers that scan ranges record such sign
violations instead of clamping (see bins.second_moment_lhs diagnostics).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arith import Factorization, g_rows, multiples, primes_up_to, r2, r2_on, squarefree_table
from .errors import ValidationError, check_bytes

# tracemalloc peak of rho_on over 1,000 terms per element of the estimate
# below: 132, 145, 144 and 164 bytes at v = 10^4, 10^5, 10^6 and 10^7;
# charged 224 (>= 1.37x), so v up to about 10^8 fits the budget
_T_BYTES = 224


def _t_terms(primes: Sequence[int], v: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, mu(a)/g2(a) * (1 - log a / log v)) for every squarefree a <= v
    built from the ascending `primes`, as arrays in ascending order of a;
    g2(a) comes from arith.g_rows, which multiplies over the primes of a
    in ascending order at every width.  v >= 2, so that log v > 0: this is
    the one check of the v = floor(N^theta1) that rho reads."""
    if v < 2:
        raise ValidationError(f"rho: t(n) divides by log v, which needs v = floor(N^theta1) >= 2, got v = {v}")
    vals, mus, P = squarefree_table(primes, v)
    log_a = np.array(list(map(math.log, vals.tolist())))  # libm's log, as the float terms always took
    return vals, mus / g_rows(2, P) * (1.0 - log_a / math.log(v))


def t_weight(v: int, f: Factorization) -> float:
    """sum over squarefree a | n, a <= v, p|a => p = 1 mod 4, of
    mu(a)/g2(a) * (1 - log a / log v).   Natural logarithms.

    Equals 1 whenever n has no prime factor p = 1 mod 4 with p <= v.
    """
    return _t_sum(tuple(p for p, _ in f.pairs if p % 4 == 1 and p <= v), v)


@lru_cache(maxsize=1 << 12)
def _t_sum(primes: tuple[int, ...], v: int) -> float:
    """t(n) from the primes of n that t reads: its terms added one by one in
    ascending order of a, as rho_on adds them at one m.  Cached, because
    the n of a window share few such prime sets."""
    total = 0.0
    for term in _t_terms(primes, v)[1].tolist():
        total += term
    return total


def rho(v: int, f: Factorization) -> float:
    """rho(n) = t(n) * r_2(n); vanishes off the sums-of-two-squares set."""
    t, r = t_weight(v, f), r2(f)
    return t * r if r else 0.0


def rho_on(v: int, progression: range) -> np.ndarray:
    """rho(m) at every m of an arithmetic progression, as float64: each
    term of t goes onto the multiples of its a, in the order t_weight adds
    them at one m, times r_2 from `r2_on` over the same progression.  The
    t table is charged before any prime is sieved, at the estimate of
    aux_sums for the same class: 0.35 v / sqrt(log v) + 64 elements."""
    n_est = 0.35 * v / math.sqrt(math.log(max(v, 3))) + 64
    check_bytes("rho's t table", n_est * _T_BYTES, f"~{n_est:.2e} elements at v = {v}")
    t = np.zeros(len(progression))
    ps = primes_up_to(v)
    vals, terms = _t_terms(ps[ps % 4 == 1], v)
    for a, term in zip(vals.tolist(), terms.tolist()):
        hits = multiples(progression, a)
        if hits is not None:
            t[hits] += term
    return t * r2_on(progression)
