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
from typing import Iterator, Sequence

import numpy as np

from .arith import Factorization, primes_up_to, progression_slice, r2, r2_on
from .arith import squarefree_products
from .errors import ValidationError


def _t_terms(primes: Sequence[int], v: int) -> Iterator[tuple[int, float]]:
    """(a, mu(a)/g2(a) * (1 - log a / log v)) for every squarefree a <= v
    built from the ascending `primes`, in `squarefree_products` order.
    v >= 2, so that log v > 0."""
    if v < 2:
        raise ValidationError(f"t(n): v={v} < 2")
    logv = math.log(v)
    for a, mu, ps in squarefree_products(primes, v):
        g2a = 1.0
        for p in ps:
            g2a *= 2.0 - 1.0 / p
        yield a, mu / g2a * (1.0 - math.log(a) / logv)


def t_weight(v: int, f: Factorization) -> float:
    """sum over squarefree a | n, a <= v, p|a => p = 1 mod 4, of
    mu(a)/g2(a) * (1 - log a / log v).   Natural logarithms.

    Equals 1 whenever n has no prime factor p = 1 mod 4 with p <= v.
    """
    ps = [p for p, _ in f.pairs if p % 4 == 1 and p <= v]
    total = 0.0
    for _, term in _t_terms(ps, v):
        total += term
    return total


def rho(v: int, f: Factorization) -> float:
    """rho(n) = t(n) * r_2(n); vanishes off the sums-of-two-squares set."""
    t, r = t_weight(v, f), r2(f)
    return t * r if r else 0.0


def rho_on(v: int, progression: range) -> np.ndarray:
    """rho(m) at every m of an arithmetic progression, as float64: each
    term of t goes onto the multiples of its a, in the order t_weight adds
    them at one m, times r_2 from `r2_on` over the same progression."""
    t = np.zeros(len(progression))
    ps = [int(p) for p in primes_up_to(v) if p % 4 == 1]
    for a, term in _t_terms(ps, v):
        hits = progression_slice(progression, [0], [a])
        if hits is not None:
            t[hits] += term
    return t * r2_on(progression)
