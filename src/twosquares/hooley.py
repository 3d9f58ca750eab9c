"""Hooley's damped representation function rho(n) = t(n) r_2(n).

t(n) is a truncated divisor sum over squarefree divisors supported on
primes 1 mod 4; it damps the oscillation of r_2 so two-point correlation
asymptotics exist.  rho is used as-is: the mu(a) signs permit t(n) < 0
for specific n, and callers that scan ranges record such sign violations
instead of clamping (see bins.second_moment_lhs diagnostics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .arith import Factorization, floor_power, primes_up_to, progression_slice, r2, r2_on
from .arith import squarefree_products
from .errors import ValidationError


@dataclass(frozen=True)
class RhoParams:
    """Window anchor N and exponent theta1; v = floor(N^theta1).

    strict=True enforces the asymptotic-regime constraint theta1 < 1/18.
    Desk-scale runs need larger exponents just to make v >= 2, so
    strict=False keeps only the structural bounds and records the regime
    violation in `warnings`.
    """

    N: int
    theta1: float
    strict: bool = True
    v: int = field(init=False)
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.N < 2:
            raise ValidationError(f"RhoParams: N={self.N} must be >= 2")
        warnings: list[str] = []
        if not 0 < self.theta1 < 1:
            raise ValidationError(f"RhoParams: theta1={self.theta1} outside (0, 1)")
        if self.theta1 >= 1 / 18:
            msg = f"theta1={self.theta1} outside the asymptotic regime (0, 1/18)"
            if self.strict:
                raise ValidationError(f"RhoParams: {msg}")
            warnings.append(msg)
        v = floor_power(self.N, self.theta1)
        if v < 2:
            raise ValidationError(
                f"RhoParams: derived v={v} < 2 (N={self.N}, theta1={self.theta1})"
            )
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "warnings", tuple(warnings))


def _t_terms(primes: Sequence[int], v: int) -> Iterator[tuple[int, float]]:
    """(a, mu(a)/g2(a) * (1 - log a / log v)) for every squarefree a <= v
    built from the ascending `primes`, in `squarefree_products` order."""
    logv = math.log(v)
    for a, mu, ps in squarefree_products(primes, v):
        g2a = 1.0
        for p in ps:
            g2a *= 2.0 - 1.0 / p
        yield a, mu / g2a * (1.0 - math.log(a) / logv)


def t_weight(params: RhoParams, f: Factorization) -> float:
    """sum over squarefree a | n, a <= v, p|a => p = 1 mod 4, of
    mu(a)/g2(a) * (1 - log a / log v).   Natural logarithms.

    Equals 1 whenever n has no prime factor p = 1 mod 4 with p <= v.
    """
    ps = [p for p, _ in f.pairs if p % 4 == 1 and p <= params.v]
    total = 0.0
    for _, term in _t_terms(ps, params.v):
        total += term
    return total


def rho(params: RhoParams, f: Factorization) -> float:
    """rho(n) = t(n) * r_2(n); vanishes off the sums-of-two-squares set."""
    r = r2(f)
    if r == 0:
        return 0.0
    return t_weight(params, f) * r


def rho_on(params: RhoParams, progression: range) -> np.ndarray:
    """rho(m) at every m of an arithmetic progression, as float64: each
    term of t goes onto the multiples of its a, in the order t_weight adds
    them at one m, times r_2 from `r2_on` over the same progression."""
    t = np.zeros(len(progression))
    ps = [int(p) for p in primes_up_to(params.v) if p % 4 == 1]
    for a, term in _t_terms(ps, params.v):
        hits = progression_slice(progression, [0], [a])
        if hits is not None:
            t[hits] += term
    return t * r2_on(progression)
