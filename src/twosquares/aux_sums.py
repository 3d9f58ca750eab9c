"""Direct evaluation of the auxiliary sums X, Y, Z(1), Z(2) over integers
composed of primes 1 mod 4, against their predicted leading terms.

The elements a come from arith.squarefree_products in its fixed DFS
pre-order.  The single sum X is one numpy sum over them.  The pair sums
Y, Z(1), Z(2) reduce every pair (a,b) to per-element data plus a gcd
lookup and are evaluated in fixed-size numpy blocks, which is
deterministic for a given block size; a guard rejects element lists too
large to pair up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import landau_ramanujan_A
from .arith import primes_up_to, squarefree_products, w_split
from .errors import ResourceGuardError, ValidationError

_PAIR_GUARD = 60_000
_BLOCK = 1024


@dataclass(frozen=True)
class AuxParams:
    """Summation bound v and the W-trick modulus W = prod of odd primes <= D0,
    split as W = W1 * W3 by residue class mod 4."""

    v: int
    D0: int = 1
    W: int = field(init=False)
    W1: int = field(init=False)
    W3: int = field(init=False)

    def __post_init__(self):
        if self.v < 2:
            raise ValidationError(f"AuxParams: v={self.v} must be >= 2")
        w, w1, w3 = w_split(self.D0)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "W1", w1)
        object.__setattr__(self, "W3", w3)


def _eligible_primes(params: AuxParams) -> list[int]:
    ps = primes_up_to(params.v)
    return [int(p) for p in ps[ps % 4 == 1] if params.W % int(p) != 0]


def enumerate_smooth(params: AuxParams) -> tuple[np.ndarray, np.ndarray]:
    """All squarefree a <= v with every prime factor 1 mod 4 and (a, W) = 1,
    in DFS pre-order over ascending primes.  Returns (values, mobius)."""
    vals, mus, _ = zip(*squarefree_products(_eligible_primes(params), params.v))
    return np.array(vals, dtype=np.int64), np.array(mus, dtype=np.int64)


# ---------------------------------------------------------------------------
# X: single sum
# ---------------------------------------------------------------------------


def x_direct(params: AuxParams) -> float:
    """X = sum mu(a)/a * log(v/a) over the enumerated a."""
    vals, mus = enumerate_smooth(params)
    L = math.log(params.v) - np.log(vals.astype(np.float64))
    return float(np.sum(mus / vals * L))


# ---------------------------------------------------------------------------
# pair sums: per-element data + gcd lookups, blocked
# ---------------------------------------------------------------------------


def _pair_data(params: AuxParams):
    """Per-element arrays for the pair sums, plus value-indexed lookups for
    the gcd factors (every gcd of two list elements is itself in the list)."""
    vals, mus, primes = zip(*squarefree_products(_eligible_primes(params), params.v))
    if len(vals) > _PAIR_GUARD:
        raise ResourceGuardError(
            f"aux pair sums: {len(vals)} elements exceed the {_PAIR_GUARD} guard",
            cost_estimate=f"~{len(vals) ** 2:.2e} gcd pairs",
        )
    vals, mus = np.array(vals, dtype=np.int64), np.array(mus, dtype=np.int64)
    L = math.log(params.v) - np.log(vals.astype(np.float64))

    # multiplicative/additive data per element, over its primes in ascending order
    rows = []
    for ps in primes:
        g2 = g4 = g7 = 1.0
        g6 = 0.0
        for p in ps:
            g2 *= 2 - 1 / p
            g4 *= (4 * p * p - 3 * p + 1) / (p * (p + 1))
            g7 *= p + 1
            g6 += (p - 1) ** 2 * (2 * p + 1) / ((p + 1) * (4 * p * p - 3 * p + 1)) * math.log(p)
        rows.append((g2, g4, g7, g6))
    g2v, g4v, g7v, g6add = np.array(rows).T

    w_lookup = np.zeros(params.v + 1)
    g6_lookup = np.zeros(params.v + 1)
    w_lookup[vals] = vals / g4v
    g6_lookup[vals] = g6add
    return vals, mus, L, g2v, g4v, g7v, g6add, w_lookup, g6_lookup


def y_direct(params: AuxParams) -> float:
    """Y = sum over coprime pairs (a,b) of mu(a)mu(b)/(g7(a)g7(b)) L(a)L(b)."""
    vals, mus, L, _, _, g7v, _, _, _ = _pair_data(params)
    u = mus / g7v * L
    total = 0.0
    for i0 in range(0, len(vals), _BLOCK):
        chunk = vals[i0 : i0 + _BLOCK]
        g = np.gcd.outer(chunk, vals)
        total += float(np.sum((u[i0 : i0 + _BLOCK, None] * u[None, :]) * (g == 1)))
    return total


def _z_core(params: AuxParams, with_g6: bool) -> float:
    vals, mus, L, g2v, g4v, _, g6add, w_lookup, g6_lookup = _pair_data(params)
    u = mus * g4v * L / (g2v * vals)
    total = 0.0
    for i0 in range(0, len(vals), _BLOCK):
        chunk = vals[i0 : i0 + _BLOCK]
        g = np.gcd.outer(chunk, vals)
        w = w_lookup[g]
        uu = u[i0 : i0 + _BLOCK, None] * u[None, :]
        if with_g6:
            s6 = g6add[i0 : i0 + _BLOCK, None] + g6add[None, :] - g6_lookup[g]
            total += float(np.sum(uu * w * s6))
        else:
            total += float(np.sum(uu * w))
    return total


def z1_direct(params: AuxParams) -> float:
    """Z(1) = sum mu(a)mu(b) g4([a,b]) / (g2(a)g2(b)[a,b]) L(a)L(b), using
    [a,b] = ab/(a,b) and multiplicativity to reduce to gcd lookups."""
    return _z_core(params, with_g6=False)


def z2_direct(params: AuxParams) -> float:
    """Z(2): the Z(1) summand times sum_{p | [a,b]} g6(p)."""
    return _z_core(params, with_g6=True)


# ---------------------------------------------------------------------------
# predicted leading terms
# ---------------------------------------------------------------------------


def _g1_W1(params: AuxParams) -> float:
    out = 1.0
    for p in map(int, primes_up_to(params.D0)):
        if p % 4 == 1:
            out *= 1 - 1 / p
    return out


def x_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return 8 * A * math.sqrt(math.log(params.v)) / (math.pi * _g1_W1(params))


def y_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return 64 * A * A * math.log(params.v) / (math.pi**2 * _g1_W1(params) ** 2)


def z1_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return 32 * A**3 * math.sqrt(math.log(params.v)) / (math.pi**2 * _g1_W1(params) ** 3)


def z2_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return -16 * A**3 * math.log(params.v) ** 1.5 / (math.pi**2 * _g1_W1(params) ** 3)
