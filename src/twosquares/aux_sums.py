"""Direct evaluation of the auxiliary sums X, Y, Z(1), Z(2) over integers
composed of primes 1 mod 4, against their predicted leading terms.

The elements a come from arith.squarefree_table in ascending order, after
a byte guard estimated from v.  X is one numpy sum over them.  Each pair
sum Y, Z(1), Z(2) weighs a pair (a,b) by h((a,b)); by Moebius inversion
over the gcd it is a sum over single elements d of (h * mu)(d) times
divisor sums, built once per v from the 2^omega(a) divisors of each a that
arith.divisor_incidence lists, so the work is linear in the elements, not
quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constants import landau_ramanujan_A
from .arith import divisor_incidence, g_rows, primes_up_to, squarefree_table, w_split
from .errors import ValidationError, check_bytes

# tracemalloc peak of X and the pair sums per element of the estimate below:
# 199, 207 and 220 bytes at v = 10^5, 10^6 and 10^7; charged 300 (>= 1.36x)
_BYTES_PER_ELEMENT = 300


@dataclass(frozen=True)
class AuxParams:
    """Summation bound v and the W-trick modulus W = prod of odd primes <= D0,
    split as W = W1 * W3 by residue class mod 4."""

    v: int
    D0: int = 1
    W: int = field(init=False)
    W1: int = field(init=False)
    phi_W1: float = field(init=False)  # phi(W1)/W1

    def __post_init__(self):
        if self.v < 2:
            raise ValidationError(f"AuxParams: v={self.v} must be >= 2")
        w, w1, phi_w1, _ = w_split(self.D0)
        for name, val in (("W", w), ("W1", w1), ("phi_W1", phi_w1)):
            object.__setattr__(self, name, val)


@lru_cache(maxsize=1)
def _smooth_rows(params: AuxParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """enumerate_smooth with the prime matrix of squarefree_table, after a
    byte guard: there are at most 0.35 v / sqrt(log v) elements (0.307 at
    v = 10^7), and 64 more stand for the fixed cost of the sort.  Cached,
    so that X and the pair sums of one v enumerate once; the arrays are
    read-only, because every caller gets the same ones."""
    n_est = 0.35 * params.v / math.sqrt(math.log(params.v)) + 64
    check_bytes("aux sums", n_est * _BYTES_PER_ELEMENT, f"~{n_est:.2e} elements at v = {params.v}")
    ps = primes_up_to(params.v)
    rows = squarefree_table(ps[(ps % 4 == 1) & (ps > params.D0)], params.v)  # W holds the odd primes <= D0
    for row in rows:
        row.setflags(write=False)
    return rows


def enumerate_smooth(params: AuxParams) -> tuple[np.ndarray, np.ndarray]:
    """All squarefree a <= v with every prime factor 1 mod 4 and (a, W) = 1,
    in ascending order.  Returns (values, mobius)."""
    return _smooth_rows(params)[:2]


def x_direct(params: AuxParams) -> float:
    """X = sum mu(a)/a * log(v/a) over the enumerated a."""
    vals, mus = enumerate_smooth(params)
    L = math.log(params.v) - np.log(vals.astype(np.float64))
    return float(np.sum(mus / vals * L))


@lru_cache(maxsize=1)
def _divisor_sums(params: AuxParams) -> tuple[np.ndarray, ...]:
    """Per-element data of the pair sums, indexed by the element d:
    mu, S_y, S_z, S_{z g6}, phi_w = w * mu and psi = (w g6) * mu, where
    S_f(d) = sum_{d | a} f(a) and h * mu (d) = mu(d) sum_{e | d} mu(e) h(e).
    Each pair sum is sum_{a,b} f(a)f(b) h((a,b)) = sum_d (h * mu)(d) S_f(d)^2,
    because every divisor of an element is an element; divisor_incidence
    gives the 2^omega divisors of each.
    """
    vals, mus, P = _smooth_rows(params)
    n = len(vals)
    g2, g4, g6, g7 = (g_rows(gid, P) for gid in (2, 4, 6, 7))
    L = math.log(params.v) - np.log(vals.astype(np.float64))

    elem, div = divisor_incidence(vals, P)

    def S(f):
        return np.bincount(div, weights=f[elem], minlength=n)

    def times_mu(h):
        return mus * np.bincount(elem, weights=(mus * h)[div], minlength=n)

    # Z: g4([a,b])/[a,b] = g4(a)g4(b)/(ab) w((a,b)) with w = a/g4(a)
    z, w = mus * g4 * L / (g2 * vals), vals / g4
    return mus, S(mus / g7 * L), S(z), S(z * g6), times_mu(w), times_mu(w * g6)


def y_direct(params: AuxParams) -> float:
    """Y = sum over coprime pairs (a,b) of mu(a)mu(b)/(g7(a)g7(b)) L(a)L(b)
    = sum_d mu(d) S_y(d)^2."""
    mu, s_y, *_ = _divisor_sums(params)
    return float(np.sum(mu * s_y**2))


def z1_direct(params: AuxParams) -> float:
    """Z(1) = sum mu(a)mu(b) g4([a,b]) / (g2(a)g2(b)[a,b]) L(a)L(b)
    = sum_d phi_w(d) S_z(d)^2."""
    _, _, s_z, _, phi_w, _ = _divisor_sums(params)
    return float(np.sum(phi_w * s_z**2))


def z2_direct(params: AuxParams) -> float:
    """Z(2): the Z(1) summand times g6([a,b]) = g6(a) + g6(b) - g6((a,b));
    it is sum_d 2 phi_w(d) S_z(d) S_{z g6}(d) - psi(d) S_z(d)^2."""
    _, _, s_z, s_zg6, phi_w, psi = _divisor_sums(params)
    return float(np.sum(2 * phi_w * s_z * s_zg6 - psi * s_z**2))


def x_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return 8 * A * math.sqrt(math.log(params.v)) / (math.pi * params.phi_W1)


def y_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return 64 * A * A * math.log(params.v) / (math.pi**2 * params.phi_W1 ** 2)


def z1_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return 32 * A**3 * math.sqrt(math.log(params.v)) / (math.pi**2 * params.phi_W1 ** 3)


def z2_predicted(params: AuxParams, prime_bound: int = 10**6) -> float:
    A = landau_ramanujan_A(prime_bound).value
    return -16 * A**3 * math.log(params.v) ** 1.5 / (math.pi**2 * params.phi_W1 ** 3)
