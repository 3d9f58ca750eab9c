"""Slow reference implementations that the tests compare the library against."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from twosquares.arith import Factorization, g2, multiplicative, primes_up_to, trial_factorize
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.quantum import CoefficientFamily
from twosquares.sieve import SieveParams, TestFunctionSpec, WeightTable, sqrt_rule


def squarefree_products(primes: Sequence[int], bound: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Every squarefree product a <= bound of distinct primes from the
    ascending sequence `primes`, as (a, mu(a), primes of a ascending).

    a = 1 comes first, then DFS pre-order: each a is followed by its
    extensions a*p by primes p above its own.  Iterative, and a branch
    stops at the first prime that overshoots the bound, so primes that
    can no longer fit are never read.
    """
    yield 1, 1, ()
    stack = [(0, 1, 1, ())]  # (next prime index, a, mu(a), primes of a)
    while stack:
        j, a, mu, ps = stack.pop()
        if j < len(primes) and a * primes[j] <= bound:
            p = primes[j]
            stack.append((j + 1, a, mu, ps))
            child = (a * p, -mu, ps + (p,))
            yield child
            stack.append((j + 1, *child))


def evaluate_grid(spec: TestFunctionSpec, coords: list[np.ndarray]) -> np.ndarray:
    """F on a tensor grid given per-coordinate sample arrays (broadcast)."""
    out = 1.0
    for j, (t, i) in enumerate(zip(coords, spec.coordinate_bins())):
        ki, bi = spec.bins[i]
        u = ki * t
        fac = np.where((u <= bi) & (t >= 0), 1.0 / (1.0 + u / bi), 0.0)
        out = out * fac.reshape([-1 if axis == j else 1 for axis in range(spec.k)])
    return out


def functional_tensor_quadrature(
    spec: TestFunctionSpec,
    kind: str,
    m: int | None = None,
    l: int | None = None,
) -> float:
    """Direct multi-dimensional assembly of the functionals on the tensor
    grid of sqrt_rule per coordinate, treating F as a black box on the
    grid.  Feasible for k <= 4; used to check the factorised closed forms."""
    k = spec.k
    if 48**k > 4e7:
        raise ResourceGuardError(
            f"functional_tensor_quadrature: 48^{k} grid too large",
            cost_estimate=f"{48 ** k:.1e} nodes",
        )
    coords, weights = zip(*map(sqrt_rule, spec.caps()))
    grid = evaluate_grid(spec, list(coords))
    special = [i for i in (m, l) if i is not None] if kind != "L" else []
    # integrate the special axes first (inner integrals), then square,
    # then integrate the rest against the squared integrand
    arr = grid
    for ax in sorted(special, reverse=True):
        arr = np.tensordot(arr, weights[ax], axes=([ax], [0]))
    arr = arr**2
    rem = [j for j in range(k) if j not in special]
    for ax_pos in reversed(range(len(rem))):
        arr = np.tensordot(arr, weights[rem[ax_pos]], axes=([ax_pos], [0]))
    return float(arr)


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


def embed(family: CoefficientFamily, extra_dims: int) -> CoefficientFamily:
    """Zero-pad every frequency vector into d + extra_dims dimensions."""
    if extra_dims < 0:
        raise ValidationError("embed: extra_dims >= 0")
    pad = (0,) * extra_dims
    support = {xi + pad: val for xi, val in family.support.items()}
    return CoefficientFamily(family.rule, family.k, family.d + extra_dims, family.M, support)


def sJ_direct(
    params: SieveParams,
    table: WeightTable,
    J: Sequence[int],
    p1: int,
    p2: int,
    m: int,
    f_rule: Callable[[int], Fraction],
    g_rule: Callable[[int], Fraction] | None = None,
) -> Fraction:
    """Exact evaluation of the double sum over weight pairs:

      sum over (d, e) with W, [d_1,e_1], ..., [d_k,e_k] pairwise coprime,
      p1 | d_m, p2 | e_m, of lambda_d lambda_e prod_{i not in J} f([d_i,e_i])
      prod_{j in J} g([d_j,e_j]).
    """
    k = table.k
    if len(set(J)) != len(J) or any(not 0 <= j < k for j in J):
        raise ValidationError("sJ_direct: bad J")
    if len(J) > 2:
        raise ValidationError("sJ_direct: |J| <= 2")
    if k > 3:
        raise ResourceGuardError("sJ_direct: k <= 3 only", cost_estimate=f"k={k}")
    if g_rule is None and J:
        raise ValidationError("sJ_direct: non-empty J needs a g rule")
    Jset = set(J)
    keys = list(table.entries)
    if len(keys) ** 2 > 4e6:
        raise ResourceGuardError(
            "sJ_direct: too many weight pairs",
            cost_estimate=f"{len(keys) ** 2:.1e} pairs",
        )

    total = Fraction(0)
    for d in keys:
        if d[m] % p1 != 0:
            continue
        lam_d = table.entries[d]
        for e in keys:
            if e[m] % p2 != 0:
                continue
            lcms = [di * ei // math.gcd(di, ei) for di, ei in zip(d, e)]
            if any(math.gcd(lcms[i], lcms[j]) > 1 for i in range(k) for j in range(i + 1, k)):
                continue
            term = lam_d * table.entries[e]
            for i in range(k):
                if lcms[i] == 1:
                    continue
                term *= multiplicative(g_rule if i in Jset else f_rule, trial_factorize(lcms[i]).primes())
            total += term
    return total


def mobius(f: Factorization) -> int:
    if any(e >= 2 for _, e in f.pairs):
        return 0
    return -1 if len(f.pairs) % 2 else 1


def euler_phi(f: Factorization) -> int:
    out = 1
    for p, e in f.pairs:
        out *= (p - 1) * p ** (e - 1)
    return out


def tau_k(f: Factorization, k: int) -> int:
    """Number of ordered factorisations of n into k parts: prod C(e+k-1, k-1)."""
    if k < 1:
        raise ValidationError(f"tau_k: k={k} must be >= 1")
    out = 1
    for _, e in f.pairs:
        out *= math.comb(e + k - 1, k - 1)
    return out


def ramanujan_sum(r: int, h: int) -> int:
    """c_r(h) = sum over (a,r)=1 of e(ah/r), via mu(r/g) phi(r)/phi(r/g), g=(r,h)."""
    if r < 1:
        raise ValidationError(f"ramanujan_sum: r={r} must be >= 1")
    g = math.gcd(r, h)
    m = r // g
    fm = trial_factorize(m)
    mu_m = mobius(fm)
    if mu_m == 0:
        return 0
    phi_r = euler_phi(trial_factorize(r))
    phi_m = euler_phi(fm)
    val = Fraction(mu_m * phi_r, phi_m)
    if val.denominator != 1:
        raise AssertionError(f"ramanujan_sum({r},{h}) not an integer: {val}")
    return int(val)


def convolution_transform(
    kind: str, base: Callable[[int], Fraction], f: Factorization
) -> Fraction:
    """Multiplicative transforms of a prime rule, on squarefree arguments.

    kind "f_star"/"g_star":    p -> (1 - base(p)) / base(p)   (mu * 1/base)
    kind "f_dstar"/"g_dstar":  p -> 1 - p * base(p)           (iota mu base * 1)
    """
    if kind not in ("f_star", "g_star", "f_dstar", "g_dstar"):
        raise ValidationError(f"convolution_transform: unknown kind {kind!r}")
    if not f.is_squarefree():
        raise ValidationError(f"convolution_transform: argument {f.n} is not squarefree")

    def transform(p: int) -> Fraction:
        bp = Fraction(base(p))
        if kind in ("f_dstar", "g_dstar"):
            return 1 - p * bp
        if bp == 0:
            raise ValidationError(f"convolution_transform: base({p}) = 0")
        return (1 - bp) / bp

    return multiplicative(transform, f.primes())
