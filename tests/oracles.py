"""Slow reference implementations that the tests compare the library against."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from twosquares.arith import g2, primes_up_to, trial_factorize
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.quantum import CoefficientFamily
from twosquares.sieve import TestFunctionSpec, sqrt_rule


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
