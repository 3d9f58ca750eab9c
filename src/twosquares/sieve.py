"""The modified Maynard-Tao sieve at half dimension: parameters, admissible
tuples, weight tables, the direct sums S1..S4, their predicted main terms,
and the functional calculus for the product test functions.

Weights live over tuples (d_1..d_k) of squarefree integers coprime to W
whose prime factors are all 3 mod 4 and whose product is at most R.  The
lambda <-> y transform pair is kept in exact rational arithmetic so the
inversion roundtrip is an identity, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import product as iproduct
from typing import Callable, Iterable, Sequence

import numpy as np

from .arith import (
    crt,
    divisor_incidence,
    floor_power,
    multiplicative,
    on_shifts,
    primes_up_to,
    progression_slice,
    squarefree_table,
    trial_factorize,
    w_split,
)
from .constants import ConstantEstimate, landau_ramanujan_A
from .errors import ResourceGuardError, ValidationError, check_bytes
from .hooley import rho, rho_on  # noqa: F401  (rho: perfbench/tracer.py wraps sieve.rho)
from .report import CorrelationReport

# ---------------------------------------------------------------------------
# parameters and admissible tuples
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SieveParams:
    """N, theta1, theta2, D0 and the derived v, R, W = W1*W3.

    strict=True enforces 0 < theta1 + theta2 < 1/18 (the regime of the
    asymptotic statements).  Desk-scale runs need far larger exponents to
    make v and R non-trivial, so strict=False only requires structural
    sanity and records the violation in `warnings`.
    """

    N: int
    theta1: float
    theta2: float
    D0: int = 1
    strict: bool = True
    v: int = field(init=False)
    R: int = field(init=False)
    W: int = field(init=False)
    W1: int = field(init=False)
    W3: int = field(init=False)
    phi_W3: float = field(init=False)  # phi(W3)/W3
    warnings: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if self.N < 4:
            raise ValidationError(f"SieveParams: N={self.N} too small")
        if not (0 < self.theta1 < 1 and 0 < self.theta2 < 2):
            raise ValidationError(
                "SieveParams: need 0 < theta1 < 1 and 0 < theta2 < 2"
            )
        warnings: list[str] = []
        if self.theta1 + self.theta2 >= 1 / 18:
            msg = (
                f"theta1+theta2={self.theta1 + self.theta2:.4f} outside the "
                "asymptotic regime (0, 1/18)"
            )
            if self.strict:
                raise ValidationError(f"SieveParams: {msg}")
            warnings.append(msg)
        v = floor_power(self.N, self.theta1)
        r = math.isqrt(floor_power(self.N, self.theta2))
        if v < 2:
            raise ValidationError(f"SieveParams: derived v={v} < 2")
        w, w1, w3, _, phi_w3 = w_split(self.D0)
        derived = {"v": v, "R": r, "W": w, "W1": w1, "W3": w3, "phi_W3": phi_w3, "warnings": tuple(warnings)}
        for name, val in derived.items():
            object.__setattr__(self, name, val)


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Per-prime residue evidence: for each checked p, a residue class the
    tuple misses, or the prime whose classes it covers."""

    admissible: bool
    uncovered: dict[int, int]
    covering_prime: int | None = None


def check_admissible(h: Sequence[int]) -> AdmissibilityCertificate:
    """Scan primes p <= k: the tuple is admissible iff its residues never
    cover all of Z/p (automatic for p > k since only k residues exist)."""
    hs = sorted(set(h))
    if len(hs) != len(h):
        raise ValidationError("check_admissible: elements must be distinct")
    k = len(hs)
    uncovered: dict[int, int] = {}
    for p in primes_up_to(k).tolist():
        residues = {x % p for x in hs}
        if len(residues) == p:
            return AdmissibilityCertificate(False, uncovered, covering_prime=p)
        uncovered[p] = min(set(range(p)) - residues)
    return AdmissibilityCertificate(True, uncovered)


@dataclass(frozen=True)
class AdmissibleTuple:
    """One or more sorted distinct shifts, each divisible by 4, with residues
    mod every prime p <= k missing at least one class."""

    h: tuple[int, ...]

    def __post_init__(self):
        hs = tuple(sorted(self.h))
        if not hs:
            raise ValidationError("AdmissibleTuple: need at least one shift")
        if any(x % 4 != 0 for x in hs):
            raise ValidationError("AdmissibleTuple: every element must be divisible by 4")
        cert = check_admissible(hs)
        if not cert.admissible:
            raise ValidationError(
                f"AdmissibleTuple: residues cover Z/{cert.covering_prime}"
            )
        object.__setattr__(self, "h", hs)

    @property
    def k(self) -> int:
        return len(self.h)


def find_v0(params: SieveParams, tup: AdmissibleTuple) -> int:
    """Least v0 >= 0 with (v0 + h_i, W) = 1 for every shift; exists by
    admissibility (D0 large enough) plus CRT."""
    W = params.W
    for v0 in range(W):
        if all(math.gcd(v0 + h, W) == 1 for h in tup.h):
            return v0
    raise ValidationError(
        f"find_v0: no residue mod W={W} works; tuple not admissible for this D0"
    )


# ---------------------------------------------------------------------------
# test functions F = prod g(k_i t_j),  g(t) = 1/(1 + t/beta) on [0, beta]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunctionSpec:
    """Product-form test function on bins: bin i has k_i coordinates, each
    carrying g(k_i t) with g(t) = 1/(1+t/beta_i) truncated at t = beta_i,
    so each coordinate is supported on [0, beta_i/k_i]."""

    bins: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.bins:
            raise ValidationError("TestFunctionSpec: needs at least one bin")
        for ki, bi in self.bins:
            if ki < 1 or bi <= 0:
                raise ValidationError(f"TestFunctionSpec: bad bin ({ki}, {bi})")
        if sum(b for _, b in self.bins) > 1 + 1e-12:
            raise ValidationError("TestFunctionSpec: sum of betas exceeds 1")

    @property
    def k(self) -> int:
        return sum(ki for ki, _ in self.bins)

    def coordinate_bins(self) -> list[int]:
        return [i for i, (ki, _) in enumerate(self.bins) for _ in range(ki)]

    def caps(self) -> list[float]:
        """Per-coordinate support cap beta_i / k_i."""
        return [b / ki for ki, b in self.bins for _ in range(ki)]

    def evaluate(self, t: Sequence[float]) -> float:
        if len(t) != self.k:
            raise ValidationError("TestFunctionSpec.evaluate: wrong arity")
        out = 1.0
        for tj, i in zip(t, self.coordinate_bins()):
            ki, bi = self.bins[i]
            if ki * tj > bi or tj < 0:
                return 0.0
            out /= 1.0 + ki * tj / bi
        return out


def single_bin_spec(k: int, beta: float = 1.0) -> TestFunctionSpec:
    return TestFunctionSpec(((k, beta),))


# ---------------------------------------------------------------------------
# support enumeration and weight tables
# ---------------------------------------------------------------------------


# tracemalloc peak of the support table with W = 1, per element of 0.43 bound /
# sqrt(log bound): 127, 143, 158 and 158 bytes at bound = 10^5, 10^6, 10^7 and
# 3 * 10^7 (1,045,069 elements at 10^7, 0.4196 bound / sqrt(log bound));
# charged 240 (>= 1.51x) per element of that estimate plus 64, which stand for
# the fixed cost of the sort (about 8 KB)
SUPPORT_BYTES = 240


def _support(bound: int, W: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squarefree_table (a, mu(a), primes of a) of every squarefree
    a <= bound coprime to W whose primes are all 3 mod 4, ascending, so 1
    comes first.  A byte guard runs before the primes are sieved."""
    n_est = 0.43 * bound / math.sqrt(math.log(max(bound, 3))) + 64
    check_bytes("weight support", n_est * SUPPORT_BYTES, f"~{n_est:.2e} elements up to {bound}")
    return squarefree_table([p for p in primes_up_to(bound).tolist() if p % 4 == 3 and W % p], bound)


# tracemalloc peak of _support_maps per support element: 349, 525, 539, 561 and
# 523 bytes at bound 10^3, 10^4, 10^5, 10^6 and 3 * 10^6 (W = 1), 451 at 10^5
# with W = 105; charged 800 (>= 1.42x) per element plus 64 for the fixed ~9 KB
MAPS_BYTES = 800


def _charge_maps(vals: np.ndarray) -> None:
    """The byte guard of _support_maps on a support table's values; its
    callers run it before they build the maps."""
    check_bytes("support maps", (len(vals) + 64) * MAPS_BYTES, f"{len(vals)} support elements")


def _support_maps(vals: np.ndarray, mus: np.ndarray, P: np.ndarray) -> tuple[dict, dict, dict]:
    """mu, phi and the ascending divisors of every element of a support
    table, each a dict keyed by the element in ascending order."""
    elem, div = divisor_incidence(vals, P)
    flat = vals[div[np.lexsort((div, elem))]].tolist()
    ends = np.cumsum(np.bincount(elem)).tolist()
    keys = vals.tolist()
    phi = np.prod(np.where(P > 1, P - 1, 1), axis=1)
    divisors = {a: flat[lo:hi] for a, lo, hi in zip(keys, [0, *ends], ends)}
    return dict(zip(keys, mus.tolist())), dict(zip(keys, phi.tolist())), divisors


def enumerate_support(R: int, W: int = 1) -> list[int]:
    """Ascending squarefree n <= R, coprime to W, all prime factors 3 mod 4;
    1 is always included."""
    if R < 1:
        raise ValidationError(f"enumerate_support: R={R} < 1")
    return _support(R, W)[0].tolist()


@dataclass
class WeightTable:
    """lambda over divisor tuples and its diagonalising y-vector, both exact.

    entries[d] is nonzero only for d on the support (product <= R,
    squarefree, coprime to W, primes 3 mod 4); y_entries[r] holds the
    F-evaluation at (log r_i / log R) as an exact Fraction of the float.
    """

    k: int
    R: int
    W: int
    spec: TestFunctionSpec
    entries: dict[tuple[int, ...], Fraction]
    y_entries: dict[tuple[int, ...], Fraction]

    def float_entries(self) -> dict[tuple[int, ...], float]:
        return {d: float(v) for d, v in self.entries.items()}

    def common_denominator(self) -> int:
        return math.lcm(*(v.denominator for v in self.entries.values()))

    def export_rows(self) -> list[str]:
        """Text rows "d1,...,dk,num,den" for external inspection."""
        rows = []
        for d in sorted(self.entries):
            v = self.entries[d]
            rows.append(",".join(map(str, d)) + f",{v.numerator},{v.denominator}")
        return rows


def _support_tuples(
    support: list[int], k: int, R: int, caps_vals: list[int]
) -> Iterable[tuple[int, ...]]:
    """Tuples (r_1..r_k) from the support, pairwise coprime, product <= R,
    r_j <= caps_vals[j]."""

    tup: list[int] = [1] * k

    def rec(j: int, prod: int):
        if j == k:
            yield tuple(tup)
            return
        # support is ascending with 1 first; 1 always fits (caps >= 1)
        for val in support:
            if val > caps_vals[j] or prod * val > R:
                break
            if val > 1 and any(math.gcd(val, tup[i]) > 1 for i in range(j)):
                continue
            tup[j] = val
            yield from rec(j + 1, prod * val)
            tup[j] = 1

    yield from rec(0, 1)


def lambda_from_F(params: SieveParams, spec: TestFunctionSpec) -> WeightTable:
    """Weights lambda_d = (prod mu(d_i) d_i) * sum over r-tuples divisible by
    d of F(log r / log R) / prod phi(r_i), on the squarefree 3-mod-4 support.
    Only support elements up to the largest cap R^c can enter an r-tuple, so
    the support, and with it every phi, mu and divisor list, stops there.

    F evaluations are materialised as exact fractions of their float
    values, so everything downstream is exact rational arithmetic.
    """
    k = spec.k
    logR = math.log(params.R) if params.R > 1 else 1.0
    caps_vals = [
        min(params.R, int(math.floor(params.R**c * (1 + 1e-12)))) for c in spec.caps()
    ]
    support = _support(max(caps_vals), params.W)
    est = math.prod(max(1, int(np.searchsorted(support[0], cv, side="right"))) for cv in caps_vals)
    if est > 5e6:
        raise ResourceGuardError(
            f"lambda_from_F: ~{est:.2e} r-tuples exceed the 5e6 guard",
            cost_estimate=f"k={k}, |support up to the caps|={len(support[0])}",
        )

    _charge_maps(support[0])
    mu, phi, divisors = _support_maps(*support)
    y_entries: dict[tuple[int, ...], Fraction] = {}
    lam_tilde: dict[tuple[int, ...], Fraction] = {}
    for r in _support_tuples(list(mu), k, params.R, caps_vals):
        t = [math.log(ri) / logR if ri > 1 else 0.0 for ri in r]
        fval = spec.evaluate(t)
        if fval == 0.0:
            continue
        y_entries[r] = y = Fraction(fval)
        c = y / math.prod(phi[ri] for ri in r)
        for d in iproduct(*(divisors[ri] for ri in r)):
            lam_tilde[d] = lam_tilde.get(d, 0) + c

    entries: dict[tuple[int, ...], Fraction] = {}
    for d, val in lam_tilde.items():
        lam = math.prod(mu[di] * di for di in d) * val
        if lam != 0:
            entries[d] = lam
    return WeightTable(k, params.R, params.W, spec, entries, y_entries)


def y_from_lambda(table: WeightTable) -> dict[tuple[int, ...], Fraction]:
    """Recover y_r = (prod mu(r_i) phi(r_i)) sum_{d: r_i | d_i} lambda_d / prod d_i.
    Every key component must lie on the support; ValidationError otherwise."""
    support = _support(min(table.R, max(map(max, table.entries), default=1)), table.W)
    _charge_maps(support[0])
    mu, phi, divisors = _support_maps(*support)
    acc: dict[tuple[int, ...], Fraction] = {}
    for d, lam in table.entries.items():
        for di in d:
            if di not in mu:
                raise ValidationError(f"y_from_lambda: key component {di} of {d} is off the support")
        contrib = lam / math.prod(d)
        for r in iproduct(*(divisors[di] for di in d)):
            acc[r] = acc.get(r, 0) + contrib
    out: dict[tuple[int, ...], Fraction] = {}
    for r, val in acc.items():
        val *= math.prod(mu[ri] * phi[ri] for ri in r)
        if val != 0:
            out[r] = val
    return out


# ---------------------------------------------------------------------------
# functionals: closed forms (the base integrals below) and quadrature
# ---------------------------------------------------------------------------


@cache
def _legendre_nodes() -> tuple[np.ndarray, np.ndarray]:
    # built on first use: leggauss imports numpy.polynomial
    return np.polynomial.legendre.leggauss(48)


def sqrt_rule(cap: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with sum w f(x) = int_0^cap f(x) dx / sqrt(x):
    48-node Gauss-Legendre in u = sqrt(x) on [0, sqrt(cap)], where
    dx / sqrt(x) = 2 du.  Exact for f a polynomial of degree <= 47 in x;
    the analytic integrands here converge to machine precision."""
    c = math.sqrt(cap)
    xs, ws = _legendre_nodes()
    u = 0.5 * c * (xs + 1.0)
    return u * u, c * ws


def base_integral_sq(beta: float, k: int, method: str = "closed_form") -> float:
    """I2 = int_0^(beta/k) dt / (sqrt(t) (1 + kt/beta)^2) = (pi+2)/4 sqrt(beta/k)."""
    if method == "closed_form":
        return (math.pi + 2) / 4 * math.sqrt(beta / k)
    x, w = sqrt_rule(beta / k)
    return float(w @ (1.0 / (1.0 + k * x / beta) ** 2))


def base_integral_lin(beta: float, k: int, method: str = "closed_form") -> float:
    """I1 = int_0^(beta/k) dt / (sqrt(t) (1 + kt/beta)) = (pi/2) sqrt(beta/k)."""
    if method == "closed_form":
        return math.pi / 2 * math.sqrt(beta / k)
    x, w = sqrt_rule(beta / k)
    return float(w @ (1.0 / (1.0 + k * x / beta)))


def functional_value(
    spec: TestFunctionSpec,
    kind: str,
    method: str = "closed_form",
    m: int | None = None,
    l: int | None = None,
) -> float:
    """L (plain), L_m, or L_ml for the product test function.

    The support is a product of intervals, so each functional is a product
    of 1-D integrals: squared-g integrals everywhere, with coordinate m
    (and l) replaced by the square of the plain-g integral.  method
    "quadrature" recomputes the 1-D base integrals numerically (after the
    t = u^2 substitution that removes the 1/sqrt singularity) and
    assembles the same products.
    """
    if kind not in ("L", "L_m", "L_ml"):
        raise ValidationError(f"functional_value: unknown kind {kind!r}")
    cb = spec.coordinate_bins()
    if kind == "L_m" and m is None:
        raise ValidationError("functional_value: L_m needs m")
    if kind == "L_ml" and (m is None or l is None or m == l):
        raise ValidationError("functional_value: L_ml needs distinct m, l")
    special = {i for i in (m, l) if i is not None} if kind != "L" else set()
    for i in special:
        if not 0 <= i < spec.k:
            raise ValidationError(f"functional_value: coordinate {i} out of range")
    val = 1.0
    for j in range(spec.k):
        ki, bi = spec.bins[cb[j]]
        if j in special:
            val *= base_integral_lin(bi, ki, method) ** 2
        else:
            val *= base_integral_sq(bi, ki, method)
    return val


# ---------------------------------------------------------------------------
# normalisation constant and predicted sums
# ---------------------------------------------------------------------------


def b_constant(params: SieveParams, prime_bound: int = 10**6) -> ConstantEstimate:
    """B = (2A/pi) (phi(W3)/W3) sqrt(log R)."""
    A = landau_ramanujan_A(prime_bound)
    val = 2 * A.value / math.pi * params.phi_W3 * math.sqrt(math.log(params.R))
    return ConstantEstimate(
        val, 2 * A.truncation_bound, f"A truncated at {prime_bound}; R={params.R}"
    )


def s_predicted(
    which: str,
    params: SieveParams,
    tup: AdmissibleTuple,
    spec: TestFunctionSpec,
    m: int = 0,
    l: int = 1,
    prime_bound: int = 10**6,
) -> float:
    """Predicted main terms of the four sieve sums.

    S1 = B^k N/(4W) L_k;            S2 = 4 sqrt(logR/logv) B^k N/(pi W) L_m;
    S3 = 64 (logR/logv) B^k N/(pi^2 W) L_ml;
    S4 = 2 sqrt(logR/logv)(logN/logv + 1) B^k N/(pi W) L_m.
    log N is the window anchor.  Functionals are non-zero for this product
    family by construction.
    """
    k = tup.k
    if spec.k != k:
        raise ValidationError("s_predicted: spec arity != tuple size")
    B = b_constant(params, prime_bound).value
    N, W = params.N, params.W
    logR, logv = math.log(params.R), math.log(params.v)
    if which == "S1":
        L = functional_value(spec, "L")
        return B**k * N / (4 * W) * L
    if which == "S2":
        L = functional_value(spec, "L_m", m=m)
        return 4 * math.sqrt(logR / logv) * B**k * N / (math.pi * W) * L
    if which == "S3":
        L = functional_value(spec, "L_ml", m=m, l=l)
        return 64 * (logR / logv) * B**k * N / (math.pi**2 * W) * L
    if which == "S4":
        L = functional_value(spec, "L_m", m=m)
        return 2 * math.sqrt(logR / logv) * (math.log(N) / logv + 1) * B**k * N / (math.pi * W) * L
    raise ValidationError(f"s_predicted: unknown sum {which!r}")


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SieveSumResult:
    value: float
    exact: Fraction | None
    n_terms: int
    rho_negative_count: int
    rho_negative_examples: tuple[int, ...]


def window(params: SieveParams, tup: AdmissibleTuple, end: int, cost: tuple[int, ...]) -> range:
    """n in [N, end) with n = v0 (mod W) and n = 1 (mod 4) (W is odd), after
    a byte guard for the scan over it, which names its own peak cost: a
    bytes per point plus b per point and shift, for cost = (a, b), and c
    more bytes once for cost = (a, b, c).  A non-empty window whose least
    n + h is below 1 is a ValidationError."""
    r, mod = crt([find_v0(params, tup), 1], [params.W, 4])
    ns = range(params.N + (r - params.N) % mod, end, mod)
    if ns and ns.start + min(tup.h) < 1:
        raise ValidationError(f"window: n + h = {ns.start + min(tup.h)} < 1 at N = {params.N}, shift h = {min(tup.h)}")
    a, b, *fixed = cost
    need = sum(fixed) + len(ns) * (a + tup.k * b)
    check_bytes("window scan", need, f"{len(ns)} points x {tup.k} shifts")
    return ns


def inner_weights(tup: AdmissibleTuple, ns: range, values: dict, dtype) -> np.ndarray:
    """sum of values[d] over the d with d_i | n + h_i for every i, at each n
    of the window ns.  Each d goes onto the one sub-progression that its
    congruences cut out of ns, in lexicographic order of d.  dtype float64
    takes float weights; dtype object takes Python ints and stays exact."""
    w = np.zeros(len(ns), dtype=dtype)
    neg_h = [-h for h in tup.h]
    for d in sorted(values):
        hits = progression_slice(ns, neg_h, d)
        if hits is not None:
            w[hits] += values[d]
    return w


def window_rho(
    params: SieveParams, ns: range, w: np.ndarray, hs: Sequence[int]
) -> tuple[list[np.ndarray], int, tuple[int, ...]]:
    """rho(n + h) on the window ns for each shift h in hs, as views of one
    rho_on call per on_shifts span, with the rho < 0 cases: their count,
    once per (n, h) with w(n) != 0, and the first ten n + h in (n, h) order."""
    rho_at = on_shifts(partial(rho_on, params.v), ns, hs)
    rhos = [rho_at[h] for h in hs]
    return rhos, *_rho_negatives(ns, w, hs, rhos)


def _rho_negatives(
    ns: range, w: np.ndarray, hs: Sequence[int], rhos: Sequence[np.ndarray]
) -> tuple[int, tuple[int, ...]]:
    rows, cols = np.nonzero((np.stack(rhos, axis=1) < 0) & (w != 0)[:, None])
    examples = tuple(ns[r] + hs[c] for r, c in zip(rows[:10].tolist(), cols[:10].tolist()))
    return len(rows), examples


# tracemalloc peak per window point, for k = 1, 2, 3, 5 shifts at N = 10^5,
# 10^6, 10^7: S1-S4 in floats hold 16-56 bytes, charged 80.  Exact S1 holds
# w and w^2 as Python ints of about b and 2b bits, b the bits of the common
# denominator: 89-401 bytes for b = 52-823, charged 96 + b/2 (>= 1.26x).
SUM_BYTES, EXACT_S1_BYTES = 80, 96


def s_direct(
    which: str,
    params: SieveParams,
    tup: AdmissibleTuple,
    table: WeightTable,
    m: int = 0,
    l: int = 1,
    exact: bool = False,
) -> SieveSumResult:
    """Direct window sums: over n in [N, 2N), n = v0 (W), n = 1 (4), the
    squared inner weight (sum of lambda over divisor tuples of n + h_i)
    times 1 / rho(n+h_m) / rho(n+h_m) rho(n+h_l) / rho^2(n+h_m).

    exact=True (S1 only) accumulates in integers scaled by the common
    lambda denominator, so two independent evaluators can be compared
    bit-for-bit.
    """
    if not exact:
        return s_direct_sums([which], params, tup, table, m=m, l=l)[0]
    if which != "S1":
        raise ValidationError("s_direct: exact mode is defined for S1 only")
    if table.k != tup.k:
        raise ValidationError("s_direct: table arity != tuple size")
    den = table.common_denominator()
    ns = window(params, tup, 2 * params.N, (EXACT_S1_BYTES + den.bit_length() // 2, 0))
    w = inner_weights(tup, ns, {d: int(v * den) for d, v in table.entries.items()}, object)
    frac = Fraction(int((w * w).sum()), den * den)
    return SieveSumResult(float(frac), frac, len(ns), 0, ())


def s_direct_sums(
    which: Sequence[str],
    params: SieveParams,
    tup: AdmissibleTuple,
    table: WeightTable,
    m: int = 0,
    l: int = 1,
) -> list[SieveSumResult]:
    """s_direct's float sums for every name in which, in that order, from
    one window, one inner weight array and rho at each shift that the sums
    read (h_m, and h_l for S3), one rho_on call per on_shifts span; S1
    alone reads no rho."""
    for name in which:
        if name not in ("S1", "S2", "S3", "S4"):
            raise ValidationError(f"s_direct: unknown sum {name!r}")
        if name != "S1" and not 0 <= m < tup.k:
            raise ValidationError(f"s_direct: {name} needs 0 <= m < k = {tup.k}, got m = {m}")
        if name == "S3" and not (0 <= l < tup.k and l != m):
            raise ValidationError(f"s_direct: S3 needs 0 <= l < k = {tup.k} and l != m, got l = {l}")
    if table.k != tup.k:
        raise ValidationError("s_direct: table arity != tuple size")

    ns = window(params, tup, 2 * params.N, (SUM_BYTES, 0))
    w = inner_weights(tup, ns, table.float_entries(), np.float64)
    ww = w * w
    shifts = {name: [tup.h[m], tup.h[l]] if name == "S3" else [tup.h[m]] for name in which if name != "S1"}
    rho_at = on_shifts(partial(rho_on, params.v), ns, [h for hs in shifts.values() for h in hs])
    out = []
    for name in which:
        if name == "S1":
            out.append(SieveSumResult(float(ww.sum()), None, len(ns), 0, ()))
            continue
        rhos = [rho_at[h] for h in shifts[name]]
        negatives = _rho_negatives(ns, w, shifts[name], rhos)
        # S2: rho_m; S3: rho_m rho_l; S4: rho_m^2
        total = s_term(ww, rhos[0], None if name == "S2" else rhos[-1])
        out.append(SieveSumResult(total, None, len(ns), *negatives))
    return out


def s_term(ww: np.ndarray, rho_a: np.ndarray, rho_b: np.ndarray | None = None) -> float:
    """The S-sum reduction over a window: sum ww rho_a (S2), or sum ww
    (rho_a rho_b), which is S3 for two shifts and S4 for rho_b = rho_a."""
    return float((ww * (rho_a if rho_b is None else rho_a * rho_b)).sum())


def _inverse_mod(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a^-1 mod m per row (gcd 1): extended Euclid on the rows not yet done."""
    out, rows = np.empty_like(a), np.arange(len(a))
    r0, r1, s0, s1 = m, a % m, np.zeros_like(a), np.ones_like(a)
    while len(rows):
        done = r1 == 0
        out[rows[done]] = s0[done]
        rows, r0, r1, s0, s1 = [v[~done] for v in (rows, r0, r1, s0, s1)]
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return out % m


# pairs per block (small: freed blocks stay resident, and 2^15 raised the tables
# benchmark's peak RSS by 1 MB), and bytes charged per pair of b-bit weights on one
# row more than a block, for the per-key data: >= 1.33x tracemalloc at 48-6000 keys
PAIR_BLOCK, PAIR_BYTES = 1 << 12, 256


def s1_pair_expansion(
    params: SieveParams, tup: AdmissibleTuple, table: WeightTable
) -> tuple[Fraction, int]:
    """Independent S1 evaluator over lambda_d lambda_e pairs.  Key d holds the
    class c_d mod M_d = 4W prod d_i of its congruences; a pair counts the n in
    [N, 2N) where its two classes meet, if they do (gcd(M_d, M_e) | c_e - c_d).
    Only the keys whose class has an n in [N, 2N) are paired.  Pairs run as
    int64 arrays, exact while 2N + max(M_d)^2 < 2^63 (checked up front over
    every key); the sum of scaled_d scaled_e count is in Python ints.  Nothing
    here reads the scan's inner weights or progression slices, so agreeing with
    s_direct(exact=True) checks both.  Returns (exact value, numerator over
    the squared common denominator), bit-comparable with s_direct's exact path.
    """
    v0, den, N = find_v0(params, tup), table.common_denominator(), params.N
    cls = [crt([v0, 1, *(-h for h in tup.h)], [params.W, 4, *d]) for d in table.entries]
    keys = [(sol, int(v * den)) for sol, v in zip(cls, table.entries.values()) if sol]
    top = 2 * N + max((sol[1] for sol, _ in keys), default=1) ** 2
    if top >= 1 << 63:
        raise ResourceGuardError("s1_pair_expansion: int64 overflow", f"2N + max(M)^2 = {top:.2e}")
    # a pair counts no more n than either of its classes, so a key with none in [N, 2N) adds 0
    keys = [((c, M), s) for (c, M), s in keys if (N - 1 - c) // M < (2 * N - 1 - c) // M]
    size, bits = len(keys), max((abs(s) for _, s in keys), default=0).bit_length()
    rows = max(1, min(size, PAIR_BLOCK // max(size, 1)))
    need = (rows + 1) * size * (PAIR_BYTES + 3 * bits // 4)
    check_bytes("s1_pair_expansion", need, f"{rows} x {size} pairs per block, {bits}-bit weights")
    c, M = np.array([sol for sol, _ in keys], dtype=np.int64).reshape(-1, 2).T
    sc, total = np.array([s for _, s in keys], dtype=object), 0
    for a in range(0, size, rows):
        # the pairs (i, j), j >= i, of the rows a .. a + rows - 1, where the classes meet
        I, J = np.nonzero(np.arange(a, min(a + rows, size))[:, None] <= np.arange(size))
        I += a
        g = np.gcd(M[I], M[J])
        meet = (c[J] - c[I]) % g == 0
        I, J, g = I[meet], J[meet], g[meet]
        m1, m2 = M[I] // g, M[J] // g
        # x = c_i + M_i t is in both classes, so its class mod L = m1 M_j is the meet
        x = c[I] + M[I] * ((c[J] - c[I]) // g % m2 * _inverse_mod(m1, m2) % m2)
        L = m1 * M[J]
        cnt = (2 * N - 1 - x) // L - (N - 1 - x) // L
        I, J, cnt = I[cnt != 0], J[cnt != 0], cnt[cnt != 0]
        total += int((sc[I] * sc[J] * np.where(I == J, cnt, 2 * cnt)).sum())
    return Fraction(total, den * den), total


# ---------------------------------------------------------------------------
# technical sum and singular series checks
# ---------------------------------------------------------------------------


def tech_sum_check(
    params: SieveParams,
    f_rule: Callable[[int], Fraction],
    G: Callable[[float], float],
    prime_bound: int = 10**6,
) -> CorrelationReport:
    """Direct sum over the support of mu^2(d) f(d) G(log d / log R) against
    the predicted B * int_0^1 G(x) dx/sqrt(x)."""
    logR = math.log(params.R) if params.R > 1 else 1.0
    total = 0.0
    vals, _, P = _support(params.R, params.W)
    for dd, ps in zip(vals.tolist(), P.tolist()):
        total += float(multiplicative(f_rule, ps)) * G(math.log(dd) / logR if dd > 1 else 0.0)
    B = b_constant(params, prime_bound).value
    x, w = sqrt_rule(1.0)
    pred = B * float(w @ np.array([G(xi) for xi in x.tolist()]))
    return CorrelationReport(
        "tech_sum",
        total,
        pred,
        params.R,
        {"W": params.W, "R": params.R},
    )


def c_gamma_check(
    params: SieveParams,
    alpha_rule: Callable[[int], float] | None = None,
    prime_bound: int = 10**6,
) -> dict:
    """Singular product c_gamma for gamma(p) = 1 + alpha(p) on p coprime to
    W with p = 3 mod 4 (0 elsewhere), against the closed form
    A/sqrt(L(1,chi4)) * phi(W3)/W3.

    The infinite product prod (1 - gamma(p)/p)^(-1) (1 - 1/p)^(1/2) only
    converges conditionally prime-by-prime, so the truncation regroups each
    factor against (1 - chi4(p)/p)^(-1/2) and multiplies by the exactly
    known L(1,chi4)^(-1/2) = (pi/4)^(-1/2); the regrouped factors are
    1 + O(p^-2) and the partial products converge absolutely.
    """
    ps = primes_up_to(prime_bound)
    chi = np.where(ps % 4 == 1, 1.0, -1.0)
    chi[ps == 2] = 0.0
    on = np.flatnonzero((ps % 4 == 3) & (ps > params.D0))  # W3 holds the primes 3 mod 4 up to D0
    gamma = np.zeros(len(ps))
    gamma[on] = 1.0 if alpha_rule is None else [1.0 + alpha_rule(p) for p in ps[on].tolist()]
    terms = -np.log1p(-gamma / ps) + 0.5 * np.log1p(-1.0 / ps) - 0.5 * np.log1p(-chi / ps)
    truncated = math.exp(-0.5 * math.log(math.pi / 4.0) + float(terms.sum()))
    A = landau_ramanujan_A(prime_bound).value
    closed = A / math.sqrt(math.pi / 4.0) * params.phi_W3
    return {
        "truncated": ConstantEstimate(
            truncated,
            truncated * 3.0 / prime_bound,
            f"regrouped Euler product, p <= {prime_bound}",
        ),
        "closed_form": closed,
        "slack": abs(truncated - closed),
        "D0": params.D0,
    }


# ---------------------------------------------------------------------------
# the general two-sided sieve sum S_{J,p1,p2,m}
# ---------------------------------------------------------------------------


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
