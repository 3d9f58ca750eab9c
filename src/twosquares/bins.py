"""Second-moment certificate machinery: bin partitions, the certificate
left-hand side evaluated pointwise and as its expansion in S1-S4 over the
same window arrays, witness search with exact two-squares certificates, and
the pigeonhole extraction of nested hit sequences from per-M witness rows.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .arith import is_sum_of_two_squares  # noqa: F401  (not called here; perfbench/tracer.py wraps it)
from .arith import on_shifts, two_squares_on
from .errors import ResourceGuardError, ValidationError
from .hooley import rho  # noqa: F401  (not called here; perfbench/tracer.py wraps bins.rho)
from .sieve import (
    AdmissibleTuple,
    SieveParams,
    TestFunctionSpec,
    WeightTable,
    inner_weights,
    s_direct,  # noqa: F401  (not called here; perfbench/tracer.py wraps bins.s_direct)
    s_term,
    window,
    window_rho,
)

# ---------------------------------------------------------------------------
# partitions and the certificate constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinPartition:
    """Partition of tuple indices {0..k-1} into consecutive bins.

    sizes[i] is k_i; bin i (zero-based) has beta_i = 2^-(i+1), so the
    first bin gets 1/2; mu and t are the certificate centre/width
    parameters, both required >= 1.
    """

    sizes: tuple[int, ...]
    mu: tuple[float, ...] = ()
    t: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValidationError("BinPartition: sizes must be positive")
        M = len(self.sizes)
        for name, vals in (("mu", self.mu), ("t", self.t)):
            if vals and (len(vals) != M or any(x < 1 for x in vals)):
                raise ValidationError(f"BinPartition: bad {name} (need >= 1, arity {M})")

    @property
    def M(self) -> int:
        return len(self.sizes)

    @property
    def k(self) -> int:
        return sum(self.sizes)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(2.0 ** -(i + 1) for i in range(self.M))

    def indices(self, i: int) -> range:
        lo = sum(self.sizes[:i])
        return range(lo, lo + self.sizes[i])

    def spec(self) -> TestFunctionSpec:
        return TestFunctionSpec(tuple(zip(self.sizes, self.betas)))


def theorem_constants(theta1: float, theta2: float) -> dict[str, float]:
    """Delta, c and the least admissible first-bin size.

    Delta = sqrt(2)(pi+2)/(32 pi) * (1+theta1)/sqrt(theta1 theta2)
    c     = 16 sqrt(theta2/(2 theta1))/pi * pi^2/(pi+2)
    k1_min = floor(2 Delta^3) + 1
    """
    if not 0 < theta1 + theta2 < 1 / 18 or theta1 <= 0 or theta2 <= 0:
        raise ValidationError("theorem_constants: need 0 < theta1 + theta2 < 1/18")
    delta = (
        math.sqrt(2) * (math.pi + 2) / (32 * math.pi) * (1 + theta1) / math.sqrt(theta1 * theta2)
    )
    c = 16 * math.sqrt(theta2 / (2 * theta1)) / math.pi * (math.pi**2 / (math.pi + 2))
    return {"Delta": delta, "c": c, "k1_min": int(2 * delta**3) + 1}


def default_mu_t(
    sizes: tuple[int, ...], theta1: float, theta2: float
) -> tuple[tuple[float, ...], tuple[float, ...], list[str]]:
    """mu_i = c (k_i/2^i)^(1/2), t_i = c (k_i/2^i)^(1/3), floored at 1 with a
    warning (the asymptotic regime always has them >= 1, desk scale may not)."""
    c = theorem_constants(theta1, theta2)["c"]
    mu, t, warnings = [], [], []
    for i, ki in enumerate(sizes, start=1):
        m = c * (ki / 2**i) ** 0.5
        tt = c * (ki / 2**i) ** (1 / 3)
        if m < 1 or tt < 1:
            warnings.append(f"bin {i}: mu={m:.3f}, t={tt:.3f} floored at 1")
        mu.append(max(m, 1.0))
        t.append(max(tt, 1.0))
    return tuple(mu), tuple(t), warnings


def feasibility_condition(
    sizes: tuple[int, ...], theta1: float, theta2: float
) -> dict[str, float | bool]:
    """The inequality Delta * sum_i (2^i/k_i)^(1/6) < (k_1/2)^(1/3)."""
    delta = theorem_constants(theta1, theta2)["Delta"]
    lhs = delta * sum((2**i / ki) ** (1 / 6) for i, ki in enumerate(sizes, start=1))
    rhs = (sizes[0] / 2) ** (1 / 3)
    return {"lhs": lhs, "rhs": rhs, "feasible": lhs < rhs, "Delta": delta}


def jakobson_tuple(i_max: int) -> AdmissibleTuple:
    """Shifts h_i = -(2*5^i)^2 for i = 1..i_max; admissible and 4 | h_i."""
    if i_max < 1:
        raise ValidationError("jakobson_tuple: i_max must be >= 1")
    return AdmissibleTuple(tuple(-((2 * 5**i) ** 2) for i in range(1, i_max + 1)))


# ---------------------------------------------------------------------------
# the second-moment left-hand side, pointwise and expanded
# ---------------------------------------------------------------------------


# tracemalloc peak per window point, for k = 1, 2, 3, 5 shifts at N = 10^5,
# 10^6, 10^7: 48-56, 56-64, 64-72 and 93 bytes, charged 80 + 16k (>= 1.7x)
CERTIFICATE_BYTES = (80, 16)


@dataclass(frozen=True)
class SecondMomentResult:
    lhs_direct: float
    lhs_assembled: float
    rel_difference: float
    components: dict
    rho_negative_count: int
    rho_negative_examples: tuple[int, ...]


def second_moment_lhs(
    params: SieveParams,
    tup: AdmissibleTuple,
    partition: BinPartition,
    table: WeightTable,
) -> SecondMomentResult:
    """Evaluate sum_n [min_j mu_j^2/t_j^2 - sum_i ((sum_{h in B_i} rho(n+h)
    - mu_i)/t_i)^2] w(n) pointwise (evaluator A) and by assembling
    min(mu^2/t^2) S1 - sum_i t_i^-2 [sum_{h != h'} S3 + sum_h S4
    - 2 mu_i sum_h S2 + mu_i^2 S1] from the S-sums (evaluator B).

    Both read the same w and the same rho array per shift, and B reduces
    them with s_direct's own sieve.s_term, so its components equal
    s_direct's bit for bit.  Their agreement checks the expansion algebra;
    the two floats should match to ~1e-12 relative.
    """
    if partition.k != tup.k:
        raise ValidationError("second_moment_lhs: partition arity != tuple size")
    if not partition.mu or not partition.t:
        raise ValidationError("second_moment_lhs: partition needs mu and t filled")
    mu, t = partition.mu, partition.t
    min_ratio = min(m * m / (tt * tt) for m, tt in zip(mu, t))

    ns = window(params, tup, 2 * params.N, CERTIFICATE_BYTES)
    w = inner_weights(tup, ns, table.float_entries(), np.float64)
    rhos, neg_count, neg_examples = window_rho(params, ns, w, tup.h)
    ww = w * w

    # evaluator A: the bracket at every window point
    bracket = np.full(len(ns), min_ratio)
    for i in range(partition.M):
        s = sum(rhos[j] for j in partition.indices(i))
        bracket -= ((s - mu[i]) / t[i]) ** 2
    lhs_a = float(np.sum(bracket * ww))

    # evaluator B: S1 = sum ww, S2 = sum ww rho_a, S3 = sum ww (rho_a rho_b),
    # S4 = sum ww (rho_a rho_a)
    s1 = float(ww.sum())
    comps: dict = {"S1": s1}
    lhs_b = min_ratio * s1
    for i in range(partition.M):
        idx = partition.indices(i)
        s3_sum = sum((s_term(ww, rhos[a], rhos[b]) for a in idx for b in idx if a != b), 0.0)
        s4_sum = sum(s_term(ww, rhos[a], rhos[a]) for a in idx)
        s2_sum = sum(s_term(ww, rhos[a]) for a in idx)
        comps[f"bin{i}"] = {"S3": s3_sum, "S4": s4_sum, "S2": s2_sum}
        lhs_b -= (s3_sum + s4_sum - 2 * mu[i] * s2_sum + mu[i] ** 2 * s1) / t[i] ** 2

    scale = max(abs(lhs_a), abs(lhs_b), 1e-30)
    return SecondMomentResult(
        lhs_a, lhs_b, abs(lhs_a - lhs_b) / scale, comps, neg_count, neg_examples
    )


# ---------------------------------------------------------------------------
# witness search and exact certificates
# ---------------------------------------------------------------------------


# tracemalloc peak per window point, for k = 1, 2, 3, 5 shifts in one bin
# (most hits) at N = 10^4 ... 10^7 and D0 = 1: 78 at 10^4, 44-69 from 10^5 on,
# 38-44 with bins (1, 2); charged 88 + 24k per point.  two_squares_on holds
# (x, y) per term, 16 bytes; below 2^13 lattice points its blocks outweigh
# them, hence the peak at 10^4.  Sparse windows (4 step^2 > n, as at D0 = 10
# below N = 705,600) hold 0.5-0.6 MB of walk and r2_on blocks whatever their
# size, so the charge has a fixed 1 MiB too: with it every window at D0 = 1
# (N = 10^4 ... 10^6), 10 (10^4, 10^5, 7 * 10^5) and 13 (10^8, 10^9) is
# charged 1.91x its peak or more
WITNESS_BYTES, WITNESS_FIXED_BYTES = (88, 24), 1 << 20

# n + h < 2^32 keeps a certificate's x <= 2^16, which verify_witness relies
# on: just below it, 10^5 (10^6) window points with shifts 0, 4, 16 list
# the 1.9 * 10^4 rows of their annulus in 8-11 ms (90-128 ms) in-process,
# and 0.25-0.35 s (0.34-0.39 s) as a CLI command on an Intel Xeon vCPU
WITNESS_LIMIT = 1 << 32


@dataclass(frozen=True, eq=False)
class Witnesses:
    """The n whose translates hit every bin, as read-only int64 columns:
    n (H,) increasing; accepted (H, M), accepted[j, i] the smallest shift h
    in bin i with n[j] + h a sum of two squares; certificates (H, M, 2), an
    exact (x, y) with x^2 + y^2 = n[j] + accepted[j, i].  len() is H."""

    n: np.ndarray
    accepted: np.ndarray
    certificates: np.ndarray

    def __post_init__(self):
        for name in ("n", "accepted", "certificates"):
            col = np.asarray(getattr(self, name), dtype=np.int64)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.n)


def verify_witness(found: Witnesses) -> bool:
    """Recheck every certificate at once, exactly: the shapes agree and
    x^2 + y^2 = n + h for every row and bin.  The int64 arithmetic cannot
    wrap: 0 <= y <= x <= 2^16 is checked first, so x^2 + y^2 <= 2^33, and
    with n >= 0 no int64 n + h is congruent to it mod 2^64 unless equal.
    An honest certificate passes that check since n + h < WITNESS_LIMIT."""
    n, h, xy = found.n, found.accepted, found.certificates
    if n.ndim != 1 or h.ndim != 2 or len(h) != len(n) or xy.shape != (*h.shape, 2):
        return False
    x, y = xy[..., 0], xy[..., 1]
    in_range = (n >= 0).all() and ((0 <= y) & (y <= x) & (x <= 1 << 16)).all()
    return bool(in_range and (x * x + y * y == n[:, None] + h).all())


def witness_search(
    params: SieveParams,
    tup: AdmissibleTuple,
    partition: BinPartition,
    n_limit: int,
) -> Witnesses:
    """Scan n in [N, n_limit), n = v0 (W), n = 1 (4); keep every n for
    which each bin holds at least one h with n + h a sum of two squares.

    One two_squares_on pass per on_shifts progression lists the lattice
    points of the n + h, never reading rho: n + h is a sum exactly where
    it has a point, and that least (x, y) is its certificate, which
    verify_witness rechecks.  Every n + h must lie below WITNESS_LIMIT,
    checked before the window's byte guard."""
    if partition.k != tup.k:
        raise ValidationError("witness_search: partition arity != tuple size")
    if (top := n_limit - 1 + max(tup.h)) >= WITNESS_LIMIT:
        raise ResourceGuardError("witness_search: n + h past WITNESS_LIMIT", f"n + h up to {top}")
    ns = window(params, tup, n_limit, (*WITNESS_BYTES, WITNESS_FIXED_BYTES))
    xy = on_shifts(two_squares_on, ns, tup.h)
    sos = np.stack([xy[h][:, 0] >= 0 for h in tup.h])
    blocks = [partition.indices(i) for i in range(partition.M)]
    hits = np.nonzero(np.logical_and.reduce([sos[b].any(axis=0) for b in blocks]))[0]
    # per bin, the position of its smallest shift h with n + h a sum of two squares
    first = np.stack([b.start + sos[b][:, hits].argmax(axis=0) for b in blocks], axis=1)
    certificates = np.empty((*first.shape, 2), dtype=np.int64)
    for a, h in enumerate(tup.h):
        j, i = np.nonzero(first == a)
        certificates[j, i] = xy[h][hits[j]]
    return Witnesses(ns.start + ns.step * hits, np.asarray(tup.h, dtype=np.int64)[first], certificates)


def witness_csv_rows(found: Witnesses) -> list[str]:
    """Export rows "n,bin,h,x,y" (one per accepted bin element)."""
    n, i = np.broadcast_arrays(found.n[:, None], np.arange(found.accepted.shape[1]))
    rows = np.dstack([n, i, found.accepted, found.certificates]).reshape(-1, 5).tolist()
    return ["n,bin,h,x,y", *(",".join(map(str, row)) for row in rows)]


# ---------------------------------------------------------------------------
# pigeonhole extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PigeonholeResult:
    a: tuple[int, ...]
    supporting_rows: tuple[tuple[int, ...], ...]  # per depth, surviving row ids
    depth: int


def pigeonhole_extract(rows: list[tuple[int, ...]]) -> PigeonholeResult:
    """Column-wise most-frequent-element selection over a truncated table of
    per-M witness tuples (row M has M entries).

    At column j only rows of length >= j participate; the most frequent
    value is chosen (smallest value on ties), rows disagreeing at column j
    are erased, and extraction stops when a column has no rows left."""
    alive = {i for i, r in enumerate(rows) if r}
    a: list[int] = []
    support: list[tuple[int, ...]] = []
    j = 0
    while True:
        here = [i for i in alive if len(rows[i]) > j]
        if not here:
            break
        counts = Counter(rows[i][j] for i in here)
        best = max(counts.values())
        choice = min(v for v, c in counts.items() if c == best)
        a.append(choice)
        for i in here:
            if rows[i][j] != choice:
                alive.discard(i)
        support.append(tuple(sorted(i for i in alive if len(rows[i]) > j)))
        j += 1
    return PigeonholeResult(tuple(a), tuple(support), len(a))
