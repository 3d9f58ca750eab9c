"""Sphere-shell eigenfunction families on flat tori and their Fourier data.

A family is a finite set of frequency vectors xi on the shell |xi|^2 = M
with squared amplitudes kept as exact fractions; the normalisation
sum |a_xi|^2 = 1 is checked exactly at build time.  b_tau(k) sums
a_xi a_eta over difference pairs xi - eta = tau; when every contributing
pair shares a j-class the value is an exact rational (like square roots
multiply out), otherwise it falls back to floats.

b_tau(family, tau) is the scalar oracle for one tau.  all_btau(family)
computes every non-zero b_tau at once with a numpy pair-class kernel and
returns a columnar BTauTable (tau rows, values, a mixed-class mask, the
same-class pair counts); a lookup builds one FourierCoefficient, its exact
part summed in Fractions on demand.  A byte guard rejects a family up
front when the kernel's estimated peak memory exceeds BTAU_BYTE_BUDGET.
Each family builds its table once (CoefficientFamily.btau_table), and the
partial Fourier-mass sums share it.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .arith import rd_bruteforce
from .errors import InternalError, ResourceGuardError, ValidationError
from .bins import two_square_decomposition

# ---------------------------------------------------------------------------
# shells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereShell:
    n: int
    d: int
    points: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4096)
def _shell_points(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    point = [0] * d

    def rec(j: int, rem: int) -> None:
        if j == d - 1:
            r = math.isqrt(rem)
            if r * r == rem:
                for x in {-r, r}:
                    point[j] = x
                    out.append(tuple(point))
            return
        r = math.isqrt(rem)
        for x in range(-r, r + 1):
            point[j] = x
            rec(j + 1, rem - x * x)

    rec(0, n)
    return tuple(sorted(out))


def enumerate_shell(n: int, d: int, *, max_dim: int = 6, max_n: int = 10**6) -> SphereShell:
    """All xi in Z^d with |xi|^2 = n, lexicographically sorted (cached)."""
    if n < 0 or d < 1:
        raise ValidationError("enumerate_shell: need n >= 0, d >= 1")
    if d > max_dim or n > max_n:
        raise ResourceGuardError(
            f"enumerate_shell guard: d={d} (max {max_dim}), n={n} (max {max_n})",
            cost_estimate=f"~n^(d/2) = {float(max(n, 1)) ** (d / 2):.2e} points",
        )
    return SphereShell(n, d, _shell_points(n, d))


def decompose_Mk(M: int, a_list: Sequence[int]) -> list[tuple[int, int]]:
    """Per j the lexicographically least (b, c), b >= c >= 0, with
    M - a_j^2 = b^2 + c^2; raises naming the failing j if none exists."""
    out = []
    for j, a in enumerate(a_list, start=1):
        rem = M - a * a
        if rem < 0:
            raise ValidationError(f"decompose_Mk: M - a_{j}^2 = {rem} < 0")
        bc = two_square_decomposition(rem)
        if bc is None:
            raise ValidationError(
                f"decompose_Mk: M - a_{j}^2 = {rem} is not a sum of two squares"
            )
        out.append(bc)
    return out


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyInputs:
    """Data for one family: truncation level k, shell radius-squared M,
    the distinct a_j (at least k of them), the ambient dimension, and
    optionally precomputed decompositions M - a_j^2 = b_j^2 + c_j^2."""

    k: int
    M: int
    a: tuple[int, ...]
    d: int = 3
    bc: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class CoefficientFamily:
    rule: str
    k: int
    d: int
    M: int
    support: dict[tuple[int, ...], tuple[int, Fraction]]  # xi -> (j, amp^2)

    def amplitude_sq_total(self) -> Fraction:
        return sum((a2 for _, a2 in self.support.values()), Fraction(0))

    @cached_property
    def btau_table(self) -> "BTauTable":
        """all_btau(self), built once and shared by the partial sums."""
        return all_btau(self)


@dataclass(frozen=True)
class FourierCoefficient:
    tau: tuple[int, ...]
    value: float
    exact: Fraction | None  # set when every contributing pair shares a j


_RULES = ("main", "ql_i", "ql_ii")


def build_family(rule: str, inputs: FamilyInputs) -> CoefficientFamily:
    """Assemble the coefficient family for one of the three rules.

    main  (d=3):  a_xi = sqrt(2^k/(2^k-1)) 2^(-(j+1)/2)      on (+-a_j, b_j, c_j)
    ql_i  (d=4):  a_xi = sqrt(2^k/(2^k-1)) (2^j r_2(a_j^2))^(-1/2)
                  on (X, Y, b_j, c_j), X^2+Y^2 = a_j^2
    ql_ii (d>=5): a_xi = sqrt(2^k/(2^k-1)) (2^j r_{d-2}(a_j^2))^(-1/2)
                  on (X_1..X_{d-2}, b_j, c_j), sum X^2 = a_j^2

    The prefactor 2^k/(2^k-1) makes sum |a_xi|^2 a geometric series summing
    to exactly 1; that is verified, not assumed.
    """
    if rule not in _RULES:
        raise ValidationError(f"build_family: unknown rule {rule!r}")
    k, M = inputs.k, inputs.M
    if k < 1:
        raise ValidationError("build_family: k >= 1")
    a = inputs.a[:k]
    if len(a) < k or len(set(a)) != len(a) or any(x <= 0 for x in a):
        raise ValidationError("build_family: need k distinct positive a_j")
    d = {"main": 3, "ql_i": 4}.get(rule, inputs.d)
    if rule == "ql_ii" and d < 5:
        raise ValidationError("build_family: ql_ii needs d >= 5")
    bc = list(inputs.bc[:k]) if inputs.bc else decompose_Mk(M, a)
    for j, (aj, (b, c)) in enumerate(zip(a, bc), start=1):
        if aj * aj + b * b + c * c != M:
            raise ValidationError(f"build_family: decomposition for j={j} misses M")

    pref = Fraction(2**k, 2**k - 1)
    support: dict[tuple[int, ...], tuple[int, Fraction]] = {}

    def put(xi: tuple[int, ...], j: int, amp2: Fraction) -> None:
        if xi in support:
            raise InternalError(f"build_family: support collision at {xi}")
        support[xi] = (j, amp2)

    for j, (aj, (b, c)) in enumerate(zip(a, bc), start=1):
        if rule == "main":
            amp2 = pref / 2 ** (j + 1)
            put((aj, b, c), j, amp2)
            put((-aj, b, c), j, amp2)
        else:
            dim = 2 if rule == "ql_i" else d - 2
            shell = enumerate_shell(aj * aj, dim)
            r = len(shell.points)
            if r == 0:
                raise ValidationError(f"build_family: r_{dim}(a_{j}^2) = 0")
            amp2 = pref / (2**j * r)
            for head in shell.points:
                put(head + (b, c), j, amp2)

    fam = CoefficientFamily(rule, k, d, M, support)
    total = fam.amplitude_sq_total()
    if total != 1:
        raise InternalError(f"build_family: normalisation sum is {total}, not 1")
    for xi in support:
        if sum(x * x for x in xi) != M:
            raise InternalError(f"build_family: {xi} off the shell")
    return fam


def embed(family: CoefficientFamily, extra_dims: int) -> CoefficientFamily:
    """Zero-pad every frequency vector into d + extra_dims dimensions."""
    if extra_dims < 0:
        raise ValidationError("embed: extra_dims >= 0")
    pad = (0,) * extra_dims
    support = {xi + pad: val for xi, val in family.support.items()}
    return CoefficientFamily(family.rule, family.k, family.d + extra_dims, family.M, support)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------


def b_tau(family: CoefficientFamily, tau: Sequence[int]) -> FourierCoefficient:
    """b_tau = sum over support pairs xi - eta = tau of a_xi a_eta.

    Same-j pairs contribute the exact rational amp^2; cross-j pairs force a
    float square root and drop the exact path.
    """
    tau = tuple(tau)
    if len(tau) != family.d:
        raise ValidationError("b_tau: tau arity != family dimension")
    rat = Fraction(0)
    flo = 0.0
    rational_ok = True
    for xi, (j, a2) in family.support.items():
        eta = tuple(x - t for x, t in zip(xi, tau))
        got = family.support.get(eta)
        if got is None:
            continue
        j2, b2 = got
        if j == j2:
            rat += a2  # a_xi = a_eta within a class: product is exactly amp^2
        else:
            rational_ok = False
            flo += math.sqrt(float(a2) * float(b2))
    value = float(rat) + flo
    return FourierCoefficient(tau, value, rat if rational_ok else None)


# ---------------------------------------------------------------------------
# the b_tau table: a pair-class kernel
# ---------------------------------------------------------------------------

_BLOCK_PAIRS = 1 << 21  # difference rows the kernel takes per block
BTAU_BYTE_BUDGET = 1 << 31  # peak bytes all_btau may plan for
_WORD = 1 << 63  # packed keys are int64


class BTauTable(Mapping):
    """Every non-zero b_tau of one family, held in columns.

    taus        int64 (n_tau, d), rows in lexicographic order
    values      float64 b_tau, aligned with taus
    mixed       True where a cross-class pair contributes; exact is None there
    same_row, same_class, same_count
                the same-class counts: entry e adds same_count[e] pairs of
                class classes[same_class[e]] to tau row same_row[e]
    classes     the distinct (j, amp^2) support values

    A lookup builds the tau's FourierCoefficient on demand; its exact part
    is summed in Fractions, so no exact numerator passes through int64.
    """

    def __init__(self, taus, values, mixed, same_row, same_class, same_count, classes):
        for arr in (taus, values, mixed, same_row, same_class, same_count):
            arr.flags.writeable = False
        self.taus, self.values, self.mixed = taus, values, mixed
        self.same_row, self.same_class, self.same_count = same_row, same_class, same_count
        self.classes = classes

    def __len__(self) -> int:
        return len(self.taus)

    def __iter__(self):
        return map(tuple, self.taus.tolist())

    def __getitem__(self, tau: Sequence[int]) -> FourierCoefficient:
        tau = tuple(tau)
        row = self._row(tau)
        exact = None
        if not self.mixed[row]:
            lo, hi = np.searchsorted(self.same_row, (row, row + 1))
            pairs = zip(self.same_class[lo:hi].tolist(), self.same_count[lo:hi].tolist())
            exact = sum((self.classes[c][1] * n for c, n in pairs), Fraction(0))
        return FourierCoefficient(tau, float(self.values[row]), exact)

    def _row(self, tau: tuple[int, ...]) -> int:
        """Binary search column by column through the sorted rows."""
        if len(tau) != self.taus.shape[1]:
            raise KeyError(tau)
        lo, hi = 0, len(self.taus)
        for col, t in enumerate(tau):
            column = self.taus[lo:hi, col]
            lo, hi = lo + int(np.searchsorted(column, t)), lo + int(np.searchsorted(column, t, "right"))
            if lo == hi:
                raise KeyError(tau)
        return lo


def _pack(radices: list[int]) -> list[list[tuple[int, int, int]]]:
    """Split mixed-radix digits, most significant first, into int64 words:
    per word a list of (digit, multiplier, radix), each word's range < 2^63."""
    words: list[list[tuple[int, int]]] = [[]]
    room = _WORD
    for digit, radix in enumerate(radices):
        if radix >= _WORD:
            raise ResourceGuardError(
                "all_btau: a coordinate range does not fit int64",
                cost_estimate=f"digit radix {radix}",
            )
        if radix > room:
            words.append([])
            room = _WORD
        room //= radix
        words[-1].append((digit, radix))
    return [
        [(digit, math.prod(r for _, r in word[pos + 1 :]), radix) for pos, (digit, radix) in enumerate(word)]
        for word in words
    ]


def _kernel_bytes(n: int, d: int, n_words: int) -> int:
    """Peak bytes of the pair kernel on n support points: one block of
    difference keys with its sort, plus the distinct-key arrays (at most
    one entry per pair) with their merge copies and decoded columns."""
    block = min(n * n, max(n, _BLOCK_PAIRS))
    return 8 * (block * (2 * n_words + 2) + n * n * (3 * n_words + 2 * d + 8))


def _distinct(keys: list[np.ndarray], counts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Sort (keys, counts) rows by key and sum the counts of equal keys."""
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    counts = counts[order]
    new = np.zeros(len(counts), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    start = np.flatnonzero(new)
    return [k[start] for k in keys], np.add.reduceat(counts, start)


def _same_floats(row, cls, count, classes, n_points: int, n_tau: int) -> np.ndarray:
    """float(sum_c n_cc amp^2_c) per tau row, correctly rounded.

    Over one common denominator L the numerators are integers; while they
    and L stay below 2^53 they are exact in float64 and one division
    rounds correctly, else the sums run in Python ints."""
    L = math.lcm(*(a2.denominator for _, a2 in classes))
    m = [a2.numerator * (L // a2.denominator) for _, a2 in classes]
    if L < 2**53 and max(map(abs, m), default=0) * n_points < 2**53:  # a point pairs once per tau
        weights = count * np.array(m, dtype=np.float64)[cls]
        return np.bincount(row, weights=weights, minlength=n_tau) / L
    num = [0] * n_tau
    for r, c, n in zip(row.tolist(), cls.tolist(), count.tolist()):
        num[r] += n * m[c]
    return np.array([x / L for x in num], dtype=np.float64)


def all_btau(family: CoefficientFamily) -> BTauTable:
    """Every non-zero b_tau of the family, by a pair-class kernel.

    b_tau depends on the family only through n_cc'(tau), the number of
    support pairs xi - eta = tau with xi in class c and eta in class c'
    (a class is one (j, amp^2) value).  Each pair is one int64 key per
    word, the mixed-radix digits (tau_1..tau_d, c, c'), whose ranges are
    checked in exact integers before packing.  Rows are taken in blocks,
    each block is reduced to distinct keys with counts and merged, so
    memory follows the distinct keys, not n^2 d.  A guard rejects the
    family up front when the kernel's peak bytes exceed BTAU_BYTE_BUDGET.
    """
    n, d = len(family.support), family.d
    vals = [(j, a2.numerator, a2.denominator) for j, a2 in family.support.values()]
    index = {val: c for c, val in enumerate(sorted(set(vals)))}
    classes = tuple((j, Fraction(num, den)) for j, num, den in index)
    try:
        pts = np.array(list(family.support), dtype=np.int64).reshape(n, d)
    except OverflowError:
        raise ResourceGuardError(
            "all_btau: support coordinates do not fit int64", cost_estimate="unbounded"
        ) from None
    cls = np.array([index[val] for val in vals], dtype=np.int64)
    lo = pts.min(0).tolist() if n else [0] * d
    span = [h - l for h, l in zip(pts.max(0).tolist(), lo)] if n else [0] * d
    words = _pack([2 * s + 1 for s in span] + [max(len(classes), 1)] * 2)
    need = _kernel_bytes(n, d, len(words))
    if need > BTAU_BYTE_BUDGET:
        raise ResourceGuardError(
            "all_btau: pair kernel over the byte budget",
            cost_estimate=f"{need:.2e} bytes peak for {n} support points "
            f"(budget {BTAU_BYTE_BUDGET:.2e} bytes)",
        )

    # key(xi, eta) = u[xi] + v[eta] per word: each digit is linear in the pair
    halves = []
    for word in words:
        u = np.zeros(n, dtype=np.int64)
        v = np.zeros(n, dtype=np.int64)
        for digit, mult, _ in word:
            if digit < d:
                off = pts[:, digit] - lo[digit]
                u += (off + span[digit]) * mult
                v -= off * mult
            elif digit == d:
                u += cls * mult
            else:
                v += cls * mult
        halves.append((u, v))
    keys, counts = [np.empty(0, dtype=np.int64) for _ in words], np.empty(0, dtype=np.int64)
    rows = max(1, _BLOCK_PAIRS // max(n, 1))
    for start in range(0, n, rows):
        block = [(u[start : start + rows, None] + v[None, :]).ravel() for u, v in halves]
        bkeys, bcounts = _distinct(block, np.ones(len(block[0]), dtype=np.int64))
        if counts.size:
            bkeys, bcounts = _distinct(
                [np.concatenate(pair) for pair in zip(keys, bkeys)],
                np.concatenate((counts, bcounts)),
            )
        keys, counts = bkeys, bcounts

    def decode(i: int) -> np.ndarray:
        """Digit i of every distinct key, one column at a time."""
        for word, key in zip(words, keys):
            for digit, mult, radix in word:
                if digit == i:
                    return key // mult % radix

    # tau rows start where any tau digit changes
    new = np.zeros(len(counts), dtype=bool)
    new[:1] = True
    for c in range(d):
        col = decode(c)
        new[1:] |= col[1:] != col[:-1]
    row = np.cumsum(new) - 1
    n_tau = int(row[-1]) + 1 if n else 0
    taus = np.empty((n_tau, d), dtype=np.int64)
    for c in range(d):
        taus[:, c] = decode(c)[new] - span[c]
    cx, cy = decode(d), decode(d + 1)

    j_rank = {j: r for r, j in enumerate(sorted({j for j, _ in classes}))}
    j_of = np.array([j_rank[j] for j, _ in classes], dtype=np.int64)
    same = j_of[cx] == j_of[cy]
    cross = ~same
    amp = np.array([float(a2) for _, a2 in classes], dtype=np.float64)
    # a_xi a_eta = sqrt(amp^2 amp'^2) once per pair, as the scalar b_tau takes it
    cross_sum = np.bincount(
        row[cross], weights=counts[cross] * np.sqrt(amp[cx[cross]] * amp[cy[cross]]), minlength=n_tau
    )
    mixed = np.bincount(row[cross], minlength=n_tau) > 0
    same_row, same_class, same_count = row[same], cx[same], counts[same]
    values = _same_floats(same_row, same_class, same_count, classes, n, n_tau) + cross_sum
    return BTauTable(taus, values, mixed, same_row, same_class, same_count, classes)


@dataclass(frozen=True)
class LimitEstimate:
    tau: tuple[int, ...]
    value: float
    exact: Fraction | None
    convergence_diagnostic: float  # |b_tau(k_max) - b_tau(k_max - 1)|


def constant_M_inputs(
    M: int, a: Sequence[int], k_max: int, d: int = 3
) -> list[FamilyInputs]:
    """Per-k inputs reusing one shell level M for every k <= k_max."""
    return [FamilyInputs(k, M, tuple(a), d) for k in range(1, k_max + 1)]


def ctau_limit(
    rule: str, inputs_by_k: Sequence[FamilyInputs], tau: Sequence[int], k_max: int
) -> LimitEstimate:
    """b_tau(k_max) as the limit estimate, with |b(k_max) - b(k_max-1)| as
    the convergence diagnostic (the prefactor contracts geometrically)."""
    if k_max < 2:
        raise ValidationError("ctau_limit: k_max >= 2 so a difference exists")
    if len(inputs_by_k) < k_max:
        raise ValidationError("ctau_limit: need inputs for every k <= k_max")
    fam_prev = build_family(rule, inputs_by_k[k_max - 2])
    fam_last = build_family(rule, inputs_by_k[k_max - 1])
    b_prev = b_tau(fam_prev, tau)
    b_last = b_tau(fam_last, tau)
    return LimitEstimate(
        tuple(tau), b_last.value, b_last.exact, abs(b_last.value - b_prev.value)
    )


# ---------------------------------------------------------------------------
# partial sums of Fourier mass
# ---------------------------------------------------------------------------


def _tau_norms(table: BTauTable) -> np.ndarray:
    return np.sqrt((table.taus**2).sum(1))


def lp_partial_sum(family: CoefficientFamily, epsilon: float, radius: float) -> float:
    """sum of |b_tau|^(2 - epsilon) over |tau| <= radius, tau = 0 included."""
    if not 0 <= epsilon < 2:
        raise ValidationError("lp_partial_sum: epsilon in [0, 2)")
    table = family.btau_table
    inside = _tau_norms(table) <= radius + 1e-12
    return float((np.abs(table.values[inside]) ** (2 - epsilon)).sum())


def sigma_rho(family: CoefficientFamily, radius: float) -> float:
    """sum of |b_tau| over |tau| strictly below the radius."""
    table = family.btau_table
    return float(np.abs(table.values[_tau_norms(table) < radius - 1e-12]).sum())


def mass_lower_bound(family: CoefficientFamily, i: int, epsilon: float) -> dict[str, float]:
    """For the ql_i rule: the counting bound at radius 2 a_i,

      sum_{|tau| <= 2 a_i} |b_tau|^(2-eps) >= (2^k/(2^k-1))^(2-eps)
                                              (2^i r_2(a_i^2))^eps / 4^i,

    and for ql_ii the first-power analogue with r_{d-2}; returns both sides.

    The counting argument distributes r^2 class-i pairs over tau values;
    pairs sharing a tau (the diagonal pairs all land on tau = 0) only help
    when the exponent 2 - epsilon is >= 1, so the bound is guaranteed for
    epsilon <= 1 and the report may honestly come back holds=False above
    that.
    """
    if family.rule not in ("ql_i", "ql_ii"):
        raise ValidationError("mass_lower_bound: ql_i / ql_ii families only")
    a_i = None
    count = 0
    for xi, (j, _) in family.support.items():
        if j == i:
            count += 1
            a_i = math.isqrt(sum(x * x for x in xi[: family.d - 2]))
    if a_i is None:
        raise ValidationError(f"mass_lower_bound: class {i} not in family")
    pref = 2**family.k / (2**family.k - 1)
    if family.rule == "ql_i":
        lhs = lp_partial_sum(family, epsilon, 2 * a_i)
        rhs = pref ** (2 - epsilon) * (2**i * count) ** epsilon / 4**i
    else:
        lhs = lp_partial_sum(family, 1.0, 2 * a_i)  # exponent 1: plain |b_tau| sum
        rhs = pref * count / 2**i
    return {"lhs": lhs, "rhs": rhs, "holds": lhs >= rhs * (1 - 1e-12), "a_i": a_i}


def representation_growth_report(a_list: Sequence[int]) -> dict:
    """Empirical checks on a candidate a_j sequence: r_2 strictly increasing,
    bounded even part, and r_2(a^2) >= r_2(a) (flagged, not assumed)."""
    # d = 2 enumeration costs only ~sqrt(n) steps, so a larger cap is safe
    r_vals = [rd_bruteforce(a, 2, max_n=10**12) for a in a_list]
    r_sq_vals = [rd_bruteforce(a * a, 2, max_n=10**12) for a in a_list]
    even_parts = []
    for a in a_list:
        b = 0
        while a % 2 == 0:
            a //= 2
            b += 1
        even_parts.append(b)
    return {
        "r2": r_vals,
        "r2_strictly_increasing": all(x < y for x, y in zip(r_vals, r_vals[1:])),
        "even_part_exponents": even_parts,
        "r2_square_vs_r2": list(zip(r_sq_vals, r_vals)),
        "r2_square_ge_r2_violations": [
            a for a, rs, r in zip(a_list, r_sq_vals, r_vals) if rs < r
        ],
    }
