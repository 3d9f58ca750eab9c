"""Exact integer arithmetic: factor tables, multiplicative functions,
representation counts r_d(n), and the g_1..g_7 prime-rule functions.

Everything here is a pure function of its inputs.  Values that must stay
exact (g-function values, convolution transforms) are fractions.Fraction.
Each g rule's per-prime formula is written once, in _G_RULES, and read by
two evaluators: g_function, exact over the primes of one n, and g_rows, in
float64 over every row of a squarefree_table prime matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ResourceGuardError, ValidationError, check_bytes

# ---------------------------------------------------------------------------
# factor tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """Prime factorisation [(p1,e1),(p2,e2),...] with p1 < p2 < ... and e >= 1."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        out = 1
        for p, e in self.pairs:
            out *= p**e
        return out

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)


# tracemalloc peak per entry of the spf sieve: 5.16, 5.13, 4.12 and 4.06 bytes
# at limits 10^5, 10^6, 10^7 and 2 * 10^7; charged 8 (>= 1.55x)
_TABLE_BYTES = 8
# bytes per segment of both range sieves: 2^17 uint32 spf entries or 2^19
# bools, a quarter of a 2 MiB L2.  On such a Xeon, segments of 2^19 to 2^21
# bytes ran within 15 % of each other at limits 2 * 10^7 and 10^8, and 2^18
# or 2^22 bytes 20-40 % slower; the smallest of the fast sizes is taken.
_SEGMENT_BYTES = 1 << 19


def _odd_offsets(lo: int, ps: np.ndarray) -> list[int]:
    """For a segment of odd numbers starting at odd[lo] (odd[i] standing for
    2i + 1), the offset in it of the first odd multiple of each odd prime p
    in ps that is >= p^2; p^2 sits at odd index p^2 // 2, and every odd
    multiple p^2 + 2kp at a further kp."""
    rel = ps * ps // 2 - lo
    return np.maximum(rel, rel % ps).tolist()


class FactorTable:
    """Smallest-prime-factor table for 2..limit, backed by a numpy array.

    Immutable after construction; safe to share between threads.  spf[n]
    is the least prime dividing n, and spf[p] == p exactly for primes.
    The even entries get 2 in one strided write.  The odd entries are
    sieved a segment at a time in one contiguous uint32 buffer: each entry
    starts as n itself, and every odd prime p <= sqrt(limit), in descending
    order, writes p onto its odd multiples from p^2 on, so the least prime
    writes last.  A segment is _SEGMENT_BYTES of entries, or a quarter of
    the odd entries when that is less, so the buffers stay a small part of
    the table.  Every written entry is <= sqrt(limit), and every entry left
    at its seed n is 1 or an odd prime, so prime_count, the number of
    primes <= limit, is the count of entries above sqrt(limit), plus the
    odd primes up to it, plus 1 for 2.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValidationError(f"FactorTable limit must be >= 2, got {limit}")
        check_bytes("FactorTable", _TABLE_BYTES * limit, f"limit {limit}")
        self.limit = limit
        spf = np.empty(limit + 1, dtype=np.uint32)
        spf[::2] = 2
        odd = spf[1::2]  # odd[i] stands for 2i + 1
        root = math.isqrt(limit)
        ps = primes_up_to(root)[:0:-1]  # the odd primes <= root, descending
        primes = ps.tolist()
        step = min(_SEGMENT_BYTES // 4, len(odd) // 4 + 1)
        seeds = np.arange(1, 2 * step, 2, dtype=np.uint32)
        buf = np.empty(step, dtype=np.uint32)
        count = len(primes) + 1  # the odd primes <= root, and 2
        for lo in range(0, len(odd), step):
            seg = buf[: len(odd) - lo]
            np.add(seeds[: len(seg)], 2 * lo, out=seg)
            for p, i in zip(primes, _odd_offsets(lo, ps)):
                seg[i::p] = p
            count += int(np.count_nonzero(seg > root))
            odd[lo : lo + step] = seg
        spf[:2] = 0  # 0 and 1 have no prime factor
        self.spf, self.prime_count = spf, count
        self.spf.setflags(write=False)

    def factorize(self, n: int) -> Factorization:
        if not 1 <= n <= self.limit:
            raise ValidationError(f"factorize: n={n} outside [1, {self.limit}]")
        pairs = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            pairs.append((p, e))
        return Factorization(tuple(pairs))


def build_factor_table(limit: int) -> FactorTable:
    return FactorTable(limit)


def trial_factorize(n: int) -> Factorization:
    """Factorisation by trial division; no table required (small n only)."""
    if n < 1:
        raise ValidationError(f"trial_factorize: n={n} must be >= 1")
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        pairs.append((n, 1))
    return Factorization(tuple(pairs))


# tracemalloc peak per integer of the prime sieve: 1.53, 1.27, 1.13, 1.03 and
# 0.98 bytes at n = 10^4, 10^5, 10^6, 10^7 and 5 * 10^7; charged 2 (>= 1.57x
# from 10^5 on, 1.30x at 10^4, where the odd flags and the int64 output
# alone take 1.48 bytes per integer)
_PRIME_BYTES = 2


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, by Eratosthenes over the odd
    numbers, odd[i] standing for 2i + 1, one _SEGMENT_BYTES of bools at a
    time.  The first segment is sieved in place by the primes it finds, as
    one pass would; it reaches past sqrt(n) whenever n fits the byte budget,
    and is stretched to sqrt(n) otherwise.  Its primes up to sqrt(n) then
    sieve each later segment from their first odd multiple in it."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    check_bytes("primes_up_to", _PRIME_BYTES * n, f"n {n}")
    odd = np.ones((n + 1) // 2, dtype=bool)
    top = (math.isqrt(n) + 1) // 2  # odd[1:top] are the odd numbers <= sqrt(n)
    head = odd[: max(_SEGMENT_BYTES, top)]
    for i in range(1, top):
        if head[i]:
            p = 2 * i + 1
            head[p * p // 2 :: p] = False
    ps = 2 * np.flatnonzero(odd[1:top]) + 3  # the odd primes <= sqrt(n)
    primes = ps.tolist()
    for lo in range(len(head), len(odd), _SEGMENT_BYTES):
        seg = odd[lo : lo + _SEGMENT_BYTES]
        for p, i in zip(primes, _odd_offsets(lo, ps)):
            seg[i::p] = False
    del head, ps, primes  # freed before the output, which sets the peak
    out = np.flatnonzero(odd).astype(np.int64, copy=False)
    out *= 2
    out += 1
    out[0] = 2  # odd[0], the 1, was left set to stand for 2
    return out


# ---------------------------------------------------------------------------
# classical multiplicative functions
# ---------------------------------------------------------------------------


def mobius(f: Factorization) -> int:
    if any(e >= 2 for _, e in f.pairs):
        return 0
    return -1 if len(f.pairs) % 2 else 1


def euler_phi(f: Factorization) -> int:
    out = 1
    for p, e in f.pairs:
        out *= (p - 1) * p ** (e - 1)
    return out


def sigma(f: Factorization) -> int:
    out = 1
    for p, e in f.pairs:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def tau_k(f: Factorization, k: int) -> int:
    """Number of ordered factorisations of n into k parts: prod C(e+k-1, k-1)."""
    if k < 1:
        raise ValidationError(f"tau_k: k={k} must be >= 1")
    out = 1
    for _, e in f.pairs:
        out *= math.comb(e + k - 1, k - 1)
    return out


def chi4(n: int) -> int:
    """Non-trivial Dirichlet character mod 4."""
    if n < 0:
        raise ValidationError(f"chi4: n={n} must be >= 0")
    r = n & 3
    if r == 1:
        return 1
    if r == 3:
        return -1
    return 0


def r2(f: Factorization) -> int:
    """Number of ordered signed (x,y) with x^2+y^2 = n, as 4 sum_{d|n} chi4(d).

    Per prime: p=2 contributes 1; p=1 mod 4 with exponent e contributes e+1;
    p=3 mod 4 contributes 1 for even e, 0 for odd e.
    """
    out = 4
    for p, e in f.pairs:
        if p == 2:
            continue
        if p % 4 == 1:
            out *= e + 1
        elif e % 2 == 1:
            return 0
    return out


def is_sum_of_two_squares(f: Factorization) -> bool:
    """True iff every prime 3 mod 4 divides n to an even exponent (n=0 -> True)."""
    return all(e % 2 == 0 for p, e in f.pairs if p % 4 == 3)


# Below 2^52 the float64 sqrt floors to the integer square root exactly: v is
# exact, sqrt is correctly rounded, and v < (k + 1)^2 keeps sqrt(v) more than
# half an ulp below k + 1.  Just above, at (2^26 + 1)^2 - 1, it floors one too high.
TWO_SQUARES_LIMIT = 1 << 52


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) for int64 0 <= v < TWO_SQUARES_LIMIT."""
    return np.sqrt(v).astype(np.int64)


# (value, x) pairs per block of the two_squares walk, and lattice points per
# block of two_squares_on: their temporaries stay a few 64 KiB arrays
_LATTICE_BLOCK = 1 << 13
# primes 3 (mod 4) whose odd powers two_squares rejects before its walk
_SMALL_3MOD4 = (3, 7, 11, 19, 23)


def _below(t: np.ndarray) -> np.ndarray:
    """The largest y >= 0 with y^2 <= t, elementwise; -1 where t < 0."""
    return _isqrt(np.maximum(t, 0)) - (t < 0)


def two_squares(ms) -> np.ndarray:
    """For every m in ms the lexicographically least (x, y) with x >= y >= 0
    and x^2 + y^2 = m, as int64[n, 2]; (-1, -1) where m is not a sum of two
    squares.  Needs integers 0 <= m < 2^52.

    A value whose odd part is 3 (mod 4), or that a prime 3, 7, 11, 19 or 23
    divides to an odd power, is rejected first.  Each other value walks x up
    from ceil(sqrt(m/2)), where y <= x begins, until m - x^2 is a square
    (the float square root is exact below 2^52) or x passes sqrt(m), in
    blocks of x that grow geometrically up to _LATTICE_BLOCK (value, x) pairs.
    A sum stops at its least x, but a non-sum whose primes 3 (mod 4) are all
    larger (31 * 43 * 2^a) walks about 0.29 sqrt(m) values of x, and nearby
    values share nothing: a dense run of them is two_squares_on's case."""
    ms = np.asarray(ms)
    if ms.size and (ms.dtype.kind not in "iu" or ms.min() < 0 or ms.max() >= TWO_SQUARES_LIMIT):
        raise ValidationError("two_squares: every m must be an integer with 0 <= m < 2^52")
    ms = ms.astype(np.int64).reshape(-1)
    out = np.full((len(ms), 2), -1, dtype=np.int64)
    ok = ms & 2 * (ms & -ms) == 0  # bit 1 of the odd part is clear: it is 1 (mod 4), or m = 0
    for p in _SMALL_3MOD4:  # strip p^2 while it divides: an odd power leaves p
        at = np.flatnonzero((ms % p == 0) & (ms > 0))
        rest = ms[at]
        while (square := rest % (p * p) == 0).any():
            rest[square] //= p * p
        ok[at[rest % p == 0]] = False
    rows = np.flatnonzero(ok)
    m = ms[rows]
    x = _isqrt(m // 2)
    x += 2 * x * x < m
    b = 1  # values of x per value of m in the next block
    while rows.size:
        xs = x[:, None] + np.arange(b)
        t = m[:, None] - xs * xs
        y = _below(t)
        hit = y * y == t
        done = hit.any(axis=1)
        found = np.flatnonzero(done)
        j = hit[found].argmax(axis=1)
        out[rows[found]] = np.column_stack((xs[found, j], y[found, j]))
        x += b
        left = np.flatnonzero(~done & (x * x <= m))
        rows, m, x = rows[left], m[left], x[left]
        b = max(1, min(2 * b, _LATTICE_BLOCK // max(rows.size, 1)))
    return out


# the largest dimension and norm that rd_bruteforce and quantum.enumerate_shell
# enumerate: the work grows like n^(d/2)
SHELL_MAX_DIM, SHELL_MAX_N = 6, 10**6


def rd_bruteforce(n: int, d: int) -> int:
    """Exact count of xi in Z^d with |xi|^2 = n by nested enumeration.

    This is the oracle everything else is checked against; it never uses
    divisor identities.  Guarded because the work grows like n^(d/2).
    """
    if n < 0:
        raise ValidationError(f"rd_bruteforce: n={n} must be >= 0")
    if d < 1:
        raise ValidationError(f"rd_bruteforce: d={d} must be >= 1")
    if d > SHELL_MAX_DIM or n > SHELL_MAX_N:
        raise ResourceGuardError(
            f"rd_bruteforce guard: d={d} (max {SHELL_MAX_DIM}), n={n} (max {SHELL_MAX_N})",
            cost_estimate=f"~n^(d/2) = {float(max(n, 1)) ** (d / 2):.2e} lattice points",
        )

    def count(rem: int, dims: int) -> int:
        if dims == 1:
            r = math.isqrt(rem)
            if r * r != rem:
                return 0
            return 1 if r == 0 else 2
        total = 0
        x = 0
        while x * x <= rem:
            sub = count(rem - x * x, dims - 1)
            total += sub if x == 0 else 2 * sub
            x += 1
        return total

    return count(n, d)


def r2_lattice_range(limit: int) -> np.ndarray:
    """r_2(n) for all 0 <= n <= limit at once, by direct lattice counting.

    Same semantics as rd_bruteforce(n, 2) but vectorised over the range;
    int64 output.  An independent oracle for r2_on and the progression
    sums; no production path reads it.
    """
    if limit < 0:
        raise ValidationError("r2_lattice_range: limit must be >= 0")
    if limit > 2 * 10**8:
        raise ResourceGuardError(
            f"r2_lattice_range limit {limit} exceeds the 2e8 guard",
            cost_estimate=f"~{8 * limit / 1e9:.1f} GB output array",
        )
    counts = np.zeros(limit + 1, dtype=np.int64)
    for x in range(math.isqrt(limit) + 1):
        ymax = math.isqrt(limit - x * x)
        ys = np.arange(ymax + 1, dtype=np.int64)
        idx = x * x + ys * ys
        w = np.full(ymax + 1, 4 if x > 0 else 2, dtype=np.int64)
        w[0] //= 2
        counts[idx] += w
    return counts


def rd_square_identity(n: int, d: int) -> int:
    """The closed forms for r_3(n^2) and r_4(n^2), writing n = 2^k * m, m odd.

      r_3(n^2) = 6 * prod_{p^a || m} (sigma(p^a) - (-1)^((p-1)/2) sigma(p^(a-1)))
      r_4(n^2) = 24 * sigma(m^2)

    Computes the stated identity exactly; callers compare against
    rd_bruteforce(n^2, d).  d >= 5 involves an uncomputed singular series
    and is out of scope; the d=4 form is only expected to match brute
    force for even n (odd n is a recorded discrepancy, not patched here).
    """
    if d not in (3, 4):
        raise ValidationError(f"rd_square_identity: d={d} not in {{3, 4}}")
    if n < 1:
        raise ValidationError(f"rd_square_identity: n={n} must be >= 1")
    m = n
    while m % 2 == 0:
        m //= 2
    fm = trial_factorize(m)
    if d == 4:
        m2 = Factorization(tuple((p, 2 * e) for p, e in fm.pairs))
        return 24 * sigma(m2)
    out = 6
    for p, a in fm.pairs:
        s_a = (p ** (a + 1) - 1) // (p - 1)
        s_am1 = (p**a - 1) // (p - 1)
        sign = -1 if ((p - 1) // 2) % 2 else 1
        out *= s_a - sign * s_am1
    return out


# ---------------------------------------------------------------------------
# the g_1 .. g_7 prime rules
# ---------------------------------------------------------------------------


# Each g rule by id: whether g(n) adds c(p) log p over the primes p of n (g5,
# g6) or multiplies c(p) (the rest), and c(p) by p mod 4, each written once for
# a Fraction p and a float64 array p alike.  A rule without class 2 takes odd
# n only.
_G_RULES = {
    1: (False, {1: lambda p: 1 - 1 / p, 2: lambda p: 1, 3: lambda p: 1 + 1 / p}),  # 1 - chi4(p)/p
    2: (False, {1: lambda p: 2 - 1 / p, 3: lambda p: 1 / p}),
    3: (False, {1: lambda p: (p - 1) ** 2 / (p * (p + 1)), 3: lambda p: 1 + 1 / p}),
    4: (False, {1: lambda p: (4 * p * p - 3 * p + 1) / (p * (p + 1)), 3: lambda p: 1 / p}),
    5: (True, {1: lambda p: (2 * p + 1) / (p * p - 1), 3: lambda p: 1 / (p * p - 1)}),
    6: (True, {1: lambda p: (p - 1) ** 2 * (2 * p + 1) / ((p + 1) * (4 * p * p - 3 * p + 1)), 3: lambda p: 1}),
    7: (False, dict.fromkeys((1, 2, 3), lambda p: p + 1)),
}


def multiplicative(rule: Callable[[int], Fraction], primes: Iterable[int]) -> Fraction:
    """The product of rule(p) over `primes`, exactly; a padding 1 (a row of
    a squarefree_table prime matrix) is neutral."""
    return math.prod((Fraction(rule(p)) for p in primes if p > 1), start=Fraction(1))


def g_function(gid: int, f: Factorization) -> Fraction | float:
    """g_gid(n) for squarefree n (odd n unless the rule has p = 2): a
    Fraction, or for g5 and g6 the float math.fsum of float(c(p)) log p
    over the exact c(p).  g1 ... g7 are its bindings."""
    if gid not in _G_RULES:
        raise ValidationError(f"g_function: id {gid} not in 1..7")
    log, rule = _G_RULES[gid]
    if not f.is_squarefree():
        raise ValidationError(f"g{gid}: argument {f.n} is not squarefree")
    if any(p % 4 not in rule for p in f.primes()):
        raise ValidationError(f"g{gid}: argument {f.n} must be odd")
    c = lambda p: rule[p % 4](Fraction(p))
    if log:
        return math.fsum(float(c(p)) * math.log(p) for p in f.primes())
    return multiplicative(c, f.primes())


g1, g2, g3, g4, g5, g6, g7 = (partial(g_function, gid) for gid in _G_RULES)


def g_rows(gid: int, P: np.ndarray) -> np.ndarray:
    """g_gid in float64 at every row of a squarefree_table prime matrix P, a
    column at a time, so that each row takes its primes in ascending order;
    the padding 1 is neutral."""
    log, rule = _G_RULES[gid]
    out = np.zeros(len(P)) if log else np.ones(len(P))
    for column in P.T:
        live = np.flatnonzero(column > 1)
        r = column[live] & 3
        p = column[live].astype(np.float64)
        c = np.full(len(p), np.nan)
        for cls, formula in rule.items():
            at = r == cls
            c[at] = formula(p[at])
        if np.isnan(c).any():
            raise ValidationError(f"g_rows: g{gid} is not defined at a prime of P")
        if log:
            out[live] += c * np.log(p)
        else:
            out[live] *= c
    return out


# ---------------------------------------------------------------------------
# Ramanujan sums and convolution transforms
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# helpers shared by the sieve-side modules
# ---------------------------------------------------------------------------


def squarefree_table(primes: Sequence[int], bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every squarefree product a <= bound of distinct primes from the
    ascending sequence `primes`, as int64 arrays (a, mu(a), P) in ascending
    order of a: row i of P holds the primes of a[i] ascending, padded with 1
    to the largest omega, the number of leading primes whose product is at
    most bound.  Built a level at a time: level omega + 1 is each a of level
    omega times every prime above its largest with a * p <= bound, so primes
    that can no longer fit are never read."""
    primes = np.asarray(primes, dtype=np.int64)
    width = 0
    while width < len(primes) and math.prod(primes[: width + 1].tolist()) <= bound:
        width += 1
    levels = [(np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.ones((1, width), dtype=np.int64))]
    for w in range(width):
        a, nxt, P = levels[-1]
        count = np.maximum(np.searchsorted(primes, bound // a, side="right") - nxt, 0)
        parent = np.repeat(np.arange(len(a)), count)
        nxt = nxt[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(count) - count, count)
        P = P[parent]
        P[:, w] = primes[nxt]
        levels.append((a[parent] * P[:, w], nxt + 1, P))
    mus = np.repeat([(-1) ** w for w in range(width + 1)], [len(a) for a, _, _ in levels])
    vals, P = np.concatenate([a for a, _, _ in levels]), np.concatenate([P for _, _, P in levels])
    order = np.argsort(vals)
    return vals[order], mus[order], P[order]


def divisor_incidence(vals: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (element, divisor) pairs of a squarefree_table (vals, _, P), as
    index arrays (i, j) with one pair for each divisor vals[j] of vals[i];
    every divisor of an element is an element.  The pairs are grouped by the
    subset of an element's primes that makes the divisor, one bitmask
    m < 2^omega per subset."""
    omega = (P > 1).sum(axis=1)
    elem, div = [], []
    for m in range(1 << P.shape[1]):
        elem.append(np.flatnonzero(omega >= m.bit_length()))
        subset = P[np.ix_(elem[-1], [j for j in range(P.shape[1]) if m >> j & 1])]
        div.append(np.searchsorted(vals, np.prod(subset, axis=1)))
    return np.concatenate(elem), np.concatenate(div)


def w_split(D0: int) -> tuple[int, int, int, float, float]:
    """The W-trick modulus W = prod of the odd primes <= D0, split by
    residue class mod 4 as W = W1 * W3; returns (W, W1, W3, phi(W1)/W1,
    phi(W3)/W3), each ratio the product of 1 - 1/p over its ascending primes."""
    w, ratio = [1] * 4, [1.0] * 4  # indexed by p mod 4; slot 2 takes p = 2, which W leaves out
    for p in map(int, primes_up_to(D0)):
        w[p % 4] *= p
        ratio[p % 4] *= 1 - 1 / p
    return w[1] * w[3], w[1], w[3], ratio[1], ratio[3]


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int] | None:
    """Solve x = r1 (mod m1), x = r2 (mod m2).  None if inconsistent."""
    g = math.gcd(m1, m2)
    if (r2 - r1) % g != 0:
        return None
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 != g else 0
    return (r1 + m1 * t) % l, l


def crt(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int] | None:
    """Simultaneous congruences over possibly non-coprime moduli."""
    r, m = 0, 1
    for r2_, m2_ in zip(residues, moduli):
        nxt = crt_pair(r, m, r2_ % m2_, m2_)
        if nxt is None:
            return None
        r, m = nxt
    return r, m


def progression_slice(ns: range, residues: Sequence[int], moduli: Sequence[int]) -> slice | None:
    """The positions in the arithmetic progression ns of its elements x with
    x = residues[i] (mod moduli[i]) for every i, as a slice; None when the
    congruences and the class of ns have no common solution."""
    sol = crt([ns.start, *residues], [ns.step, *moduli])
    if sol is None:
        return None
    r, m = sol
    return slice((r - ns.start) % m // ns.step, None, m // ns.step)


def multiples(ns: range, q: int) -> slice | None:
    """The positions of the multiples of q >= 1 in the increasing progression
    ns, as a slice: the first is -start / step (mod q), by one modular
    inverse, when q is prime to the step, and otherwise progression_slice
    solves it (None when the class of ns holds no multiple of q)."""
    if math.gcd(q, ns.step) == 1:
        return slice(-ns.start * pow(ns.step, -1, q) % q, None, q)
    return progression_slice(ns, [0], [q])


def shift_spans(ns: range, hs: Iterable[int]) -> list[tuple[range, list[int]]]:
    """The progressions that on_shifts hands to f for the window ns and the
    shifts hs, each with its ascending shifts: the translates ns + h grouped
    by h mod step in order of first appearance, and within a group merged
    while they overlap or touch, so that each n + h lies in exactly one."""
    groups: dict[int, list[int]] = {}
    for h in dict.fromkeys(hs):
        groups.setdefault(h % ns.step, []).append(h)
    width = len(ns) * ns.step
    spans = []
    for group in groups.values():
        group.sort()
        runs = [[group[0]]]
        for h in group[1:]:
            if h > runs[-1][-1] + width:
                runs.append([])
            runs[-1].append(h)
        spans += [(range(ns.start + run[0], ns.start + run[-1] + width, ns.step), run) for run in runs]
    return spans


def on_shifts(f: Callable[[range], np.ndarray], ns: range, hs: Iterable[int]) -> dict[int, np.ndarray]:
    """{h: f at n + h for every n of the window ns} for each distinct shift h
    in hs, from one call of f per shift_spans progression, as read-only
    views: no n + h is computed twice and none is computed unread.  f must
    act termwise, as r2_on, rho_on and two_squares_on do."""
    out = {}
    for span, run in shift_spans(ns, hs):
        values = f(span)
        for h in run:
            i = (h - run[0]) // ns.step
            out[h] = values[i : i + len(ns)]
            out[h].flags.writeable = False
    return out


def r2_on(progression: range) -> np.ndarray:
    """r_2(m) at every term m >= 1 of an arithmetic progression, as int32,
    by a sieve over the progression itself.  For each prime p <= sqrt(max m)
    the slices of multiples of p, p^2, ... each divide p out once.  On the
    p^k slice a p = 1 (mod 4) turns its factor k into k + 1, and a p = 3
    (mod 4) flips the sign, so one pass of max(., 0) over the p slice zeroes
    the odd exponents.  What is left above 1 is one prime larger than
    sqrt(max m).  Terms are int32 below 2^31 and counts int32 throughout:
    r_2 <= 4 d(m) < 2^31 for every int64 m.  Callers take products and sums
    of the counts in int64."""
    if progression.step < 1 or (progression and progression.start < 1):
        raise ValidationError(f"r2_on: {progression} must be increasing with terms >= 1")
    last = progression[-1] if progression else 0
    dtype = np.int32 if last < 1 << 31 else np.int64
    m = np.arange(progression.start, progression.stop, progression.step, dtype=dtype)
    out = np.full(len(m), 4, dtype=np.int32)
    for p in primes_up_to(math.isqrt(last)).tolist():
        q, k, sl = p, 1, (first := multiples(progression, p))
        while sl is not None and (level := m[sl]).size:
            level //= p
            factor = out[sl]
            if p & 3 == 1:
                if k > 1:
                    factor //= k
                factor *= k + 1
            elif p & 3 == 3:
                np.negative(factor, out=factor)
            q *= p
            k += 1
            sl = multiples(progression, q) if q <= last else None
        if p & 3 == 3 and k > 1:
            factor = out[first]
            np.maximum(factor, 0, out=factor)
    prime = m > 1
    m &= 3
    out <<= (m == 1) & prime
    out *= m != 3
    return out


def two_squares_on(progression: range) -> np.ndarray:
    """two_squares at every term 1 <= m < 2^52 of an increasing arithmetic
    progression, as int64[n, 2].  When 4 step^2 <= first, so that the terms
    lie closer than floor(sqrt(m))/2, every lattice point with y <= x and
    first <= x^2 + y^2 <= last is listed once, in ascending rows of x and
    blocks of _LATTICE_BLOCK points, its y bounds from the exact float
    square root; an even step keeps only the y with x + y = first (mod 2).
    A term keeps its first point, which has its least x.  Sparser terms
    drop their non-sums by r2_on and walk only the sums' own circles."""
    if progression.step < 1 or (progression and not 1 <= progression.start <= progression[-1] < TWO_SQUARES_LIMIT):
        raise ValidationError(f"two_squares_on: {progression} must be increasing with terms in [1, 2^52)")
    first, step = progression.start, progression.step
    out = np.full((len(progression), 2), -1, dtype=np.int64)
    if not progression or 4 * step * step > first:
        sums = np.flatnonzero(r2_on(progression))
        out[sums] = two_squares(first + step * sums)
        return out
    stride, xend = 2 - step % 2, math.isqrt(progression[-1]) + 1
    x0 = math.isqrt(first // 2)
    x0 += 2 * x0 * x0 < first
    for row in range(x0, xend, _LATTICE_BLOCK):
        xs = np.arange(row, min(row + _LATTICE_BLOCK, xend), dtype=np.int64)
        x2 = xs * xs
        lo = _below(first - 1 - x2) + 1  # the least y with x^2 + y^2 >= first
        lo += (lo + xs + first) % stride
        cnt = np.maximum((np.minimum(xs, _below(progression[-1] - x2)) - lo) // stride + 1, 0)
        end = np.cumsum(cnt)
        start = end - cnt
        lo -= stride * start  # the k-th point of these rows has y = lo[its row] + stride k
        for a in range(0, int(end[-1]), _LATTICE_BLOCK):
            b = min(a + _LATTICE_BLOCK, int(end[-1]))
            r0, r1 = np.searchsorted(end, [a, b - 1], side="right").tolist()  # the rows of points a and b - 1
            xi = np.repeat(np.arange(r0, r1 + 1), np.minimum(end[r0 : r1 + 1], b) - np.maximum(start[r0 : r1 + 1], a))
            y = np.arange(a, b)  # k, then y
            y *= stride
            y += lo[xi]
            v = x2[xi] + y * y
            v -= first
            at = np.flatnonzero(v % step == 0)
            at = at[out[v[at] // step, 0] < 0]
            i, j = np.unique(v[at] // step, return_index=True)  # a term's first point in the block
            out[i] = np.column_stack((xs[xi[at[j]]], y[at[j]]))
    return out


def floor_power(N: int, theta: float) -> int:
    """floor(N^theta) in exact integers: theta is read as the fraction
    p/q = Fraction(theta).limit_denominator(1000), and the float estimate
    is corrected to the r with r^q <= N^p < (r+1)^q."""
    p, q = Fraction(theta).limit_denominator(1000).as_integer_ratio()
    r = int(N ** (p / q))
    while r**q > N**p:
        r -= 1
    while (r + 1) ** q <= N**p:
        r += 1
    return r


def count_in_class(lo: int, hi: int, residue: int, modulus: int) -> int:
    """#{n in [lo, hi) : n = residue (mod modulus)}."""
    if hi <= lo:
        return 0
    first = lo + (residue - lo) % modulus
    if first >= hi:
        return 0
    return (hi - 1 - first) // modulus + 1
