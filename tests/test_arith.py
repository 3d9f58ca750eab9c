import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twosquares import arith, errors

from twosquares.arith import (
    Factorization,
    build_factor_table,
    chi4,
    count_in_class,
    crt,
    floor_power,
    g1,
    g2,
    g3,
    g4,
    g5,
    g6,
    g7,
    g_function,
    g_rows,
    is_sum_of_two_squares,
    multiples,
    on_shifts,
    progression_slice,
    r2,
    r2_lattice_range,
    r2_on,
    rd_bruteforce,
    rd_square_identity,
    sigma,
    divisor_incidence,
    squarefree_table,
    trial_factorize,
)
from twosquares.bins import WITNESS_LIMIT
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.hooley import rho_on

from oracles import convolution_transform, euler_phi, mobius, ramanujan_sum, squarefree_products, tau_k


# -- independent oracles used only here ------------------------------------


def oracle_trial_division(n):
    """Trial-division factorisation, written independently of the package."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def oracle_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def oracle_prime_sieve(n):
    """Primes <= n by Eratosthenes over a bool array of every integer."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def oracle_spf(limit):
    """Least prime factor of 0..limit (0 at 0 and 1): each prime p in
    ascending order writes p onto the multiples from p^2 on that no smaller
    prime has claimed; what is left unclaimed is prime."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    return spf


# every prime below sqrt(2^32 + 2^22), for the r2 oracle on the largest terms
ORACLE_PRIMES = oracle_prime_sieve(65_600).tolist()


def oracle_r2(m):
    """r_2(m) for 1 <= m < 65600^2 from its factorisation by trial division
    over ORACLE_PRIMES."""
    pairs = []
    for p in ORACLE_PRIMES:
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            pairs.append((p, e))
    if m > 1:
        pairs.append((m, 1))
    return r2(Factorization(tuple(pairs)))


# -- factor tables ----------------------------------------------------------


def test_factor_table_examples():
    t = build_factor_table(10)
    assert t.spf[4] == 2 and t.spf[9] == 3 and t.spf[7] == 7
    t2 = build_factor_table(2)
    assert t2.spf[2] == 2


def test_factor_table_large_prime():
    t = build_factor_table(10**6)
    assert oracle_trial_division(999983) == ((999983, 1),)
    assert t.spf[999983] == 999983


def test_factor_table_rejects():
    with pytest.raises(ValidationError):
        build_factor_table(1)


def test_factor_table_byte_guard(monkeypatch):
    # 8 bytes per entry: limit 10^7 needs 8e7 bytes, 10^5 fits in 10^6
    monkeypatch.setattr(errors, "BYTE_BUDGET", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError) as exc:
            build_factor_table(10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "bytes" in exc.value.cost_estimate and peak < 1 << 16
    assert build_factor_table(10**5).spf[99991] == 99991


def test_factor_table_peak_within_charge():
    # the spf sieve keeps the 1.26x margin of the window scans under its charge
    tracemalloc.start()
    try:
        build_factor_table(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arith._TABLE_BYTES * 10**6 / 1.26


# the ends of the spf sieve's segments of 2^17 odd entries, at k * 2^18,
# and of primes_up_to's segments of 2^19 odd numbers, at k * 2^20
SEGMENT_EDGES = [k * 262144 + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)]
SEGMENT_EDGES += [k * 1048576 + d for k in (1, 2) for d in (-2, -1, 0, 1, 2)]


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 100, *SEGMENT_EDGES, 262147, 999983])
def test_spf_equals_masked_sieve(limit):
    # the segmented sieve against the one-pass masked sieve, at and around
    # the segment ends and at the primes 262147 (first above one segment),
    # 524287, 786431, 786433 and 999983
    spf = build_factor_table(limit).spf
    assert spf.dtype == np.uint32
    assert np.array_equal(spf, oracle_spf(limit))


@pytest.mark.parametrize("limit", [2, 3, 262143, 262144, 262145, 10**6])
def test_factor_table_prime_count(limit):
    # counted from the sieve's own zeros, against the independent prime sieve
    assert build_factor_table(limit).prime_count == len(arith.primes_up_to(limit))


def test_primes_up_to_equals_bool_sieve():
    for n in range(-2, 501):
        got = arith.primes_up_to(n)
        assert got.dtype == np.int64 and np.array_equal(got, oracle_prime_sieve(n)), n
    # odd and even n around prime squares, and the spf segment ends
    for n in [1009**2 + d for d in (-2, -1, 0, 1, 2)] + SEGMENT_EDGES + [999983, 10**6]:
        assert np.array_equal(arith.primes_up_to(n), oracle_prime_sieve(n)), n


@given(st.integers(2, 10**4), st.sampled_from([4, 8, 12, 24, 100]))
def test_range_sieves_property(limit, segment_bytes):
    # segments of a few bytes: every limit crosses many segment ends, and
    # sqrt(limit) lies past the prime sieve's first segment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_SEGMENT_BYTES", segment_bytes)
        table = build_factor_table(limit)
        primes = arith.primes_up_to(limit)
    want = oracle_prime_sieve(limit)
    assert table.spf.dtype == np.uint32 and np.array_equal(table.spf, oracle_spf(limit))
    assert table.prime_count == len(want)
    assert primes.dtype == np.int64 and np.array_equal(primes, want)


def test_primes_up_to_peak_within_charge():
    # the prime sieve keeps the 1.26x margin under its charge; the CLI test
    # test_prime_bound_guard_exit_code checks that the charge is made
    for n in (10**4, 10**6):
        tracemalloc.start()
        try:
            arith.primes_up_to(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < arith._PRIME_BYTES * n / 1.26


def test_factorize_examples():
    t = build_factor_table(10**4)
    assert t.factorize(1).pairs == ()
    assert t.factorize(12).pairs == ((2, 2), (3, 1))
    assert t.factorize(9999).pairs == oracle_trial_division(9999)
    with pytest.raises(ValidationError):
        t.factorize(10**4 + 1)
    with pytest.raises(ValidationError):
        t.factorize(0)


def test_factorize_matches_trial_division():
    t = build_factor_table(5000)
    for n in range(1, 5001):
        assert t.factorize(n).pairs == oracle_trial_division(n)


# -- multiplicative functions against naive divisor loops --------------------


def test_classical_functions_small_values():
    f = trial_factorize
    assert mobius(f(6)) == 1 and mobius(f(30)) == -1 and mobius(f(12)) == 0
    assert euler_phi(f(10)) == 4
    assert sigma(f(6)) == 12
    assert tau_k(f(12), 2) == 6
    assert tau_k(f(4), 3) == 6


def test_tau_k_counts_ordered_factorizations():
    # direct enumeration oracle
    def count(n, k):
        if k == 1:
            return 1
        return sum(count(n // d, k - 1) for d in oracle_divisors(n))

    t = build_factor_table(200)
    for n in (1, 4, 12, 30, 64, 90):
        for k in (2, 3, 4):
            assert tau_k(t.factorize(n), k) == count(n, k)


def test_functions_agree_with_divisor_loop_oracles():
    t = build_factor_table(10**4)
    for n in range(1, 10**4 + 1):
        f = t.factorize(n)
        divs = None
        # sigma via divisor loop
        s = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                s += d
                if d != n // d:
                    s += n // d
            d += 1
        assert sigma(f) == s
        # mobius via oracle factorisation
        pairs = oracle_trial_division(n)
        mu = 0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)
        assert mobius(f) == mu
    # phi via coprime count (vectorised; the naive definition)
    for n in range(1, 10**4 + 1, 7):
        phi = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
        assert euler_phi(t.factorize(n)) == phi


# -- chi4 / r2 / two squares --------------------------------------------------


def test_chi4():
    assert chi4(1) == 1 and chi4(2) == 0 and chi4(7) == -1
    assert [chi4(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]
    with pytest.raises(ValidationError):
        chi4(-1)


def test_r2_examples():
    f = trial_factorize
    assert r2(f(1)) == 4
    assert r2(f(3)) == 0
    assert r2(f(25)) == 12


def test_r2_equals_lattice_count():
    t = build_factor_table(10**4)
    arr = r2_lattice_range(10**4)
    for n in range(1, 10**4 + 1):
        assert r2(t.factorize(n)) == arr[n]


def test_r2_on_equals_lattice_range():
    got = r2_on(range(1, 10**6 + 1))
    assert got.dtype == np.int32
    assert np.array_equal(got, r2_lattice_range(10**6)[1:])
    assert r2_on(range(5, 5, 4)).size == 0
    with pytest.raises(ValidationError):
        r2_on(range(0, 5))
    with pytest.raises(ValidationError):
        r2_on(range(9, 1, -4))


PRIME_POWERS = [p**e for p in (2, 3, 5, 7, 11, 13) for e in range(1, 9) if p**e <= 10**5]
STARTS = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.builds(lambda k, q: k * q, st.integers(min_value=1, max_value=60), st.sampled_from(PRIME_POWERS)),
)
STEPS = st.one_of(st.sampled_from([1, 4, 9, 12, 25, 420]), st.integers(min_value=1, max_value=10**4))


@given(start=STARTS, step=STEPS, count=st.integers(min_value=0, max_value=60))
def test_r2_on_property(start, step, count):
    prog = range(start, start + count * step, step)
    assert r2_on(prog).tolist() == [r2(trial_factorize(m)) for m in prog]


# p^k for k >= 3, p = 1 (mod 4) and p = 3 (mod 4), below 2^32
HIGH_POWERS = [p**k for p in (3, 5, 7, 11, 13, 17) for k in range(3, 21) if p**k < WITNESS_LIMIT]


@st.composite
def wide_progressions(draw):
    """Progressions that cross 2^31, where the terms turn from int32 to
    int64, that end just below bins.WITNESS_LIMIT = 2^32, or whose terms
    carry a prime power p^k, k >= 3, up to 2^32."""
    step = draw(STEPS)
    count = draw(st.integers(min_value=1, max_value=30))
    span = (count - 1) * step
    kind = draw(st.sampled_from(["int32 edge", "witness limit", "high powers"]))
    if kind == "int32 edge":  # the last term is 2^31 - 1 or above
        start = 2**31 - draw(st.integers(min_value=0, max_value=span + 1))
    elif kind == "witness limit":
        start = WITNESS_LIMIT - 1 - span - draw(st.integers(min_value=0, max_value=step))
    else:
        q = draw(st.sampled_from(HIGH_POWERS))
        start = q * draw(st.integers(min_value=1, max_value=(WITNESS_LIMIT - 1) // q))
        step = draw(st.sampled_from([step, q, step * q]))
        count = min(count, (WITNESS_LIMIT - 1 - start) // step + 1)
    return range(start, start + count * step, step)


@given(prog=wide_progressions())
def test_r2_on_wide_property(prog):
    assert r2_on(prog).tolist() == [oracle_r2(m) for m in prog]


@given(start=st.integers(min_value=-10**6, max_value=0), step=STEPS, count=st.integers(min_value=1, max_value=60))
def test_r2_on_rejects_terms_below_one(start, step, count):
    with pytest.raises(ValidationError):
        r2_on(range(start, start + count * step, step))


def test_lattice_range_is_bruteforce():
    arr = r2_lattice_range(300)
    for n in range(301):
        assert arr[n] == rd_bruteforce(n, 2)


def test_two_squares_iff_r2_positive():
    t = build_factor_table(10**4)
    for n in range(1, 10**4 + 1):
        f = t.factorize(n)
        assert is_sum_of_two_squares(f) == (r2(f) > 0)
    assert is_sum_of_two_squares(trial_factorize(9))
    assert not is_sum_of_two_squares(trial_factorize(21))
    assert is_sum_of_two_squares(trial_factorize(2))


# -- r_d --------------------------------------------------------------------


def test_rd_bruteforce_examples():
    assert rd_bruteforce(5, 2) == 8
    assert rd_bruteforce(9, 3) == 30
    assert rd_bruteforce(0, 4) == 1


def test_rd_bruteforce_guard():
    with pytest.raises(ResourceGuardError):
        rd_bruteforce(10**7, 3)
    with pytest.raises(ResourceGuardError):
        rd_bruteforce(100, 7)


def test_rd_square_identity_examples():
    assert rd_square_identity(3, 3) == 30 == rd_bruteforce(9, 3)
    assert rd_square_identity(2, 4) == 24 == rd_bruteforce(4, 4)
    assert rd_square_identity(1, 3) == 6 == rd_bruteforce(1, 3)
    with pytest.raises(ValidationError):
        rd_square_identity(3, 5)


def test_rd_square_identity_vs_bruteforce():
    for n in range(1, 61):
        assert rd_square_identity(n, 3) == rd_bruteforce(n * n, 3)
    for n in range(2, 61, 2):
        assert rd_square_identity(n, 4) == rd_bruteforce(n * n, 4)


def test_rd4_odd_discrepancy_is_exactly_three():
    # for odd n the stated d=4 identity triples the true count; recorded,
    # not patched (see the odd-n open question)
    for n in (1, 3, 5, 7, 9, 15):
        assert rd_square_identity(n, 4) == 3 * rd_bruteforce(n * n, 4)


# -- g functions --------------------------------------------------------------


def test_g_examples():
    f = trial_factorize
    assert g2(f(5)) == Fraction(9, 5)
    assert g2(f(3)) == Fraction(1, 3)
    assert g1(f(3)) == Fraction(4, 3)
    assert g3(f(5)) == Fraction(8, 15)
    assert g4(f(5)) == Fraction(43, 15)
    assert g7(f(15)) == 24
    assert g5(f(3)) == math.log(3) / 8
    assert g6(f(3)) == math.log(3)
    assert g6(f(5)) == pytest.approx(
        (16 * 11) / (6 * 86) * math.log(5)
    )
    assert g5(f(15)) == math.fsum([math.log(3) / 8, float(Fraction(11, 24)) * math.log(5)])
    assert g_function(2, f(5)) == Fraction(9, 5)


def test_g_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        g2(trial_factorize(9))  # not squarefree
    with pytest.raises(ValidationError):
        g2(trial_factorize(2))  # even
    with pytest.raises(ValidationError):
        g_function(8, trial_factorize(3))
    with pytest.raises(ValidationError):
        g_rows(2, np.array([[1], [2]]))  # even


def test_g_multiplicativity():
    smalls = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    pairs = [
        (a, b)
        for i, a in enumerate(smalls)
        for b in smalls[i + 1 :]
        if a * b <= 10**4
    ] + [(15, 77), (21, 65), (33, 91)]
    for a, b in pairs:
        fa, fb, fab = trial_factorize(a), trial_factorize(b), trial_factorize(a * b)
        for g in (g1, g2, g3, g4, g7):
            assert g(fab) == g(fa) * g(fb), (g, a, b)
        for g in (g5, g6):
            assert g(fab) == pytest.approx(g(fa) + g(fb), rel=1e-15, abs=0)


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 97, 101, 65537, 999983]


@given(
    st.lists(st.sets(st.sampled_from(ODD_PRIMES), max_size=6), min_size=1, max_size=12),
    st.booleans(),
)
def test_g_rows_vs_exact(rows, with_two):
    """Each rule's float64 row evaluator against float(g_function) within
    1e-15 relative, on rows of distinct ascending primes padded with 1; g1
    and g7 also take p = 2."""
    width = max(map(len, rows)) + 1
    for gid in range(1, 8):
        even = with_two and gid in (1, 7)
        ps = [sorted(row | {2}) if even else sorted(row) for row in rows]
        P = np.array([row + [1] * (width - len(row)) for row in ps], dtype=np.int64)
        got = g_rows(gid, P)
        want = [float(g_function(gid, Factorization(tuple((p, 1) for p in row)))) for row in ps]
        assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0), gid


# -- Ramanujan sums ------------------------------------------------------------


def test_ramanujan_examples():
    assert ramanujan_sum(1, 0) == 1 and ramanujan_sum(1, 17) == 1
    assert ramanujan_sum(3, 3) == 2
    assert ramanujan_sum(3, 1) == -1


def test_ramanujan_vs_complex_sum():
    for r in range(1, 201):
        a = np.array([x for x in range(1, r + 1) if math.gcd(x, r) == 1])
        hs = np.arange(0, 201)
        grid = np.exp(2j * np.pi * np.outer(a, hs) / r).sum(axis=0)
        for h in range(0, 201):
            direct = grid[h]
            assert abs(direct.imag) < 1e-9
            val = ramanujan_sum(r, h)
            assert abs(val - direct.real) < 1e-9
            assert isinstance(val, int)


# -- convolution transforms -----------------------------------------------------


def test_convolution_examples():
    f = trial_factorize
    recip = lambda p: Fraction(1, p)
    assert convolution_transform("f_star", recip, f(7)) == 6  # p - 1
    assert convolution_transform("f_dstar", recip, f(7)) == 0  # 1 - p/p
    sq = lambda p: Fraction(1, p * p)
    assert convolution_transform("g_dstar", sq, f(5)) == Fraction(4, 5)  # 1 - 1/p
    # multiplicative over squarefree
    assert convolution_transform("f_star", recip, f(21)) == 2 * 6
    with pytest.raises(ValidationError):
        convolution_transform("f_star", lambda p: Fraction(0), f(3))
    with pytest.raises(ValidationError):
        convolution_transform("nope", recip, f(3))


# -- squarefree products of a prime set ---------------------------------------


@pytest.mark.parametrize(
    "primes, bound",
    [
        ([], 50),
        ([2], 1),
        ([3, 7, 11, 19, 23], 1000),
        ([5, 13, 17, 29, 37, 41], 10**5),
        ([2, 3, 5, 7, 11, 13], 3000),
        ([p for p in range(5, 400, 4) if oracle_trial_division(p) == ((p, 1),)], 5000),
    ],
)
def test_squarefree_products_vs_trial_division(primes, bound):
    """Values, mu, prime tuples and order against brute force, for the DFS
    oracle and for squarefree_table.  DFS pre-order over ascending primes is
    the lexicographic order of the prime tuples; the table is in ascending
    order of a, each prime row padded with 1 to the largest omega."""
    allowed = set(primes)
    expected = []
    for a in range(1, bound + 1):
        pairs = oracle_trial_division(a)
        if all(e == 1 and p in allowed for p, e in pairs):
            ps = tuple(p for p, _ in pairs)
            expected.append((a, (-1) ** len(ps), ps))
    expected.sort(key=lambda row: row[2])
    assert list(squarefree_products(primes, bound)) == expected
    vals, mus, P = squarefree_table(primes, bound)
    width = max(len(ps) for _, _, ps in expected)
    assert vals.dtype == mus.dtype == P.dtype == np.int64 and P.shape == (len(expected), width)
    expected.sort()
    assert vals.tolist() == [a for a, _, _ in expected]
    assert mus.tolist() == [mu for _, mu, _ in expected]
    assert P.tolist() == [list(ps) + [1] * (width - len(ps)) for _, _, ps in expected]


def test_squarefree_products_stops_at_the_bound():
    # None * int raises, so reading the entry past 23 would fail the test
    got = [a for a, _, _ in squarefree_products([3, 5, 7, 11, 23, None], 20)]
    assert got == [1, 3, 15, 5, 7, 11]


@given(
    st.sets(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]), max_size=8),
    st.integers(1, 4000),
)
def test_divisor_incidence_vs_trial_division(prime_set, bound):
    """Each element's incidence rows are exactly its divisors, each once."""
    vals, _, P = squarefree_table(sorted(prime_set), bound)
    elem, div = divisor_incidence(vals, P)
    got = [[] for _ in vals]
    for i, j in zip(elem.tolist(), div.tolist()):
        got[i].append(int(vals[j]))
    for a, divs in zip(vals.tolist(), got):
        assert sorted(divs) == [d for d in range(1, a + 1) if a % d == 0], a


# -- CRT helpers -----------------------------------------------------------------


def test_progression_slice_vs_filter():
    for ns in (range(1, 500), range(13, 5000, 420), range(7, 3000, 12), range(9, 9, 4)):
        for residues, moduli in (([0], [5]), ([3], [7]), ([0, 2], [3, 5]), ([1], [2]), ([0], [1])):
            want = [i for i, x in enumerate(ns) if all((x - r) % m == 0 for r, m in zip(residues, moduli))]
            hits = progression_slice(ns, residues, moduli)
            got = [] if hits is None else list(range(len(ns)))[hits]
            assert got == want, (ns, residues, moduli)
    assert progression_slice(range(1, 100, 4), [0], [2]) is None  # odd class, even target


@pytest.mark.parametrize(
    "N, theta, want",
    [(10**6, 1 / 3, 100), (3**12, 1 / 6, 9), (2**30, 0.3, 512), (2**30, 0.6, 2**18)],
)
def test_floor_power_at_exact_powers(N, theta, want):
    assert floor_power(N, theta) == want


def test_floor_power_is_the_integer_floor():
    for N in (4, 10, 99, 100, 1000, 12345, 10**6, 2**20, 3**10):
        for theta in (0.1, 0.2, 0.25, 1 / 3, 0.35, 0.5, 0.6, 2 / 3, 0.8, 1.0, 1.2, 1.6):
            th = Fraction(theta).limit_denominator(1000)
            p, q = th.numerator, th.denominator
            r = floor_power(N, theta)
            assert r**q <= N**p < (r + 1) ** q, (N, theta)


def test_crt_refuses_unequal_lists():
    # zip would drop the congruence that has no modulus
    for residues, moduli in [([0, 1, 2], [3, 5]), ([0], [3, 5]), ([], [4])]:
        with pytest.raises(ValidationError, match="residues for"):
            crt(residues, moduli)


def test_crt_and_counting():
    assert crt([1, 2], [4, 3]) == (5, 12)
    assert crt([1, 0], [4, 2]) is None
    assert crt([0], [1]) == (0, 1)
    assert count_in_class(10, 20, 1, 4) == 2
    assert count_in_class(0, 0, 0, 1) == 0
    assert count_in_class(5, 6, 5, 7) == 1


# -- CRT helpers and floor_power against brute force ---------------------------

MODULI = st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 24)), min_size=1, max_size=3)


@given(congruences=MODULI)
def test_crt_property(congruences):
    residues, moduli = zip(*congruences)
    lcm = math.lcm(*moduli)
    hits = [x for x in range(lcm) if all((x - r) % m == 0 for r, m in congruences)]
    assert crt(residues, moduli) == ((hits[0], lcm) if hits else None)


@given(lo=st.integers(-60, 60), width=st.integers(-5, 80), residue=st.integers(-40, 40), modulus=st.integers(1, 24))
def test_count_in_class_property(lo, width, residue, modulus):
    want = sum(1 for n in range(lo, lo + width) if (n - residue) % modulus == 0)
    assert count_in_class(lo, lo + width, residue, modulus) == want


@given(start=st.integers(1, 60), count=st.integers(0, 80), step=st.integers(1, 30), congruences=MODULI)
def test_progression_slice_property(start, count, step, congruences):
    ns = range(start, start + count * step, step)
    residues, moduli = zip(*congruences)
    want = [i for i, x in enumerate(ns) if all((x - r) % m == 0 for r, m in congruences)]
    hits = progression_slice(ns, residues, moduli)
    assert ([] if hits is None else list(range(len(ns)))[hits]) == want


@given(start=st.integers(1, 10**6), count=st.integers(0, 80), step=STEPS, q=st.integers(1, 2000))
def test_multiples_property(start, count, step, q):
    # the modular-inverse offset when (q, step) = 1, progression_slice otherwise
    ns = range(start, start + count * step, step)
    hits = multiples(ns, q)
    want = [i for i, x in enumerate(ns) if x % q == 0]
    assert ([] if hits is None else list(range(len(ns)))[hits]) == want
    if math.gcd(q, step) == 1:
        assert hits is not None and 0 <= hits.start < q and hits.step == q


@st.composite
def shifted_windows(draw):
    """A window ns and shifts with repeats, negative shifts, shifts in
    different classes mod the step, and shifts of one class whose
    translates overlap, touch or lie far apart; every n + h >= 1."""
    step = draw(st.one_of(st.sampled_from([1, 4, 12, 420]), st.integers(1, 50)))
    count = draw(st.integers(0, 30))
    near = st.integers(-3 * step, 3 * step)
    hs = draw(st.lists(st.one_of(near, st.integers(-2000, 2000)), min_size=1, max_size=4))
    # the same class as a drawn shift, its translate a gap of 0 to 3 steps past
    # that shift's, or far beyond
    for h in draw(st.lists(st.sampled_from(hs), max_size=2)):
        hs.append(h + step * (count + draw(st.one_of(st.integers(0, 3), st.integers(10, 200)))))
    hs += draw(st.lists(st.sampled_from(hs), max_size=2))  # repeats
    start = 1 - min(hs) + draw(st.integers(0, 10**4))
    stop = start + count * step - draw(st.integers(0, step - 1)) if count else start
    return range(start, stop, step), draw(st.permutations(hs))


@given(case=shifted_windows())
def test_on_shifts_property(case):
    ns, hs = case
    for f in (r2_on, lambda terms: rho_on(40, terms)):
        spans = []
        at = on_shifts(lambda terms: spans.append(terms) or f(terms), ns, hs)
        assert set(at) == set(hs)
        for h, got in at.items():
            shifted = range(ns.start + h, ns.stop + h, ns.step)
            want = f(shifted)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[:1] = 0
        # every n + h is computed exactly once, and nothing else is
        sieved = [m for span in spans for m in span]
        assert len(sieved) == len(set(sieved))
        assert set(sieved) == {n + h for n in ns for h in hs}
    at = on_shifts(r2_on, ns, hs)
    for h in hs:
        assert at[h].tolist() == [r2(trial_factorize(n + h)) for n in ns]


def test_on_shifts_of_an_empty_window():
    # the translates of an empty window are empty, even below 1, and so is
    # what f is called on
    for ns in (range(1, 1, 4), range(5, 2)):
        for f in (r2_on, lambda terms: rho_on(40, terms)):
            at = on_shifts(f, ns, [-20, -4, 0, 7, -20])
            assert sorted(at) == [-20, -4, 0, 7] and all(a.size == 0 for a in at.values())


@st.composite
def powers(draw):
    """(N, theta) with theta = p/q, and N drawn both at random and as an
    exact q-th power, where N^p is the q-th power of an integer."""
    q = draw(st.integers(1, 12))
    p = draw(st.integers(1, 2 * q))
    N = draw(st.one_of(st.integers(1, 10**12), st.integers(1, 10**(12 // q) + 1).map(lambda b: b**q)))
    return N, p / q


@given(case=powers())
def test_floor_power_property(case):
    N, theta = case
    p, q = Fraction(theta).limit_denominator(1000).as_integer_ratio()
    r = floor_power(N, theta)
    assert r**q <= N**p < (r + 1) ** q
