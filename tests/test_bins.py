import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twosquares.arith import (
    _isqrt,
    build_factor_table,
    is_sum_of_two_squares,
    primes_up_to,
    two_squares,
)
from twosquares.bins import (
    WITNESS_LIMIT,
    BinPartition,
    default_mu_t,
    feasibility_condition,
    jakobson_tuple,
    pigeonhole_extract,
    second_moment_lhs,
    theorem_constants,
    two_square_decomposition,
    verify_witness,
    witness_csv_rows,
    witness_search,
)
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.sieve import AdmissibleTuple, SieveParams, lambda_from_F


def relaxed(N, t1, t2, D0):
    return SieveParams(N=N, theta1=t1, theta2=t2, D0=D0, strict=False)


def two_square_scan(m):
    """Oracle: the least x >= ceil(sqrt(m/2)) with m - x^2 a square, by an
    O(sqrt m) scan; None when there is none."""
    x = math.isqrt((m + 1) // 2)
    if 2 * x * x < m:
        x += 1
    while x * x <= m:
        y = math.isqrt(m - x * x)
        if x * x + y * y == m:
            return (x, y)
        x += 1
    return None


def assert_certificates_match_scan(records):
    for r in records:
        for h, xy in zip(r.accepted, r.certificates):
            assert xy == two_square_scan(r.n + h), (r.n, h)


# -- constants ---------------------------------------------------------------


def test_theorem_constants_example():
    tc = theorem_constants(1 / 40, 1 / 40)
    assert tc["Delta"] == pytest.approx(2.9655, abs=2e-4)
    assert tc["k1_min"] == 53
    # equal thetas: c is independent of the common value
    assert theorem_constants(1 / 50, 1 / 50)["c"] == pytest.approx(tc["c"])
    # Delta blows up as theta1 theta2 -> 0
    assert theorem_constants(1 / 400, 1 / 400)["Delta"] > tc["Delta"]
    with pytest.raises(ValidationError):
        theorem_constants(0.3, 0.3)


def test_default_mu_t():
    tc = theorem_constants(1 / 40, 1 / 40)
    mu, t, warn = default_mu_t((2, 4, 8), 1 / 40, 1 / 40)
    assert mu == pytest.approx((tc["c"],) * 3)
    assert t == pytest.approx((tc["c"],) * 3)
    assert not warn
    # mu_i / t_i = (k_i / 2^i)^(1/6)
    mu2, t2, _ = default_mu_t((8, 4), 1 / 40, 1 / 40)
    assert mu2[0] / t2[0] == pytest.approx((8 / 2) ** (1 / 6))
    # flooring
    _, _, warn3 = default_mu_t((1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 1 / 40, 1 / 40)
    assert warn3


def test_feasibility_for_paper_style_bins():
    tc = theorem_constants(1 / 40, 1 / 40)
    k1 = max(tc["k1_min"], 2**7 + 1)
    for M in range(1, 31):
        sizes = tuple(k1 if i == 1 else 2 ** (7 * i) + 1 for i in range(1, M + 1))
        fc = feasibility_condition(sizes, 1 / 40, 1 / 40)
        assert fc["feasible"], (M, fc)
        geo = tc["Delta"] * sum(2.0**-i for i in range(1, M + 1))
        assert fc["lhs"] <= geo + 1e-9
        assert geo <= tc["Delta"] < fc["rhs"]


def test_partition_validation():
    with pytest.raises(ValidationError):
        BinPartition(sizes=())
    with pytest.raises(ValidationError):
        BinPartition(sizes=(1, 1), betas=(0.7, 0.7))
    with pytest.raises(ValidationError):
        BinPartition(sizes=(2,), mu=(0.5,), t=(1.0,))  # mu < 1
    p = BinPartition(sizes=(1, 2))
    assert p.betas == (0.5, 0.25)
    assert list(p.indices(1)) == [1, 2]
    assert p.spec().k == 3


def test_jakobson_tuple():
    t = jakobson_tuple(3)
    assert set(t.h) == {-100, -2500, -62500}  # -(2*5^i)^2 = -4*25^i
    assert all(h % 4 == 0 for h in t.h)
    with pytest.raises(ValidationError):
        jakobson_tuple(0)


# -- second moment --------------------------------------------------------------


@pytest.mark.parametrize("D0", [1, 10])
@pytest.mark.parametrize(
    "shifts,sizes", [((0, 4), (2,)), ((0, 4, 16), (1, 2)), ((0, 4, 16), (3,))]
)
def test_second_moment_evaluators_agree(D0, shifts, sizes):
    p = relaxed(10**4, 0.12, 1.0, D0)
    tup = AdmissibleTuple(shifts)
    part = BinPartition(sizes=sizes, mu=(1.5,) * len(sizes), t=(1.2,) * len(sizes))
    wt = lambda_from_F(p, part.spec())
    res = second_moment_lhs(p, tup, part, wt)
    assert res.rel_difference < 1e-6


def test_second_moment_n1e5():
    p = relaxed(10**5, 0.07, 1.0, 10)
    tup = AdmissibleTuple((0, 4, 16))
    part = BinPartition(sizes=(1, 2), mu=(1.5, 2.5), t=(1.0, 2.0))
    wt = lambda_from_F(p, part.spec())
    res = second_moment_lhs(p, tup, part, wt)
    assert res.rel_difference < 1e-6


def test_second_moment_sign_structure():
    p = relaxed(10**4, 0.12, 1.0, 10)
    tup = AdmissibleTuple((0, 4, 16))
    # M = 2 with a huge second-bin mu: its squared deviation dominates
    part = BinPartition(sizes=(1, 2), mu=(1.5, 500.0), t=(1.0, 1.0))
    wt = lambda_from_F(p, part.spec())
    assert second_moment_lhs(p, tup, part, wt).lhs_direct < 0
    # M = 1 with huge mu is forced nonnegative (bracket = S(2mu - S)/t^2)
    tup2 = AdmissibleTuple((0, 4))
    part1 = BinPartition(sizes=(2,), mu=(500.0,), t=(1.0,))
    wt2 = lambda_from_F(p, part1.spec())
    assert second_moment_lhs(p, tup2, part1, wt2).lhs_direct >= 0


def test_second_moment_requires_mu_t():
    p = relaxed(10**4, 0.12, 1.0, 10)
    tup = AdmissibleTuple((0, 4))
    part = BinPartition(sizes=(2,))
    wt = lambda_from_F(p, part.spec())
    with pytest.raises(ValidationError):
        second_moment_lhs(p, tup, part, wt)


# -- witness search ----------------------------------------------------------------


def test_witness_search_single_bin_is_indicator(ftab):
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0,))
    part = BinPartition(sizes=(1,))
    records = witness_search(p, tup, part, 11000)
    expected = [
        n
        for n in range(10**4, 11000)
        if n % 4 == 1 and is_sum_of_two_squares(ftab.factorize(n))
    ]
    assert [r.n for r in records] == expected
    assert all(verify_witness(r) for r in records)
    assert_certificates_match_scan(records)


def test_witness_search_two_bins(ftab):
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0, 4, 16))
    part = BinPartition(sizes=(1, 2))
    records = witness_search(p, tup, part, 2 * 10**4)
    assert len(records) >= 1
    assert_certificates_match_scan(records)
    for r in records[:20]:
        assert verify_witness(r)
        # accepted element of bin 2 is the smallest working shift
        h2 = r.accepted[1]
        assert h2 in (4, 16)
        if h2 == 16:
            assert not is_sum_of_two_squares(ftab.factorize(r.n + 4))
    rows = witness_csv_rows(records[:2])
    assert rows[0] == "n,bin,h,x,y"
    n, b, h, x, y = map(int, rows[1].split(","))
    assert x * x + y * y == n + h


def test_witness_search_empty_window():
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0,))
    part = BinPartition(sizes=(1,))
    assert witness_search(p, tup, part, 10**4) == []


def test_witness_search_negative_shifts():
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = jakobson_tuple(2)  # shifts -100, -10000
    part = BinPartition(sizes=(1, 1))
    records = witness_search(p, tup, part, 2 * 10**4)
    assert records, "jakobson prefix should have witnesses in this window"
    assert_certificates_match_scan(records)
    for r in records[:10]:
        assert verify_witness(r)
        for h, (x, y) in zip(r.accepted, r.certificates):
            assert x * x + y * y == r.n + h


def test_witness_rejects_negative_start():
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = jakobson_tuple(3)  # includes -10^6 < -N
    part = BinPartition(sizes=(1, 1, 1))
    with pytest.raises(ValidationError):
        witness_search(p, tup, part, 2 * 10**4)


def test_witness_search_limit():
    # the largest n + h may be WITNESS_LIMIT - 1, not WITNESS_LIMIT
    p = relaxed(WITNESS_LIMIT - 200, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0, 4, 16))
    part = BinPartition(sizes=(1, 2))
    records = witness_search(p, tup, part, WITNESS_LIMIT - 16)
    assert records and all(verify_witness(r) for r in records)
    assert_certificates_match_scan(records)
    with pytest.raises(ResourceGuardError):
        witness_search(p, tup, part, WITNESS_LIMIT - 15)


def test_verify_witness_rejects_forgeries():
    p = relaxed(10**4, 0.1, 0.5, 1)
    records = witness_search(p, AdmissibleTuple((0, 4, 16)), BinPartition(sizes=(1, 2)), 2 * 10**4)
    # bin {4, 16} accepted 4, and n + 16 is a sum of two squares too
    r = next(r for r in records if r.accepted[1] == 4 and two_square_decomposition(r.n + 16))
    assert verify_witness(r)
    (x0, y0), xy1 = r.certificates
    forged = [
        replace(r, certificates=((x0, y0 + 1), xy1)),
        replace(r, certificates=((x0, y0), two_square_decomposition(r.n + 16))),
        replace(r, accepted=(r.accepted[0], 16)),
        replace(r, certificates=((x0, y0),)),
    ]
    assert not any(verify_witness(f) for f in forged)


# -- pigeonhole ---------------------------------------------------------------------


def test_pigeonhole_constant_table():
    r = pigeonhole_extract([(9, 8, 7)] * 5)
    assert r.a == (9, 8, 7) and r.depth == 3
    assert all(len(s) == 5 for s in r.supporting_rows)


def test_pigeonhole_majority_and_erasure():
    r = pigeonhole_extract([(1,), (1, 2), (3, 2, 2)])
    assert r.a == (1, 2)
    assert r.supporting_rows[0] == (0, 1)  # row 3 erased at column 1


def test_pigeonhole_tie_breaks_smallest():
    r = pigeonhole_extract([(5,), (3,)])
    assert r.a == (3,)


def test_pigeonhole_prefix_invariant():
    rows = [(2,), (2, 5), (2, 5, 7), (2, 6, 8), (1, 5, 7, 9)]
    r = pigeonhole_extract(rows)
    for depth, surviving in enumerate(r.supporting_rows, start=1):
        for idx in surviving:
            assert rows[idx][:depth] == r.a[:depth]


def test_two_square_decomposition_convention():
    assert two_square_decomposition(16) == (4, 0)
    assert two_square_decomposition(1) == (1, 0)
    assert two_square_decomposition(2) == (1, 1)
    assert two_square_decomposition(25) == (4, 3)
    assert two_square_decomposition(3) is None
    assert two_square_decomposition(0) == (0, 0)


def test_two_square_decomposition_large_non_sum():
    # odd part 2^51 - 1 = 3 (mod 4): rejected without the ~0.3 sqrt(m) walk
    assert two_square_decomposition(2**52 - 2) is None
    assert two_squares([3 * 2**40, 7 * 4**20, 2**52 - 1]).tolist() == [[-1, -1]] * 3


# the largest c with 2 c^2 < 2^52, so every x^2 + y^2 with c >= x >= y is in range
_C_MAX = math.isqrt(2**51 - 1)
_P1 = [int(p) for p in primes_up_to(2000) if p % 4 == 1]
_P3 = [int(p) for p in primes_up_to(2000) if p % 4 == 3]
_SPECIAL = st.one_of(
    st.integers(0, 10**6),
    st.integers(0, 1000).map(lambda k: k * k),
    st.builds(lambda a, p: 2**a * p, st.integers(0, 8), st.sampled_from([2, 3] + _P1 + _P3)),
    # a prime 3 (mod 4) to an odd power: never a sum of two squares
    st.builds(lambda q, e, s: q ** (2 * e + 1) * s, st.sampled_from(_P3[:8]), st.integers(0, 1),
              st.integers(1, 50)),
    # just below 2^52: x^2 + y^2 with x, y near sqrt(2^51), so the scan stays short
    st.builds(lambda x, d: x * x + (x - d) ** 2, st.integers(_C_MAX - 3000, _C_MAX),
              st.integers(0, 2000)),
)


@given(st.lists(_SPECIAL, max_size=40))
def test_two_squares_property(ms):
    ms = [0, 1, 2, *ms]
    want = [list(two_square_scan(m) or (-1, -1)) for m in ms]
    got = two_squares(np.array(ms, dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (len(ms), 2)
    assert got.tolist() == want


@given(st.integers(1, 2**26 - 1))
def test_float_sqrt_floors_exactly_below_limit(k):
    vs = [k * k - 1, k * k, k * k + 2 * k]  # all below 2^52
    assert _isqrt(np.array(vs, dtype=np.int64)).tolist() == [k - 1, k, k]


def test_two_squares_across_blocks():
    # three blocks of rows and a ragged fourth, in shuffled order
    ms = np.random.default_rng(0).permutation(3 * 2**13 + 5)
    want = [list(two_square_scan(m) or (-1, -1)) for m in ms.tolist()]
    assert two_squares(ms).tolist() == want


def test_two_squares_domain():
    # the reason for the limit: one past it the float sqrt rounds up to k + 1
    k = 2**26 + 1
    assert _isqrt(np.array([k * k - 1]))[0] == k != math.isqrt(k * k - 1)
    assert two_squares([]).shape == (0, 2)
    assert two_squares([2 * _C_MAX**2]).tolist() == [[_C_MAX, _C_MAX]]
    over = 2 * (_C_MAX + 1) ** 2  # just over 2^52, found at once if it were let in
    for bad in ([-1], [5, over], [2**70]):
        with pytest.raises(ValidationError):
            two_squares(bad)
    assert two_square_decomposition(-1) is None
    with pytest.raises(ValidationError):
        two_square_decomposition(over)
