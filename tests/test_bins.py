import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twosquares import arith
from twosquares.arith import (
    _isqrt,
    build_factor_table,
    is_sum_of_two_squares,
    primes_up_to,
    r2_on,
    trial_factorize,
    two_squares,
    two_squares_on,
)
from twosquares.bins import (
    WITNESS_LIMIT,
    BinPartition,
    Witnesses,
    default_mu_t,
    feasibility_condition,
    jakobson_tuple,
    pigeonhole_extract,
    second_moment_lhs,
    theorem_constants,
    verify_witness,
    witness_csv_rows,
    witness_search,
)
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.sieve import AdmissibleTuple, SieveParams, check_admissible, find_v0, lambda_from_F


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


def assert_certificates_match_scan(found):
    for n, hs, xys in zip(found.n.tolist(), found.accepted.tolist(), found.certificates.tolist()):
        for h, xy in zip(hs, xys):
            assert tuple(xy) == two_square_scan(n + h), (n, h)


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
    found = witness_search(p, tup, part, 11000)
    expected = [
        n
        for n in range(10**4, 11000)
        if n % 4 == 1 and is_sum_of_two_squares(ftab.factorize(n))
    ]
    assert found.n.tolist() == expected
    assert verify_witness(found)
    assert_certificates_match_scan(found)


def test_witness_search_two_bins(ftab):
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0, 4, 16))
    part = BinPartition(sizes=(1, 2))
    found = witness_search(p, tup, part, 2 * 10**4)
    assert len(found) >= 1
    assert_certificates_match_scan(found)
    assert verify_witness(found)
    for n, h2 in zip(found.n[:20].tolist(), found.accepted[:20, 1].tolist()):
        # accepted element of bin 2 is the smallest working shift
        assert h2 in (4, 16)
        if h2 == 16:
            assert not is_sum_of_two_squares(ftab.factorize(n + 4))
    rows = witness_csv_rows(found)
    assert rows[0] == "n,bin,h,x,y"
    n, b, h, x, y = map(int, rows[1].split(","))
    assert x * x + y * y == n + h


def test_witness_search_empty_window():
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0,))
    part = BinPartition(sizes=(1,))
    assert len(witness_search(p, tup, part, 10**4)) == 0


def test_witness_search_negative_shifts():
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = jakobson_tuple(2)  # shifts -100, -10000
    part = BinPartition(sizes=(1, 1))
    found = witness_search(p, tup, part, 2 * 10**4)
    assert len(found), "jakobson prefix should have witnesses in this window"
    assert_certificates_match_scan(found)
    assert verify_witness(found)
    for n, hs, xys in zip(found.n[:10].tolist(), found.accepted[:10].tolist(),
                          found.certificates[:10].tolist()):
        for h, (x, y) in zip(hs, xys):
            assert x * x + y * y == n + h


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
    found = witness_search(p, tup, part, WITNESS_LIMIT - 16)
    assert len(found) and verify_witness(found)
    assert_certificates_match_scan(found)
    with pytest.raises(ResourceGuardError):
        witness_search(p, tup, part, WITNESS_LIMIT - 15)


def test_verify_witness_rejects_forgeries():
    p = relaxed(10**4, 0.1, 0.5, 1)
    found = witness_search(p, AdmissibleTuple((0, 4, 16)), BinPartition(sizes=(1, 2)), 2 * 10**4)
    assert verify_witness(found)
    # a row whose bin {4, 16} accepted 4, and n + 16 is a sum of two squares too
    xy16 = two_squares(found.n + 16)
    j = next(j for j in range(len(found)) if found.accepted[j, 1] == 4 and xy16[j, 0] >= 0)

    wrong_y, wrong_h, swapped = found.certificates.copy(), found.certificates.copy(), found.accepted.copy()
    wrong_y[j, 0, 1] += 1
    wrong_h[j, 1] = xy16[j]
    swapped[j, 1] = 16
    forged = [
        replace(found, certificates=wrong_y),
        replace(found, certificates=wrong_h),
        replace(found, accepted=swapped),
        replace(found, certificates=found.certificates[:, :1]),
    ]
    assert not any(verify_witness(f) for f in forged)


def test_verify_witness_rejects_forgeries_mod_2_64():
    # 10609 = 103^2 is a witness with certificate (103, 0); (103, 2^32) is
    # right modulo 2^64, where int64 squares wrap
    p = relaxed(10**4, 0.1, 0.5, 1)
    found = witness_search(p, AdmissibleTuple((0,)), BinPartition(sizes=(1,)), 2 * 10**4)
    j = found.n.tolist().index(10609)
    assert found.certificates[j].tolist() == [[103, 0]] and verify_witness(found)
    c = found.certificates.copy()
    c[j, 0, 1] = 2**32
    wrapped = replace(found, certificates=c)
    x, y = c[..., 0], c[..., 1]
    assert (x * x + y * y == found.n[:, None] + found.accepted).all()
    assert not verify_witness(wrapped)
    # n + h = 25 - 2^64 wraps to 25 = 4^2 + 3^2 in int64
    assert not verify_witness(Witnesses([-(2**63)], [[25 - 2**63]], [[[4, 3]]]))


def witness_oracle(params, tup, partition, n_limit):
    """Per-n scalar witness search: the window by filtering every integer,
    r_2 > 0 from trial factorisations, certificates from two_square_scan."""
    v0 = find_v0(params, tup)
    n_col, accepted, certificates = [], [], []
    for n in range(params.N, n_limit):
        if n % 4 != 1 or (n - v0) % params.W:
            continue
        row = []
        for i in range(partition.M):
            hs = [
                tup.h[j]
                for j in partition.indices(i)
                if is_sum_of_two_squares(trial_factorize(n + tup.h[j]))
            ]
            if not hs:
                break
            row.append(min(hs))
        else:
            n_col.append(n)
            accepted.append(row)
            certificates.append([list(two_square_scan(n + h)) for h in row])
    return n_col, accepted, certificates


@given(
    N=st.integers(2000, 2 * 10**4),
    width=st.integers(0, 2000),
    D0=st.sampled_from([1, 3, 5, 10]),
    h=st.lists(st.integers(-12, 12).map(lambda x: 4 * x), min_size=1, max_size=5, unique=True),
    cuts=st.sets(st.integers(1, 4)),
)
def test_witness_search_matches_scalar_oracle(N, width, D0, h, cuts):
    assume(check_admissible(h).admissible)
    p, tup = relaxed(N, 0.1, 0.5, D0), AdmissibleTuple(h)
    bounds = sorted({0, tup.k} | {c for c in cuts if c < tup.k})
    part = BinPartition(sizes=tuple(b - a for a, b in zip(bounds, bounds[1:])))
    try:
        find_v0(p, tup)
    except ValidationError:
        assume(False)
    n_limit = min(N + width, 2 * 10**4)
    found = witness_search(p, tup, part, n_limit)
    n_col, accepted, certificates = witness_oracle(p, tup, part, n_limit)
    assert found.n.tolist() == n_col
    assert found.accepted.tolist() == accepted
    assert found.certificates.tolist() == certificates
    assert found.accepted.shape == (len(n_col), part.M) and verify_witness(found)


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


def test_two_squares_convention():
    # the least (x, y) with x >= y >= 0; (-1, -1) for a non-sum, (0, 0) for 0
    got = two_squares([16, 1, 2, 25, 3, 0]).tolist()
    assert got == [[4, 0], [1, 0], [1, 1], [4, 3], [-1, -1], [0, 0]]


def test_two_squares_large_non_sum(monkeypatch):
    # an even power of a small prime 3 (mod 4) is no obstacle, for large m or
    # small; an odd one rejects small m as the walk would
    ms = [9 * (1000**2 + 999**2), 7**2 * 11**2 * (1000**2 + 999**2), 9 * 49 * 2**10, 9 * 5 * 2**9]
    ms += [0, 9, 21, 23 * 2, 9 * 21]
    assert two_squares(ms).tolist() == [list(two_square_scan(m) or (-1, -1)) for m in ms]

    # a non-sum is rejected without the ~0.3 sqrt(m) walk: _isqrt runs for the
    # start x and no step (21 * 2^40 walked about 25 s before the small primes)
    calls = []

    def start_only(v):
        calls.append(len(v))
        assert len(calls) == 1, "two_squares walked"
        return _isqrt(v)

    monkeypatch.setattr(arith, "_isqrt", start_only)
    for ms in (
        [2**52 - 2],  # odd part 2^51 - 1 = 3 (mod 4)
        [3 * 2**40, 7 * 4**20, 2**52 - 1],
        [21 * 2**40, 7 * 11 * 2**30, 9 * 21 * 2**40],  # odd part 1 (mod 4), 3 or 7 to an odd power
        [21, 11 * 19 * 4, 23 * 3 * 2],  # small m as well
    ):
        calls.clear()
        assert two_squares(ms).tolist() == [[-1, -1]] * len(ms)


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


def _run_gap(v):
    """The largest g with 2 g <= floor(sqrt(v + g)), about sqrt(v) / 2: values
    that far apart start their walks at the same x or the next one."""
    g = math.isqrt(v) // 2
    while 2 * (g + 1) <= math.isqrt(v + g + 1):
        g += 1
    return g


@st.composite
def _straddling_cluster(draw):
    # up to six nearby values, each that gap, one less or one more past the last
    v, out = draw(st.integers(1, 10**7)), []
    for _ in range(draw(st.integers(1, 6))):
        out.append(v)
        v += max(_run_gap(v) + draw(st.sampled_from((-1, 0, 1))), 0)
    return out


@st.composite
def _sum_cluster(draw):
    # sums x^2 + y^2 around a random centre, where values with several
    # representations fall in one block of x
    c = draw(st.integers(2, 10**7))
    x0 = math.isqrt(c // 2)
    xs = draw(st.lists(st.integers(x0, math.isqrt(c)), min_size=1, max_size=8))
    return [x * x + math.isqrt(max(c - x * x, 0)) ** 2 + draw(st.integers(0, 3)) ** 2 for x in xs]


_RUN_PARTS = st.one_of(
    _straddling_cluster(),
    _sum_cluster(),
    # non-sums that the prefilter lets through (odd part 1 mod 4, and none of
    # 3, 7, 11, 19, 23 divides them): only the walk past sqrt(m) rejects them
    st.lists(st.builds(lambda p, q, a: p * q * 2**a, st.sampled_from([31, 43, 47]),
                       st.sampled_from([59, 67, 71]), st.integers(0, 16)), max_size=3),
    # just below 2^52
    st.lists(st.builds(lambda x, d: x * x + (x - d) ** 2, st.integers(_C_MAX - 3000, _C_MAX),
                       st.integers(0, 2000)), max_size=3),
)


@st.composite
def _run_batches(draw):
    ms = [m for part in draw(st.lists(_RUN_PARTS, min_size=1, max_size=5)) for m in part]
    ms += draw(st.lists(st.sampled_from(ms), max_size=4)) if ms else []  # repeated values
    return draw(st.permutations(ms))


@pytest.mark.parametrize("block", [2, 64, arith._LATTICE_BLOCK])
@given(ms=_run_batches())
def test_two_squares_runs(block, ms):
    # batches of nearby values, repeats, non-sums the prefilter lets through
    # and values near 2^52; blocks of 2 and 64 (value, x) pairs make a walk
    # cross many block boundaries, and it goes on at the next x each time
    want = [list(two_square_scan(m) or (-1, -1)) for m in ms]
    with mock.patch.object(arith, "_LATTICE_BLOCK", block):
        got = two_squares(np.array(ms, dtype=np.int64))
    assert got.tolist() == want


_LATTICE_STEPS = st.one_of(st.sampled_from([1, 2, 3, 4, 12, 60, 420]), st.integers(1, 420))  # 4 W for W = 3, 15, 105


@st.composite
def _lattice_progressions(draw):
    # starts spread over 1 ... 2^32, or first terms at the dense bound
    # 4 step^2 and one either side; steps odd and even
    step, count = draw(_LATTICE_STEPS), draw(st.integers(0, 2000))
    if draw(st.booleans()):
        start = draw(st.integers(0, 31).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1))))
    else:
        start = 4 * step * step + draw(st.sampled_from([-1, 0, 1]))
    return range(start, start + count * step, step)


def check_two_squares_on(prog, block):
    # small blocks split rows of x and a term's points between blocks
    with mock.patch.object(arith, "_LATTICE_BLOCK", block):
        got = two_squares_on(prog)
    assert got.dtype == np.int64 and got.shape == (len(prog), 2)
    assert got.tolist() == two_squares(np.array(prog, dtype=np.int64)).tolist()
    if prog and prog[-1] < 2**33:  # r2_on near 2^52 would sieve by the 3.9 M primes below 2^26
        assert ((got[:, 0] >= 0) == (r2_on(prog) > 0)).all()


@given(prog=_lattice_progressions(), block=st.sampled_from([61, arith._LATTICE_BLOCK]))
def test_two_squares_on_property(prog, block):
    check_two_squares_on(prog, block)


@settings(max_examples=6)  # each takes ~0.5 s: ~2 * 10^7 rows of x, and the oracle walks each non-sum
@given(step=_LATTICE_STEPS, count=st.integers(0, 4), below=st.integers(0, 420))
def test_two_squares_on_near_limit(step, count, below):
    start = arith.TWO_SQUARES_LIMIT - 1 - max(count - 1, 0) * step - below % step
    check_two_squares_on(range(start, start + count * step, step), arith._LATTICE_BLOCK)


def test_two_squares_on_domain():
    assert two_squares_on(range(5, 5, 4)).shape == (0, 2)
    assert two_squares_on(range(arith.TWO_SQUARES_LIMIT - 1, arith.TWO_SQUARES_LIMIT)).tolist() == [[-1, -1]]
    for bad in (range(0, 9, 4), range(9, 1, -4), range(arith.TWO_SQUARES_LIMIT - 4, arith.TWO_SQUARES_LIMIT + 1)):
        with pytest.raises(ValidationError):
            two_squares_on(bad)


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


def test_two_squares_takes_integers_only():
    # a float is not truncated, nor a string parsed: [2.5, 5.9] gave [[1, 1], [2, 1]]
    for bad in ([2.5, 5.9], ["10"], np.array([5.0]), [5, 2**70]):
        with pytest.raises(ValidationError):
            two_squares(bad)
    assert two_squares(np.array([5, 25], dtype=np.uint16)).tolist() == [[2, 1], [4, 3]]
