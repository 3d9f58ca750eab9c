"""The window arrays (inner weights, rho on a progression, the rho < 0
bookkeeping) against per-n oracles written here, and the window where
rho < 0 fires pinned."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twosquares import sieve
from twosquares.arith import FactorTable, floor_power, trial_factorize
from twosquares.bins import (
    CERTIFICATE_BYTES,
    WITNESS_BYTES,
    WITNESS_FIXED_BYTES,
    BinPartition,
    second_moment_lhs,
    witness_search,
)
from twosquares.hooley import rho, rho_on
from twosquares.sieve import (
    EXACT_S1_BYTES,
    SUM_BYTES,
    AdmissibleTuple,
    SieveParams,
    find_v0,
    inner_weights,
    lambda_from_F,
    rho_negatives,
    s_direct,
    scan,
    single_bin_spec,
    window,
)


def relaxed(N, t1, t2, D0):
    return SieveParams(N=N, theta1=t1, theta2=t2, D0=D0, strict=False)


def window_oracle(params, tup, end):
    """n in [N, end), n = 1 (mod 4), n = v0 (mod W), by filtering every integer."""
    v0 = find_v0(params, tup)
    return [n for n in range(params.N, end) if n % 4 == 1 and (n - v0) % params.W == 0]


def inner_weight_oracle(tup, values, n):
    """sum of values[d] over the divisor tuples d of (n + h_i), found by
    trying every slot value of the table against each n + h_i."""
    slots = [sorted({d[i] for d in values}) for i in range(tup.k)]
    cands = [[s for s in slots[i] if (n + h) % s == 0] for i, h in enumerate(tup.h)]
    total = 0
    for d in product(*cands):
        total += values.get(d, 0)
    return total


@pytest.fixture(scope="module")
def ftab_2e6():
    return FactorTable(2 * 10**6 + 4)


# -- the window and the inner weights -------------------------------------------


WEIGHT_CASES = [
    ((10**4, 0.1, 1.2, 1), (0, 4)),
    ((10**4, 0.1, 1.2, 10), (0, 4)),
    ((10**4, 0.12, 1.0, 1), (0, 4, 16)),
    ((2 * 10**4, 0.3, 1.0, 1), (-10000, -100)),
]


@pytest.mark.parametrize("pp, shifts", WEIGHT_CASES)
def test_window_matches_filter(pp, shifts):
    p = relaxed(*pp)
    tup = AdmissibleTuple(shifts)
    assert list(window(p, tup, 2 * p.N, (SUM_BYTES, 0))) == window_oracle(p, tup, 2 * p.N)
    assert list(window(p, tup, p.N + 1000, (SUM_BYTES, 0))) == window_oracle(p, tup, p.N + 1000)


@pytest.mark.parametrize("pp, shifts", WEIGHT_CASES)
def test_inner_weights_vs_divisor_scan(pp, shifts):
    p = relaxed(*pp)
    tup = AdmissibleTuple(shifts)
    wt = lambda_from_F(p, single_bin_spec(tup.k, 1.0))
    ns = window(p, tup, 2 * p.N, (SUM_BYTES, 0))
    floats = wt.float_entries()
    w = inner_weights(tup, ns, floats, np.float64)
    scale = max(abs(x) for x in floats.values())
    den = wt.common_denominator()
    scaled = {d: int(v * den) for d, v in wt.entries.items()}
    exact = inner_weights(tup, ns, scaled, object)
    assert len(w) == len(exact) == len(ns)
    for n, got, got_exact in zip(ns, w.tolist(), exact.tolist()):
        assert got_exact == inner_weight_oracle(tup, scaled, n), n
        want = inner_weight_oracle(tup, floats, n)
        assert abs(got - want) <= 1e-12 * max(abs(want), scale), n


@st.composite
def weighted_windows(draw):
    """A small window, an admissible tuple of k <= 3 shifts and a table of
    Python-int weights on k-tuples of moduli up to 60."""
    shifts = draw(st.lists(st.integers(-50, 50).map(lambda x: 4 * x), min_size=1, max_size=3, unique=True))
    assume(sieve.check_admissible(shifts) is None)
    tup = AdmissibleTuple(shifts)
    start, step, count = draw(st.integers(1, 10**6)), draw(st.integers(1, 60)), draw(st.integers(0, 200))
    keys = st.tuples(*[st.integers(1, 60)] * tup.k)
    values = draw(st.dictionaries(keys, st.integers(-(10**30), 10**30), max_size=30))
    return tup, range(start, start + count * step, step), values


@given(weighted_windows())
def test_inner_weights_property(case):
    tup, ns, scaled = case
    floats = {d: v / 7.0 for d, v in scaled.items()}
    exact = inner_weights(tup, ns, scaled, object)
    w = inner_weights(tup, ns, floats, np.float64)
    assert len(w) == len(exact) == len(ns)
    scale = max((abs(x) for x in floats.values()), default=0.0)
    for n, got, got_exact in zip(ns, w.tolist(), exact.tolist()):
        assert got_exact == inner_weight_oracle(tup, scaled, n), n
        want = inner_weight_oracle(tup, floats, n)
        assert abs(got - want) <= 1e-12 * max(abs(want), scale), n


# -- rho on a progression ----------------------------------------------------------


@pytest.mark.parametrize(
    "pp, shifts",
    [
        ((10**5, 0.3, 1.0, 10), (0, 4, 16)),  # v = 31, window step 420
        ((10**4, 0.5, 1.0, 1), (0, 4)),  # v = 100
        ((10**6, 0.35, 0.4, 1), (0, 4)),  # v = 125, rho < 0 fires
    ],
    ids=["D0=10-v31", "v100", "negative-window"],
)
def test_rho_on_vs_scalar_rho(pp, shifts, ftab_2e6):
    p = relaxed(*pp)
    tup = AdmissibleTuple(shifts)
    ns = window(p, tup, 2 * p.N, (SUM_BYTES, 0))
    for h in tup.h:
        prog = range(ns.start + h, ns.stop + h, ns.step)
        got = rho_on(p.v, prog)
        assert len(got) == len(prog)
        for m, g in zip(prog, got.tolist()):
            want = rho(p.v, ftab_2e6.factorize(m))
            if want == 0.0:
                assert g == 0.0, m
            else:
                assert g == pytest.approx(want, rel=1e-12), m


def test_rho_on_steps_and_empty(ftab):
    v = relaxed(10**4, 0.5, 1.0, 1).v
    for prog in (range(1, 3000), range(5, 20000, 35), range(13, 30000, 210)):
        got = rho_on(v, prog)
        want = [rho(v, ftab.factorize(m)) for m in prog]
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
    assert len(rho_on(v, range(100, 100, 4))) == 0


@given(
    theta1=st.sampled_from([0.2, 0.3, 1 / 3, 0.35, 0.4]),  # v = 15, 63, 100, 125, 251
    start=st.integers(min_value=1, max_value=10**6),
    step=st.one_of(st.sampled_from([1, 4, 12, 420]), st.integers(min_value=1, max_value=10**4)),
    count=st.integers(min_value=0, max_value=40),
)
def test_rho_on_property(theta1, start, step, count):
    v = floor_power(10**6, theta1)
    prog = range(start, start + count * step, step)
    assert rho_on(v, prog).tolist() == [rho(v, trial_factorize(m)) for m in prog]


# -- evaluator A of the certificate against a scalar evaluation ---------------------


@pytest.mark.parametrize("D0", [1, 10])
def test_evaluator_a_vs_scalar_rho(ftab, D0):
    p = relaxed(10**4, 0.12, 1.0, D0)
    tup = AdmissibleTuple((0, 4, 16))
    part = BinPartition(sizes=(1, 2), mu=(1.5, 2.5), t=(1.0, 2.0))
    wt = lambda_from_F(p, part.spec())
    lam = wt.float_entries()
    min_ratio = min(m * m / (t * t) for m, t in zip(part.mu, part.t))
    terms = []
    for n in window_oracle(p, tup, 2 * p.N):
        w = inner_weight_oracle(tup, lam, n)
        bracket = min_ratio
        for i in range(part.M):
            s = sum(rho(p.v, ftab.factorize(n + tup.h[j])) for j in part.indices(i))
            bracket -= ((s - part.mu[i]) / part.t[i]) ** 2
        terms.append(bracket * w * w)
    want = math.fsum(terms)
    res = second_moment_lhs(p, tup, part, wt)
    assert res.lhs_direct == pytest.approx(want, rel=1e-12)
    assert res.lhs_assembled == pytest.approx(want, rel=1e-12)


def test_evaluator_b_reads_one_rho_per_shift(monkeypatch):
    p = relaxed(10**4, 0.12, 1.0, 10)
    tup = AdmissibleTuple((0, 4, 16))
    part = BinPartition(sizes=(1, 2), mu=(1.5, 2.5), t=(1.0, 2.0))
    wt = lambda_from_F(p, part.spec())
    progressions = []

    def counted(v, prog):
        progressions.append(prog)
        return rho_on(v, prog)

    monkeypatch.setattr(sieve, "rho_on", counted)
    res = second_moment_lhs(p, tup, part, wt)
    ns = window(p, tup, 2 * p.N, (SUM_BYTES, 0))
    assert progressions == [range(ns.start + h, ns.stop + h, ns.step) for h in tup.h]
    # the components are s_direct's reductions of the same arrays, bit for bit
    assert res.components["S1"] == s_direct("S1", p, tup, wt).value
    for i in range(part.M):
        idx = part.indices(i)
        want = {
            "S3": sum(s_direct("S3", p, tup, wt, m=a, l=b).value for a in idx for b in idx if a != b),
            "S4": sum(s_direct("S4", p, tup, wt, m=a).value for a in idx),
            "S2": sum(s_direct("S2", p, tup, wt, m=a).value for a in idx),
        }
        assert res.components[f"bin{i}"] == want


# -- the window where rho < 0 fires --------------------------------------------------


NEG = (1185665, 1313845, 1676285, 1698385)  # 1185665 = 5 * 13 * 17 * 29 * 37


def test_negative_rho_window_pinned():
    p = relaxed(10**6, 0.35, 0.4, 1)
    assert (p.v, p.R) == (125, 15)
    tup = AdmissibleTuple((0, 4))
    wt = lambda_from_F(p, single_bin_spec(2, 1.0))
    s2 = s_direct("S2", p, tup, wt)
    assert (s2.n_terms, s2.rho_negative_count, s2.rho_negative_examples) == (250000, 4, NEG)
    # S3 checks rho at both shifts, so each n + h is met as n + 0 and as (n - 4) + 4
    s3 = s_direct("S3", p, tup, wt, m=0, l=1)
    assert s3.rho_negative_count == 8
    assert s3.rho_negative_examples == tuple(x for x in NEG for _ in range(2))
    part = BinPartition(sizes=(2,), mu=(1.5,), t=(1.2,))
    res = second_moment_lhs(p, tup, part, lambda_from_F(p, part.spec()))
    assert res.rho_negative_count == 8
    assert res.rho_negative_examples == s3.rho_negative_examples
    assert res.rel_difference < 1e-12


def test_window_sums_equal_per_sum_reductions():
    # s_direct_sums shares the window, w and the rho arrays across the sums
    # it is asked for, and gives each one the value and rho < 0 bookkeeping
    # of a scan for that sum alone, bit for bit; that scan's window and w
    # are the window's and inner_weights' own
    p = relaxed(10**6, 0.35, 0.4, 1)
    tup = AdmissibleTuple((0, 4, 16))
    wt = lambda_from_F(p, single_bin_spec(3, 1.0))
    which = ["S4", "S3", "S1", "S2", "S3"]
    got = sieve.s_direct_sums(which, p, tup, wt, m=1, l=2)
    ns = window(p, tup, 2 * p.N, (SUM_BYTES, 0))
    w = inner_weights(tup, ns, wt.float_entries(), np.float64)
    for name, res in zip(which, got, strict=True):
        hs = {"S1": [], "S3": [tup.h[1], tup.h[2]]}.get(name, [tup.h[1]])
        ns_alone, w_alone, rho_at = scan(p, tup, wt, hs, (SUM_BYTES, 0))
        assert ns_alone == ns and np.array_equal(w_alone, w) and sorted(rho_at) == sorted(hs)
        terms, negatives = w * w, (0, ())
        if name != "S1":
            rhos = [rho_at[h] for h in hs]
            negatives = rho_negatives(ns, w, hs, rhos)
            terms *= rhos[0] if name == "S2" else rhos[0] * rhos[-1]
        want = (float(terms.sum()), len(ns), *negatives)
        assert (res.value, res.n_terms, res.rho_negative_count, res.rho_negative_examples) == want
    assert got[1].rho_negative_count > 0


def test_negative_rho_needs_nonzero_weight():
    p = relaxed(10**6, 0.35, 0.4, 1)
    ns, _, rho_at = scan(p, AdmissibleTuple((0, 4)), lambda_from_F(p, single_bin_spec(2)), [0, 4], (SUM_BYTES, 0))
    rhos, w = [rho_at[0], rho_at[4]], np.ones(len(ns))
    count, examples = rho_negatives(ns, w, [0, 4], rhos)
    assert (count, examples) == (8, tuple(x for x in NEG for _ in range(2)))
    # with w(1185665) = 0 the pair (1185665, 0) drops; (1185661, 4) stays
    w[ns.index(NEG[0])] = 0.0
    count, examples = rho_negatives(ns, w, [0, 4], rhos)
    assert (count, examples) == (7, (NEG[0], NEG[1], NEG[1], NEG[2], NEG[2], NEG[3], NEG[3]))


def test_scans_peak_within_charged_bytes():
    # each window scan's tracemalloc peak stays under what it charges the
    # byte guard per point (0.56-0.77 of it at N = 10^4)
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    p = relaxed(10**4, 0.1, 1, 1)
    tup, one = AdmissibleTuple((0, 4, 16)), AdmissibleTuple((0,))
    n = len(window(p, tup, 2 * p.N, (0, 0)))
    part = BinPartition(sizes=(3,), mu=(1.5,), t=(1.0,))
    wt, wt1 = lambda_from_F(p, part.spec()), lambda_from_F(p, single_bin_spec(1))
    exact_cost = EXACT_S1_BYTES + wt1.common_denominator().bit_length() // 2
    for fn, (a, b), k in [
        (lambda: second_moment_lhs(p, tup, part, wt), CERTIFICATE_BYTES, 3),
        (lambda: s_direct("S3", p, tup, wt, m=0, l=2), (SUM_BYTES, 0), 3),
        (lambda: s_direct("S1", p, one, wt1, exact=True), (exact_cost, 0), 1),
        (lambda: witness_search(p, tup, BinPartition(sizes=(3,)), 2 * p.N), WITNESS_BYTES, 3),
    ]:
        assert peak(fn) < n * (a + k * b)
    # sparse witness windows (4 step^2 > n) hold their walk blocks however
    # few points they have, which the fixed part of the charge covers
    # (16,650 points at D0 = 13, N = 10^9 are charged 1.91x their peak or
    # more, but take 12 s under tracemalloc)
    five = AdmissibleTuple((0, 4, 16, 24, 40))
    for D0, N in [(10, 10**4), (10, 10**5), (10, 700_000), (13, 10**8)]:
        p = relaxed(N, 0.1, 1, D0)
        for t, sizes in [(one, (1,)), (five, (5,))]:
            n = len(window(p, t, 2 * N, (0, 0)))
            charge = WITNESS_FIXED_BYTES + n * (WITNESS_BYTES[0] + t.k * WITNESS_BYTES[1])
            assert 1.33 * peak(lambda: witness_search(p, t, BinPartition(sizes=sizes), 2 * N)) <= charge, (D0, N, sizes)
