import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twosquares import ap_sums
from twosquares.ap_sums import (
    APQuery,
    empirical_trend_r,
    empirical_trend_r2,
    empirical_trend_rr,
    gamma_singular_series,
    predicted_sum_r,
    predicted_sum_r2,
    predicted_sum_rr,
    run_trend,
    validate_pair,
    validate_single,
)
from twosquares.arith import primes_up_to, r2_lattice_range, r2_on, trial_factorize, g3, g5
from twosquares.constants import a2_constant
from twosquares.errors import ValidationError

from oracles import gamma_direct_sum


def test_empirical_r_hand_sums():
    # n <= 20, n = 1e mod 4: r(1)+r(5)+r(9)+r(13)+r(17) = 4+8+4+8+8
    assert empirical_trend_r(APQuery(N=20), [20]) == [32]
    # only n = 1 satisfies both congruences
    assert empirical_trend_r(APQuery(N=4, q=3, a=1), [4]) == [4]
    assert empirical_trend_r(APQuery(N=0), [0]) == [0]


def test_predicted_r_forms():
    assert predicted_sum_r(APQuery(N=100)) == pytest.approx(math.pi * 100 / 2)
    assert predicted_sum_r(APQuery(N=100, q=3, a=1)) == pytest.approx(2 * math.pi * 100 / 9)
    assert predicted_sum_r(APQuery(N=100, d=5)) == pytest.approx((9 / 5) * math.pi * 10)


def test_single_validation():
    with pytest.raises(ValidationError):
        validate_single(APQuery(N=10, q=2))  # even q
    with pytest.raises(ValidationError):
        validate_single(APQuery(N=10, q=9, a=1))  # not squarefree
    with pytest.raises(ValidationError):
        validate_single(APQuery(N=10, q=3, a=3))  # (a, q) != 1
    with pytest.raises(ValidationError):
        validate_single(APQuery(N=10, d=15, q=3, a=1))  # (d, q) != 1


def test_empirical_rr_hand_sum():
    # n in {1,5,9,13,17}: r(n) r(n+4) = 4*8 + 8*4 + 4*8 + 8*8 + 8*0 = 160
    # (r(21) = 0 since 21 = 3*7; the exact lattice oracle fixes the value)
    assert empirical_trend_rr(APQuery(N=20, h=4), [20]) == [160]
    assert empirical_trend_rr(APQuery(N=0, h=4), [0]) == [0]


def test_pair_validation():
    with pytest.raises(ValidationError):
        validate_pair(APQuery(N=10, h=12))  # 3 | h but 3 does not divide 2q
    with pytest.raises(ValidationError):
        validate_pair(APQuery(N=10, h=6))  # 4 does not divide h
    with pytest.raises(ValidationError):
        validate_pair(APQuery(N=10, h=-4))
    validate_pair(APQuery(N=10, q=3, a=1, h=12))  # now 3 | 2q
    with pytest.raises(ValidationError):
        validate_pair(APQuery(N=10, d1=3, d2=3, h=4))  # (d1, d2) != 1


def test_gamma_euler_product_value():
    g = gamma_singular_series(1, 1, 1)
    assert g.value == pytest.approx(8 / math.pi**2, abs=1e-4)
    # d1 = d2 = 1 with odd q kills the d factors: prod over p not dividing 2q
    g3_ = gamma_singular_series(1, 1, 3)
    expected = (8 / math.pi**2) / (1 - 1 / 9)
    assert g3_.value == pytest.approx(expected, abs=1e-4)


def test_gamma_euler_vs_direct_sum_grid():
    odd_sf = [1, 3, 5, 7, 11, 13, 15, 17, 19, 21, 23, 29]
    count = 0
    for q in odd_sf:
        for d1 in odd_sf:
            if math.gcd(d1, q) != 1:
                continue
            for d2 in odd_sf:
                if math.gcd(d2, q) != 1 or math.gcd(d1, d2) != 1:
                    continue
                e = gamma_singular_series(d1, d2, q, tail_prime_bound=10**5)
                direct = gamma_direct_sum(d1, d2, q, r_max=10**4)
                assert abs(e.value - direct) < 1e-3, (d1, d2, q)
                count += 1
    assert count > 200


def test_empirical_r2_hand_sum():
    assert empirical_trend_r2(APQuery(N=20), [20]) == [16 + 64 + 16 + 64 + 64]


def test_predicted_r2_bracket_terms():
    # q = 3 adds 2 g5(3) = log(3)/4 inside the bracket
    n = 1000
    a2 = a2_constant().value
    base = math.log(n) + a2 + 2 * g5(trial_factorize(3))
    expected = float(g3(trial_factorize(3))) / 3 * base * n
    assert predicted_sum_r2(APQuery(N=n, q=3, a=1)) == pytest.approx(expected)
    assert 2 * g5(trial_factorize(3)) == pytest.approx(math.log(3) / 4)
    # q = d = 1: (log N + A2) N as displayed
    assert predicted_sum_r2(APQuery(N=n)) == pytest.approx((math.log(n) + a2) * n)


def test_run_experiment_reports():
    [rep] = run_trend("ap_r", APQuery(N=10**5), [10**5])
    assert rep.rel_error < 0.01
    assert rep.params["q"] == 1 and rep.N == 10**5
    [rep2] = run_trend("ap_rr", APQuery(N=10**5, h=4), [10**5])
    assert rep2.rel_error < 0.05
    with pytest.raises(ValidationError):
        run_trend("nope", APQuery(N=10), [10])


def test_rr_congruence_steering(r2_1e5):
    # d1 | n and d2 | n+h handled through the CRT class
    q = APQuery(N=10**5, q=1, d1=5, d2=13, h=4)
    [got] = empirical_trend_rr(q, [q.N])
    arr = r2_1e5
    brute = sum(
        int(arr[n]) * int(arr[n + 4])
        for n in range(1, 10**5 + 1)
        if n % 4 == 1 and n % 5 == 0 and (n + 4) % 13 == 0
    )
    assert got == brute


ODD_SQUAREFREE = [1, 3, 5, 7, 11, 13, 15, 21, 35, 105]


@st.composite
def ap_queries(draw):
    """Queries that pass both validators: q, d, d1, d2 odd squarefree with
    the coprimality the sums assume, 4 | h and every odd prime of h | q."""
    q = draw(st.sampled_from(ODD_SQUAREFREE))
    coprime = [m for m in ODD_SQUAREFREE if math.gcd(m, q) == 1]
    d, d1 = draw(st.sampled_from(coprime)), draw(st.sampled_from(coprime))
    d2 = draw(st.sampled_from([m for m in coprime if math.gcd(m, d1) == 1]))
    odd = math.prod(p for p in trial_factorize(q).primes() if draw(st.booleans()))
    h = 4 * 2 ** draw(st.integers(0, 2)) * odd
    a = draw(st.integers(0, 4 * q).filter(lambda a: math.gcd(a, q) == 1 == math.gcd(a + h, q)))
    return APQuery(N=draw(st.integers(0, 2 * 10**4)), q=q, a=a, d=d, d1=d1, d2=d2, h=h)


def pair_class_mask(query: APQuery) -> np.ndarray:
    """The n <= N of the pair sum, by a mask of its congruences."""
    n = np.arange(query.N + 1)
    return (
        (n % 4 == 1)
        & (n % query.q == query.a % query.q)
        & (n % query.d1 == 0)
        & ((n + query.h) % query.d2 == 0)
    )


def masked_lattice_rr(query: APQuery) -> int:
    r = r2_lattice_range(query.N + query.h)
    pair = pair_class_mask(query)
    return int((r[: query.N + 1][pair] * r[query.h :][pair]).sum())


@given(ap_queries())
def test_sums_match_masked_lattice(query):
    # the CRT classes against a mask of the congruences over every n <= N
    N, h = query.N, query.h
    r = r2_lattice_range(N + h)
    n = np.arange(N + 1)
    cls = (n % 4 == 1) & (n % query.q == query.a % query.q)
    single = r[: N + 1][cls & (n % query.d == 0)]
    assert empirical_trend_r(query, [N]) == [single.sum()]
    assert empirical_trend_r2(query, [N]) == [(single * single).sum()]
    assert empirical_trend_rr(query, [N]) == [masked_lattice_rr(query)]


@given(ap_queries().filter(lambda query: query.d1 > 1 and query.d2 > 1))
def test_rr_with_both_divisors_matches_masked_lattice(query):
    # d1 d2 does not divide h, so the class and its shift are sieved apart
    assert empirical_trend_rr(query, [query.N]) == [masked_lattice_rr(query)]


@pytest.mark.parametrize(
    "query, sieves",
    [
        (APQuery(N=10**5, h=4), 1),
        (APQuery(N=10**5, q=3, a=1, h=12), 1),
        (APQuery(N=10**5, h=4, d1=13, d2=17), 2),
        (APQuery(N=10**5, q=3, a=1, h=4), 2),
        (APQuery(N=10**5, q=3, a=1, d1=5, d2=7, h=12), 2),
    ],
    ids=["h4", "q3-h12", "d13-d17", "q3-h4", "q3-d5-d7-h12"],
)
def test_rr_sieves_and_charges_only_what_it_reads(monkeypatch, query, sieves):
    # a class modulus that divides h: one sieve over the class run on to
    # N + h; any other: the class and its shift, 2 len(class) terms
    charged, sieved = [], []
    monkeypatch.setattr(ap_sums, "check_bytes", lambda what, need, workload: charged.append(need))
    monkeypatch.setattr(ap_sums, "r2_on", lambda terms: sieved.append(len(terms)) or r2_on(terms))
    assert empirical_trend_rr(query, [query.N]) == [masked_lattice_rr(query)]
    members = int(pair_class_mask(query).sum())
    if sieves == 1:
        assert sieved == [members + query.h // (4 * query.q)]
    else:
        assert sieved == [members, members]
    assert charged == [ap_sums.AP_BYTES[0] + sum(sieved) * ap_sums.AP_BYTES[1]]


@pytest.mark.parametrize("name", ["ap_r", "ap_rr", "ap_r2"])
@pytest.mark.parametrize("query", [APQuery(N=0, h=4), APQuery(N=0, q=3, a=1, h=12)], ids=["q1-h4", "q3-h12"])
def test_trend_sieves_once(monkeypatch, name, query):
    # one r2_on call up to the largest N (run on by h for the pair sum), and
    # every checkpoint, unsorted and repeated, equals its own run
    Ns = [54_321, 1_000, 0, 100_000, 1_000, 99_999]
    alone = [asdict(run_trend(name, query, [N])[0]) for N in Ns]
    sieved = []
    monkeypatch.setattr(ap_sums, "r2_on", lambda terms: sieved.append(terms) or r2_on(terms))
    trend = [asdict(rep) for rep in run_trend(name, query, Ns)]
    assert trend == alone
    top = 100_000 + (query.h if name == "ap_rr" else 0)
    assert len(sieved) == 1 and top - sieved[0].step < sieved[0][-1] <= top
    if name == "ap_rr":
        assert [rep["empirical"] for rep in trend] == [masked_lattice_rr(replace(query, N=N)) for N in Ns]


def test_trend_computes_gamma_once(monkeypatch):
    # Gamma does not depend on N: a three-checkpoint pair trend builds its
    # Euler product's prime table once and reports what each run does alone
    query, Ns = APQuery(N=0, q=3, a=1, h=12), [1_000, 10_000, 100_000]
    alone = [asdict(run_trend("ap_rr", query, [N])[0]) for N in Ns]
    tables = []
    monkeypatch.setattr(ap_sums, "primes_up_to", lambda n: tables.append(n) or primes_up_to(n))
    gamma_singular_series.cache_clear()
    assert [asdict(rep) for rep in run_trend("ap_rr", query, Ns)] == alone
    assert tables == [10**6]


@pytest.mark.parametrize("name", ["r", "rr", "r2"])
def test_trend_validates_every_checkpoint(name):
    with pytest.raises(ValidationError, match="N=-5"):
        getattr(ap_sums, f"empirical_trend_{name}")(APQuery(N=0), [100, -5, 7])


@pytest.mark.parametrize(
    "query",
    [APQuery(N=10**5, h=4), APQuery(N=10**5, h=4, d1=13, d2=17)],
    ids=["one-sieve", "two-sieves"],
)
def test_sums_of_int32_counts_take_int64_products(monkeypatch, query):
    # r2_on returns int32 counts.  No r_2(m) of an int64 m is large enough for
    # a product of two to pass 2^31, so counts of 50,000 stand in for them:
    # 50,000^2 wraps in int32, and so do the sums over these classes.
    monkeypatch.setattr(ap_sums, "r2_on", lambda terms: np.full(len(terms), 50_000, dtype=np.int32))
    members = int(pair_class_mask(query).sum())
    assert empirical_trend_rr(query, [query.N]) == [50_000**2 * members]
    single = APQuery(N=query.N, d=query.d1)
    terms = sum(1 for n in range(1, single.N + 1) if n % 4 == 1 and n % single.d == 0)
    assert empirical_trend_r2(single, [single.N]) == [50_000**2 * terms]
    assert empirical_trend_r(single, [single.N]) == [50_000 * terms]
