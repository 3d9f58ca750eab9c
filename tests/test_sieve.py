import math
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, strategies as st

from twosquares import errors, sieve
from twosquares.arith import (
    build_factor_table,
    count_in_class,
    crt,
    primes_up_to,
    trial_factorize,
)
from twosquares.bins import BinPartition
from twosquares.constants import landau_ramanujan_A
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.sieve import TestFunctionSpec as TFSpec
from twosquares.sieve import (
    PAIR_BYTES,
    SUPPORT_BYTES,
    AdmissibleTuple,
    SieveParams,
    WeightTable,
    b_constant,
    base_integral_lin,
    base_integral_sq,
    c_gamma_check,
    check_admissible,
    enumerate_support,
    find_v0,
    functional_value,
    lambda_from_F,
    s1_pair_expansion,
    s_direct,
    s_predicted,
    single_bin_spec,
    tech_sum_check,
    y_from_lambda,
)

from oracles import euler_phi, functional_tensor_quadrature, mobius, sJ_direct, squarefree_products


def relaxed(N, t1, t2, D0):
    return SieveParams(N=N, theta1=t1, theta2=t2, D0=D0, strict=False)


# -- parameters and admissibility -------------------------------------------


def test_params_invariants():
    with pytest.raises(ValidationError):
        SieveParams(N=10**6, theta1=0.3, theta2=0.3)  # strict regime violated
    p = relaxed(10**4, 0.1, 1.0, 10)
    assert p.W == 105 and p.warnings
    q = SieveParams(N=10**6, theta1=0.052, theta2=0.003)
    assert not q.warnings and q.v == 2


def test_params_floors_at_exact_powers():
    # float powers land one short here: int(N**theta) gives 99, 8 and 511
    assert relaxed(10**6, 1 / 3, 0.5, 1).v == 100
    assert relaxed(3**12, 1 / 6, 0.5, 1).v == 9
    assert relaxed(2**30, 0.1, 0.6, 1).R == 512


def test_v_below_two_is_refused_where_read():
    # floor(1000^0.1) = 1: SieveParams derives it, S1 and its main term never
    # read it, and S2-S4 divide by log v
    p, tup, spec = relaxed(1000, 0.1, 1.0, 1), AdmissibleTuple((0, 4)), single_bin_spec(2)
    assert p.v == 1
    assert s_predicted("S1", p, tup, spec) > 0
    wt = lambda_from_F(p, spec)
    assert s_direct("S1", p, tup, wt).n_terms == 250
    for which in ("S2", "S3", "S4"):
        with pytest.raises(ValidationError, match=r"v = floor\(N\^theta1\) >= 2, got v = 1"):
            s_predicted(which, p, tup, spec, m=0, l=1)
        with pytest.raises(ValidationError, match=r"v = floor\(N\^theta1\) >= 2, got v = 1"):
            s_direct(which, p, tup, wt, m=0, l=1)


def test_check_admissible_examples():
    assert check_admissible([0, 4, 8]) == 3
    assert check_admissible([0, 4, 16]) is None
    assert check_admissible([0, 1]) == 2
    with pytest.raises(ValidationError):
        check_admissible([0, 0, 4])


def test_jakobson_style_tuple_admissible():
    h = tuple(-((2 * 5**i) ** 2) for i in range(1, 5))
    assert check_admissible(h) is None
    t = AdmissibleTuple(h)
    assert all(x % 4 == 0 for x in t.h)


def test_admissible_tuple_validation():
    with pytest.raises(ValidationError):
        AdmissibleTuple((0, 2))  # not divisible by 4
    with pytest.raises(ValidationError):
        AdmissibleTuple((0, 4, 8))  # covers mod 3


def test_admissible_tuple_needs_a_shift():
    with pytest.raises(ValidationError, match="AdmissibleTuple: need at least one shift"):
        AdmissibleTuple(())


def test_find_v0_examples():
    assert find_v0(relaxed(10**4, 0.1, 1.0, 10), AdmissibleTuple((0, 4, 16))) == 13
    assert find_v0(relaxed(10**4, 0.1, 1.0, 3), AdmissibleTuple((0, 4))) == 1
    assert find_v0(relaxed(10**4, 0.1, 1.0, 1), AdmissibleTuple((0, 4))) == 0


# -- support and weights ------------------------------------------------------


def test_enumerate_support_examples():
    assert enumerate_support(10, 1) == [1, 3, 7]
    assert enumerate_support(25, 105) == [1, 11, 19, 23]
    assert enumerate_support(1) == [1]
    assert enumerate_support(21, 1) == [1, 3, 7, 11, 19, 21]


def test_support_guard_runs_before_enumeration(monkeypatch):
    # R = 91,201,083 at (N, theta2) = (10^8, 1.99): about 9e6 support elements,
    # over the byte budget, so no prime may be sieved for them
    def enumerated(*args):
        raise AssertionError("support enumerated before its byte guard")

    monkeypatch.setattr(sieve, "primes_up_to", enumerated)
    p = relaxed(10**8, 0.1, 1.99, 1)
    builds = [
        lambda: lambda_from_F(p, single_bin_spec(1, 1.0)),
        lambda: tech_sum_check(p, lambda x: 1.0),
        lambda: enumerate_support(p.R),
    ]
    for build in builds:
        with pytest.raises(ResourceGuardError) as exc:
            build()
        assert "elements up to 91201083" in exc.value.cost_estimate


def test_support_peak_within_charge(monkeypatch):
    charged = []
    monkeypatch.setattr(sieve, "check_bytes", lambda what, need, workload: charged.append(need))
    for bound, W in [(10, 1), (10**3, 1), (10**5, 1), (10**5, 105)]:
        tracemalloc.start()
        size = len(sieve._support(bound, W)[0])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert size <= charged[-1] / SUPPORT_BYTES and 1.33 * peak <= charged[-1], bound


def test_support_maps_guard_runs_before_the_maps(monkeypatch):
    # at R = 10^4 the support (1,381 elements) is charged 3.6e5 bytes and its
    # maps 1.2e6, so a budget between the two stops both weight maps before
    # they build the maps
    p = relaxed(10**8, 0.1, 1.0, 1)
    table = lambda_from_F(p, single_bin_spec(1, 1.0))

    def built(*args):
        raise AssertionError("support maps built before their byte guard")

    monkeypatch.setattr(sieve, "_support_maps", built)
    monkeypatch.setattr(errors, "BYTE_BUDGET", 6 * 10**5)
    for build in (lambda: lambda_from_F(p, single_bin_spec(1, 1.0)), lambda: y_from_lambda(table)):
        with pytest.raises(ResourceGuardError) as exc:
            build()
        assert str(exc.value) == "support maps over the byte budget"
        assert "1381 support elements" in exc.value.cost_estimate


def test_support_maps_peak_within_charge(monkeypatch):
    charged = {}
    monkeypatch.setattr(sieve, "check_bytes", lambda what, need, workload: charged.__setitem__(what, need))
    for bound, W in [(10, 1), (10**3, 1), (10**5, 1), (10**5, 105)]:
        support = sieve._support(bound, W)
        # y_from_lambda builds its maps over the support up to its largest key
        y_from_lambda(WeightTable(1, bound, W, single_bin_spec(1), {(int(support[0][-1]),): Fraction(1)}, {}))
        tracemalloc.start()
        sieve._support_maps(*support)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert 1.33 * peak <= charged["support maps"], (bound, W)


def test_lambda_trivial_support():
    p = relaxed(16, 0.25, 0.5, 1)  # R = 2
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    assert wt.entries == {(1,): Fraction(1)}


def test_lambda_single_coordinate_display():
    p = relaxed(25, 0.22, 1.0, 1)  # R = 5, support {1, 3}
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    F3 = Fraction(1.0 / (1.0 + math.log(3) / math.log(5)))
    assert wt.entries[(3,)] == -3 * F3 / 2
    assert wt.entries[(1,)] == 1 + F3 / 2


def test_lambda_support_clause():
    p = relaxed(200**2, 0.13, 1.0, 1)
    wt = lambda_from_F(p, single_bin_spec(2, 1.0))
    for d in wt.entries:
        prod = d[0] * d[1]
        assert prod <= p.R
        assert math.gcd(d[0], d[1]) == 1


@pytest.mark.parametrize("D0", [1, 10])
@pytest.mark.parametrize(
    "spec_fn",
    [
        lambda: single_bin_spec(1, 1.0),
        lambda: single_bin_spec(2, 1.0),
        lambda: single_bin_spec(3, 1.0),
        lambda: BinPartition((1, 1)).spec(),
        lambda: BinPartition((2, 1)).spec(),
    ],
)
def test_roundtrip_exact(D0, spec_fn):
    p = relaxed(200**2, 0.13, 1.0, D0)  # R = 200
    spec = spec_fn()
    wt = lambda_from_F(p, spec)
    assert y_from_lambda(wt) == wt.y_entries  # zero tolerance


def test_roundtrip_linearity():
    p = relaxed(200**2, 0.13, 1.0, 1)
    wt = lambda_from_F(p, single_bin_spec(2, 1.0))
    doubled = {d: 2 * v for d, v in wt.entries.items()}
    wt2 = type(wt)(wt.k, wt.R, wt.W, wt.spec, doubled, wt.y_entries)
    assert y_from_lambda(wt2) == {r: 2 * v for r, v in wt.y_entries.items()}


def test_export_rows():
    p = relaxed(25, 0.22, 1.0, 1)
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    rows = wt.export_rows()
    assert all(len(r.split(",")) == 3 for r in rows)


def divisor_tuples_oracle(r):
    """The squarefree divisor tuples of r, each component by trial division."""
    divs = [sorted(d for d, _, _ in squarefree_products(trial_factorize(ri).primes(), ri)) for ri in r]
    return product(*divs)


def lambda_oracle(params, spec):
    """(entries, y_entries) of lambda_from_F, with the support filtered from
    every integer by trial division and the r-tuples drawn by brute force."""
    R, W = params.R, params.W
    caps_vals = [min(R, int(math.floor(R**c * (1 + 1e-12)))) for c in spec.caps()]
    support = [
        n
        for n in range(1, max(caps_vals) + 1)
        if all(e == 1 and p % 4 == 3 and W % p for p, e in trial_factorize(n).pairs)
    ]
    logR = math.log(R) if R > 1 else 1.0
    y_entries, lam_tilde = {}, {}
    for r in product(*([s for s in support if s <= cv] for cv in caps_vals)):
        if math.prod(r) > R or any(math.gcd(a, b) > 1 for i, a in enumerate(r) for b in r[i + 1 :]):
            continue
        fval = spec.evaluate([math.log(ri) / logR if ri > 1 else 0.0 for ri in r])
        if fval == 0.0:
            continue
        y_entries[r] = Fraction(fval)
        c = Fraction(fval) / math.prod(euler_phi(trial_factorize(ri)) for ri in r)
        for d in divisor_tuples_oracle(r):
            lam_tilde[d] = lam_tilde.get(d, Fraction(0)) + c
    entries = {}
    for d, val in lam_tilde.items():
        lam = math.prod(mobius(trial_factorize(di)) * di for di in d) * val
        if lam != 0:
            entries[d] = lam
    return entries, y_entries


def y_oracle(entries):
    """y_from_lambda with every phi, mu and divisor list by trial division."""
    acc = {}
    for d, lam in entries.items():
        for r in divisor_tuples_oracle(d):
            acc[r] = acc.get(r, Fraction(0)) + lam / math.prod(d)
    out = {}
    for r, val in acc.items():
        val *= math.prod(mobius(f) * euler_phi(f) for f in map(trial_factorize, r))
        if val != 0:
            out[r] = val
    return out


@st.composite
def bin_specs(draw):
    """1-3 bins, k <= 3 coordinates in all, betas summing to at most 1."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= 3))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(sizes), max_size=len(sizes)))
    total = sum(weights) + draw(st.integers(0, 2))
    return TFSpec(tuple((ki, w / total) for ki, w in zip(sizes, weights)))


@given(
    spec=bin_specs(),
    N=st.floats(3.0, math.log10(2 * 10**5)).map(lambda x: int(10**x)),
    theta2=st.floats(1.0, 1.6),
    D0=st.sampled_from([1, 3, 5, 10]),
)
@example(single_bin_spec(1, 1.0), 2 * 10**5, 1.6, 1)  # R = 17,411: the full-cap k = 1 table
@example(single_bin_spec(2, 1.0), 2 * 10**5, 1.6, 10)
@example(TFSpec(((1, 0.5), (2, 0.5))), 2 * 10**5, 1.6, 3)
def test_weight_maps_equal_trial_division_oracle(spec, N, theta2, D0):
    p = relaxed(N, 0.2, theta2, D0)
    wt = lambda_from_F(p, spec)
    entries, y_entries = lambda_oracle(p, spec)
    assert list(wt.entries.items()) == list(entries.items())
    assert list(wt.y_entries.items()) == list(y_entries.items())
    y = y_from_lambda(wt)
    assert list(y.items()) == list(y_oracle(wt.entries).items())
    assert y == wt.y_entries


@pytest.mark.parametrize(
    "component",
    [9, 2, 5, 3, 11 * 19 * 23],  # square, even, 1 mod 4, divides W = 105, above R = 200
)
def test_y_from_lambda_rejects_keys_off_the_support(component):
    p = relaxed(200**2, 0.13, 1.0, 10)
    wt = lambda_from_F(p, single_bin_spec(2, 1.0))
    entries = {**wt.entries, (1, component): Fraction(1)}
    bad = WeightTable(wt.k, wt.R, wt.W, wt.spec, entries, wt.y_entries)
    with pytest.raises(ValidationError, match=f"component {component} of"):
        y_from_lambda(bad)


# -- functionals ---------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("beta", [1.0, 0.5, 0.25])
def test_base_integrals_closed_vs_quadrature(k, beta):
    assert base_integral_sq(beta, k, "quadrature") == pytest.approx(
        (math.pi + 2) / 4 * math.sqrt(beta / k), rel=1e-12
    )
    assert base_integral_lin(beta, k, "quadrature") == pytest.approx(
        math.pi / 2 * math.sqrt(beta / k), rel=1e-12
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("beta", [1.0, 0.5, 0.25])
def test_functional_ratios(k, beta):
    spec = single_bin_spec(k, beta)
    L = functional_value(spec, "L", "quadrature")
    Lm = functional_value(spec, "L_m", "quadrature", m=0)
    assert Lm / L == pytest.approx(
        math.pi**2 / (math.pi + 2) * math.sqrt(beta / k), rel=1e-12
    )
    if k >= 2:
        Lml = functional_value(spec, "L_ml", "quadrature", m=0, l=1)
        assert Lml / L == pytest.approx(
            (math.pi**2 / (math.pi + 2)) ** 2 * beta / k, rel=1e-12
        )


def test_spec_validation():
    with pytest.raises(ValidationError):
        TFSpec(((1, 0.6), (1, 0.6)))  # betas sum to 1.2
    with pytest.raises(ValidationError):
        functional_value(single_bin_spec(2), "L_ml", m=0, l=0)


@pytest.mark.parametrize("sizes", [[1, 1], [2, 1], [2, 2], [3, 1]])
def test_factorized_vs_tensor_quadrature(sizes):
    spec = BinPartition(tuple(sizes)).spec()
    assert functional_value(spec, "L") == pytest.approx(functional_tensor_quadrature(spec, "L"), rel=1e-12)
    assert functional_value(spec, "L_m", m=0) == pytest.approx(
        functional_tensor_quadrature(spec, "L_m", m=0), rel=1e-12
    )
    assert functional_value(spec, "L_ml", m=0, l=1) == pytest.approx(
        functional_tensor_quadrature(spec, "L_ml", m=0, l=1), rel=1e-12
    )


def test_factorized_single_bin_reduces():
    # two bins of size 1: L = L1(F1) L1(F2)
    spec2 = BinPartition((1, 1)).spec()
    assert functional_value(spec2, "L") == pytest.approx(
        base_integral_sq(0.5, 1) * base_integral_sq(0.25, 1)
    )


# -- B constant ---------------------------------------------------------------


def test_b_constant_forms():
    p1 = relaxed(10**4, 0.1, 1.0, 1)  # W3 = 1
    A = landau_ramanujan_A(10**6).value
    assert b_constant(p1).value == pytest.approx(
        2 * A * math.sqrt(math.log(p1.R)) / math.pi
    )
    p2 = relaxed(10**4, 0.1, 1.0, 10)  # W3 = 21
    assert b_constant(p2).value == pytest.approx(
        2 * A / math.pi * (4 / 7) * math.sqrt(math.log(p2.R))
    )
    # sqrt(log R) scaling: squaring R multiplies B by sqrt(2)
    pa = relaxed(10**8, 0.05, 0.5, 1)
    pb = relaxed(10**8, 0.05, 1.0, 1)
    assert pb.R == pa.R**2
    assert b_constant(pb).value / b_constant(pa).value == pytest.approx(
        math.sqrt(2), rel=1e-9
    )


# -- direct sums -----------------------------------------------------------------


def test_s1_collapses_to_progression_count():
    p = relaxed(1000, 0.12, 0.2, 1)  # R = 1: lambda = 1 on (1,)
    tup = AdmissibleTuple((0,))
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    res = s_direct("S1", p, tup, wt)
    assert res.value == sum(1 for n in range(1000, 2000) if n % 4 == 1)


def test_common_denominator():
    wt = lambda_from_F(relaxed(10**4, 0.1, 1.2, 1), single_bin_spec(2, 1.0))
    den = wt.common_denominator()
    assert all((v * den).denominator == 1 for v in wt.entries.values())
    # the least such integer: dropping any one prime factor breaks one entry
    for p in {p for v in wt.entries.values() for p, _ in trial_factorize(v.denominator).pairs}:
        assert any((v * (den // p)).denominator != 1 for v in wt.entries.values())
    assert WeightTable(wt.k, wt.R, wt.W, wt.spec, {}, {}).common_denominator() == 1


def s1_pair_loop(params, tup, table):
    """Scalar oracle for s1_pair_expansion: one CRT over the lcm of d_i and
    e_i per shift and one class count for each ordered pair (d, e)."""
    v0 = find_v0(params, tup)
    den = table.common_denominator()
    scaled = {d: int(v * den) for d, v in table.entries.items()}
    total_int = 0
    N, W = params.N, params.W
    for d in scaled:
        for e in scaled:
            moduli = [W, 4]
            residues = [v0, 1]
            for i, h in enumerate(tup.h):
                lcm_i = d[i] * e[i] // math.gcd(d[i], e[i])
                moduli.append(lcm_i)
                residues.append(-h % lcm_i if lcm_i > 1 else 0)
            sol = crt(residues, moduli)
            if sol is None:
                continue
            r, mmod = sol
            cnt = count_in_class(N, 2 * N, r, mmod)
            if cnt:
                total_int += scaled[d] * scaled[e] * cnt
    return Fraction(total_int, den * den), total_int


# ids: D0, prefixed by k where k != 2.  At (0, 4, 16) and D0 = 1 the keys
# (1, 3, 1) and (1, 1, 3) meet mod 12 > 4W (3 | 16 - 4), while (3, 1, 1) and
# (1, 3, 1) do not meet at all
@pytest.mark.parametrize(
    "h, D0",
    [((0, 4), 1), ((0, 4), 10), ((0,), 1), ((0,), 10), ((0, 4, 16), 1), ((0, 4, 16), 10)],
    ids=["1", "10", "k1-1", "k1-10", "k3-1", "k3-10"],
)
def test_s1_two_evaluators_bit_for_bit(h, D0):
    p = relaxed(10**4, 0.1, 1.2, D0)
    tup = AdmissibleTuple(h)
    wt = lambda_from_F(p, single_bin_spec(tup.k, 1.0))
    exact = s_direct("S1", p, tup, wt, exact=True)
    pairs, scaled = s1_pair_expansion(p, tup, wt)
    assert (pairs, scaled) == s1_pair_loop(p, tup, wt)
    assert exact.exact == pairs
    den = wt.common_denominator()
    assert exact.exact * den * den == scaled  # same integers, bit for bit


@pytest.fixture(scope="module")
def table_809():
    p = relaxed(10**6, 0.1, 1.6, 10)
    tup = AdmissibleTuple((0, 4))
    return p, tup, lambda_from_F(p, single_bin_spec(2, 1.0))


def test_s1_pair_expansion_at_the_809_entry_table(table_809):
    p, tup, wt = table_809
    assert len(wt.entries) == 809
    assert s1_pair_expansion(p, tup, wt)[0] == s_direct("S1", p, tup, wt, exact=True).exact


def test_s1_pair_expansion_pairs_only_live_keys(monkeypatch, table_809):
    # 306 of the 809 keys have a class member in [N, 2N); the classes of all
    # 809 meet in 303,579 pairs, each of which would reach the inverse
    rows = []
    inverse = sieve._inverse_mod
    monkeypatch.setattr(sieve, "_inverse_mod", lambda a, m: rows.append(len(a)) or inverse(a, m))
    s1_pair_expansion(*table_809)
    assert 0 < sum(rows) < 60_000


@given(
    N=st.integers(2000, 12000),
    theta2=st.floats(1.2, 1.6),
    D0=st.sampled_from([1, 3, 5, 10]),
    h=st.lists(st.integers(0, 12).map(lambda x: 4 * x), min_size=1, max_size=3, unique=True),
)
def test_s1_pair_expansion_matches_scalar_oracle(N, theta2, D0, h):
    assume(check_admissible(h) is None)
    p, tup = relaxed(N, 0.1, theta2, D0), AdmissibleTuple(h)
    wt = lambda_from_F(p, single_bin_spec(tup.k, 1.0))
    assert s1_pair_expansion(p, tup, wt) == s1_pair_loop(p, tup, wt)


def test_s1_pair_expansion_refuses_a_table_of_other_arity():
    # a 2-ary table on three shifts would set two of the three congruences
    p, tup = relaxed(10**4, 0.1, 1.0, 1), AdmissibleTuple((0, 4, 16))
    with pytest.raises(ValidationError, match="5 residues for 4 moduli"):
        s1_pair_expansion(p, tup, lambda_from_F(p, single_bin_spec(2)))


def hand_table(p, tup, keys):
    """A weight table with lambda = 1/3, 2/3, ... on the given keys."""
    entries = {d: Fraction(i + 1, 3) for i, d in enumerate(keys)}
    return WeightTable(tup.k, p.R, p.W, single_bin_spec(tup.k), entries, {})


@pytest.mark.parametrize("N", [10001, 10002], ids=["N-1mod4", "N-2mod4"])
def test_s1_pair_expansion_prunes_at_the_window_ends(monkeypatch, N):
    # every class is n = 1 (mod 4), so 2N is never a member.  The members
    # nearest the ends of [N, 2N) are N, 2N - 1 (kept) and N - 4, 2N + 3
    # (pruned) at N = 1 (mod 4), and N + 3, 2N - 3 (kept) and N - 1, 2N + 1
    # (pruned) at N = 2 (mod 4).  Key (d,) of the tuple (0,) at W = 1 has the
    # class t mod 4d for t = 0 (mod d); 4d > N + 4 makes t its only member
    # within 4 of the window
    p, tup = relaxed(N, 0.1, 1.0, 1), AdmissibleTuple((0,))
    first, last = N + (1 - N) % 4, 2 * N - 1 - (2 * N - 2) % 4
    keys = []
    for t, members in [(first, 1), (last, 1), (first - 4, 0), (last + 4, 0)]:
        d = next(d for d in range(N // 4 + 2, t + 1) if t % d == 0)
        assert count_in_class(N, 2 * N, t % (4 * d), 4 * d) == members
        keys.append((d,))
    table = hand_table(p, tup, keys)
    pairs = s1_pair_expansion(p, tup, table)
    assert pairs == s1_pair_loop(p, tup, table)
    assert pairs[0] == s_direct("S1", p, tup, table, exact=True).exact
    # the byte guard's estimate names the keys that are paired
    monkeypatch.setattr(errors, "BYTE_BUDGET", 0)
    with pytest.raises(ResourceGuardError) as exc:
        s1_pair_expansion(p, tup, table)
    assert "2 x 2 pairs" in exc.value.cost_estimate


def test_s1_pair_expansion_int64_guard():
    p, tup = relaxed(10**4, 0.1, 1.0, 1), AdmissibleTuple((0,))
    # M = 4 * 3^18 keeps 2N + M^2 under 2^63; 4 * 3^20 does not
    near = hand_table(p, tup, [(1,), (3,), (3**18,)])
    assert s1_pair_expansion(p, tup, near) == s1_pair_loop(p, tup, near)
    with pytest.raises(ResourceGuardError) as exc:
        s1_pair_expansion(p, tup, hand_table(p, tup, [(1,), (3**20,)]))
    assert "max(M)^2" in exc.value.cost_estimate


def test_s1_pair_expansion_byte_guard(monkeypatch):
    # (3, 3) asks 3 | n and 3 | n + 4 at once: no class, so 3 keys remain
    p, tup = relaxed(10**4, 0.1, 1.0, 1), AdmissibleTuple((0, 4))
    table = hand_table(p, tup, [(1, 1), (3, 1), (1, 7), (3, 3)])
    monkeypatch.setattr(errors, "BYTE_BUDGET", 12 * PAIR_BYTES - 1)
    with pytest.raises(ResourceGuardError) as exc:
        s1_pair_expansion(p, tup, table)
    assert "3 x 3 pairs" in exc.value.cost_estimate
    monkeypatch.setattr(errors, "BYTE_BUDGET", 12 * (PAIR_BYTES + 3))
    assert s1_pair_expansion(p, tup, table) == s1_pair_loop(p, tup, table)


def test_s_direct_validation():
    p = relaxed(10**4, 0.1, 1.0, 10)
    tup = AdmissibleTuple((0, 4))
    wt = lambda_from_F(p, single_bin_spec(2, 1.0))
    with pytest.raises(ValidationError):
        s_direct("S5", p, tup, wt)
    with pytest.raises(ValidationError):
        s_direct("S3", p, tup, wt, m=1, l=1)
    for which, m, l in [("S2", 2, 1), ("S4", -1, 1), ("S3", 0, 2), ("S3", 0, -1)]:
        with pytest.raises(ValidationError, match="< k = 2"):
            s_direct(which, p, tup, wt, m=m, l=l)
    assert s_direct("S1", p, tup, wt, m=5).value >= 0


def test_s3_zero_when_rho_support_empty():
    # shifts forced to 3 mod 4 residues never happen since n = 1 mod 4 and
    # 4 | h; instead empty support comes from a window where no n passes
    p = relaxed(10**4, 0.1, 1.0, 10)
    tup = AdmissibleTuple((0, 4))
    wt = lambda_from_F(p, single_bin_spec(2, 1.0))
    r = s_direct("S3", p, tup, wt, m=0, l=1)
    assert r.value >= 0 or r.value < 0  # finite
    assert r.n_terms > 0


def test_s_predicted_relations():
    p = relaxed(10**5, 0.1, 1.0, 10)
    tup = AdmissibleTuple((0, 4))
    spec = single_bin_spec(2, 1.0)
    s2 = s_predicted("S2", p, tup, spec, m=0)
    s4 = s_predicted("S4", p, tup, spec, m=0)
    assert s4 / s2 == pytest.approx((math.log(p.N) / math.log(p.v) + 1) / 2)
    s1 = s_predicted("S1", p, tup, spec)
    B = b_constant(p).value
    L = functional_value(spec, "L")
    assert s1 == pytest.approx(B**2 * p.N / (4 * p.W) * L)
    s3 = s_predicted("S3", p, tup, spec, m=0, l=1)
    Lml = functional_value(spec, "L_ml", m=0, l=1)
    assert s3 == pytest.approx(
        64 * (math.log(p.R) / math.log(p.v)) * B**2 * p.N / (math.pi**2 * p.W) * Lml
    )


# -- technical sums ----------------------------------------------------------------


def test_tech_sum_constant_G():
    p = relaxed(10**4, 0.1, 1.2, 10)
    rep = tech_sum_check(p, lambda x: 1.0)
    B = b_constant(p).value
    assert rep.predicted_main == pytest.approx(2 * B, rel=1e-12)
    # d = 1 contributes G(0) = 1
    assert rep.empirical >= 1.0


def test_tech_sum_total_is_the_sum_of_exact_reciprocals():
    # 1 / d and float(Fraction(1, d)) are the same correctly rounded float,
    # so the total equals, bit for bit, the ascending sum over the support
    # of the exact product of 1/p over the primes of d
    p = relaxed(10**6, 0.06, 1.334, 10)
    G = lambda x: 1.0 - x
    primes = [q for q in primes_up_to(p.R).tolist() if q % 4 == 3 and p.W % q]
    want = 0.0
    for d, _, ps in sorted(squarefree_products(primes, p.R)):
        want += float(math.prod((Fraction(1, q) for q in ps), start=Fraction(1))) * G(math.log(d) / math.log(p.R))
    assert tech_sum_check(p, G).empirical == want


def test_tech_sum_trend():
    errs = []
    for t2 in (1.0, 1.334, 1.667):  # R ~ 10^3, 10^4, 10^5 at N = 10^6
        p = relaxed(10**6, 0.06, t2, 10)
        rep = tech_sum_check(p, lambda x: 1.0 - x)
        errs.append(rep.rel_error)
    assert errs[0] > errs[2]


def test_c_gamma_closed_form_w1():
    res = c_gamma_check(1, 10**5)
    A = landau_ramanujan_A(10**5).value
    assert res["closed_form"] == pytest.approx(A / math.sqrt(math.pi / 4))
    assert res["slack"] < 1e-6


def test_c_gamma_truncation_self_consistency():
    r5 = c_gamma_check(10, 10**5)
    r6 = c_gamma_check(10, 10**6)
    assert abs(r5["truncated"].value - r6["truncated"].value) < 1e-5


@pytest.mark.parametrize("D0", [1, 10])
def test_c_gamma_equals_fsum_of_prime_terms(D0):
    p = relaxed(10**4, 0.1, 1.0, D0)
    res = c_gamma_check(D0, 10**5)
    terms = [-0.5 * math.log(math.pi / 4.0)]
    for q in primes_up_to(10**5).tolist():
        chi = 0 if q == 2 else (1 if q % 4 == 1 else -1)
        gamma = 1.0 if q % 4 == 3 and p.W % q else 0.0
        terms += [-math.log(1.0 - gamma / q), 0.5 * math.log(1.0 - 1.0 / q), -0.5 * math.log(1.0 - chi / q)]
    assert res["truncated"].value == pytest.approx(math.exp(math.fsum(terms)), rel=1e-12)
    assert res["closed_form"] == pytest.approx(landau_ramanujan_A(10**5).value / math.sqrt(math.pi / 4) * p.phi_W3, rel=1e-15)


# -- the general sieve sum -----------------------------------------------------------


def test_sJ_trivial_support():
    p = relaxed(16, 0.25, 0.5, 1)  # R = 2, support {1}
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    s = sJ_direct(p, wt, (), 1, 1, 0, lambda q: Fraction(1, q))
    assert s == wt.entries[(1,)] ** 2


def test_sJ_large_prime_empty():
    p = relaxed(25, 0.22, 1.0, 1)
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    s = sJ_direct(p, wt, (), 101, 1, 0, lambda q: Fraction(1, q))
    assert s == 0


def test_sJ_tracks_prediction():
    # S_emptyset with f(p) = 1/p should track B^k L_k as R grows
    ratios = []
    for t2 in (1.0, 1.4):
        p = relaxed(10**5, 0.1, t2, 1)
        wt = lambda_from_F(p, single_bin_spec(2, 1.0))
        s = sJ_direct(p, wt, (), 1, 1, 0, lambda q: Fraction(1, q))
        B = b_constant(p).value
        L = functional_value(single_bin_spec(2, 1.0), "L")
        ratios.append(float(s) / (B**2 * L))
    assert abs(ratios[1] - 1) < abs(ratios[0] - 1) or abs(ratios[1] - 1) < 0.5


def test_sJ_with_g_rule():
    p = relaxed(25, 0.22, 1.0, 1)
    wt = lambda_from_F(p, single_bin_spec(1, 1.0))
    s = sJ_direct(
        p, wt, (0,), 1, 1, 0, lambda q: Fraction(1, q), lambda q: Fraction(1, q * q)
    )
    # k = 1, J = {0}: sum over d, e of lam_d lam_e g([d,e])
    l1, l3 = wt.entries[(1,)], wt.entries[(3,)]
    expected = l1 * l1 + 2 * l1 * l3 * Fraction(1, 9) + l3 * l3 * Fraction(1, 9)
    assert s == expected


def test_s1_ratio_window_small_theta2():
    # ratio within [0.2, 5] at N = 1e7 for small theta2, drifting toward 1
    tup = AdmissibleTuple((0, 4))
    spec = single_bin_spec(2, 1.0)
    ratios = []
    for N in (10**5, 10**6, 10**7):
        p = relaxed(N, 0.1, 0.9, 10)
        wt = lambda_from_F(p, spec)
        ratios.append(s_direct("S1", p, tup, wt).value / s_predicted("S1", p, tup, spec))
    assert 0.2 <= ratios[-1] <= 5
    assert abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1)
