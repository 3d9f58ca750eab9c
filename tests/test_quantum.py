import math
import random
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

from twosquares import quantum
from twosquares.arith import rd_bruteforce
from twosquares.errors import ResourceGuardError, ValidationError
from twosquares.quantum import (
    CoefficientFamily,
    FamilyInputs,
    all_btau,
    b_tau,
    build_family,
    constant_M_inputs,
    ctau_limit,
    decompose_Mk,
    enumerate_shell,
    lp_partial_sum,
    mass_lower_bound,
    representation_growth_report,
    sigma_rho,
)

from oracles import embed

# M = 5*13*17*29: every a below is a leg of a two-square representation of M,
# so M - a^2 is a perfect square and decompose_Mk succeeds with c = 0
M = 32045
LEGS = tuple(
    a for a in range(1, math.isqrt(M) + 1) if math.isqrt(M - a * a) ** 2 == M - a * a
)

M_BIG = 5 * 13 * 17 * 29 * 37  # 32 legs, enough for k = 20
LEGS_BIG = tuple(
    sorted(
        {a for a in range(1, math.isqrt(M_BIG) + 1) if math.isqrt(M_BIG - a * a) ** 2 == M_BIG - a * a}
        | {
            math.isqrt(M_BIG - a * a)
            for a in range(1, math.isqrt(M_BIG) + 1)
            if math.isqrt(M_BIG - a * a) ** 2 == M_BIG - a * a
        }
    )
)


def test_leg_setup():
    assert len(LEGS) == 16
    assert len(LEGS_BIG) >= 20


# -- shells -------------------------------------------------------------------


def test_shell_examples():
    assert len(enumerate_shell(5, 2).points) == 8
    assert len(enumerate_shell(1, 3).points) == 6
    assert len(enumerate_shell(7, 3).points) == 0  # 7 = 7 mod 8 obstruction
    assert len(enumerate_shell(0, 4).points) == 1


@pytest.mark.parametrize("n,d", [(4, 2), (9, 3), (25, 3), (12, 4), (16, 5)])
def test_shell_count_matches_bruteforce(n, d):
    assert len(enumerate_shell(n, d).points) == rd_bruteforce(n, d)


def test_shell_sign_closure_and_order():
    shell = enumerate_shell(9, 3)
    pts = set(shell.points)
    for p in pts:
        for i in range(3):
            q = list(p)
            q[i] = -q[i]
            assert tuple(q) in pts
    assert list(shell.points) == sorted(shell.points)


def test_shell_guard():
    with pytest.raises(ResourceGuardError):
        enumerate_shell(10**9, 6)


# -- decompositions -------------------------------------------------------------


def test_decompose_examples():
    assert decompose_Mk(25, [3]) == [(4, 0)]
    assert decompose_Mk(2, [1]) == [(1, 0)]
    assert decompose_Mk(25, [4]) == [(3, 0)]
    with pytest.raises(ValidationError):
        decompose_Mk(25, [6])  # 25 - 36 < 0
    with pytest.raises(ValidationError) as err:
        decompose_Mk(100, [6, 8, 9])  # 100 - 81 = 19 not a sum of two squares
    assert "a_3" in str(err.value)
    with pytest.raises(ValidationError, match="not a sum of two squares"):
        decompose_Mk(2**52 - 1, [1])  # M - 1 = 2 (2^51 - 1), odd part 3 (mod 4)


# -- families ---------------------------------------------------------------------


@pytest.mark.parametrize("rule,d", [("main", 3), ("ql_i", 4), ("ql_ii", 5)])
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_normalisation_exact(rule, d, k):
    fam = build_family(rule, FamilyInputs(k=k, M=M, a=LEGS, d=d))
    assert fam.amplitude_sq_total() == 1
    b0 = b_tau(fam, (0,) * fam.d)
    assert b0.exact == 1 and b0.value == 1.0


@pytest.mark.parametrize("k", [1, 3])
def test_normalisation_exact_d6(k):
    # dim-4 shells are costly to enumerate, so d = 6 stays at small k
    fam = build_family("ql_ii", FamilyInputs(k=k, M=M, a=LEGS, d=6))
    assert fam.amplitude_sq_total() == 1
    assert b_tau(fam, (0,) * 6).exact == 1


def test_family_validation():
    with pytest.raises(ValidationError):
        build_family("nope", FamilyInputs(k=1, M=M, a=LEGS))
    with pytest.raises(ValidationError):
        build_family("main", FamilyInputs(k=3, M=M, a=(2, 2, 19)))
    with pytest.raises(ValidationError):
        build_family("ql_ii", FamilyInputs(k=1, M=M, a=LEGS, d=4))


def test_main_rule_support_structure():
    fam = build_family("main", FamilyInputs(k=2, M=M, a=LEGS))
    assert len(fam.support) == 4  # two points per class
    a1 = LEGS[0]
    assert fam.support[(a1, math.isqrt(M - a1 * a1), 0)][0] == 1
    amp2 = fam.support[(a1, math.isqrt(M - a1 * a1), 0)][1]
    assert amp2 == Fraction(4, 3) / 4  # (2^k/(2^k-1)) 2^-(j+1), k=2, j=1


def test_ql_i_support_counts():
    fam = build_family("ql_i", FamilyInputs(k=3, M=M, a=LEGS, d=4))
    for j, a in enumerate(LEGS[:3], start=1):
        count = sum(1 for _, (jj, _) in fam.support.items() if jj == j)
        assert count == rd_bruteforce(a * a, 2)


def test_btau_distinct_class_selection():
    for k in (1, 4, 10):
        fam = build_family("main", FamilyInputs(k=k, M=M, a=LEGS))
        for i in (1, min(2, k)):
            tau = (2 * LEGS[i - 1], 0, 0)
            coef = b_tau(fam, tau)
            assert coef.exact == Fraction(2**k, 2**k - 1) * Fraction(1, 2 ** (i + 1))


def test_btau_k1_value():
    fam = build_family("main", FamilyInputs(k=1, M=M, a=LEGS))
    assert b_tau(fam, (2 * LEGS[0], 0, 0)).exact == Fraction(1, 2)


def test_btau_empty_difference():
    fam = build_family("main", FamilyInputs(k=2, M=M, a=LEGS))
    assert b_tau(fam, (1, 1, 1)).value == 0.0


def test_btau_symmetry_and_bound():
    for rule, d in (("main", 3), ("ql_i", 4)):
        fam = build_family(rule, FamilyInputs(k=3, M=M, a=LEGS, d=d))
        table = all_btau(fam)
        for tau, coef in table.items():
            minus = tuple(-t for t in tau)
            assert minus in table
            assert table[minus].value == pytest.approx(coef.value, abs=1e-12)
            assert abs(coef.value) <= 1 + 1e-12


# -- the b_tau table against the scalar oracle -----------------------------------

ORACLE_FAMILIES = {
    "main-k4": lambda: build_family("main", FamilyInputs(k=4, M=M, a=LEGS)),
    "ql_i-k3": lambda: build_family("ql_i", FamilyInputs(k=3, M=M, a=LEGS, d=4)),
    "ql_ii-d5-k2": lambda: build_family("ql_ii", FamilyInputs(k=2, M=M, a=LEGS, d=5)),
    "ql_ii-d5-k2-embedded-d6": lambda: embed(
        build_family("ql_ii", FamilyInputs(k=2, M=M, a=LEGS, d=5)), 1
    ),
}


def _assert_table_matches_oracle(fam, table):
    diffs = {tuple(x - y for x, y in zip(xi, eta)) for xi in fam.support for eta in fam.support}
    assert len(table) == len(diffs)
    assert set(table) == diffs
    for tau in table:
        got, want = table[tau], b_tau(fam, tau)
        assert (got.exact is None) == (want.exact is None), tau
        assert got.exact == want.exact, tau
        assert math.isclose(got.value, want.value, rel_tol=1e-12, abs_tol=0), tau
    # tau outside the table: the scalar oracle finds no pair
    rng = random.Random(0)
    lo = table.taus.min(0).tolist()
    hi = table.taus.max(0).tolist()
    absent = 0
    while absent < 100:
        tau = tuple(rng.randint(a, b + 1) for a, b in zip(lo, hi))
        if tau not in table:
            assert b_tau(fam, tau).value == 0.0, tau
            absent += 1


@pytest.mark.parametrize("name", sorted(ORACLE_FAMILIES))
def test_btau_table_matches_scalar_oracle(name):
    fam = ORACLE_FAMILIES[name]()
    _assert_table_matches_oracle(fam, all_btau(fam))


def test_btau_table_wide_coordinates_and_large_denominators():
    # coordinate spans of 2*10^6 need two int64 key words; the amplitude
    # denominators put the common denominator above 2^53; class j = 2 holds
    # two amplitudes, and same-j pairs take the amplitude of xi, as b_tau does
    assert len(quantum._pack([4 * 10**6 + 1] * 3 + [4, 4])) == 2
    p, q = 2**61 - 1, 2**31 - 1
    support = {
        (0, 0, 0): (1, Fraction(1, p)),
        (10**6, 3, -(10**6)): (1, Fraction(1, p)),
        (-(10**6), 10**6, 7): (2, Fraction(2, q)),
        (5, -(10**6), 10**6): (2, Fraction(3, q)),
        (10**6 - 5, 10**6, 7): (3, Fraction(1, 7)),
    }
    fam = CoefficientFamily("main", 3, 3, 0, support)
    table = all_btau(fam)
    _assert_table_matches_oracle(fam, table)
    for tau in table:  # the float exact part is correctly rounded
        if table[tau].exact is not None:
            assert table[tau].value == float(b_tau(fam, tau).exact)


def test_btau_table_blocks_merge_to_one_table(monkeypatch):
    fam = build_family("ql_i", FamilyInputs(k=3, M=M, a=LEGS, d=4))
    whole = all_btau(fam)
    monkeypatch.setattr(quantum, "_BLOCK_PAIRS", 5)  # one row of 12 points per block
    blocked = all_btau(fam)
    for field in ("taus", "values", "mixed", "same_row", "same_class", "same_count"):
        assert np.array_equal(getattr(whole, field), getattr(blocked, field)), field


def test_btau_table_is_a_read_only_mapping():
    fam = build_family("main", FamilyInputs(k=2, M=M, a=LEGS))
    table = all_btau(fam)
    assert isinstance(table, Mapping)
    assert list(table) == sorted(table)
    assert table[(0, 0, 0)].exact == 1
    assert (1, 1, 1) not in table and (0, 0) not in table
    with pytest.raises(KeyError):
        table[(1, 1, 1)]
    with pytest.raises(ValueError):
        table.values[0] = 2.0


def test_one_table_per_family(monkeypatch):
    calls = []
    build = quantum.all_btau
    monkeypatch.setattr(quantum, "all_btau", lambda fam: calls.append(fam) or build(fam))
    fam = build_family("ql_i", FamilyInputs(k=3, M=M, a=LEGS, d=4))
    for i in range(1, 4):
        mass_lower_bound(fam, i, 0.5)
    sigma_rho(fam, 100.0)
    lp_partial_sum(fam, 1.0, 100.0)
    assert len(calls) == 1


def test_btau_byte_guard_fires_before_the_pair_arrays():
    n = 10**5
    support = {(x, 0, 0): (1, Fraction(1, n)) for x in range(n)}
    fam = CoefficientFamily("main", 1, 3, 0, support)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError) as err:
            all_btau(fam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "bytes" in err.value.cost_estimate
    assert peak < 64 * 2**20  # the 10^10 pair keys alone would take 80 GB


def test_ctau_limit_and_error_bound():
    inputs = constant_M_inputs(M_BIG, LEGS_BIG, 20)
    lim = ctau_limit("main", inputs, (2 * LEGS_BIG[0], 0, 0), 20)
    assert abs(lim.value - 0.25) < 1e-6
    # explicit error bound from the prefactor: 2^-k/(1 - 2^-k) * 2^-(i+1)
    for k in (5, 10):
        fam = build_family("main", FamilyInputs(k=k, M=M_BIG, a=LEGS_BIG))
        val = b_tau(fam, (2 * LEGS_BIG[0], 0, 0)).value
        bound = 2.0**-k / (1 - 2.0**-k) * 0.25
        assert abs(val - 0.25) <= bound + 1e-15


def test_ctau_requires_depth():
    with pytest.raises(ValidationError):
        ctau_limit("main", constant_M_inputs(M, LEGS, 1), (0, 0, 0), 1)


# -- partial sums and displayed bounds ------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5])
def test_ql_i_mass_bound(k):
    fam = build_family("ql_i", FamilyInputs(k=k, M=M, a=LEGS, d=4))
    for i in range(1, k + 1):
        for eps in (0.25, 0.5, 0.75, 1.0):
            res = mass_lower_bound(fam, i, eps)
            assert res["holds"], (k, i, eps, res)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("d", [5])
def test_ql_ii_mass_bound(k, d):
    fam = build_family("ql_ii", FamilyInputs(k=k, M=M, a=LEGS, d=d))
    for i in range(1, k + 1):
        res = mass_lower_bound(fam, i, 0.0)
        assert res["holds"], (k, i, d, res)


def test_partial_sum_tau_zero_floor():
    fam = build_family("ql_i", FamilyInputs(k=2, M=M, a=LEGS, d=4))
    assert lp_partial_sum(fam, 0.0, 0.5) >= 1.0  # b_0 = 1 alone


def test_sigma_rho_strict_inequality():
    fam = build_family("main", FamilyInputs(k=2, M=M, a=LEGS))
    # radius just above 0 picks up only tau = 0... strictly below: nothing at 0+
    assert sigma_rho(fam, 0.5) == pytest.approx(1.0)  # only tau = 0
    big = sigma_rho(fam, 10 * math.isqrt(M) + 10)
    small = sigma_rho(fam, 2 * LEGS[0])  # strict: excludes |tau| = 2 a_1
    assert big > small
    with_it = lp_partial_sum(fam, 1.0, 2 * LEGS[0])  # inclusive
    assert with_it > small


def test_embed_preserves_btau():
    fam = build_family("main", FamilyInputs(k=2, M=M, a=LEGS))
    fam6 = embed(fam, 3)
    assert fam6.d == 6
    b3 = b_tau(fam, (2 * LEGS[0], 0, 0))
    b6 = b_tau(fam6, (2 * LEGS[0], 0, 0, 0, 0, 0))
    assert b3.exact == b6.exact
    assert fam6.amplitude_sq_total() == 1


def test_representation_growth_report():
    rep = representation_growth_report([2 * 5**j for j in range(1, 4)])
    assert rep["r2_strictly_increasing"]
    assert rep["even_part_exponents"] == [1, 1, 1]
    assert rep["r2_square_ge_r2_violations"] == []
