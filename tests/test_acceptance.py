"""Acceptance suite: every criterion at its stated tolerance, one printed
PASS/FAIL line each.  Run as `pytest tests/test_acceptance.py -v -s` or
directly as `python tests/test_acceptance.py`.

Two criteria pin errata of the paper's displayed forms as checked facts:

* criterion 6 applies its "at most one inversion" trend rule to the worst
  relative error of the r(n)r(n+4) prefix sums in each decade, because the
  error at single points oscillates (the sum at N = 10^5 equals the 8N main
  term exactly, so point errors are not monotone);
* criterion 7 gates the r^2(n) progression sum against 2(log N + A2)N, twice
  the displayed term, and ties the factor 2 to the classical Ramanujan-Wilson
  term of the full sum through an exact 2-adic identity; the error against
  the displayed term (1.000) is printed as the erratum.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from twosquares.ap_sums import (
    APQuery,
    empirical_sum_r,
    empirical_sum_r2,
    empirical_sum_rr,
    gamma_singular_series,
    predicted_sum_r,
    predicted_sum_r2,
    predicted_sum_rr,
)
from twosquares.arith import (
    build_factor_table,
    is_sum_of_two_squares,
    r2,
    r2_lattice_range,
    rd_bruteforce,
    rd_square_identity,
)
from twosquares.aux_sums import AuxParams, x_direct, x_predicted, z2_direct, z2_predicted
from twosquares.bins import (
    BinPartition,
    pigeonhole_extract,
    second_moment_lhs,
    verify_witness,
    witness_search,
)
from twosquares.constants import a2_constant, landau_ramanujan_A, special_constants
from twosquares.quantum import (
    FamilyInputs,
    b_tau,
    build_family,
    constant_M_inputs,
    ctau_limit,
    mass_lower_bound,
)
from twosquares.sieve import (
    AdmissibleTuple,
    SieveParams,
    base_integral_sq,
    functional_value,
    lambda_from_F,
    s_direct,
    s_predicted,
    single_bin_spec,
    y_from_lambda,
)

from oracles import gamma_direct_sum


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def relaxed(N, t1, t2, D0):
    return SieveParams(N=N, theta1=t1, theta2=t2, D0=D0, strict=False)


# -- 1 ------------------------------------------------------------------------


def test_criterion_01_r2_oracle_equivalence():
    t0 = time.perf_counter()
    limit = 10**5
    lattice = r2_lattice_range(limit)  # 2-D brute-force count, vectorised
    table = build_factor_table(limit)
    ok = True
    for n in range(1, limit + 1):
        f = table.factorize(n)
        if r2(f) != lattice[n] or is_sum_of_two_squares(f) != (lattice[n] > 0):
            ok = False
            break
    # tie the scalar brute-force path to the vectorised one on a sample
    for n in range(0, 2001):
        if rd_bruteforce(n, 2) != lattice[n]:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(1, "r2 oracle equivalence n<=1e5", ok, f"runtime {elapsed:.1f}s < 60s")
    assert ok


# -- 2 ------------------------------------------------------------------------


def test_criterion_02_rd_square_identities():
    ok = rd_square_identity(3, 3) == 30 and rd_square_identity(2, 4) == 24
    for n in range(1, 61):
        ok = ok and rd_square_identity(n, 3) == rd_bruteforce(n * n, 3)
    for n in range(2, 61, 2):
        ok = ok and rd_square_identity(n, 4) == rd_bruteforce(n * n, 4)
    report(2, "r3/r4 square identities n<=60", ok, "exact, d=4 even n only")
    assert ok


# -- 3 ------------------------------------------------------------------------


def test_criterion_03_mobius_roundtrip():
    checked = 0
    ok = True
    for D0 in (1, 10):
        p = relaxed(200**2, 0.13, 1.0, D0)  # R = 200
        assert p.R == 200
        specs = [
            single_bin_spec(1, 1.0),
            single_bin_spec(2, 1.0),
            single_bin_spec(3, 1.0),
            BinPartition((1, 1)).spec(),
            BinPartition((2, 1)).spec(),
            BinPartition((1, 1, 1)).spec(),
        ]
        for spec in specs:
            wt = lambda_from_F(p, spec)
            if y_from_lambda(wt) != wt.y_entries:  # zero tolerance
                ok = False
            checked += 1
    report(3, "Mobius-inversion roundtrip k<=3 R=200", ok, f"{checked} tables, exact rational")
    assert ok


# -- 4 ------------------------------------------------------------------------


def test_criterion_04_functional_closed_forms():
    worst = 0.0
    for k in range(1, 6):
        for beta in (1.0, 0.5, 0.25):
            base = base_integral_sq(beta, k, "quadrature")
            worst = max(worst, abs(base - (math.pi + 2) / 4 * math.sqrt(beta / k)))
            spec = single_bin_spec(k, beta)
            L = functional_value(spec, "L", "quadrature")
            Lm = functional_value(spec, "L_m", "quadrature", m=0)
            worst = max(
                worst,
                abs(Lm / L - math.pi**2 / (math.pi + 2) * math.sqrt(beta / k)),
            )
            if k >= 2:
                Lml = functional_value(spec, "L_ml", "quadrature", m=0, l=1)
                worst = max(
                    worst,
                    abs(Lml / L - (math.pi**2 / (math.pi + 2)) ** 2 * beta / k),
                )
    ok = worst < 1e-6
    report(4, "base integrals and ratios vs quadrature", ok, f"worst |diff| {worst:.2e} < 1e-6")
    assert ok


# -- helpers for 5-7 -----------------------------------------------------------


def _trend(errors: list[float]) -> int:
    return sum(1 for a, b in zip(errors, errors[1:]) if b > a)


# -- 5 ------------------------------------------------------------------------


def test_criterion_05_ap_r_sums():
    t0 = time.perf_counter()
    ok = True
    details = []
    for q, a, d in ((1, 0, 1), (3, 1, 1), (1, 0, 5)):
        errs = []
        for N in (10**4, 10**5, 10**6, 10**7):
            qq = APQuery(N=N, q=q, a=a, d=d)
            emp = empirical_sum_r(qq)
            errs.append(abs(emp - predicted_sum_r(qq)) / predicted_sum_r(qq))
        at6 = errs[2]
        ok = ok and at6 < 0.02 and _trend(errs) <= 1
        details.append(f"(q={q},d={d}): err@1e6={at6:.2e}, inversions={_trend(errs)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    report(5, "r(n) progression sums", ok, "; ".join(details) + f"; {elapsed:.0f}s < 300s")
    assert ok


# -- 6 ------------------------------------------------------------------------


def test_criterion_06_ap_rr_sums(r2_1e7):
    samples = (10**4, 10**5, 10**6, 10**7)
    emps, preds = [], []
    for N in samples:
        qq = APQuery(N=N, q=1, d1=1, d2=1, h=4)
        emps.append(empirical_sum_rr(qq))
        preds.append(predicted_sum_rr(qq))
    errs = [abs(e - p) / p for e, p in zip(emps, preds)]
    # The point errors oscillate (the signed error changes sign hundreds to
    # thousands of times per decade, and the N = 1e5 sum is exactly 8N), so
    # the trend rule is applied to the worst error over each decade, taken
    # from the prefix sums at every n = 1 (mod 4) up to 1e7.
    n = np.arange(1, samples[-1] + 1, 4, dtype=np.int64)
    prefix = np.cumsum(r2_1e7[n].astype(np.int64) * r2_1e7[n + 4])
    at_samples = [int(prefix[np.searchsorted(n, N, side="right") - 1]) for N in samples]
    prefix_ok = at_samples == emps
    main = preds[-1] / samples[-1] * n  # predicted_sum_rr is linear in N
    rel = np.abs(prefix - main) / main
    decade_worst = [
        float(rel[(n >= lo) & (n < hi)].max())
        for lo, hi in ((10**4, 10**5), (10**5, 10**6), (10**6, 10**7 + 1))
    ]
    gam = gamma_singular_series(1, 1, 1)
    gam_direct = gamma_direct_sum(1, 1, 1, r_max=10**4)
    gamma_ok = abs(gam.value - gam_direct) < 1e-3
    ok = errs[-1] < 0.05 and _trend(decade_worst) <= 1 and prefix_ok and gamma_ok
    report(
        6,
        "r(n)r(n+4) pair sums",
        ok,
        f"point errs {', '.join(f'{e:.1e}' for e in errs)}; err@1e7 < 5e-2: {errs[-1] < 0.05}; "
        f"worst err per decade {', '.join(f'{e:.2e}' for e in decade_worst)}, "
        f"inversions={_trend(decade_worst)} (1 allowed); prefix sums match: {prefix_ok}; "
        f"erratum: the N=1e5 sum is {emps[1]}, 8N = {8 * samples[1]}; "
        f"|Gamma diff|={abs(gam.value - gam_direct):.1e} < 1e-3: {gamma_ok}",
    )
    assert ok


# -- 7 ------------------------------------------------------------------------


def test_criterion_07_ap_r2_sums(r2_1e7):
    # Ramanujan-Wilson: sum_{n<=x} r2(n)^2 = 4x(log x + A2 - log 2) + o(x).
    # Since r2(2m) = r2(m) and odd n with r2(n) > 0 are 1 (mod 4), the full sum
    # is exactly sum_{a>=0} S(N >> a) for the n = 1 (mod 4) sum S, which forces
    # S(N) = 2(log N + A2)N + o(N): twice the displayed term.
    a2 = a2_constant().value
    errs, full_errs = [], []
    identity_ok = True
    for N in (10**5, 10**6, 10**7):
        emp = empirical_sum_r2(APQuery(N=N))
        stated = (math.log(N) + a2) * N  # the displayed main term
        displayed = abs(emp - stated) / stated
        errs.append(abs(emp - 2 * stated) / (2 * stated))
        full = int((r2_1e7[1 : N + 1] ** 2).sum())
        folded = sum(
            empirical_sum_r2(APQuery(N=N >> a)) for a in range(N.bit_length())
        )
        identity_ok = identity_ok and full == folded
        classical = 4 * N * (math.log(N) + a2 - math.log(2))
        full_errs.append(abs(full - classical) / classical)
    ok = errs[-1] < 0.05 and _trend(errs) == 0 and identity_ok and full_errs[-1] < 0.05
    report(
        7,
        "r^2(n) progression sums vs 2(logN+A2)N",
        ok,
        f"errs {', '.join(f'{e:.1e}' for e in errs)} (err@1e7 < 5e-2, strictly decreasing); "
        f"2-adic identity with the full sum exact: {identity_ok}; full sum vs "
        f"4N(logN+A2-log2): {', '.join(f'{e:.1e}' for e in full_errs)} (< 5e-2 at 1e7); "
        f"erratum: err vs the displayed (logN+A2)N is {displayed:.3f} at 1e7",
    )
    assert ok


# -- 8 ------------------------------------------------------------------------


def test_criterion_08_aux_sums():
    errs = []
    for v in (10**4, 10**5, 10**6, 10**7):
        p = AuxParams(v=v)
        errs.append(abs(x_direct(p) - x_predicted(p)) / x_predicted(p))
    strict_decrease = all(b < a for a, b in zip(errs, errs[1:]))
    z2_ok = all(z2_direct(AuxParams(v=v)) < 0 for v in (100, 200, 500, 1000, 3162, 10**4))
    z2_sign = z2_predicted(AuxParams(v=100)) < 0
    ok = errs[-1] < 0.20 and strict_decrease and z2_ok and z2_sign
    report(
        8,
        "auxiliary sums X and Z(2)",
        ok,
        f"X errs {', '.join(f'{e:.3f}' for e in errs)} (strictly decreasing: {strict_decrease}), "
        f"Z2 negative on grid: {z2_ok}",
    )
    assert ok


# -- 9 ------------------------------------------------------------------------


def test_criterion_09_second_moment_identity():
    worst = 0.0
    configs = [
        ((0, 4), (2,), 10**4, 1, 0.12),
        ((0, 4), (1, 1), 10**5, 10, 0.07),
        ((0, 4, 16), (1, 2), 10**5, 10, 0.07),
        ((0, 4, 16), (3,), 10**4, 10, 0.12),
        ((0, 4, 16), (2, 1), 10**4, 1, 0.12),
    ]
    for shifts, sizes, N, D0, t1 in configs:
        p = relaxed(N, t1, 1.0, D0)
        tup = AdmissibleTuple(shifts)
        part = BinPartition(sizes=sizes, mu=(1.5,) * len(sizes), t=(1.2,) * len(sizes))
        wt = lambda_from_F(p, part.spec())
        res = second_moment_lhs(p, tup, part, wt)
        worst = max(worst, res.rel_difference)
    ok = worst < 1e-6
    report(9, "second-moment expansion identity", ok, f"worst rel diff {worst:.2e} < 1e-6")
    assert ok


# -- 10 -----------------------------------------------------------------------


def test_criterion_10_witness_pipeline():
    p = relaxed(10**4, 0.1, 0.5, 1)
    tup = AdmissibleTuple((0, 4, 16))
    # M = 1: the truncated tuple with its first bin; M = 2: bins {h1}, {h2, h3}
    rec1 = witness_search(p, AdmissibleTuple((0,)), BinPartition(sizes=(1,)), 2 * 10**4)
    rec2 = witness_search(p, tup, BinPartition(sizes=(1, 2)), 2 * 10**4)
    ok = len(rec2) >= 1 and len(rec1) >= 1
    ok = ok and verify_witness(rec1) and verify_witness(rec2)
    rows = [tuple(rec1.accepted[0].tolist()), tuple(rec2.accepted[0].tolist())]
    ext = pigeonhole_extract(rows)
    # consistency: depth reaches 2 and a_1 agrees with both rows' first column
    ok = ok and ext.depth == 2 and ext.a[0] in {rec1.accepted[0, 0], rec2.accepted[0, 0]}
    for depth, surviving in enumerate(ext.supporting_rows, start=1):
        for idx in surviving:
            ok = ok and rows[idx][:depth] == ext.a[:depth]
    report(
        10,
        "witness search + pigeonhole",
        ok,
        f"witnesses M=1: {len(rec1)}, M=2: {len(rec2)}, extracted a={list(ext.a)}",
    )
    assert ok


# -- 11 -----------------------------------------------------------------------


def test_criterion_11_quantum_limits():
    M = 32045  # 5*13*17*29; every a below is a leg of a two-square splitting
    legs = tuple(
        a for a in range(1, math.isqrt(M) + 1) if math.isqrt(M - a * a) ** 2 == M - a * a
    )
    ok = True
    for k in range(1, 11):
        for rule, d in (("main", 3), ("ql_i", 4), ("ql_ii", 5)):
            fam = build_family(rule, FamilyInputs(k=k, M=M, a=legs, d=d))
            b0 = b_tau(fam, (0,) * fam.d)
            ok = ok and b0.exact == 1
    # exact rational b at tau = (2 a_1, 0, 0)
    for k in (1, 5, 10):
        fam = build_family("main", FamilyInputs(k=k, M=M, a=legs))
        got = b_tau(fam, (2 * legs[0], 0, 0)).exact
        ok = ok and got == Fraction(2**k, 2**k - 1) / 4
    # limit at k = 20 with a larger shell level
    M2 = 5 * 13 * 17 * 29 * 37
    legs2 = tuple(
        sorted(
            {a for a in range(1, math.isqrt(M2) + 1) if math.isqrt(M2 - a * a) ** 2 == M2 - a * a}
            | {
                math.isqrt(M2 - a * a)
                for a in range(1, math.isqrt(M2) + 1)
                if math.isqrt(M2 - a * a) ** 2 == M2 - a * a
            }
        )
    )
    lim = ctau_limit("main", constant_M_inputs(M2, legs2, 20), (2 * legs2[0], 0, 0), 20)
    limit_ok = abs(lim.value - 0.25) < 1e-6
    # displayed lower bounds as inequalities on computed instances
    bounds_ok = True
    for k in (2, 3):
        fam4 = build_family("ql_i", FamilyInputs(k=k, M=M, a=legs, d=4))
        fam5 = build_family("ql_ii", FamilyInputs(k=k, M=M, a=legs, d=5))
        for i in range(1, k + 1):
            for eps in (0.25, 0.5, 0.75, 1.0):
                bounds_ok = bounds_ok and mass_lower_bound(fam4, i, eps)["holds"]
            bounds_ok = bounds_ok and mass_lower_bound(fam5, i, 0.0)["holds"]
    ok = ok and limit_ok and bounds_ok
    report(
        11,
        "quantum-limit coefficients",
        ok,
        f"b0=1 exact (k<=10, 3 rules), b(2a1)(20) err {abs(lim.value - 0.25):.1e} < 1e-6, "
        f"lower bounds hold: {bounds_ok}",
    )
    assert ok


# -- 12 -----------------------------------------------------------------------


def test_criterion_12_constants():
    a6 = landau_ramanujan_A(10**6).value
    a7 = landau_ramanujan_A(10**7).value
    stable = abs(a6 - a7) < 1e-6
    near = abs(a7 - 0.764223) < 2e-6
    consts = special_constants()
    a2 = consts["A2"].value
    recomputed = (
        2 * consts["gamma_euler"].value
        - 1
        + 2 * consts["L_prime_ratio_at_1"].value
        - 2 * consts["zeta_prime_ratio_at_2"].value
        + 4 / 3 * math.log(2)
    )
    assembly = abs(a2 - recomputed) < 1e-9
    ok = stable and near and assembly
    report(
        12,
        "constants",
        ok,
        f"A stable to {abs(a6 - a7):.1e} < 1e-6, A(1e7)={a7:.6f}, A2 assembly diff {abs(a2 - recomputed):.1e} < 1e-9",
    )
    assert ok


# -- 13 -----------------------------------------------------------------------


def test_criterion_13_sieve_trend():
    tup = AdmissibleTuple((0, 4))
    spec = single_bin_spec(2, 1.0)
    ratios = []
    for N in (10**5, 10**6, 10**7):
        p = relaxed(N, 0.1, 1.6, 10)  # R = N^0.8 >= 30 throughout
        assert p.R >= 30
        wt = lambda_from_F(p, spec)
        direct = s_direct("S1", p, tup, wt).value
        pred = s_predicted("S1", p, tup, spec)
        ratios.append(direct / pred)
    monotone = all(
        abs(b - 1) < abs(a - 1) and (a - 1) * (b - 1) >= 0
        for a, b in zip(ratios, ratios[1:])
    )
    final_ok = 0.5 <= ratios[-1] <= 2.0
    ok = monotone and final_ok
    report(
        13,
        "S1 direct/predicted trend",
        ok,
        f"ratios {', '.join(f'{r:.3f}' for r in ratios)} -> 1 monotonically, final in [0.5, 2]; "
        "caveat: the first-order rate of the o(1) is unquantified, this is a trend check",
    )
    assert ok


# -- standalone runner ----------------------------------------------------------


def main() -> int:
    r2_1e7 = r2_lattice_range(10**7 + 8)
    failures = 0
    for fn, args in [
        (test_criterion_01_r2_oracle_equivalence, ()),
        (test_criterion_02_rd_square_identities, ()),
        (test_criterion_03_mobius_roundtrip, ()),
        (test_criterion_04_functional_closed_forms, ()),
        (test_criterion_05_ap_r_sums, ()),
        (test_criterion_06_ap_rr_sums, (r2_1e7,)),
        (test_criterion_07_ap_r2_sums, (r2_1e7,)),
        (test_criterion_08_aux_sums, ()),
        (test_criterion_09_second_moment_identity, ()),
        (test_criterion_10_witness_pipeline, ()),
        (test_criterion_11_quantum_limits, ()),
        (test_criterion_12_constants, ()),
        (test_criterion_13_sieve_trend, ()),
    ]:
        try:
            fn(*args)
        except AssertionError:
            failures += 1
    print(f"{13 - failures}/13 criteria passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
