"""Sphere-shell eigenfunction families and their Fourier coefficients.

With M = 5*13*17*29 every a_j below is a leg of a two-square splitting of
M, so M - a_j^2 is a perfect square and the families assemble exactly.
b_0(k) = 1 always (normalisation is verified, not assumed); the
distinguished coefficients b_(2a_i,0,0)(k) converge geometrically to
2^-(i+1), which is what makes the limits non-trivial trigonometric data.
"""

import math

from twosquares import FamilyInputs, b_tau, build_family, ctau_limit, enumerate_shell
from twosquares.quantum import (
    all_btau,
    lp_partial_sum,
    mass_lower_bound,
    representation_growth_report,
    sigma_rho,
)

print("shells:")
for n, d in ((5, 2), (9, 3), (7, 3), (25, 4)):
    print(f"  |xi|^2 = {n} in Z^{d}: {len(enumerate_shell(n, d).points)} points")

M = 32045
legs = tuple(a for a in range(1, math.isqrt(M) + 1) if math.isqrt(M - a * a) ** 2 == M - a * a)
print(f"\nM = {M}; usable a_j (legs): {legs}")

fam = build_family("main", FamilyInputs(k=4, M=M, a=legs))
print(f"main-rule family at k = 4: {len(fam.support)} support points, sum amp^2 = {fam.amplitude_sq_total()}")
for i in (1, 2):
    coef = b_tau(fam, (2 * legs[i - 1], 0, 0))
    print(f"  b at (2 a_{i}, 0, 0): {coef.value:.6f} (exact {coef.exact})")

lim = ctau_limit(build_family("main", FamilyInputs(k=12, M=M, a=legs)), (2 * legs[0], 0, 0))
print(f"\nlimit estimate at k = 12: {lim.value:.8f} (target 0.25, diagnostic {lim.convergence_diagnostic:.1e})")

fam4 = build_family("ql_i", FamilyInputs(k=3, M=M, a=legs, d=4))
print(f"\nql_i family (T^4), k = 3: {len(fam4.support)} support points, {len(all_btau(fam4))} non-zero b_tau")
for i in (1, 2, 3):
    res = mass_lower_bound(fam4, i, 0.5)
    print(f"  mass bound at class {i}: sum = {res['lhs']:.4f} >= {res['rhs']:.4f}: {res['holds']}")

fam5 = build_family("ql_ii", FamilyInputs(k=3, M=M, a=legs, d=5))
print(f"\nql_ii family (T^5), k = 3: Sigma(30) = {sigma_rho(fam5, 30.0):.4f}, "
      f"l^1.5 mass inside radius 2a_2 = {lp_partial_sum(fam5, 0.5, 2 * legs[1]):.4f}")

rep = representation_growth_report([2 * 5**j for j in range(1, 5)])
print(f"\ncandidate a_j = 2*5^j growth report:")
print(f"  r2 values {rep['r2']} strictly increasing: {rep['r2_strictly_increasing']}")
print(f"  even-part exponents {rep['even_part_exponents']} (bounded)")
print(f"  r2(a^2) >= r2(a) violations: {rep['r2_square_ge_r2_violations']}")
