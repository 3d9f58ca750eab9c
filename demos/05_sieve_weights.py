"""The half-dimensional sieve machinery end to end.

Weight tables are exact rationals; inverting lambda back to the y-vector
reproduces the test-function evaluations with zero error.  The sieve
functionals have closed forms whose quadrature twins agree to machine
precision, and the direct window sums S1..S4 track their predicted main
terms with ratios drifting toward 1 as N grows (the first-order rate is
unquantified, so watch the trend, not the gap).
"""

import math

from twosquares import (
    AdmissibleTuple,
    SieveParams,
    enumerate_support,
    functional_value,
    lambda_from_F,
    s_direct,
    s_predicted,
    y_from_lambda,
)
from twosquares.sieve import b_constant, single_bin_spec

print("support of the weights (R = 60, W = 105):", enumerate_support(60, 105))

params = SieveParams(N=10**4, theta1=0.12, theta2=1.2, D0=10, strict=False)
spec = single_bin_spec(2, 1.0)
table = lambda_from_F(params, spec)
print(f"\nweight table at R = {params.R}: {len(table.entries)} entries, rows d1,d2,num,den:")
for row in table.export_rows()[:6]:
    print("  ", row)
roundtrip = y_from_lambda(table) == table.y_entries
print("lambda -> y roundtrip exact:", roundtrip)

print("\nfunctionals, closed form vs quadrature (k = 3, beta = 1/2):")
spec3 = single_bin_spec(3, 0.5)
for kind, m, l in (("L", None, None), ("L_m", 0, None), ("L_ml", 0, 1)):
    c = functional_value(spec3, kind, "closed_form", m=m, l=l)
    q = functional_value(spec3, kind, "quadrature", m=m, l=l)
    print(f"  {kind:5s}: {c:.10f} vs {q:.10f}   |diff| {abs(c - q):.1e}")

tup = AdmissibleTuple((0, 4))
print("\nS1..S4 direct vs predicted across N (k=2, D0=10, theta2=1.6):")
for N in (10**5, 10**6):
    p = SieveParams(N=N, theta1=0.1, theta2=1.6, D0=10, strict=False)
    wt = lambda_from_F(p, spec)
    print(f"  N = 10^{int(math.log10(N))} (R = {p.R}, B = {b_constant(p).value:.3f}):")
    for which in ("S1", "S2", "S3", "S4"):
        d = s_direct(which, p, tup, wt, m=0, l=1)
        pr = s_predicted(which, p, tup, spec, m=0, l=1)
        print(f"    {which}: {d.value:>14.4f} vs {pr:>14.4f}   ratio {d.value / pr:.3f}")
print("  (S4 inherits the factor-2 gap of the r^2 progression main term)")
