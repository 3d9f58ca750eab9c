"""Hooley's damped representation function and the auxiliary sums.

rho(n) = t(n) r_2(n) tempers r_2 with a truncated divisor sum over primes
1 mod 4.  The X sum tracks its predicted 8A sqrt(log v)/pi main term with
an error that shrinks as v grows.  For the double sums Z(1), Z(2) the
displayed constants disagree with the series derivation behind them by a
factor 4.29...; the direct Z(1) sum over the displayed one rises towards
that factor with v, so the ratios are printed per decade.
"""

import math

from twosquares import rho, t_weight
from twosquares.arith import trial_factorize, primes_up_to
from twosquares.aux_sums import (
    AuxParams,
    x_direct,
    x_predicted,
    y_direct,
    y_predicted,
    z1_direct,
    z1_predicted,
    z2_direct,
    z2_predicted,
)
from twosquares.constants import landau_ramanujan_A

v = 100  # floor(N^theta1), e.g. N = 100^20 and theta1 = 1/20
print("rho at small n (v = 100):")
for n in (1, 2, 3, 5, 25, 65, 325):
    f = trial_factorize(n)
    print(f"  n={n:4d}: t = {t_weight(v, f):+.4f}  rho = {rho(v, f):+.4f}")

print("\nX sum vs 8A sqrt(log v)/pi:")
for v in (10**3, 10**4, 10**5, 10**6):
    p = AuxParams(v=v)
    xd, xp = x_direct(p), x_predicted(p)
    print(f"  v=10^{int(math.log10(v))}: {xd:.4f} vs {xp:.4f}  rel {abs(xd - xp) / xp:.3f}")

# the appendix-derivation constant for the Z sums (see notes): the
# displayed 32A^3/pi^2 misses a factor 4 prod (local corrections)
import numpy as np

ps = primes_up_to(10**6)
p1 = ps[ps % 4 == 1].astype(float)
A = landau_ramanujan_A(10**6).value
local = float(
    np.exp(
        np.sum(
            np.log(2 * p1**2 * (2 * p1**2 - 2 * p1 + 1) / ((p1**2 - 1) * (2 * p1 - 1) ** 2))
        )
    )
)
derivation_factor = 4 * local  # the display misses this factor

print("\nDirect / displayed ratios (the Z(1) ratio rises towards the derivation factor):")
print("     v     Z(1)    Z(2)     Y")
for v in (10**3, 10**4, 10**5):
    p = AuxParams(v=v)
    r1, r2 = z1_direct(p) / z1_predicted(p), z2_direct(p) / z2_predicted(p)
    print(f"  10^{int(math.log10(v))}  {r1:7.4f} {r2:7.4f} {y_direct(p) / y_predicted(p):7.4f}")
print(f"  (display-to-derivation factor: {derivation_factor:.4f})")
print("\nZ(2) stays negative, as predicted:")
for v in (100, 1000, 10**4):
    print(f"  v={v:>6}: {z2_direct(AuxParams(v=v)):+9.4f}")
