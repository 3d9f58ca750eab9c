"""Counting representations as sums of squares, three independent ways.

r_2(n) comes from the chi_4 divisor structure of the factorisation; the
lattice oracle literally enumerates integer points.  They agree exactly,
and the closed forms for r_3(n^2), r_4(n^2) match brute force (r_4 only
for even n -- try an odd one below to see the recorded factor-3 gap).
"""

from twosquares import (
    build_factor_table,
    is_sum_of_two_squares,
    r2,
    r2_lattice_range,
    rd_bruteforce,
    rd_square_identity,
)

table = build_factor_table(10**4)
lattice = r2_lattice_range(100)

print("n, r2 via chi4, r2 via lattice, sum of two squares?")
for n in (1, 2, 3, 9, 21, 25, 50, 65, 99):
    f = table.factorize(n)
    print(f"{n:4d} {r2(f):4d} {int(lattice[n]):4d}   {is_sum_of_two_squares(f)}")

print("\nr_3(n^2): closed form vs brute force")
for n in (1, 2, 3, 5, 10, 21):
    print(f"  n={n:2d}: {rd_square_identity(n, 3):6d} vs {rd_bruteforce(n * n, 3):6d}")

print("\nr_4(n^2), even n (exact) and odd n (closed form is 3x too big):")
for n in (2, 4, 6, 3, 5):
    ident = rd_square_identity(n, 4)
    brute = rd_bruteforce(n * n, 4)
    tag = "ok" if ident == brute else f"ratio {ident / brute:.0f}"
    print(f"  n={n:2d}: {ident:6d} vs {brute:6d}  ({tag})")
