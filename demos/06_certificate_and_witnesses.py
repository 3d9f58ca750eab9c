"""The second-moment certificate and the witness pipeline.

The certificate's left-hand side is computed pointwise over the window
and assembled from the S-sums.  Both read the same inner weights and the
same rho arrays, so their agreement to machine precision checks the
expansion algebra.  Witness search then finds actual n whose translates
hit every bin (each n + h certified by an (x, y) with x^2 + y^2 = n + h,
checked in exact integers), and the pigeonhole extraction turns per-M
witness rows into one nested sequence.
"""

from twosquares import (
    AdmissibleTuple,
    BinPartition,
    SieveParams,
    jakobson_tuple,
    lambda_from_F,
    pigeonhole_extract,
    second_moment_lhs,
    witness_search,
)
from twosquares.arith import trial_factorize
from twosquares.bins import default_mu_t, feasibility_condition, theorem_constants, verify_witness

tc = theorem_constants(1 / 40, 1 / 40)
print(f"certificate constants at theta1 = theta2 = 1/40:")
print(f"  Delta = {tc['Delta']:.4f}, c = {tc['c']:.4f}, least first-bin size = {tc['k1_min']}")
sizes = (max(tc["k1_min"], 129), 2**14 + 1, 2**21 + 1)
fc = feasibility_condition(sizes, 1 / 40, 1 / 40)
print(f"  feasibility for bins {sizes}: lhs {fc['lhs']:.3f} < rhs {fc['rhs']:.3f}: {fc['feasible']}")

params = SieveParams(N=10**4, theta1=0.12, theta2=1.0, D0=10, strict=False)
tup = AdmissibleTuple((0, 4, 16))
part = BinPartition(sizes=(1, 2), mu=(1.5, 2.5), t=(1.0, 2.0))
table = lambda_from_F(params, part.spec())
res = second_moment_lhs(params, tup, part, table)
print("\nsecond-moment LHS, two evaluators:")
print(f"  direct   {res.lhs_direct:.6f}")
print(f"  assembled {res.lhs_assembled:.6f}")
print(f"  relative difference {res.rel_difference:.2e}; rho<0 encountered: {res.rho_negative_count}")

found = witness_search(params, tup, BinPartition(sizes=(1, 2)), 2 * 10**4)
print(f"\nwitnesses for bins {{0}},{{4,16}} in [10^4, 2*10^4): {len(found)}")
n, accepted = int(found.n[0]), tuple(found.accepted[0].tolist())
print(f"  first: n = {n}, accepted shifts {accepted}, verified: {verify_witness(found)}")
for h, (x, y) in zip(accepted, found.certificates[0].tolist()):
    print(f"    n+{h} = {n + h} = {x}^2 + {y}^2, factorisation {trial_factorize(n + h).pairs}")

rows = [accepted[:1], accepted, tuple(found.accepted[1].tolist())]
ext = pigeonhole_extract(rows)
print(f"\npigeonhole over rows {rows}: a = {list(ext.a)}, depth {ext.depth}")

jt = jakobson_tuple(2)
print(f"\nnegative-shift tuple {jt.h}: witnesses in the same window:")
neg = witness_search(params, jt, BinPartition(sizes=(1, 1)), 2 * 10**4)
print(f"  {len(neg)} found; first n = {int(neg.n[0])} with shifts {tuple(neg.accepted[0].tolist())}")
