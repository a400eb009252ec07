"""Number-theoretic witnesses against weak nullity for sin(1/(kx)).

No subsequence of u_k(x) = sin(1/(kx)) is weakly null.  For a subsequence
avoided by some prime power p^m, the point x = (pi/p^m * lcm)^{-1} keeps
every |u_kj| above sin(pi/p^m); subsequences that defeat every prime power
must contain a dyadic divisibility chain, along which nested midpoints keep
every |u_kj| above 1/sqrt(2).  All bounds are certified rational enclosures.
The family declares that chain as a `PointFloor` certificate; its floor
points tend to 0, so the localized verdict is non-null at 0 and at inf, and
its `DecayEnvelope` makes it null at every finite point x0 > 0.
Run me: python demos/06_sin_witnesses.py
"""

from fractions import Fraction as F

from linfweak import test_weak_null, test_weak_null_at, witness_lower_bound
from linfweak.enclosure import sin_of_pi_multiple
from linfweak.families import SinReciprocalFamily
from linfweak.numtheory import (dyadic_divisibility_subsequence, lcm_list,
                                nested_midpoint, prime_power_nondivisor)
from linfweak.points import ExtPoint, WitnessPoint

fam = SinReciprocalFamily()
WIDTH = F(1, 10 ** 9)

print("-- prefix (2, 4, 8, 16): a prime power divides none of them --")
prefix = [2, 4, 8, 16]
p, m = prime_power_nondivisor(prefix)
print("smallest nondivisor prime power:", f"{p}^{m} = {p ** m}")
q = F(lcm_list(prefix), p ** m)
x = WitnessPoint.inv_pi_multiple(q)
print("witness point x =", x)
floor = sin_of_pi_multiple(F(1, p ** m), WIDTH).lo
wb = witness_lower_bound(fam, prefix, 4, x, floor)
print(f"certified |u_k(x)| >= sin(pi/{p ** m}) ~ {float(floor):.6f}:",
      wb.certified)
for k, enc in zip(prefix, wb.enclosures):
    print(f"  |u_{k}(x)| in [{float(enc.lo):.12f}, {float(enc.hi):.12f}]")

print()
print("-- a dyadic divisibility chain and its nested midpoint --")
ks = dyadic_divisibility_subsequence(1, 4)
print("chain:", ks[1:])
m0 = nested_midpoint(ks)
print("nested midpoint m0 =", m0, " -> witness x = 1/(m0*pi)")
x2 = WitnessPoint.inv_pi_multiple(m0)
floor2 = sin_of_pi_multiple(F(1, 4), WIDTH).lo  # = lower bound for 1/sqrt(2)
wb2 = witness_lower_bound(fam, ks[1:], 4, x2, floor2)
print(f"certified |u_k(x)| >= sin(pi/4) ~ {float(floor2):.6f}:", wb2.certified)
for k, enc in zip(ks[1:], wb2.enclosures):
    print(f"  |u_{k}(x)| in [{float(enc.lo):.12f}, {float(enc.hi):.12f}]")

print()
print("-- the engine rolls this into a verdict --")
v = test_weak_null(fam)
print("verdict:", v.kind, "| scheme:", v.scheme)
print("norm floor delta =", v.witness.delta, f"~ {float(v.witness.delta):.9f}")
print(v.trust)

print()
print("-- localized verdicts --")
for pt in ("0", "1/100", "inf"):
    lv = test_weak_null_at(fam, ExtPoint.parse(pt))
    print(f"at {pt}: {lv.kind} | scheme: {lv.scheme}")
