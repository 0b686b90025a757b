"""Borel-Weil-Bott on Grassmannians of quotients.

Run with: python demos/03_grassmannian_cohomology.py
"""

from quotcoh import (
    GrassmannianContext,
    HomogeneousBundle,
    bwb,
    cohomology_dims,
    euler_char,
    vanishes_plus_condition,
    vanishes_quot_dual_condition,
    vanishes_sub_condition,
)
from quotcoh.partitions import negate_reverse, pad


def line_bundle_p1(t: int) -> HomogeneousBundle:
    """O(t) on the projective line presented as G(2, 1)."""
    ctx = GrassmannianContext(2, 1)
    if t >= 0:
        return HomogeneousBundle(ctx, (t,), (0,))
    return HomogeneousBundle(ctx, (0,), (-t,))


print("Line bundles on the projective line, presented as G(2, 1):")
for t in range(-3, 4):
    dims = cohomology_dims(line_bundle_p1(t))
    print(f"  O({t:+d}): h^0 = {dims.get(0, 0)}, h^1 = {dims.get(1, 0)}, "
          f"chi = {euler_char(line_bundle_p1(t))}")

print("\nA repeated entry in the shifted weight kills all cohomology:")
ctx = GrassmannianContext(4, 2)
bundle = HomogeneousBundle(ctx, (0, 0), (1, 0))
print(f"  S_(1,0)(A) on G(4,2): vanishes = {bwb(bundle).vanishes}")

print("\nOtherwise sorting the shifted weight locates one group:")
bundle = HomogeneousBundle(ctx, (0, 0), (3, 1))
res = bwb(bundle)
print(f"  S_(3,1)(A) on G(4,2): degree {res.degree}, weight {res.gl_weight}, "
      f"dimension {cohomology_dims(bundle)[res.degree]}")

print("\nClosed-form vanishing windows, checked against the algorithm:")
for mu in ((1, 0), (2, 2), (5, 1), (3, 0)):
    j = vanishes_sub_condition(mu, 2)
    actual = bwb(HomogeneousBundle(ctx, (0, 0), mu)).vanishes
    print(f"  sub side mu={mu}: witness j = {j}, vanishes = {actual}")
# S_nu(B dual) is S_(-nu_2, -nu_1)(B), with the sub side trivial
for nu in ((1,), (3, 1), (4,)):
    j = vanishes_quot_dual_condition(nu, 5, 2)
    dual = negate_reverse(pad(nu, 2))
    actual = bwb(HomogeneousBundle(GrassmannianContext(5, 2), dual,
                                   (0, 0, 0))).vanishes
    print(f"  dual quotient nu={nu} on G(5,2): witness j = {j}, "
          f"vanishes = {actual}")

print("\nThe wedge-twisted window excludes one value per row:")
for mu, k in (((), 1), ((1,), 1), ((2, 1), 1), ((2, 1), 2)):
    print(f"  mu={mu}, k={k}: witness j = {vanishes_plus_condition(mu, 3, k)}")
