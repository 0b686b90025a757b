"""Cohomology of tautological bundles on Quot schemes, via the resolution.

Run with: python demos/05_quot_cohomology.py
"""

from quotcoh import (
    check_conjecture,
    dual_wedge_product,
    embedding_data,
    quot_cohomology,
    resolution_terms,
    sym_power,
    term_cohomology,
    verify_resolution_propositions,
    verify_theorem,
    wedge_power,
)
from quotcoh.quot import G1, G2

print("Embedding data for quotients of the trivial rank-2 bundle:")
data = embedding_data(2, None, 2, 0, 2)
print(f"  n=2, r=0, twist m=2: G({data.d1},{data.q1}) x G({data.d2},{data.q2}),"
      f" rank E = {data.rank_e}")

print("\nOne resolution term, split into homogeneous summands:")
term = resolution_terms(data, wedge_power(1), 1)
for b1, b2, mult in term.summands:
    print(f"  S_{b1.sub}(A1) box S_{b2.quot}(B2) x {mult}")
print(f"  cohomology of the term: {dict(term_cohomology(term).dims)}")

print("\nGlobal sections of wedge and Sym powers match the section space:")
for k in (1, 2):
    rep = verify_theorem(data, "A", (k,))
    print(f"  wedge^{k}: H^* = {dict(rep.computed.dims)}, "
          f"expected h^0 = {rep.expected_h0}, verified = {rep.verified}")
rep = verify_theorem(data, "B", (2,))
print(f"  Sym^2:   H^* = {dict(rep.computed.dims)}, "
      f"expected h^0 = {rep.expected_h0}, verified = {rep.verified}")

print("\nDualized exterior powers carry no cohomology at all:")
rep = verify_theorem(embedding_data(2, None, 1, 0, 1), "C", (1,))
print(f"  single dual factor: verified = {rep.verified}")

print("\nPer-term certification of the three resolutions (n=2, m=2):")
for sheaf in (wedge_power(1), sym_power(2), dual_wedge_product(((1, G2),))):
    report = verify_resolution_propositions(data, sheaf)
    pattern = "".join("z" if p.is_zero else "H" for _, p, _ in report.rows)
    print(f"  {sheaf.describe():28s} terms 0..{data.rank_e}: {pattern} "
          f"(H = has cohomology, z = acyclic), ok = {report.ok}")

print("\nPositive quotient rank: Euler characteristics against the "
      "conjectured binomials:")
data = embedding_data(2, None, 2, 1, 3)
for deg_l, side in ((2, G1), (3, G2)):
    row = [check_conjecture(data, "wedge", (k,), (deg_l,)).computed
           for k in range(6)]
    print(f"  deg L = {deg_l} (side {side}): chi of wedge^k = {row}")

print("\nEuler characteristic is embedding independent:")
chi_a = quot_cohomology(embedding_data(2, None, 2, 0, 3),
                        wedge_power(1, G2)).chi
chi_b = quot_cohomology(embedding_data(2, None, 2, 0, 4),
                        wedge_power(1, G1)).chi
print(f"  deg L = 3 through both twists: {chi_a} and {chi_b}")
