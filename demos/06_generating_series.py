"""Generating-series identities for the Euler characteristics, genus zero.

Run with: python demos/06_generating_series.py
"""

from quotcoh import closed_form, compare, embedding_data
from quotcoh.quot import G2

print("Closed-form coefficient tables, row n = coefficients of q^n y^k,")
print("for chi = 6 sections (N = 2, deg L = 2):")
print("  wedge (1-q)^-1 (1+qy)^chi:  C(chi, k)")
print("  sym   (1-q)^-1 (1-qy)^-chi: C(chi+k-1, k)")
print("  dual  (1-q)^-1:             1 at k = 0")
for kind in ("wedge", "sym", "dual"):
    print(f"  {kind}: {closed_form(kind, 6, 3)}")

print("\nComparison with the resolution tables (N=2, deg L = 4, n <= 3):")
chi = embedding_data(2, None, 0, 0, 4).section_dim(G2)
print(f"  chi = h^0 of the twisted bundle = {chi}")
for kind in ("wedge", "sym", "dual"):
    comparison = compare(kind, 2, 4, 3)
    print(f"  {kind}: equal on the window k <= n = {comparison.equal}")
    for n, (row, closed) in enumerate(zip(comparison.resolution,
                                          comparison.closed)):
        print(f"    q^{n}: resolution {row[:n + 1]}, closed form "
              f"{closed[:n + 1]}")

print("\nA split bundle O(1) + O only shifts the section count:")
comparison = compare("sym", 2, 2, 2, splitting=(1, 0))
print(f"  sym, deg L = 2: chi = "
      f"{embedding_data(2, (1, 0), 0, 0, 2).section_dim(G2)}, "
      f"table {comparison.resolution}, equal = {comparison.equal}")
