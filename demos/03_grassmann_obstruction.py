"""Almost-Grassmann compatibility: obstruction, witnesses, and a rare hit.

After fixing the adapted coframe (a rescaling of the first n foliations'
forms that normalizes foliation n+1), each remaining foliation expands
with coefficient vectors u on the x side and v on the y side.  The web is
almost Grassmannizable exactly when u and v are proportional for every
such foliation; the 2x2 minors of the pair (u, v) are exact obstruction
witnesses.  Generic matrices fail; the compatible locus has codimension
one.  Webs whose rows are orthogonal under a diagonal form lie on it, so
the constructor below builds exact points on it.
"""

from linearwebs import (RatMatrix, adapted_coframe, agw_test, basis_affinors,
                        build_web, condition7_residual, expand_foliation,
                        orthogonal_web)

web = build_web(RatMatrix([[1, 1, 0], [1, 1, 1], [1, 2, 1]]))
cof = adapted_coframe(web)
print("a generic-looking web:")
for a in (5, 6):
    u, v = expand_foliation(web, cof, a)
    print(f"  foliation {a}: u = {tuple(map(str, u))}, v = {tuple(map(str, v))}")
report = agw_test(web)
print(f"verdict: {report.verdict}")
w = report.witnesses[0]
print(f"first witness minor: a={w.a}, pair ({w.beta},{w.gamma}), value {w.value}")

print("\nconstructing a compatible web: rows orthogonal under a diagonal form")
witness_web = orthogonal_web(3, seed=0)
print(f"A = {witness_web.A.to_json()}")
for a in (5, 6):
    u, v = expand_foliation(witness_web, adapted_coframe(witness_web), a)
    print(f"  foliation {a}: u = {tuple(map(str, u))}, v = {tuple(map(str, v))}"
          "  (proportional)")

table = basis_affinors(witness_web)
print("\nscalar affinor table at the witness:")
for entry in table.entries:
    print(f"  lambda({entry.a},{entry.ahat}) = {entry.x}  (x and y sides agree)")

identity = condition7_residual(table)
print(f"\nnecessary scalar identity residual: {identity.residual} "
      "(zero on every compatible web tested so far)")

print("\ndirect products are compatible too:")
diag = RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
print(f"  diag(1, 2, 3): {diag.to_json()} -> "
      f"{agw_test(build_web(diag)).verdict}")
