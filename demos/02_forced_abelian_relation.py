"""The forced abelian relation and the relation space.

Each foliation contributes a normal, the 2-form dx^xi ^ dy_xi.  For every
web of this family the normals sum to zero exactly: the x-side uses
columns of A where the y-side uses rows of A^{-1}, and the two halves of
the sum cancel term by term after re-indexing.  A constant coefficient
vector has vanishing weighted sum exactly when it is constant on each
connected component of the support graph of A (rows against columns, an
edge per nonzero entry); generically that graph is connected, so the space
is one-dimensional, spanned by all-ones.
"""

import random

from linearwebs import (RatMatrix, abelian_residual, build_web, normals,
                        relation_space)

web = build_web(RatMatrix([[1, 1, 0], [0, 1, 1], [1, 1, 1]]))

print("the six normals of the web:")
for xi, omega in enumerate(normals(web), start=1):
    print(f"  normal {xi}: {omega.to_json()}")

print("\nweighted sums of normals:")
residual = abelian_residual(web, [1, 1, 1, 1, 1, 1])
print(f"  all-ones coefficients -> zero: {residual.is_zero}")
residual = abelian_residual(web, [1, 0, 0, 0, 0, 0])
print(f"  a single foliation alone -> zero: {residual.is_zero}")

print("\nrelation space report:")
print(relation_space(web).to_text())

print("\nthe cancellation is structural, not accidental; a few random orders:")
rng = random.Random(42)
for n in (2, 4, 5):
    while True:
        A = RatMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        if A.det() != 0:
            break
    w = build_web(A)
    zero = abelian_residual(w, [1] * (2 * n)).is_zero
    report = relation_space(w)
    print(f"  n={n}: all-ones residual zero: {zero}; "
          f"relation dimension {report.dimension} ({report.verdict})")
