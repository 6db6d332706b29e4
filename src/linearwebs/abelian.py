"""Web normals and the constant-coefficient abelian relation space.

The normal of foliation xi is the 2-form dx^xi ^ dy_xi.  A constant
relation is a coefficient vector f with sum_xi f_xi dx^xi ^ dy_xi = 0.
For every web of this family the all-ones vector is a relation: the two
halves of the sum cancel exactly because the x-side uses columns of A and
the y-side rows of A^{-1}.

The relation space is read off the support of A.  The weighted sum has
coefficient A[i][b] (f_{n+b} - f_i) on dx^i ^ dy_{n+b} and nothing on the
pure-x or pure-y pairs, so f is a relation exactly when it is constant on
each connected component of the bipartite support graph of A: foliations
1..n are its rows, n+1..2n its columns, with an edge wherever A[i][b] != 0
(Brualdi & Ryser, Combinatorial Matrix Theory, 1991, ch. 4).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .forms import TwoForm, wedge
from .ratlin import format_rational, rational
from .webmodel import LinearWeb

__all__ = ["normals", "abelian_residual", "RankReport", "relation_space",
           "RANK_BOUND_ORDER_3"]

# Upper bound on the number of independent constant relations for n = 3,
# cited from the source being audited; no bound is asserted for other n.
RANK_BOUND_ORDER_3 = 1


def normals(web: LinearWeb) -> tuple:
    """The 2n web normals dx^xi ^ dy_xi, in foliation order."""
    return tuple(wedge(web.dx(xi), web.dy(xi)) for xi in range(1, 2 * web.n + 1))


def abelian_residual(web: LinearWeb, coefficients: Sequence) -> TwoForm:
    """The weighted sum of the web normals for a candidate relation vector."""
    if len(coefficients) != 2 * web.n:
        raise ValueError(f"expected {2 * web.n} coefficients, got {len(coefficients)}")
    total = web.chart.zero_two_form()
    for f, omega in zip(coefficients, normals(web)):
        f = rational(f)
        if f != 0:
            total = total + omega.scale(f)
    return total


class RankReport(NamedTuple):
    """Dimension and basis of the constant relation space, against the bound."""

    n: int
    dimension: int
    basis: tuple
    bound: Optional[int]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "dimension": self.dimension,
            "basis": [[format_rational(c) for c in v] for v in self.basis],
            "bound": self.bound if self.bound is not None else "not asserted",
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        bound = str(self.bound) if self.bound is not None else "not asserted"
        lines = [f"constant relation space: dimension {self.dimension} "
                 f"(bound {bound}) -> {self.verdict}"]
        for v in self.basis:
            lines.append("  basis vector (" + ", ".join(format_rational(c) for c in v) + ")")
        return "\n".join(lines)


def relation_space(web: LinearWeb) -> RankReport:
    """The constant relation space of the web normals, from the support of A.

    One basis vector per connected component of the support graph: its 0/1
    indicator, the components ordered by their largest foliation index.
    This is the normalized reduced-echelon kernel basis of the stacked
    normals, and every vector satisfies the residual identity exactly.  For
    n = 3 the dimension is compared against the cited bound of 1; dimension
    above the bound is flagged as an anomaly (it only occurs for webs that
    also fail the general position audit: a split support graph puts a zero
    in A).
    """
    n = web.n
    parent = list(range(2 * n))

    def root(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for i, row in enumerate(web.A.entries()):
        for b, entry in enumerate(row):
            if entry:
                parent[root(i)] = root(n + b)
    components: dict = {}
    for k in range(2 * n):
        components.setdefault(root(k), set()).add(k)
    one, zero = Fraction(1), Fraction(0)
    basis = tuple(tuple(one if k in members else zero for k in range(2 * n))
                  for members in sorted(components.values(), key=max))
    dimension = len(basis)
    if web.n == 3:
        bound = RANK_BOUND_ORDER_3
        if dimension == bound:
            verdict = "at-bound"
        elif dimension > bound:
            verdict = "above-bound-anomaly"
        else:
            verdict = "below-bound"
    else:
        bound = None
        verdict = "bound-not-asserted"
    return RankReport(n=web.n, dimension=dimension, basis=basis,
                      bound=bound, verdict=verdict)
