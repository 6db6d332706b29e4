"""Web normals and the constant-coefficient abelian relation space.

The normal of foliation xi is the 2-form dx^xi ^ dy_xi.  A constant
relation is a coefficient vector f with sum_xi f_xi dx^xi ^ dy_xi = 0.
For every web of this family the all-ones vector is a relation: the two
halves of the sum cancel exactly because the x-side uses columns of A and
the y-side rows of A^{-1}.  The relation space is the kernel of the
C(2n,2) x 2n matrix whose columns are the flattened normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .forms import TwoForm, wedge
from .ratlin import RatMatrix, format_rational, rational
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


@dataclass(frozen=True)
class RankReport:
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
    """Compute the constant relation space of the web normals.

    Every basis vector is normalized (first nonzero coordinate 1) and
    satisfies the residual identity exactly.  For n = 3 the dimension is
    compared against the cited bound of 1; dimension above the bound is
    flagged as an anomaly (it only occurs for webs that also fail the
    general position audit).
    """
    columns = [omega.coeffs for omega in normals(web)]
    stacked = RatMatrix(zip(*columns))
    basis = stacked.kernel_basis()
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
