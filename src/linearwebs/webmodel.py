"""Linear webs of order n on the 2n-dimensional chart.

A nonsingular n x n matrix A determines 2n codimension-two foliations:
foliation xi <= n is cut out by dx^xi = 0 and dy_xi = 0, foliation n+a by
dx^{n+a} = 0 and dy_{n+a} = 0, where

    x^{n+a} = sum_b A[b][a] x^b          (columns of A)
    y_{n+a} = -sum_b B[a][b] y_b,        B = A^{-1}  (rows of B)

and all indices in this docstring are 1-based.  The fixed chart basis is
(dx^1 .. dx^n, dy_{n+1} .. dy_{2n}); the derived forms dx^{n+a} and dy_b are
expressed in it and no coordinate change is ever performed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import NamedTuple, Sequence

from .coframe import AdaptedCoframe, AffinorTable, adapted_coframe, basis_affinors
from .forms import Chart, OneForm
from .ratlin import Frozen, RatMatrix, SingularMatrixError, format_rational, rational

__all__ = [
    "MAX_ORDER",
    "LinearWeb",
    "WebConstructionError",
    "build_web",
    "ClosedFormEquations",
    "closed_form",
    "parse_closed_form",
    "DegenerateBlock",
    "AuditReport",
    "general_position_audit",
]


# Largest order n the library and the CLI accept.  The audit scans the
# minors of A of order 1..n-1 for zeros (48,618 at n = 9) and row-reduces
# once per failed block read.  One `analyze` of a dense matrix (entries in
# [-9, 9], Python 3.11, 2 cores; median of five) takes about 0.02, 0.06 and
# 0.08 s at n = 7, 8, 9; of the 9x9 identity, with 96,234 failed blocks, 25 s.
MAX_ORDER = 9


class WebConstructionError(ValueError):
    """Raised when the defining matrix cannot produce a web."""


class LinearWeb(Frozen):
    """An immutable linear web: the matrix A, its exact inverse B, the chart."""

    def __init__(self, A: RatMatrix, B: RatMatrix, chart: Chart):
        self._set(A=A, B=B, chart=chart)

    @property
    def n(self) -> int:
        return self.A.rows

    def dx(self, xi: int) -> OneForm:
        """Defining x-form of foliation xi (1-based, 1 <= xi <= 2n)."""
        n = self.n
        self._check_index(xi)
        if xi <= n:
            return self.chart.basis_one_form(xi - 1)
        coeffs = [Fraction(0)] * (2 * n)
        for b in range(n):
            coeffs[b] = self.A[b, xi - n - 1]
        return OneForm(self.chart, tuple(coeffs))

    def dy(self, xi: int) -> OneForm:
        """Defining y-form of foliation xi, in the chart basis dy_{n+1}..dy_{2n}."""
        n = self.n
        self._check_index(xi)
        if xi > n:
            return self.chart.basis_one_form(n + (xi - n - 1))
        coeffs = [Fraction(0)] * (2 * n)
        for b in range(n):
            coeffs[n + b] = -self.A[xi - 1, b]
        return OneForm(self.chart, tuple(coeffs))

    def foliation_pair(self, xi: int) -> tuple:
        return self.dx(xi), self.dy(xi)

    @cached_property
    def coframe(self) -> AdaptedCoframe:
        """The adapted coframe and its expansions, derived once per web."""
        return adapted_coframe(self)

    @cached_property
    def in_general_position(self) -> bool:
        """Whether any n of the 2n foliations are in general position.

        That holds exactly when every minor of A of order 1..n-1 is nonzero
        (see :func:`_strict_failures`), so it is read by an early-exit scan
        (:meth:`RatMatrix.minors_nonzero`).  Raises ``ValueError`` above
        :data:`MAX_ORDER`, like :func:`general_position_audit`.
        """
        self._check_order()
        return self.A.minors_nonzero(self.n - 1)

    @cached_property
    def affinors(self) -> AffinorTable:
        """The basis-affinor table, derived once per web from :attr:`coframe`."""
        return basis_affinors(self)

    def _check_index(self, xi: int) -> None:
        if not 1 <= xi <= 2 * self.n:
            raise IndexError(f"foliation index {xi} outside 1..{2 * self.n}")

    def _check_order(self) -> None:
        if self.n > MAX_ORDER:
            raise ValueError(f"order {self.n} is above the limit MAX_ORDER = {MAX_ORDER}")


def build_web(A: RatMatrix) -> LinearWeb:
    """Construct the 2n-foliation web defined by a nonsingular matrix.

    Degenerate position (e.g. coinciding foliations for A = identity) does
    not block construction; it is reported by :func:`general_position_audit`.
    """
    if not isinstance(A, RatMatrix):
        A = RatMatrix(A)
    if not A.is_square:
        raise WebConstructionError(f"matrix must be square, got {A.rows}x{A.cols}")
    try:
        B = A.inverse()
    except SingularMatrixError as exc:
        raise WebConstructionError("matrix is singular; the web needs det(A) != 0") from exc
    return LinearWeb(A=A, B=B, chart=Chart(A.rows))


# ---------------------------------------------------------------------------
# closed form equations


class ClosedFormEquations(NamedTuple):
    """Closed-form linear equations of the web.

    ``x_rows[a]`` holds the coefficients of x^{n+a+1} over (x^1 .. x^n),
    ``y_rows[a]`` those of y_{n+a+1} over (y_1 .. y_n); both 0-based here.
    Substituting back reproduces A (columns) and B (negated rows) exactly.
    """

    n: int
    x_rows: tuple
    y_rows: tuple

    def matrix_pair(self) -> tuple:
        """Reconstruct (A, B) from the equations."""
        A = RatMatrix(zip(*self.x_rows))
        B = RatMatrix([[-c for c in row] for row in self.y_rows])
        return A, B

    def to_dict(self) -> dict:
        n = self.n
        return {
            "n": n,
            "x": {f"x{n + a + 1}": [format_rational(c) for c in row]
                  for a, row in enumerate(self.x_rows)},
            "y": {f"y{n + a + 1}": [format_rational(c) for c in row]
                  for a, row in enumerate(self.y_rows)},
        }

    def to_text(self) -> str:
        """Render in the two-column layout: x-equation then y-equation per line."""
        n = self.n
        left = [_render_equation(f"x{n + a + 1}", "x", row)
                for a, row in enumerate(self.x_rows)]
        right = [_render_equation(f"y{n + a + 1}", "y", row)
                 for a, row in enumerate(self.y_rows)]
        width = max(len(s) for s in left) + 4
        return "\n".join(l.ljust(width) + r for l, r in zip(left, right))


def _render_equation(lhs: str, letter: str, coeffs: Sequence[Fraction]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        var = f"{letter}{i + 1}"
        mag = abs(c)
        body = var if mag == 1 else f"{format_rational(mag)}*{var}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        rhs = "0"
    else:
        sign, body = terms[0]
        rhs = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            rhs += f" {sign} {body}"
    return f"{lhs} = {rhs}"


_EQ_PATTERN = re.compile(r"([xy])(\d+)\s*=\s*([^=]*?)(?=\s+[xy]\d+\s*=|$)")
_TERM_PATTERN = re.compile(r"([+-]?)\s*((?:\d+(?:/\d+)?\*)?[xy]\d+|0)")


def parse_closed_form(text: str) -> ClosedFormEquations:
    """Parse the text rendering back into structured equations."""
    equations = {}
    for line in text.splitlines():
        for m in _EQ_PATTERN.finditer(line.strip()):
            letter, index, rhs = m.group(1), int(m.group(2)), m.group(3)
            equations[(letter, index)] = rhs.strip()
    if not equations:
        raise ValueError("no equations found")
    n = min(idx for (_, idx) in equations) - 1
    if n < 1 or len(equations) != 2 * n:
        raise ValueError("expected n x-equations and n y-equations")
    x_rows, y_rows = [], []
    for letter, rows in (("x", x_rows), ("y", y_rows)):
        for a in range(1, n + 1):
            key = (letter, n + a)
            if key not in equations:
                raise ValueError(f"missing equation for {letter}{n + a}")
            rows.append(_parse_rhs(equations[key], letter, n))
    return ClosedFormEquations(n=n, x_rows=tuple(x_rows), y_rows=tuple(y_rows))


def _parse_rhs(rhs: str, letter: str, n: int) -> tuple:
    coeffs = [Fraction(0)] * n
    if rhs.strip() == "0":
        return tuple(coeffs)
    consumed = 0
    for m in _TERM_PATTERN.finditer(rhs):
        consumed += 1
        sign = -1 if m.group(1) == "-" else 1
        body = m.group(2)
        if "*" in body:
            coef_text, var = body.split("*")
            coef = rational(coef_text)
        else:
            coef, var = Fraction(1), body
        if var[0] != letter:
            raise ValueError(f"unexpected variable {var} in a {letter}-equation")
        index = int(var[1:])
        if not 1 <= index <= n:
            raise ValueError(f"variable {var} outside 1..{n}")
        coeffs[index - 1] += sign * coef
    if consumed == 0:
        raise ValueError(f"cannot parse right-hand side: {rhs!r}")
    return tuple(coeffs)


def closed_form(web: LinearWeb) -> ClosedFormEquations:
    """Emit the closed-form equations of the web."""
    n = web.n
    x_rows = tuple(web.A.col(a) for a in range(n))
    y_rows = tuple(tuple(-c for c in web.B.row(a)) for a in range(n))
    return ClosedFormEquations(n=n, x_rows=x_rows, y_rows=y_rows)


# ---------------------------------------------------------------------------
# general position audit


class DegenerateBlock(Frozen):
    """One failed block test: the foliation subset, the block, a dependency.

    The dependency is derived from ``web`` the first time it is read; the
    web takes no part in equality.
    """

    def __init__(self, foliations: tuple, block: str, web: LinearWeb):
        self._set(foliations=foliations, block=block, web=web)  # block: "x" or "y"

    def __eq__(self, other) -> bool:
        return (isinstance(other, DegenerateBlock) and self.foliations == other.foliations
                and self.block == other.block)

    def __hash__(self) -> int:
        return hash((self.foliations, self.block))

    @cached_property
    def dependency(self) -> tuple:
        """Nontrivial combination of the block's forms that vanishes.

        Scaled so its first nonzero entry is 1.  Only the block's n live
        chart coordinates are row-reduced (dx^1..dx^n for an x-block,
        dy_{n+1}..dy_{2n} for a y-block); the other n are zero on every
        form of the block, so the kernel is that of the full forms.  The
        live coordinates are read off A as :meth:`LinearWeb.dx` and
        :meth:`LinearWeb.dy` define them: a unit vector or a column of A
        on the x side, minus a row of A or a unit vector on the y side.
        """
        n = self.web.n
        A = self.web.A.entries()
        vectors = []
        for xi in self.foliations:
            if self.block == "x":
                vectors.append(_unit(n, xi - 1) if xi <= n else [row[xi - n - 1] for row in A])
            else:
                vectors.append([-x for x in A[xi - 1]] if xi <= n else _unit(n, xi - n - 1))
        return RatMatrix(zip(*vectors)).kernel_basis()[0]

    def to_dict(self) -> dict:
        return {
            "foliations": list(self.foliations),
            "block": self.block,
            "dependency": [format_rational(c) for c in self.dependency],
        }


def _unit(n: int, i: int) -> list:
    return [int(k == i) for k in range(n)]


class AuditReport(NamedTuple):
    """Outcome of the general position audit.

    The strict test checks, for every n-subset S of the 2n foliations, that
    the x-forms of S and the y-forms of S are each independent (the combined
    2n defining forms split across the two chart factors, so solvability
    with respect to any n foliations decomposes into these two block tests).
    The pairwise test applies the same check to 2-subsets only; it is the
    weaker transversality notion and is reported alongside, not instead.
    """

    n: int
    strict_degenerate: tuple
    pairwise_degenerate: tuple
    subsets_examined: int

    @property
    def general_position(self) -> bool:
        return not self.strict_degenerate

    @property
    def pairwise_transversal(self) -> bool:
        return not self.pairwise_degenerate

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "subsets_examined": self.subsets_examined,
            "general_position": self.general_position,
            "pairwise_transversal": self.pairwise_transversal,
            "strict_degenerate": [d.to_dict() for d in self.strict_degenerate],
            "pairwise_degenerate": [d.to_dict() for d in self.pairwise_degenerate],
        }

    def to_text(self) -> str:
        lines = [f"general position (any {self.n} foliations): "
                 + ("yes" if self.general_position else "NO")]
        for d in self.strict_degenerate:
            lines.append(f"  degenerate {d.block}-block "
                         f"{{{', '.join(map(str, d.foliations))}}}  "
                         f"dependency ({', '.join(format_rational(c) for c in d.dependency)})")
        lines.append("pairwise transversal: "
                     + ("yes" if self.pairwise_transversal else "NO"))
        for d in self.pairwise_degenerate:
            lines.append(f"  degenerate pair {d.block}-block "
                         f"{{{', '.join(map(str, d.foliations))}}}")
        return "\n".join(lines)


def _strict_failures(web: LinearWeb) -> tuple:
    """Failed blocks among the n-subsets, sorted by (foliations, block).

    With S_lo and S_hi a subset's lower and upper foliations (0-based rows
    and columns of A), Laplace expansion against the identity block of
    [I | A] gives: the x-block fails exactly when A[~S_lo, S_hi] is 0, the
    y-block exactly when A[S_lo, ~S_hi] is.  Orders 0 and n never vanish,
    so each zero minor A[R, K] of order 1..n-1 fails the x-block of ~R + K
    and the y-block of R + ~K.  Dependencies are derived only when read.
    """
    n = web.n
    failures = []
    for rows, cols in web.A.zero_minors(n - 1):
        lower = tuple(i + 1 for i in range(n) if i not in rows)
        upper = tuple(j + n + 1 for j in range(n) if j not in cols)
        failures.append((lower + tuple(j + n + 1 for j in cols), "x"))
        failures.append((tuple(i + 1 for i in rows) + upper, "y"))
    failures.sort()
    return tuple(DegenerateBlock(foliations, block, web) for foliations, block in failures)


def _pairwise_failures(web: LinearWeb) -> tuple:
    """Failed blocks among the 2-subsets, read off the support of A.

    Two rows, or two columns, of a nonsingular A are independent, so only a
    mixed pair {i, n+c} can fail: its x-block (e_i and column c) exactly
    when column c is zero off row i, its y-block (row i and e_c) exactly
    when row i is zero off column c.
    """
    n = web.n
    A = web.A.entries()
    failures = []
    for i in range(n):
        for c in range(n):
            pair = (i + 1, c + n + 1)
            if not any(A[r][c] for r in range(n) if r != i):
                failures.append(DegenerateBlock(pair, "x", web))
            if not any(A[i][j] for j in range(n) if j != c):
                failures.append(DegenerateBlock(pair, "y", web))
    return tuple(failures)


def general_position_audit(web: LinearWeb) -> AuditReport:
    """Both block tests on every n-subset and pair; ``ValueError`` above MAX_ORDER."""
    web._check_order()
    n = web.n
    strict = _strict_failures(web)
    pairwise = _pairwise_failures(web) if n != 2 else strict
    return AuditReport(
        n=n,
        strict_degenerate=strict,
        pairwise_degenerate=pairwise,
        subsets_examined=comb(2 * n, n),
    )
