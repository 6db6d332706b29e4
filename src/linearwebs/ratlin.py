"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` values (arbitrary precision, always
reduced, positive denominator), re-exported as ``Rational``.  ``RatMatrix``
is an immutable dense grid of such scalars with exact determinants and
inverses by integer fraction-free elimination, minors, kernel bases from
the reduced echelon form, and a table of all square minors by integer
Laplace expansion.  Everything here is deterministic: pivoting always picks
the first nonzero entry in row order, so repeated runs produce identical
kernel bases.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "RatMatrix",
    "ShapeError",
    "SingularMatrixError",
    "rational",
    "format_rational",
]


class ShapeError(ValueError):
    """Raised when matrix dimensions do not fit an operation."""


class SingularMatrixError(ValueError):
    """Raised when a nonsingular matrix is required.

    Carries the exact determinant (zero) of the offending matrix.
    """

    def __init__(self, message: str = "matrix is singular",
                 determinant: Fraction = Fraction(0)):
        super().__init__(message)
        self.determinant = determinant


def rational(value) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational.

    Floats are rejected: every quantity in this library must be exact.
    Booleans are rejected too, although ``bool`` subclasses ``int``, and a
    zero denominator is a ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot coerce bool to an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def format_rational(value: Fraction) -> str:
    """Wire format for rationals: ``"p/q"``, with ``/q`` omitted when q = 1."""
    return str(value)


class RatMatrix:
    """Immutable dense matrix over the exact rationals."""

    __slots__ = ("_grid",)

    def __init__(self, rows: Iterable[Iterable]):
        grid = tuple(tuple(rational(x) for x in row) for row in rows)
        if not grid or not grid[0]:
            raise ShapeError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ShapeError("rows have unequal lengths")
        self._grid = grid

    # -- construction helpers ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def to_json(self) -> list:
        return [[format_rational(x) for x in row] for row in self._grid]

    # -- basic structure -----------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self._grid)

    @property
    def cols(self) -> int:
        return len(self._grid[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._grid[i][j]

    def row(self, i: int) -> tuple:
        return self._grid[i]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self._grid)

    def entries(self) -> tuple:
        return self._grid

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self._grid == other._grid

    def __hash__(self) -> int:
        return hash(self._grid)

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self._grid)
        return f"RatMatrix([{body}])"

    # -- arithmetic ----------------------------------------------------------

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self._grid))

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-x for x in row] for row in self._grid])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix([[a + b for a, b in zip(r, s)]
                          for r, s in zip(self._grid, other._grid)])

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix([[a - b for a, b in zip(r, s)]
                          for r, s in zip(self._grid, other._grid)])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        return RatMatrix([[sum(a * b for a, b in zip(row, col))
                           for col in cols] for row in self._grid])

    def scale(self, c) -> "RatMatrix":
        c = rational(c)
        return RatMatrix([[c * x for x in row] for row in self._grid])

    def matvec(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ShapeError("vector length does not match column count")
        vec = [rational(x) for x in v]
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self._grid)

    def is_diagonal(self) -> bool:
        return self.is_square and all(
            self._grid[i][j] == 0
            for i in range(self.rows) for j in range(self.cols) if i != j)

    # -- elimination-based operations ----------------------------------------

    def _cleared(self) -> tuple:
        """(integer grid, row scales): row i times scales[i] is integral."""
        scales = [lcm(*(x.denominator for x in row)) for row in self._grid]
        grid = [[x.numerator * (s // x.denominator) for x in row]
                for row, s in zip(self._grid, scales)]
        return grid, scales

    def det(self) -> Fraction:
        """Exact determinant by Bareiss elimination, first-nonzero pivoting.

        The rows are cleared of their denominators, so every step is an
        integer update with an exact division by the previous pivot; the
        scales are divided back once at the end.
        """
        if not self.is_square:
            raise ShapeError("determinant requires a square matrix")
        n = self.rows
        m, scales = self._cleared()
        sign, prev = 1, 1
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c]), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                sign = -sign
            top = m[c]
            pivot = top[c]
            for i in range(c + 1, n):
                row, f = m[i], m[i][c]
                m[i] = [(pivot * a - f * b) // prev for a, b in zip(row, top)]
            prev = pivot
        return Fraction(sign * prev, prod(scales))

    def inverse(self) -> "RatMatrix":
        """Exact inverse by fraction-free Gauss-Jordan, first-nonzero pivoting.

        With D the diagonal of row scales that clears the denominators, the
        integer elimination runs on [DA | D]; it ends at [d I | d A^-1],
        d = det(DA) up to sign, and is divided back once.
        """
        if not self.is_square:
            raise ShapeError("inverse requires a square matrix")
        n = self.rows
        grid, scales = self._cleared()
        m = [row + [s if i == j else 0 for j in range(n)]
             for i, (row, s) in enumerate(zip(grid, scales))]
        prev = 1
        for c in range(n):
            pivot_row = next((i for i in range(c, n) if m[i][c]), None)
            if pivot_row is None:
                raise SingularMatrixError(determinant=Fraction(0))
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
            top = m[c]
            pivot = top[c]
            for i in range(n):
                if i != c:
                    row, f = m[i], m[i][c]
                    m[i] = [(pivot * a - f * b) // prev for a, b in zip(row, top)]
            prev = pivot
        return RatMatrix([[Fraction(x, prev) for x in row[n:]] for row in m])

    def _rref(self):
        """Reduced row echelon form; returns (rows, pivot column list)."""
        m = [list(row) for row in self._grid]
        nrows, ncols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pivot = m[r][c]
            m[r] = [x / pivot for x in m[r]]
            for i in range(nrows):
                if i != r and m[i][c] != 0:
                    factor = m[i][c]
                    m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def kernel_basis(self) -> tuple:
        """Exact basis of the right null space.

        One vector per free column of the reduced echelon form, in ascending
        free-column order, each scaled so its first nonzero coordinate is 1.
        Returns an empty tuple when the kernel is trivial.
        """
        m, pivots = self._rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][f]
            lead = next(x for x in v if x != 0)
            basis.append(tuple(x / lead for x in v))
        return tuple(basis)

    def submatrix(self, row_subset: Sequence[int], col_subset: Sequence[int]) -> "RatMatrix":
        for i in row_subset:
            if not 0 <= i < self.rows:
                raise IndexError(f"row index {i} out of range")
        for j in col_subset:
            if not 0 <= j < self.cols:
                raise IndexError(f"column index {j} out of range")
        return RatMatrix([[self._grid[i][j] for j in col_subset] for i in row_subset])

    def minor(self, row_subset: Sequence[int], col_subset: Sequence[int]) -> Fraction:
        """Determinant of the selected square submatrix (0-based indices)."""
        if len(row_subset) != len(col_subset):
            raise ShapeError("row and column subsets must have equal size")
        return self.submatrix(row_subset, col_subset).det()

    def minor_table(self) -> dict:
        """Every square minor, keyed by ``(rows, cols)`` tuples (0-based, ascending).

        The empty minor ``((), ())`` is 1.  Each row is first scaled by the
        lcm of its denominators, so the work is integer-only; the order-k
        minors follow from the order-(k-1) ones by Laplace expansion along
        the first row of each row set, sum_k k*C(rows,k)*C(cols,k) integer
        multiplies in all.  Each entry is divided back by the product of its
        rows' scale factors, so the table holds the exact minors.
        """
        grid, scales = self._cleared()
        table = {((), ()): Fraction(1)}
        # row set -> its order-(k-1) minors, one per column set in prev_cols order
        prev, prev_cols = {(): [1]}, {(): 0}
        for k in range(1, min(self.rows, self.cols) + 1):
            col_sets = list(combinations(range(self.cols), k))
            # expansion terms of each column set: (column, odd position, sub-minor index)
            plans = [[(j, t & 1, prev_cols[cols[:t] + cols[t + 1:]])
                      for t, j in enumerate(cols)] for cols in col_sets]
            level = {}
            for rows in combinations(range(self.rows), k):
                top, sub = grid[rows[0]], prev[rows[1:]]
                values = []
                for plan in plans:
                    total = 0
                    for j, odd, at in plan:
                        if top[j]:
                            term = top[j] * sub[at]
                            total = total - term if odd else total + term
                    values.append(total)
                level[rows] = values
                scale = prod(scales[i] for i in rows)
                table.update(((rows, cols), Fraction(value, scale))
                             for cols, value in zip(col_sets, values))
            prev, prev_cols = level, {cols: i for i, cols in enumerate(col_sets)}
        return table

    # -- internal ------------------------------------------------------------

    def _require_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix shapes differ")
