"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` values (arbitrary precision, always
reduced, positive denominator).  ``RatMatrix`` is an immutable dense grid of
such scalars.  Its determinant, inverse and kernel basis share one integer
fraction-free Gauss-Jordan elimination (:func:`_eliminate`); the scan for
zero square minors is one integer Laplace expansion (:func:`_minor_levels`).
Everything here is deterministic: pivoting always picks the first nonzero
entry in row order, so repeated runs produce identical kernel bases.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations, islice
from math import lcm, prod
from typing import Iterable

__all__ = [
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


_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(value) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational.

    Floats are rejected: every quantity in this library must be exact.
    Booleans are rejected too, although ``bool`` subclasses ``int``.  A
    string must be ``p`` or ``p/q`` in ASCII digits with an optional sign,
    after stripping whitespace: decimal points, exponents and underscores
    are a ``ValueError``, and so is a zero denominator.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("cannot coerce bool to an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_STRING.fullmatch(text):
            raise ValueError(f"expected an integer or \"p/q\", got {value!r}")
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def format_rational(value: Fraction) -> str:
    """Wire format for rationals: ``"p/q"``, with ``/q`` omitted when q = 1."""
    return str(value)


class Frozen:
    """Base of the immutable plain classes: ``__init__`` sets each attribute
    once through :meth:`_set`, and a later assignment or deletion raises
    ``AttributeError``.  ``cached_property`` still fills ``__dict__``."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        """Restore a pickled or copied instance; ``state`` is a dict or ``(None, slots)``."""
        self._set(**(state[1] if isinstance(state, tuple) else state))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


def _eliminate(m: list, ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination of the integer rows ``m``, in place.

    Columns 0..ncols-1 are scanned left to right; the pivot of a column is
    its first nonzero entry at or below the next pivot row, swapped up into
    place.  Every other row, above and below, becomes ``(p*a - f*b) // prev``
    with p the new pivot, f the row's entry in the pivot column, b the pivot
    row's entry and prev the previous pivot (1 at the start).  Columns past
    ncols are carried along but never pivoted on.

    Each division is exact (Bareiss 1968) because after k pivots every entry
    is, up to sign, a minor of the input.  A row not yet pivoted holds the
    (k+1)-minor on the pivot rows plus itself and the pivot columns plus the
    entry's column; a pivot row holds, by Cramer's rule, the k-minor on the
    pivot rows and the pivot columns with its own pivot column swapped for
    the entry's column.  By Sylvester's identity p*a - f*b is prev times the
    entry's next minor, an integer, so ``//`` drops no remainder.

    Returns (pivot columns, sign of the row permutation, last pivot).  On
    return pivot row r is ``prev`` times row r of the reduced echelon form,
    and with full rank ``sign * prev`` is the determinant of the square
    block.
    """
    nrows = len(m)
    pivots, sign, prev, r = [], 1, 1, 0
    for c in range(ncols):
        for k in range(r, nrows):
            if m[k][c]:
                break
        else:
            continue
        if k != r:
            m[r], m[k] = m[k], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(c)
        prev = p
        r += 1
        if r == nrows:
            break
    return pivots, sign, prev


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

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by "
                             f"{other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        return RatMatrix([[sum(a * b for a, b in zip(row, col))
                           for col in cols] for row in self._grid])

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
        """Exact determinant: sign * last pivot of :func:`_eliminate` on the
        cleared rows, divided back by the row scales; 0 below full rank."""
        if not self.is_square:
            raise ShapeError("determinant requires a square matrix")
        m, scales = self._cleared()
        pivots, sign, prev = _eliminate(m, self.cols)
        if len(pivots) < self.rows:
            return Fraction(0)
        return Fraction(sign * prev, prod(scales))

    def inverse(self) -> "RatMatrix":
        """Exact inverse by :func:`_eliminate` on [DA | D].

        D is the diagonal of row scales that clears the denominators; the
        elimination ends at [d I | d A^-1], d the last pivot, and is divided
        back once.
        """
        if not self.is_square:
            raise ShapeError("inverse requires a square matrix")
        n = self.rows
        grid, scales = self._cleared()
        m = [row + [s if i == j else 0 for j in range(n)]
             for i, (row, s) in enumerate(zip(grid, scales))]
        pivots, _, prev = _eliminate(m, n)
        if len(pivots) < n:
            raise SingularMatrixError(determinant=Fraction(0))
        return RatMatrix([[Fraction(x, prev) for x in row[n:]] for row in m])

    def kernel_basis(self) -> tuple:
        """Exact basis of the right null space.

        One vector per free column of the reduced echelon form, in ascending
        free-column order, each scaled so its first nonzero coordinate is 1.
        Returns an empty tuple when the kernel is trivial.  :func:`_eliminate`
        leaves pivot row r at ``prev`` times row r of the reduced echelon
        form, so free column f gives ``prev`` at f and ``-m[r][f]`` at the
        pivot column of each row r.
        """
        m, _ = self._cleared()
        pivots, _, prev = _eliminate(m, self.cols)
        pivot_set = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            v = [0] * self.cols
            v[f] = prev
            for row, pc in zip(m, pivots):
                v[pc] = -row[f]
            lead = next(x for x in v if x)
            basis.append(tuple(Fraction(x, lead) for x in v))
        return tuple(basis)

    def zero_minors(self, order: int):
        """Yield ``(rows, cols)`` of every square minor of order 1..``order`` that is 0.

        Row scaling moves no minor to or from zero, so the cleared integer
        grid is scanned (:func:`_minor_levels`), order by order, entries
        first; within an order the row sets, then the column sets, ascend
        (0-based).  Only the orders read are expanded.
        """
        grid, _ = self._cleared()
        for col_sets, level in islice(_minor_levels(grid, self.cols), order):
            for rows, values in level.items():
                if not all(values):
                    yield from ((rows, cols) for cols, value in zip(col_sets, values)
                                if not value)

    def minors_nonzero(self, order: int) -> bool:
        """Whether every square minor of order 1..``order`` is nonzero; the
        scan stops at the first zero."""
        return next(self.zero_minors(order), None) is None


def _minor_levels(grid: list, ncols: int):
    """The square minors of the integer ``grid``, one order at a time.

    Yields (column sets, level) for k = 1, 2, ..: the column sets are the
    k-subsets of the columns, and the level maps each k-subset of the rows
    to its order-k minors, one per column set in that order (all 0-based
    and ascending).  Each order follows from the one before by Laplace
    expansion along the first row of each row set,
    sum_k k*C(rows,k)*C(cols,k) integer multiplies in all, so a caller that
    stops early pays only for the orders it read.
    """
    # row set -> its order-(k-1) minors, one per column set in prev_cols order
    prev, prev_cols = {(): [1]}, {(): 0}
    for k in range(1, min(len(grid), ncols) + 1):
        col_sets = list(combinations(range(ncols), k))
        # expansion terms of each column set: (column, odd position, sub-minor index)
        plans = [[(j, t & 1, prev_cols[cols[:t] + cols[t + 1:]])
                  for t, j in enumerate(cols)] for cols in col_sets]
        level = {}
        for rows in combinations(range(len(grid)), k):
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
        yield col_sets, level
        prev, prev_cols = level, {cols: i for i, cols in enumerate(col_sets)}
