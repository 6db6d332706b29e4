"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from linearwebs import RatMatrix, build_web


def _sparse_grid(draw, rows, cols):
    """rows x cols Fractions: about 30% zero entries, the rest p/q with
    1 <= |p| <= 9 and q in 1..3."""
    numerators = st.one_of(st.integers(-9, -1), st.integers(1, 9))
    nonzero = st.builds(Fraction, numerators, st.integers(1, 3))

    def entry():
        return Fraction(0) if draw(st.integers(0, 9)) < 3 else draw(nonzero)

    return [[entry() for _ in range(cols)] for _ in range(rows)]


@st.composite
def sparse_rational_grids(draw, min_n=1, max_n=4):
    """Square sparse rational grids of order min_n..max_n."""
    n = draw(st.integers(min_n, max_n))
    return _sparse_grid(draw, n, n)


@st.composite
def sparse_rational_rectangles(draw, max_rows=6, max_cols=7):
    """Sparse rational grids of 1..max_rows by 1..max_cols.  Each row after
    the first is, with probability 1/2, a rational combination of the rows
    above it, so rank-deficient grids are common."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    grid = _sparse_grid(draw, rows, cols)
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    for k in range(1, rows):
        if draw(st.booleans()):
            coeffs = [draw(coefficient) for _ in range(k)]
            grid[k] = [sum((c * row[j] for c, row in zip(coeffs, grid)), Fraction(0))
                       for j in range(cols)]
    return grid


@st.composite
def sparse_rational_webs(draw, max_n=4):
    """Nonsingular webs over :func:`sparse_rational_grids` of order 1..max_n."""
    A = RatMatrix(draw(sparse_rational_grids(1, max_n)))
    assume(A.det() != 0)
    return build_web(A)
