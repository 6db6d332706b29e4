"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from linearwebs import RatMatrix, build_web


@st.composite
def sparse_rational_grids(draw, min_n=1, max_n=4):
    """Square grids of Fractions, order min_n..max_n: about 30% zero entries,
    the rest p/q with 1 <= |p| <= 9 and q in 1..3."""
    n = draw(st.integers(min_n, max_n))
    numerators = st.one_of(st.integers(-9, -1), st.integers(1, 9))
    nonzero = st.builds(Fraction, numerators, st.integers(1, 3))

    def entry():
        return Fraction(0) if draw(st.integers(0, 9)) < 3 else draw(nonzero)

    return [[entry() for _ in range(n)] for _ in range(n)]


@st.composite
def sparse_rational_webs(draw, max_n=4):
    """Nonsingular webs over :func:`sparse_rational_grids` of order 1..max_n."""
    A = RatMatrix(draw(sparse_rational_grids(1, max_n)))
    assume(A.det() != 0)
    return build_web(A)
