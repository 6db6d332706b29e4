import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linearwebs.ratlin import (RatMatrix, ShapeError, SingularMatrixError,
                               format_rational, rational)

from oracles import det_cofactor, kernel as kernel_oracle, rank as rank_oracle
from strategies import sparse_rational_grids, sparse_rational_rectangles

A1 = RatMatrix([[1, 1, 0], [1, 1, 1], [1, 2, 1]])
A2 = RatMatrix([[1, 1, 0], [0, 1, 1], [1, 1, 1]])

# hand oracle: cofactor expansion along the first row
B1_EXPECTED = RatMatrix([[1, 1, -1], [0, -1, 1], [-1, 1, 0]])
B2_EXPECTED = RatMatrix([[0, -1, 1], [1, 1, -1], [-1, 0, 1]])


def rand_matrix(rng, rows, cols, bound=9):
    return RatMatrix([[rng.randint(-bound, bound) for _ in range(cols)]
                      for _ in range(rows)])


class TestRationalParsing:
    def test_string_forms(self):
        assert rational("3/4") == Fraction(3, 4)
        assert rational("-2") == Fraction(-2)
        assert rational(5) == Fraction(5)
        assert rational("6/4") == Fraction(3, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            rational(0.5)

    @pytest.mark.parametrize("text", ["0.5", "1e3", "1e2000000", "1_000",
                                      "1/2/3", "1 / 2", "/2", "+", "",
                                      "\u0661", "inf", "nan"])
    def test_only_integer_or_p_over_q_strings(self, text):
        with pytest.raises(ValueError):
            rational(text)

    def test_surrounding_whitespace_and_sign(self):
        assert rational(" +7/14\n") == Fraction(1, 2)
        assert rational("-0") == 0

    def test_format_omits_unit_denominator(self):
        assert format_rational(Fraction(3, 1)) == "3"
        assert format_rational(Fraction(-1, 2)) == "-1/2"

    @given(st.fractions())
    def test_round_trip(self, q):
        assert rational(format_rational(q)) == q


class TestDeterminant:
    def test_identity(self):
        assert RatMatrix.identity(3).det() == 1

    def test_example_matrices(self):
        assert A1.det() == -1
        assert A2.det() == 1

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            RatMatrix([[1, 2, 3], [4, 5, 6]]).det()

    def test_matches_cofactor_oracle_up_to_4x4(self):
        rng = random.Random(101)
        for _ in range(150):
            n = rng.randint(1, 4)
            M = rand_matrix(rng, n, n)
            assert M.det() == det_cofactor([list(r) for r in M.entries()])


class TestInverse:
    def test_identity(self):
        I = RatMatrix.identity(4)
        assert I.inverse() == I

    def test_example_matrices(self):
        assert A1.inverse() == B1_EXPECTED
        assert A1 @ B1_EXPECTED == RatMatrix.identity(3)
        assert A2.inverse() == B2_EXPECTED
        assert A2 @ B2_EXPECTED == RatMatrix.identity(3)

    def test_singular_raises_with_zero_det(self):
        with pytest.raises(SingularMatrixError) as err:
            RatMatrix([[1, 1], [1, 1]]).inverse()
        assert err.value.determinant == 0

    def test_round_trip_properties(self):
        rng = random.Random(77)
        done = 0
        while done < 120:
            n = rng.randint(1, 4)
            M = rand_matrix(rng, n, n)
            d = M.det()
            if d == 0:
                continue
            done += 1
            inv = M.inverse()
            assert inv.inverse() == M
            assert inv.det() == 1 / d
            assert M @ inv == RatMatrix.identity(n)


@st.composite
def swapping_grids(draw, max_n=6):
    """Sparse rational grids of order 1..max_n whose leading entry is often
    zero, so elimination has to swap rows."""
    grid = draw(sparse_rational_grids(1, max_n))
    if draw(st.booleans()):
        grid[0][0] = Fraction(0)
    return grid


@st.composite
def singular_grids(draw, max_n=6):
    """Sparse rational grids with one row a rational combination of the
    others (a zero row at order 1), placed at a drawn position."""
    grid = draw(swapping_grids(max_n))
    n = len(grid)
    coeffs = [draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
              for _ in range(n - 1)]
    others = [grid[k] for k in range(n - 1)]
    dependent = [sum((c * row[j] for c, row in zip(coeffs, others)), Fraction(0))
                 for j in range(n)]
    others.insert(draw(st.integers(0, n - 1)), dependent)
    return others


class TestFractionFree:
    @given(swapping_grids())
    def test_det_matches_cofactor_oracle(self, grid):
        assert RatMatrix(grid).det() == det_cofactor(grid)

    @given(swapping_grids())
    def test_inverse_is_a_two_sided_inverse(self, grid):
        M = RatMatrix(grid)
        if det_cofactor(grid) == 0:
            with pytest.raises(SingularMatrixError):
                M.inverse()
            return
        inv = M.inverse()
        assert M @ inv == RatMatrix.identity(len(grid))
        assert inv @ M == RatMatrix.identity(len(grid))

    @given(singular_grids())
    def test_singular_input_raises_with_zero_determinant(self, grid):
        M = RatMatrix(grid)
        assert M.det() == 0
        with pytest.raises(SingularMatrixError) as err:
            M.inverse()
        assert err.value.determinant == 0

    def test_inverse_of_non_square_rejected(self):
        with pytest.raises(ShapeError):
            RatMatrix([[1, 2, 3], [4, 5, 6]]).inverse()


class TestKernel:
    def test_identity_trivial(self):
        assert RatMatrix.identity(3).kernel_basis() == ()

    def test_single_equation(self):
        assert RatMatrix([[1, -1]]).kernel_basis() == ((Fraction(1), Fraction(1)),)

    def test_soundness_and_count(self):
        rng = random.Random(3)
        for _ in range(120):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = rand_matrix(rng, rows, cols, bound=3)
            basis = M.kernel_basis()
            grid = [list(r) for r in M.entries()]
            assert len(basis) == cols - rank_oracle(grid)
            for v in basis:
                assert all(x == 0 for x in M.matvec(v))
                lead = next(x for x in v if x != 0)
                assert lead == 1
            # returned vectors are independent
            if basis:
                assert rank_oracle([list(v) for v in basis]) == len(basis)

    @given(sparse_rational_rectangles())
    def test_equals_normalized_oracle_kernel(self, grid):
        expected = tuple(tuple(x / next(y for y in v if y) for x in v)
                         for v in kernel_oracle(grid))
        assert RatMatrix(grid).kernel_basis() == expected


class TestMinor:
    def test_singleton_is_entry(self):
        assert A1.minor_table()[(1,), (2,)] == A1[1, 2]

    def test_augmented_example_values(self):
        # [I | A] column picks correspond to foliation subsets
        def augmented(A):
            I = RatMatrix.identity(3)
            return RatMatrix([list(I.row(i)) + list(A.row(i)) for i in range(3)])

        assert augmented(A1).minor_table()[(0, 1, 2), (1, 2, 5)] == 0
        assert augmented(A2).minor_table()[(0, 1, 2), (0, 1, 3)] == 1


class TestArithmetic:
    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            RatMatrix([[1, 2]]) @ RatMatrix([[1, 2]])
        with pytest.raises(ShapeError):
            RatMatrix([[1, 2], [3]])

    def test_canonical_entries_after_chains(self):
        M = RatMatrix([["2/4", "10/5"], ["-3/9", "0/7"]])
        out = (M @ M).scale("3/2")
        for row in out.entries():
            for x in row:
                assert x.denominator > 0
                # Fraction keeps gcd-reduced canonical form by construction
                from math import gcd
                assert gcd(abs(x.numerator), x.denominator) == 1

    def test_json_round_trip(self):
        M = RatMatrix([["1/2", 3], [0, "-7/3"]])
        assert RatMatrix(M.to_json()) == M

    def test_diagonal_predicate(self):
        assert RatMatrix([[1, 0], [0, 5]]).is_diagonal()
        assert not RatMatrix([[1, 1], [0, 5]]).is_diagonal()
        assert not RatMatrix([[1, 0, 0], [0, 1, 0]]).is_diagonal()
