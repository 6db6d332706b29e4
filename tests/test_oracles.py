"""The oracles themselves, against definitions that share no code with them."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given

from oracles import det_cofactor
from strategies import sparse_rational_grids


def det_leibniz(grid) -> Fraction:
    """Sum over all permutations, each signed by its inversion count."""
    n = len(grid)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        term = prod((Fraction(grid[i][perm[i]]) for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


@given(sparse_rational_grids(1, 5))
def test_det_cofactor_is_the_leibniz_sum(grid):
    assert det_cofactor(grid) == det_leibniz(grid)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_cofactor_is_the_leibniz_sum_on_integer_grids(n):
    # integer entries in [-2, 2]: many zeros, and many singular grids
    rng = random.Random(n)
    for _ in range(40):
        grid = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        assert det_cofactor(grid) == det_leibniz(grid)
