"""The oracles themselves, against definitions that share no code with them."""

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings

from oracles import det_cofactor, enumerate_degenerate_blocks, rank
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_cofactor_is_the_leibniz_sum_on_grids_with_denominators(n):
    # entries p/q with p in [-2, 2] and q in {1, 2, 3}: the rows are scaled
    # by lcms 1, 2, 3 or 6 before the integer expansion
    rng = random.Random(n)
    for _ in range(40):
        grid = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                 for _ in range(n)] for _ in range(n)]
        assert det_cofactor(grid) == det_leibniz(grid)


def _blocks_by_rank(grid, size):
    """The degenerate blocks as ``enumerate_degenerate_blocks`` defines
    them, with every block decided by ``rank``."""
    n = len(grid)
    x = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    x += [[grid[i][c] for i in range(n)] for c in range(n)]
    y = [[-grid[k][j] for j in range(n)] for k in range(n)]
    y += [[Fraction(int(j == c)) for j in range(n)] for c in range(n)]
    bad = set()
    for subset in combinations(range(1, 2 * n + 1), size):
        for block, vecs in (("x", x), ("y", y)):
            cols = [vecs[s - 1] for s in subset]
            if rank([[col[i] for col in cols] for i in range(n)]) < size:
                bad.add((subset, block))
    return bad


@settings(max_examples=8)  # an n = 5 draw ranks 2 * 2^10 blocks twice, about 1 s
@given(sparse_rational_grids(1, 5))
def test_degenerate_blocks_are_the_rank_deficient_ones(grid):
    # square blocks are decided by det_cofactor, the others by rank
    for size in range(1, 2 * len(grid) + 1):
        assert enumerate_degenerate_blocks(grid, size) == _blocks_by_rank(grid, size)
