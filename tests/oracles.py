"""Independent oracles: deliberately naive implementations used only to
cross-check the library.  Nothing here imports library internals beyond the
matrix wire format (lists of Fractions)."""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod


def det_cofactor(grid) -> Fraction:
    """Determinant by cofactor expansion along the first row.

    Each row is first scaled by the lcm of its entries' denominators, so
    the expansion runs on integers; the result is divided back by the
    product of the scales.  Every minor in the expansion sits on the last
    k rows and some k columns, and is itself expanded along its first
    row; each is expanded once, so an n x n grid costs n * 2^(n-1)
    products instead of n!.  Entries are ints or Fractions.
    """
    n = len(grid)
    assert all(len(row) == n for row in grid)
    scales = [lcm(*(x.denominator for x in row)) for row in grid]
    rows = [[x.numerator * (s // x.denominator) for x in row]
            for row, s in zip(grid, scales)]
    expanded = {(): 1}

    def minor(cols):
        if cols not in expanded:
            top = rows[n - len(cols)]
            total = 0
            for t, j in enumerate(cols):
                if top[j] != 0:
                    term = top[j] * minor(cols[:t] + cols[t + 1:])
                    total += -term if t % 2 else term
            expanded[cols] = total
        return expanded[cols]

    return Fraction(minor(tuple(range(n))), prod(scales))


def row_reduce(grid):
    """Plain forward/backward elimination; returns (rref rows, pivot cols)."""
    m = [[Fraction(x) for x in row] for row in grid]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        hit = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                hit = i
                break
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(grid) -> int:
    return len(row_reduce(grid)[1])


def kernel(grid):
    """Null-space basis, one vector per free column (not normalized)."""
    m, pivots = row_reduce(grid)
    ncols = len(grid[0])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        out.append(v)
    return out


def wedge_expand(f, g, dim):
    """Wedge by brute double loop over all ordered index pairs."""
    coeffs = {}
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            term = Fraction(f[i]) * Fraction(g[j])
            if term == 0:
                continue
            key = (i, j) if i < j else (j, i)
            sign = 1 if i < j else -1
            coeffs[key] = coeffs.get(key, Fraction(0)) + sign * term
    return {k: v for k, v in coeffs.items() if v != 0}


def relation_kernel(A_grid):
    """Constant relations of the web normals by brute force.

    Builds each foliation's x- and y-form on the 2n-dimensional chart from
    ``A_grid`` (x-forms: unit vectors, then the columns of A; y-forms: the
    negated rows of A, then unit vectors), wedges them with
    :func:`wedge_expand`, stacks the C(2n,2) x 2n coefficient matrix and
    returns its :func:`kernel` (not normalized).
    """
    n = len(A_grid)
    dim = 2 * n
    normals = []
    for xi in range(1, dim + 1):
        x = [Fraction(0)] * dim
        y = [Fraction(0)] * dim
        if xi <= n:
            x[xi - 1] = Fraction(1)
            for b in range(n):
                y[n + b] = -Fraction(A_grid[xi - 1][b])
        else:
            for b in range(n):
                x[b] = Fraction(A_grid[b][xi - n - 1])
            y[xi - 1] = Fraction(1)
        normals.append(wedge_expand(x, y, dim))
    pairs = list(combinations(range(dim), 2))
    grid = [[omega.get(p, Fraction(0)) for omega in normals] for p in pairs]
    return kernel(grid)


def enumerate_degenerate_blocks(A_grid, size):
    """General-position audit by exhaustive minor enumeration.

    ``A_grid`` is the defining matrix as Fractions; returns a set of
    ((foliations...), block) pairs whose n x size block has rank below
    size.  A square block (size n) is decided by :func:`det_cofactor`,
    any other by :func:`rank`.
    """
    n = len(A_grid)
    dx = {}
    dy = {}
    for xi in range(1, 2 * n + 1):
        if xi <= n:
            dx[xi] = [Fraction(int(i == xi - 1)) for i in range(n)]
            dy[xi] = [-Fraction(A_grid[xi - 1][j]) for j in range(n)]
        else:
            dx[xi] = [Fraction(A_grid[i][xi - n - 1]) for i in range(n)]
            dy[xi] = [Fraction(int(j == xi - n - 1)) for j in range(n)]
    bad = set()
    for subset in combinations(range(1, 2 * n + 1), size):
        for block, vecs in (("x", dx), ("y", dy)):
            cols = [vecs[s] for s in subset]
            grid = [[col[i] for col in cols] for i in range(n)]
            if (det_cofactor(grid) == 0 if size == n
                    else rank(grid) < size):
                bad.add((subset, block))
    return bad


def sample_draws(n, zeros, bound, seed, retries=1000):
    """Seeded family draws, up to and including the first nonsingular one.

    Each draw fills an n x n grid row by row with
    ``random.Random(seed).randint(-bound, bound)``, leaving the 1-based
    positions in ``zeros`` at 0 without drawing; a draw is kept when
    :func:`det_cofactor` is nonzero.  Returns every draw made.
    """
    rng = random.Random(seed)
    draws = []
    for _ in range(retries):
        grid = [[0 if (i + 1, j + 1) in zeros else rng.randint(-bound, bound)
                 for j in range(n)] for i in range(n)]
        draws.append(grid)
        if det_cofactor(grid) != 0:
            return draws
    raise AssertionError("no nonsingular draw")


def agw_by_orthogonality(grid) -> bool:
    """AGW by diagonal orthogonality of the rows of A.

    A web with a valid gauge is AGW exactly when A D A^T is diagonal for
    some nonsingular diagonal D, that is, when the kernel of H, the
    C(n,2) x n matrix whose rows are the entrywise products A_b * A_g
    (b < g), holds a vector with no zero coordinate.  Over Q that holds
    exactly when no coordinate vanishes on the whole :func:`kernel`.
    """
    n = len(grid)
    H = [[Fraction(grid[b][i]) * Fraction(grid[g][i]) for i in range(n)]
         for b, g in combinations(range(n), 2)]
    if not H:
        return True  # n = 1: every D works
    basis = kernel(H)
    return all(any(v[i] != 0 for v in basis) for i in range(n))
