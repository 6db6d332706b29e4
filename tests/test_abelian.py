import random

import pytest
from hypothesis import given

from linearwebs import (RatMatrix, abelian_residual, build_web, example_web,
                        general_position_audit, normals, relation_space, wedge)

from oracles import kernel as kernel_oracle, rank as rank_oracle, relation_kernel
from strategies import sparse_rational_webs


def rand_web(rng, n, bound=9):
    while True:
        A = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if A.det() != 0:
            return build_web(A)


class TestNormals:
    def test_count(self):
        for k in (1, 2, 3):
            assert len(normals(example_web(k))) == 6

    def test_identity_first_normal(self):
        web = build_web(RatMatrix.identity(3))
        # dy_1 = -dy_4, so the first normal is dx1 ^ (-dy4)
        expected = wedge(web.chart.basis_one_form(0),
                         web.chart.basis_one_form(3).scale(-1))
        assert normals(web)[0] == expected

    def test_example_1_sixth_normal(self):
        web = example_web(1)
        # from the closed form: dx6 = dx2 + dx3 and dy6 = dy1 - dy2
        chart = web.chart
        dx6 = chart.basis_one_form(1) + chart.basis_one_form(2)
        dy6 = web.dy(1) + web.dy(2).scale(-1)
        assert normals(web)[5] == wedge(dx6, dy6)


class TestResidual:
    def test_all_ones_vanishes_on_examples(self):
        for k in (1, 2, 3):
            assert abelian_residual(example_web(k), [1] * 6).is_zero

    def test_all_ones_vanishes_generically(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 5)
            web = rand_web(rng, n)
            assert abelian_residual(web, [1] * (2 * n)).is_zero

    def test_unit_vector_is_not_a_relation(self):
        web = example_web(2)
        assert not abelian_residual(web, [1, 0, 0, 0, 0, 0]).is_zero

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            abelian_residual(example_web(1), [1, 1, 1])


class TestRelationSpace:
    def test_examples_have_dimension_one(self):
        for k in (1, 2, 3):
            report = relation_space(example_web(k))
            assert report.dimension == 1
            assert report.basis == ((1, 1, 1, 1, 1, 1),)
            assert report.bound == 1
            assert report.verdict == "at-bound"

    def test_stacked_kernel_matches_oracle(self):
        web = example_web(2)
        columns = [om.coeffs for om in normals(web)]
        grid = [[columns[j][i] for j in range(6)] for i in range(15)]
        oracle_basis = kernel_oracle(grid)
        assert len(oracle_basis) == 1
        normalized = [x / oracle_basis[0][0] for x in oracle_basis[0]]
        assert normalized == [1, 1, 1, 1, 1, 1]

    def test_identity_web_inflated_space(self):
        report = relation_space(build_web(RatMatrix.identity(3)))
        # coinciding foliations pair up and cancel individually
        assert report.dimension == 3
        assert report.verdict == "above-bound-anomaly"

    def test_basis_vectors_are_relations(self):
        rng = random.Random(37)
        for _ in range(60):
            web = rand_web(rng, rng.randint(2, 4))
            report = relation_space(web)
            assert report.dimension == len(report.basis)
            for v in report.basis:
                assert abelian_residual(web, v).is_zero

    def test_dimension_is_cols_minus_rank(self):
        rng = random.Random(41)
        for _ in range(30):
            web = rand_web(rng, 3)
            report = relation_space(web)
            columns = [om.coeffs for om in normals(web)]
            grid = [[columns[j][i] for j in range(6)] for i in range(15)]
            assert report.dimension == 6 - rank_oracle(grid)

    def test_bound_not_asserted_away_from_order_3(self):
        rng = random.Random(43)
        for n in (2, 4):
            web = rand_web(rng, n)
            report = relation_space(web)
            assert report.bound is None
            assert report.verdict == "bound-not-asserted"
            assert report.dimension >= 1

    def test_generic_samples_dimension_one(self):
        # genericity expectation at the reference box; failures would have
        # to coincide with audit degeneracies (checked in the survey tests)
        rng = random.Random(47)
        hits = 0
        for _ in range(100):
            web = rand_web(rng, 3)
            if relation_space(web).dimension == 1:
                hits += 1
        assert hits >= 95


def support_components(A) -> int:
    """Connected components of the bipartite support graph of A, by search:
    rows 0..n-1 and columns n..2n-1, an edge wherever A[i][b] != 0."""
    n = A.rows
    neighbours = {k: set() for k in range(2 * n)}
    for i in range(n):
        for b in range(n):
            if A[i, b] != 0:
                neighbours[i].add(n + b)
                neighbours[n + b].add(i)
    seen, count = set(), 0
    for start in range(2 * n):
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            k = stack.pop()
            if k not in seen:
                seen.add(k)
                stack.extend(neighbours[k] - seen)
    return count


def normalized_oracle_basis(grid) -> tuple:
    basis = []
    for v in relation_kernel(grid):
        lead = next(x for x in v if x != 0)
        basis.append(tuple(x / lead for x in v))
    return tuple(basis)


class TestRelationSpaceTheorem:
    @pytest.mark.parametrize("grid", [
        [[0, 2], [3, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[0, 1, 2], [0, 3, 1], [5, 0, 0]],
        [[1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 3, 0], [0, 4, 0, 0]],
    ])
    def test_components_ordered_by_largest_foliation(self, grid):
        # split supports whose components interleave, so ordering them by
        # their smallest foliation index would give another basis order
        web = build_web(RatMatrix(grid))
        assert relation_space(web).basis == normalized_oracle_basis(grid)

    @given(sparse_rational_webs(max_n=5))
    def test_basis_equals_normalized_oracle_kernel(self, web):
        grid = [list(row) for row in web.A.entries()]
        assert relation_space(web).basis == normalized_oracle_basis(grid)

    @given(sparse_rational_webs(max_n=5))
    def test_dimension_is_support_component_count(self, web):
        assert relation_space(web).dimension == support_components(web.A)

    @given(sparse_rational_webs(max_n=5))
    def test_split_support_fails_the_strict_audit(self, web):
        # two or more components leave a zero entry in A: a zero 1x1 minor
        if relation_space(web).dimension >= 2:
            assert not general_position_audit(web).general_position
