import random

import pytest

from linearwebs import (RatMatrix, abelian_residual, build_web, example_web,
                        normals, relation_space, wedge)

from oracles import kernel as kernel_oracle, rank as rank_oracle


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
                         -web.chart.basis_one_form(3))
        assert normals(web)[0] == expected

    def test_example_1_sixth_normal(self):
        web = example_web(1)
        # from the closed form: dx6 = dx2 + dx3 and dy6 = dy1 - dy2
        chart = web.chart
        dx6 = chart.basis_one_form(1) + chart.basis_one_form(2)
        dy6 = web.dy(1) - web.dy(2)
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
