import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given

from linearwebs import (MAX_ORDER, FamilySpec, RatMatrix, WebConstructionError,
                        agw_test, build_web, closed_form, example_web,
                        general_position_audit, parse_closed_form)

from oracles import det_cofactor, enumerate_degenerate_blocks, kernel, rank
from strategies import sparse_rational_webs

A1 = [[1, 1, 0], [1, 1, 1], [1, 2, 1]]
A2 = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]
A3 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def rand_web(rng, n, bound=9):
    while True:
        A = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if A.det() != 0:
            return build_web(A)


class TestConstruction:
    def test_singular_rejected(self):
        with pytest.raises(WebConstructionError):
            build_web(RatMatrix([[1, 1], [1, 1]]))

    def test_non_square_rejected(self):
        with pytest.raises(WebConstructionError):
            build_web(RatMatrix([[1, 1, 0], [0, 1, 1]]))

    def test_identity_web_builds_despite_degeneracy(self):
        web = build_web(RatMatrix.identity(3))
        assert web.n == 3
        assert not general_position_audit(web).general_position

    def test_round_trip_matrix(self):
        rng = random.Random(1)
        for _ in range(50):
            web = rand_web(rng, rng.randint(2, 4))
            assert web.A @ web.B == RatMatrix.identity(web.n)

    def test_foliation_forms_conventions(self):
        web = build_web(RatMatrix(A1))
        # lower foliations: dx is a chart basis form, dy is minus a row of A
        assert web.dx(1).coeffs == (1, 0, 0, 0, 0, 0)
        assert web.dy(1).coeffs == (0, 0, 0, -1, -1, 0)
        # upper foliations: dx is a column of A, dy is a chart basis form
        assert web.dx(5).coeffs == (1, 1, 2, 0, 0, 0)
        assert web.dy(5).coeffs == (0, 0, 0, 0, 1, 0)

    def test_basis_identity_for_dy(self):
        # expressing each chart basis dy through the derived dy forms via B
        rng = random.Random(5)
        for _ in range(30):
            web = rand_web(rng, 3)
            for a in range(1, web.n + 1):
                combo = web.chart.zero_one_form()
                for b in range(1, web.n + 1):
                    combo = combo + web.dy(b).scale(-web.B[a - 1, b - 1])
                assert combo == web.dy(web.n + a)

    def test_foliation_pairs_are_independent(self):
        rng = random.Random(9)
        for _ in range(30):
            web = rand_web(rng, rng.randint(2, 4))
            for xi in range(1, 2 * web.n + 1):
                assert rank([f.coeffs for f in web.foliation_pair(xi)]) == 2


class TestClosedForm:
    def test_example_1_equations(self):
        cf = closed_form(example_web(1))
        assert cf.x_rows == ((1, 1, 1), (1, 1, 2), (0, 1, 1))
        assert cf.y_rows == ((-1, -1, 1), (0, 1, -1), (1, -1, 0))

    def test_example_2_equations_derived(self):
        # derived from the defining relations; cross-checked by adjugate
        # inversion by hand, independent of the printed source lines
        cf = closed_form(example_web(2))
        assert cf.x_rows == ((1, 0, 1), (1, 1, 1), (0, 1, 1))
        assert cf.y_rows == ((0, 1, -1), (-1, -1, 1), (1, 0, -1))

    def test_example_3_equations_derived(self):
        cf = closed_form(example_web(3))
        h = Fraction(1, 2)
        assert cf.x_rows == ((1, 0, 1), (1, 1, 0), (0, 1, 1))
        assert cf.y_rows == ((-h, h, -h), (-h, -h, h), (h, -h, -h))

    def test_identity_web(self):
        cf = closed_form(build_web(RatMatrix.identity(3)))
        assert cf.x_rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert cf.y_rows == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))

    def test_matrix_pair_reconstruction(self):
        rng = random.Random(13)
        for _ in range(60):
            web = rand_web(rng, rng.randint(2, 5))
            A, B = closed_form(web).matrix_pair()
            assert A == web.A
            assert B == web.B

    @given(sparse_rational_webs())
    def test_text_round_trip(self, web):
        cf = closed_form(web)
        assert parse_closed_form(cf.to_text()) == cf

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_closed_form("nothing here")
        with pytest.raises(ValueError):
            parse_closed_form("x4 = x1 + q7")


class TestAudit:
    def test_example_1_strict_failures(self):
        audit = general_position_audit(example_web(1))
        failures = audit.strict_failures()
        # the two dependencies readable straight off the closed form
        assert ((2, 3, 6), "x") in failures
        assert ((1, 2, 6), "y") in failures
        # complete list, frozen from the exhaustive enumeration oracle
        assert failures == {
            ((1, 2, 6), "y"), ((1, 4, 5), "y"), ((1, 4, 6), "x"),
            ((2, 3, 5), "y"), ((2, 3, 6), "x"), ((3, 4, 5), "x"),
        }
        assert not audit.general_position
        assert audit.pairwise_transversal

    def test_example_2_recorded_verdict_matches_oracle(self):
        # the oracle enumeration shows example 2 is NOT in strict general
        # position (e.g. x4 = x1 + x3 makes {1, 3, 4} x-degenerate)
        audit = general_position_audit(example_web(2))
        expected = enumerate_degenerate_blocks(
            [[Fraction(v) for v in row] for row in A2], 3)
        assert audit.strict_failures() == expected
        assert ((1, 3, 4), "x") in expected
        assert not audit.general_position
        assert audit.pairwise_transversal

    def test_identity_every_matched_pair_fails(self):
        audit = general_position_audit(build_web(RatMatrix.identity(3)))
        failures = audit.strict_failures()
        for xi in range(1, 4):
            for subset, block in failures:
                pass
            matched = [s for s, _ in failures if xi in s and xi + 3 in s]
            assert matched  # every subset holding both xi and xi+3 shows up
        for subset in [(1, 2, 4), (1, 2, 5), (3, 5, 6)]:
            dup = any(a in subset and a + 3 in subset for a in (1, 2, 3))
            assert (((subset, "x") in failures) == dup)
        assert not audit.pairwise_transversal

    def test_matches_oracle_on_random_webs(self):
        rng = random.Random(21)
        for _ in range(25):
            web = rand_web(rng, 3, bound=4)
            audit = general_position_audit(web)
            grid = [[web.A[i, j] for j in range(3)] for i in range(3)]
            assert audit.strict_failures() == enumerate_degenerate_blocks(grid, 3)
            assert audit.subsets_examined == 20

    def test_clean_audit_example(self):
        # hand-picked matrix with no vanishing block minors
        web = build_web(RatMatrix([[1, 2, 4], [3, 5, 9], [7, 6, 2]]))
        audit = general_position_audit(web)
        grid = [[web.A[i, j] for j in range(3)] for i in range(3)]
        assert enumerate_degenerate_blocks(grid, 3) == set()
        assert audit.general_position

    def test_n2_strict_equals_pairwise(self):
        web = build_web(RatMatrix([[1, 1], [0, 1]]))
        audit = general_position_audit(web)
        assert audit.strict_degenerate == audit.pairwise_degenerate


class TestAuditProperties:
    @given(sparse_rational_webs())
    def test_failures_match_oracle(self, web):
        n = web.n
        grid = [list(row) for row in web.A.entries()]
        audit = general_position_audit(web)
        assert audit.strict_failures() == enumerate_degenerate_blocks(grid, n)
        pairwise = {(d.foliations, d.block) for d in audit.pairwise_degenerate}
        assert pairwise == enumerate_degenerate_blocks(grid, 2)
        for d in audit.strict_degenerate + audit.pairwise_degenerate:
            form = web.dx if d.block == "x" else web.dy
            combo = web.chart.zero_one_form()
            for c, xi in zip(d.dependency, d.foliations):
                combo = combo + form(xi).scale(c)
            assert any(d.dependency) and combo.is_zero

    @given(sparse_rational_webs())
    def test_minor_table_matches_cofactor_oracle(self, web):
        n = web.n
        assert len(web.minors) == comb(2 * n, n)
        for (rows, cols), value in web.minors.items():
            sub = [[web.A[i, j] for j in cols] for i in rows]
            assert value == (det_cofactor(sub) if rows else 1)

    @given(sparse_rational_webs())
    def test_degenerate_gauge_fails_audit(self, web):
        # a zero A[a][1] is a zero 1x1 minor, a zero B[1][a] a zero
        # (n-1)-cofactor; either one is a failed block of the audit, so an
        # indeterminate verdict (degenerate gauges only) is off general position
        if agw_test(web).gauge_status == "degenerate":
            assert not general_position_audit(web).general_position

    @given(sparse_rational_webs())
    def test_witness_equals_chart_width_dependency(self, web):
        # the witness row-reduces only the block's n live coordinates; the
        # oracle kernel of the full 2n-coordinate forms, normalized to lead 1,
        # starts with the same dependency
        audit = general_position_audit(web)
        for d in audit.strict_degenerate + audit.pairwise_degenerate:
            form = web.dx if d.block == "x" else web.dy
            full = kernel(list(zip(*(form(xi).coeffs for xi in d.foliations))))
            assert full
            lead = next(x for x in full[0] if x)
            assert d.dependency == tuple(x / lead for x in full[0])


class TestOrderLimit:
    def test_audit_refuses_before_building_the_table(self, monkeypatch):
        def refuse(self):
            raise AssertionError("minor table built above MAX_ORDER")

        monkeypatch.setattr(RatMatrix, "minor_table", refuse)
        web = build_web(RatMatrix.identity(MAX_ORDER + 1))
        with pytest.raises(ValueError, match="MAX_ORDER"):
            general_position_audit(web)

    def test_identity_10_raises(self):
        with pytest.raises(ValueError):
            general_position_audit(build_web(RatMatrix.identity(10)))

    def test_family_spec_bounds_the_order(self):
        assert FamilySpec(n=MAX_ORDER).n == MAX_ORDER
        with pytest.raises(ValueError, match="MAX_ORDER"):
            FamilySpec(n=MAX_ORDER + 1)
