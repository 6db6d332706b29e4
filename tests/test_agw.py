import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linearwebs import (MAX_ORDER, RatMatrix, affinor_comparison, agw_test,
                        agw_verdict, basis_affinors, build_web, cleared_minors,
                        condition7_residual, example_web,
                        general_position_audit, literal_det, orthogonal_web,
                        proportionality_minors)
from linearwebs.coframe import AffinorEntry, AffinorTable

from oracles import agw_by_orthogonality
from strategies import sparse_rational_webs

# gauge-valid compatible web: symmetric with off-diagonal cross ratio
WITNESS = RatMatrix([[1, 1, 1],
                     [1, 2, "2/3"],
                     [1, "2/3", 2]])

# two zeros in column 1 wipe out every cleared minor but the matrix is not
# diagonal, so nothing is proven either way
STRUCTURAL_INDETERMINATE = RatMatrix([[0, 9, -8], [0, 5, 8], [-2, 8, 3]])


def rand_web(rng, n=3, bound=9):
    while True:
        A = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if A.det() != 0:
            return build_web(A)


class TestVerdicts:
    def test_examples_not_agw_with_witnesses(self):
        for k in (1, 2, 3):
            report = agw_test(example_web(k))
            assert report.verdict == "not-AGW"
            assert report.witnesses
            assert all(w.value != 0 for w in report.witnesses)

    def test_example_1_specific_witness(self):
        report = agw_test(example_web(1))
        w = report.witnesses_for(5)[0]
        assert (w.beta, w.gamma, w.value) == (1, 2, Fraction(-1))
        assert w.path == "coframe"

    def test_examples_2_3_use_cleared_path(self):
        for k, first in ((2, Fraction(1)), (3, Fraction(1, 4))):
            report = agw_test(example_web(k))
            assert report.gauge_status == "degenerate"
            w = report.witnesses_for(5)[0]
            assert w.path == "cleared"
            assert w.value == first

    def test_diagonal_is_compatible(self):
        report = agw_test(build_web(RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])))
        assert report.verdict == "AGW"
        assert not report.witnesses

    def test_symmetric_witness_is_compatible(self):
        report = agw_test(build_web(WITNESS))
        assert report.verdict == "AGW"
        assert report.gauge_status == "valid"
        assert report.unobstructed_foliations == (5, 6)

    def test_indeterminate_when_cleared_minors_vanish_structurally(self):
        A = STRUCTURAL_INDETERMINATE
        report = agw_test(build_web(A))
        assert report.verdict == "indeterminate"
        assert not general_position_audit(build_web(A)).general_position

    def test_path_consistency_when_gauge_valid(self):
        rng = random.Random(67)
        checked = 0
        while checked < 60:
            web = rand_web(rng)
            from linearwebs import adapted_coframe
            if not adapted_coframe(web).is_valid:
                continue
            checked += 1
            for a in (5, 6):
                frame = {(b, g): v == 0 for b, g, v in proportionality_minors(web, a)}
                cleared = {(b, g): v == 0 for b, g, v in cleared_minors(web, a)}
                assert frame == cleared

    def test_scale_invariance_of_verdict(self):
        rng = random.Random(71)
        scales = [Fraction(2), Fraction(-1), Fraction(1, 3), Fraction(-7, 2)]
        for _ in range(100):
            web = rand_web(rng)
            c = rng.choice(scales)
            scaled = build_web(RatMatrix([[c * x for x in row]
                                          for row in web.A.entries()]))
            assert agw_test(web).verdict == agw_test(scaled).verdict


class TestLeanVerdict:
    """``agw_verdict``, which a survey reads, is ``agw_test``'s verdict."""

    BRANCHES = {
        "valid-not-AGW": (example_web(1).A, "valid", "not-AGW"),
        "valid-AGW": (WITNESS, "valid", "AGW"),
        "degenerate-not-AGW": (example_web(2).A, "degenerate", "not-AGW"),
        "degenerate-diagonal": (RatMatrix([[2, 0, 0], [0, -3, 0], [0, 0, 5]]),
                                "degenerate", "AGW"),
        "degenerate-indeterminate": (STRUCTURAL_INDETERMINATE, "degenerate",
                                     "indeterminate"),
    }

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_each_branch_of_the_rule(self, branch):
        A, gauge, verdict = self.BRANCHES[branch]
        web = build_web(A)
        assert web.coframe.status == gauge
        assert agw_verdict(web) == agw_test(web).verdict == verdict

    @given(sparse_rational_webs(max_n=5))
    @example(build_web(RatMatrix([[-1, 0], [0, 3]])))
    @example(build_web(STRUCTURAL_INDETERMINATE))
    def test_equals_the_full_verdict(self, web):
        assert agw_verdict(web) == agw_test(web).verdict

    @pytest.mark.parametrize("n", range(2, 6))
    def test_equals_the_full_verdict_on_orthogonal_webs(self, n):
        for seed in range(3):
            web = orthogonal_web(n, seed)
            assert agw_verdict(web) == agw_test(web).verdict == "AGW"


class TestLiteralDets:
    def test_frozen_values_on_examples(self):
        # cross-checked against cofactor expansion of the transcribed grids
        expected = {
            1: {"left": -1, "middle": 1, "right": 1},
            2: {"left": 1, "middle": -1, "right": -1},
            3: {"left": 1, "middle": -1, "right": -1},
        }
        for k, forms in expected.items():
            web = example_web(k)
            for form, value in forms.items():
                assert literal_det(web, form) == value

    def test_order_restriction(self):
        web = build_web(RatMatrix([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            literal_det(web, "left")

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            literal_det(example_web(1), "diagonal")

    def test_right_form_vanishes_at_witnesses(self):
        # observed on this symmetric web: the right and middle
        # transcriptions vanish, the left one does not; on constructed webs
        # only the right one vanishes (TestOrthogonalWeb)
        web = build_web(WITNESS)
        assert literal_det(web, "right") == 0
        assert literal_det(web, "middle") == 0
        assert literal_det(web, "left") == Fraction(-32, 27)

    def test_matches_cofactor_oracle(self):
        rng = random.Random(73)
        for _ in range(40):
            web = rand_web(rng)
            report = agw_test(web)
            for form, value in report.literal_dets.items():
                # rebuild the grid through the library and check with the oracle
                from linearwebs.agw import literal_det as lib_det
                assert lib_det(web, form) == value


class TestAffinorComparison:
    def test_transposed_index_formulas_flagged(self):
        # generic matrix where the four misprinted formulas differ visibly
        web = build_web(RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
        comparison = affinor_comparison(web)
        assert len(comparison) == 8
        mismatched = {(c.a, c.ahat, c.side) for c in comparison if not c.match}
        assert mismatched == {(5, 2, "x"), (6, 2, "x"), (5, 2, "y"), (6, 2, "y")}

    def test_example_1_numerically_masked(self):
        # on this matrix the misprints evaluate to the derived values anyway
        comparison = affinor_comparison(example_web(1))
        assert all(c.match for c in comparison)

    def test_derived_matches_clean_formulas(self):
        # the four formulas without misprints agree with the derivation
        rng = random.Random(79)
        from linearwebs import adapted_coframe
        from linearwebs.agw import literal_affinor_value
        checked = 0
        while checked < 50:
            web = rand_web(rng)
            if not adapted_coframe(web).is_valid:
                continue
            checked += 1
            table = basis_affinors(web)
            for a, ahat, side in [(5, 1, "x"), (6, 1, "x"), (5, 1, "y"), (6, 1, "y")]:
                entry = table.entry(a, ahat)
                derived = entry.x if side == "x" else entry.y
                literal = literal_affinor_value(web, a, ahat, side)
                assert derived == literal


class TestCondition7:
    def test_all_equal_scalars_cancel(self):
        lam = Fraction(3, 7)
        table = AffinorTable(n=3, gauge_status="valid", entries=tuple(
            AffinorEntry(a=a, ahat=h, x=lam, y=lam)
            for a in (5, 6) for h in (1, 2)))
        result = condition7_residual(table)
        assert result.status == "evaluated"
        assert result.residual == 0

    def test_sparse_scalars_direct_value(self):
        values = {(5, 1): Fraction(2), (5, 2): Fraction(0),
                  (6, 1): Fraction(0), (6, 2): Fraction(5)}
        table = AffinorTable(n=3, gauge_status="valid", entries=tuple(
            AffinorEntry(a=a, ahat=h, x=values[(a, h)], y=values[(a, h)])
            for a in (5, 6) for h in (1, 2)))
        result = condition7_residual(table)
        assert result.residual == Fraction(10)

    def test_not_applicable_on_inconsistent_scalars(self):
        result = condition7_residual(basis_affinors(example_web(1)))
        assert result.status == "not-applicable"
        assert "unequal" in result.reason

    def test_not_applicable_on_degenerate_gauge(self):
        result = condition7_residual(basis_affinors(example_web(2)))
        assert result.status == "not-applicable"

    def test_zero_at_constructed_webs(self):
        for seed in range(10):
            result = condition7_residual(basis_affinors(orthogonal_web(3, seed)))
            assert result.status == "evaluated"
            assert result.residual == 0


class TestOrthogonalWeb:
    def test_deterministic_for_seed(self):
        assert orthogonal_web(4, 11).A == orthogonal_web(4, 11).A
        assert orthogonal_web(4, 11).A != orthogonal_web(4, 12).A

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_valid_gauge_and_agw_at_every_order(self, n):
        report = agw_test(orthogonal_web(n, n))
        assert report.gauge_status == "valid"
        assert report.verdict == "AGW"
        assert not report.witnesses

    @pytest.mark.parametrize("n", range(1, MAX_ORDER + 1))
    def test_no_zero_entry_in_A_or_B(self, n):
        web = orthogonal_web(n, n)
        for M in (web.A, web.B):
            assert all(x != 0 for row in M.entries() for x in row)
        assert all(x.denominator == 1 for row in web.A.entries() for x in row)

    def test_rows_are_orthogonal_under_a_diagonal_form(self):
        # A D A^T diagonal: the entrywise product of two rows of A is
        # orthogonal to the diagonal of D
        for n in range(1, 6):
            for seed in range(5):
                grid = [list(row) for row in orthogonal_web(n, seed).A.entries()]
                assert agw_by_orthogonality(grid)

    def test_defined_consistent_scalars_at_order_3(self):
        for seed in range(10):
            table = orthogonal_web(3, seed).affinors
            assert table.fully_defined and table.all_consistent

    def test_right_form_vanishes(self):
        # on these constructed webs only the published right form vanishes
        for seed in range(10):
            web = orthogonal_web(3, seed)
            assert literal_det(web, "right") == 0
            assert literal_det(web, "middle") != 0
            assert literal_det(web, "left") != 0

    def test_box_and_order_checked(self):
        for args in ((0, 0), (MAX_ORDER + 1, 0), (3, 0, 0)):
            with pytest.raises(ValueError):
                orthogonal_web(*args)


class TestOrthogonalityOracle:
    @given(sparse_rational_webs(max_n=4))
    def test_equals_verdict_when_gauge_valid(self, web):
        grid = [list(row) for row in web.A.entries()]
        if web.coframe.is_valid:
            assert agw_by_orthogonality(grid) == (agw_test(web).verdict == "AGW")

    @given(sparse_rational_webs(max_n=4))
    def test_never_true_when_not_agw(self, web):
        grid = [list(row) for row in web.A.entries()]
        if agw_test(web).verdict == "not-AGW":
            assert not agw_by_orthogonality(grid)

    @given(sparse_rational_webs(max_n=4), st.data())
    def test_invariant_under_permutations_and_diagonal_scaling(self, web, data):
        n = web.n
        grid = [list(row) for row in web.A.entries()]
        rows = data.draw(st.permutations(range(n)))
        cols = data.draw(st.permutations(range(n)))
        nonzero = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
        d1 = [data.draw(nonzero) for _ in range(n)]
        d2 = [data.draw(nonzero) for _ in range(n)]
        permuted = [[grid[rows[i]][cols[j]] for j in range(n)] for i in range(n)]
        scaled = [[d1[i] * grid[i][j] * d2[j] for j in range(n)] for i in range(n)]
        assert agw_by_orthogonality(permuted) == agw_by_orthogonality(grid)
        assert agw_by_orthogonality(scaled) == agw_by_orthogonality(grid)
