import random

import pytest

from linearwebs import (FamilySpec, RatMatrix, abelian_residual, build_web,
                        example_web, general_position_audit,
                        parallelizability_report, relation_space,
                        sample_family, survey)
from linearwebs.families import derive_seed
from oracles import sample_draws


class TestExamples:
    def test_bundled_matrices(self):
        assert example_web(1).A == RatMatrix([[1, 1, 0], [1, 1, 1], [1, 2, 1]])
        assert example_web(2).A == RatMatrix([[1, 1, 0], [0, 1, 1], [1, 1, 1]])
        assert example_web(3).A == RatMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            example_web(4)


class TestFamilySpec:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FamilySpec("B5")

    def test_named_families_fix_order_3(self):
        with pytest.raises(ValueError):
            FamilySpec("B8", n=4)

    def test_constraints(self):
        assert FamilySpec("B8").constraints == ((1, 3),)
        assert FamilySpec("B7").constraints == ((1, 2), (1, 3))
        assert FamilySpec("B6").constraints == ((1, 3), (2, 1), (3, 2))
        assert FamilySpec("generic").constraints == ()


class TestSampling:
    def test_b8_zero_pattern(self):
        spec = FamilySpec("B8")
        for seed in range(30):
            A = sample_family(spec, derive_seed(1, seed)).A
            assert A[0, 2] == 0
            assert A.det() != 0

    def test_b6_zero_pattern(self):
        spec = FamilySpec("B6")
        for seed in range(30):
            A = sample_family(spec, derive_seed(2, seed)).A
            assert A[0, 2] == 0 and A[1, 0] == 0 and A[2, 1] == 0
            assert A.det() != 0

    def test_b6_contains_b8_constraints(self):
        b8 = set(FamilySpec("B8").constraints)
        b6 = set(FamilySpec("B6").constraints)
        assert b8 <= b6

    def test_small_box_n2(self):
        spec = FamilySpec("generic", n=2, entry_bound=1)
        seen = set()
        for seed in range(60):
            A = sample_family(spec, seed).A
            assert A.det() != 0
            assert all(abs(A[i, j]) <= 1 for i in range(2) for j in range(2))
            seen.add(A)
        # the box only holds finitely many nonsingular matrices
        assert len(seen) <= 48

    def test_determinism(self):
        spec = FamilySpec("generic")
        assert sample_family(spec, 123).A == sample_family(spec, 123).A

    @pytest.mark.parametrize("spec", [FamilySpec("generic", n=3, entry_bound=1),
                                      FamilySpec("B7", entry_bound=1)])
    def test_matches_det_based_reference(self, spec):
        # a draw is rejected when its inverse fails, the reference rejects
        # it when its cofactor determinant is 0: the kept draws must agree
        singular = 0
        for i in range(40):
            seed = derive_seed(17, i)
            draws = sample_draws(spec.n, spec.constraints, spec.entry_bound, seed)
            singular += len(draws) - 1
            assert sample_family(spec, seed).A == RatMatrix(draws[-1])
        assert singular >= 20


class TestGeneralOrder:
    def test_n2_forced_relation(self):
        web = build_web(RatMatrix([[1, 1], [0, 1]]))
        assert abelian_residual(web, [1, 1, 1, 1]).is_zero

    def test_n3_same_as_build_web(self):
        A = RatMatrix([[1, 1, 0], [1, 1, 1], [1, 2, 1]])
        web = build_web(A)
        assert web.n == 3 and web.A == A

    def test_n4_random_properties(self):
        from linearwebs import agw_test
        rng = random.Random(89)
        for _ in range(10):
            while True:
                A = RatMatrix([[rng.randint(-9, 9) for _ in range(4)]
                               for _ in range(4)])
                if A.det() != 0:
                    break
            web = build_web(A)
            assert abelian_residual(web, [1] * 8).is_zero
            assert parallelizability_report(web).verdict == "parallelizable"
            assert relation_space(web).dimension >= 1
            # attention: verdicts for n = 4 use foliations a in {6, 7, 8}
            report = agw_test(web)
            assert report.verdict in ("not-AGW", "AGW", "indeterminate")


class TestSurvey:
    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            survey(FamilySpec("generic"), count=0, seed=1)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            survey(FamilySpec("generic"), count=3, seed=1, jobs=jobs)

    def test_counts_partition_samples(self):
        stats = survey(FamilySpec("generic"), count=50, seed=11)
        assert stats.not_agw + stats.agw + stats.indeterminate == 50
        assert sum(stats.relation_dim_histogram.values()) == 50

    def test_deterministic_and_jobs_invariant(self):
        spec = FamilySpec("generic")
        a = survey(spec, count=40, seed=5)
        b = survey(spec, count=40, seed=5)
        c = survey(spec, count=40, seed=5, jobs=4)
        assert a == b == c
        assert a.to_dict() == c.to_dict()

    def test_reference_box_rates_frozen(self):
        # frozen empirical facts at the [-9, 9] box, seed 7: the verdict
        # split and, crucially, that every sample not refuted outright is
        # position-degenerate (checked sample by sample below)
        spec = FamilySpec("generic", n=3, entry_bound=9)
        stats = survey(spec, count=200, seed=7)
        assert stats.not_agw >= 180
        for i in range(200):
            web = sample_family(spec, derive_seed(7, i))
            from linearwebs import agw_test
            if agw_test(web).verdict != "not-AGW":
                assert not general_position_audit(web).general_position

    def test_b8_survey_runs_and_logs_left_det(self):
        stats = survey(FamilySpec("B8"), count=100, seed=3)
        assert stats.not_agw >= 80
        assert stats.left_det_zero is not None

    def test_n2_exhaustive_box_parallelizable(self):
        spec = FamilySpec("generic", n=2, entry_bound=1)
        for seed in range(40):
            web = sample_family(spec, seed)
            assert parallelizability_report(web).verdict == "parallelizable"

    def test_anomalies_require_degeneracy_or_zero_obstruction(self):
        stats = survey(FamilySpec("generic"), count=200, seed=7)
        for record in stats.anomalies:
            assert record.relation_dimension >= 2
            assert (not record.audit_clean) or record.agw_verdict != "not-AGW"
