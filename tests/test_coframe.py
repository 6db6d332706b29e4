import random
from fractions import Fraction

import pytest

from linearwebs import (CoframeDegenerateError, LinearWeb, RatMatrix,
                        adapted_coframe, basis_affinors, build_web,
                        example_web, expand_foliation)
from linearwebs.coframe import _check_expansion


def rand_valid_gauge_web(rng, n=3, bound=9):
    while True:
        A = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if A.det() == 0:
            continue
        web = build_web(A)
        if adapted_coframe(web).is_valid:
            return web


def coframe_forms(web):
    """The gauge-scaled forms omega_b^1 = -A[b][1] dx^b and omega_b^2 = B[1][b] dy_b."""
    n = web.n
    omega_x = tuple(web.dx(b).scale(-web.A[b - 1, 0]) for b in range(1, n + 1))
    omega_y = tuple(web.dy(b).scale(web.B[0, b - 1]) for b in range(1, n + 1))
    return omega_x, omega_y


class TestAdaptedCoframe:
    def test_example_1_valid_and_scaled(self):
        web = example_web(1)
        assert adapted_coframe(web).is_valid
        omega_x, omega_y = coframe_forms(web)
        assert omega_x[0] == web.dx(1).scale(-1)        # -dx1
        assert omega_y[2] == web.dy(3).scale(-1)        # -dy3

    def test_example_2_degenerate_entries(self):
        cof = adapted_coframe(example_web(2))
        assert not cof.is_valid
        assert cof.vanishing == ("A[2][1]", "B[1][1]")

    def test_identity_gauge_degenerate(self):
        cof = adapted_coframe(build_web(RatMatrix.identity(3)))
        assert not cof.is_valid
        assert set(cof.vanishing) == {"A[2][1]", "A[3][1]", "B[1][2]", "B[1][3]"}

    def test_sum_identity(self):
        rng = random.Random(53)
        for _ in range(100):
            web = rand_valid_gauge_web(rng, n=rng.choice((2, 3, 4)))
            omega_x, omega_y = coframe_forms(web)
            total_x = omega_x[0]
            total_y = omega_y[0]
            for f in omega_x[1:]:
                total_x = total_x + f
            for f in omega_y[1:]:
                total_y = total_y + f
            assert total_x == web.dx(web.n + 1).scale(-1)
            assert total_y == web.dy(web.n + 1).scale(-1)


class TestExpandFoliation:
    def test_example_1_a5(self):
        web = example_web(1)
        u, v = expand_foliation(web, adapted_coframe(web), 5)
        assert u == (1, 1, 2)
        assert v == (0, -1, -1)

    def test_degenerate_coframe_raises(self):
        web = example_web(2)
        with pytest.raises(CoframeDegenerateError):
            expand_foliation(web, adapted_coframe(web), 5)
        # diagonal matrices always break the gauge (zeros in column 1)
        diag = build_web(RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
        assert not adapted_coframe(diag).is_valid
        with pytest.raises(CoframeDegenerateError):
            expand_foliation(diag, adapted_coframe(diag), 5)

    def test_index_range(self):
        web = example_web(1)
        cof = adapted_coframe(web)
        with pytest.raises(ValueError):
            expand_foliation(web, cof, 4)
        with pytest.raises(ValueError):
            expand_foliation(web, cof, 7)

    def test_reconstruction_identity(self):
        rng = random.Random(59)
        for _ in range(100):
            web = rand_valid_gauge_web(rng, n=rng.choice((3, 4)))
            cof = adapted_coframe(web)
            omega_x, omega_y = coframe_forms(web)
            for a in range(web.n + 2, 2 * web.n + 1):
                u, v = expand_foliation(web, cof, a)
                rx = omega_x[0].scale(u[0])
                ry = omega_y[0].scale(v[0])
                for b in range(1, web.n):
                    rx = rx + omega_x[b].scale(u[b])
                    ry = ry + omega_y[b].scale(v[b])
                assert rx == web.dx(a).scale(-1)
                assert ry == web.dy(a).scale(-1)


class TestBasisAffinors:
    def test_example_1_scalars(self):
        table = basis_affinors(example_web(1))
        assert table.gauge_status == "valid"
        e51 = table.entry(5, 1)
        assert (e51.x, e51.y) == (Fraction(1, 2), Fraction(0))
        assert not e51.consistent
        e61 = table.entry(6, 1)
        assert e61.x == 0 and e61.y is None
        assert e61.note == "y normalizer vanishes"

    def test_degenerate_gauge_all_undefined(self):
        table = basis_affinors(example_web(2))
        assert table.gauge_status == "degenerate"
        assert all(e.x is None and e.y is None for e in table.entries)
        assert all("paper-gauge degenerate" in e.note for e in table.entries)

    def test_table_is_function_of_matrix_alone(self):
        rng = random.Random(61)
        for _ in range(50):
            web = rand_valid_gauge_web(rng)
            rebuilt = build_web(web.A)
            assert basis_affinors(web) == basis_affinors(rebuilt)

    def test_entry_count(self):
        for n in (2, 3, 4):
            web = build_web(RatMatrix(
                [[1 if i <= j else 2 for j in range(n)] for i in range(n)]))
            table = basis_affinors(web)
            assert len(table.entries) == (n - 1) * (n - 1)

    def test_missing_entry_raises(self):
        table = basis_affinors(example_web(1))
        with pytest.raises(KeyError):
            table.entry(9, 1)


class TestIdentityChecks:
    def test_expansion_check_rejects_wrong_coefficients(self):
        web = example_web(1)
        cof = adapted_coframe(web)
        u, v = cof.expansion(5)
        bumped = (u[0] + 1,) + u[1:]
        with pytest.raises(AssertionError, match="expansion identity"):
            _check_expansion(web, cof, 5, bumped, v)
        with pytest.raises(AssertionError, match="expansion identity"):
            _check_expansion(web, cof, 5, u, v[::-1])

    def test_sum_check_rejects_a_wrong_top_pair(self):
        # Row 1 of B scaled by 2 keeps every gauge entry nonzero, but then
        # the scaled y-forms sum to -2 dy_{n+1} instead of -dy_{n+1}.
        web = example_web(1)
        rows = [list(r) for r in web.B.entries()]
        rows[0] = [2 * x for x in rows[0]]
        wrong = LinearWeb(A=web.A, B=RatMatrix(rows), chart=web.chart)
        with pytest.raises(AssertionError, match="normalization identity"):
            adapted_coframe(wrong)
