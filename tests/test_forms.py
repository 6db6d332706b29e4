import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linearwebs import Chart, ChartMismatchError, OneForm, example_web, wedge
from linearwebs.ratlin import RatMatrix

from oracles import rank, wedge_expand

CHART3 = Chart(3)

small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=9)


def one_form(chart, coeffs):
    return OneForm(chart, tuple(Fraction(c) for c in coeffs))


def rand_form(rng, chart):
    return one_form(chart, [rng.randint(-6, 6) for _ in range(chart.dim)])


def test_chart_labels_and_dim():
    assert CHART3.dim == 6
    assert [CHART3.coordinate_label(i) for i in range(6)] == \
        ["x1", "x2", "x3", "y4", "y5", "y6"]
    assert CHART3.form_label(3) == "dy4"
    assert len(CHART3.pairs()) == 15


def test_wedge_self_is_zero():
    f = one_form(CHART3, [1, 2, -3, "1/2", 0, 5])
    assert wedge(f, f).is_zero


def test_wedge_basis_pair_is_unit_vector():
    dx1 = CHART3.basis_one_form(0)
    dy4 = CHART3.basis_one_form(3)
    w = wedge(dx1, dy4)
    vec = w.coeffs
    assert len(vec) == 15
    k = CHART3.pair_index(0, 3)
    assert vec[k] == 1
    assert all(c == 0 for i, c in enumerate(vec) if i != k)


def test_wedge_bilinear_expansion_example():
    f = one_form(CHART3, [1, 1, 0, 0, 0, 0])          # dx1 + dx2
    g = one_form(CHART3, [0, 0, 0, 1, -1, 0])         # dy4 - dy5
    w = wedge(f, g)
    assert w.to_json() == {"dx1^dy4": "1", "dx1^dy5": "-1",
                           "dx2^dy4": "1", "dx2^dy5": "-1"}


def test_wedge_matches_brute_force_oracle():
    rng = random.Random(11)
    for _ in range(100):
        f = rand_form(rng, CHART3)
        g = rand_form(rng, CHART3)
        w = wedge(f, g)
        expected = wedge_expand(f.coeffs, g.coeffs, 6)
        got = {pair: c for pair, c in zip(CHART3.pairs(), w.coeffs) if c != 0}
        assert got == expected


@given(small_fraction,
       st.lists(small_fraction, min_size=6, max_size=6),
       st.lists(small_fraction, min_size=6, max_size=6),
       st.lists(small_fraction, min_size=6, max_size=6))
def test_wedge_bilinearity(a, fc, gc, hc):
    f, g, h = (one_form(CHART3, c) for c in (fc, gc, hc))
    left = wedge(f.scale(a) + g, h)
    right = wedge(f, h).scale(a) + wedge(g, h)
    assert left == right


@given(st.lists(small_fraction, min_size=6, max_size=6),
       st.lists(small_fraction, min_size=6, max_size=6))
def test_wedge_antisymmetry(fc, gc):
    f, g = one_form(CHART3, fc), one_form(CHART3, gc)
    assert wedge(f, g) == -wedge(g, f)


def test_chart_mismatch_is_error():
    f = Chart(2).basis_one_form(0)
    g = Chart(3).basis_one_form(0)
    with pytest.raises(ChartMismatchError):
        wedge(f, g)
    with pytest.raises(ChartMismatchError):
        f + g


def dependencies(forms):
    """Kernel basis of the forms' stacked coefficient columns."""
    return RatMatrix(zip(*(f.coeffs for f in forms))).kernel_basis()


class TestIndependence:
    def test_basis_forms(self):
        forms = [CHART3.basis_one_form(i) for i in range(3)]
        assert dependencies(forms) == ()

    def test_example_web_dependencies(self):
        web = example_web(1)
        # dy6 = dy1 - dy2
        assert dependencies([web.dy(1), web.dy(2), web.dy(6)]) == (
            (Fraction(1), Fraction(-1), Fraction(-1)),)
        # dx6 = dx2 + dx3
        assert dependencies([web.dx(2), web.dx(3), web.dx(6)]) == (
            (Fraction(1), Fraction(1), Fraction(-1)),)

    def test_dependency_is_sound(self):
        rng = random.Random(23)
        for _ in range(100):
            forms = [rand_form(rng, CHART3) for _ in range(rng.randint(1, 7))]
            basis = dependencies(forms)
            assert len(basis) == len(forms) - rank([f.coeffs for f in forms])
            for dependency in basis:
                combo = CHART3.zero_one_form()
                for c, f in zip(dependency, forms):
                    combo = combo + f.scale(c)
                assert combo.is_zero
                assert any(c != 0 for c in dependency)


def test_two_form_vector_zero_and_length():
    assert all(c == 0 for c in CHART3.zero_two_form().coeffs)
    assert len(CHART3.zero_two_form().coeffs) == 15
