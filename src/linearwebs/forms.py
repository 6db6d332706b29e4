"""Constant-coefficient exterior 1-forms and 2-forms on the product chart.

The chart for order n has coordinates (x^1 .. x^n, y_{n+1} .. y_{2n}).
One-forms store a length-2n coefficient vector over the basis
(dx^1 .. dx^n, dy_{n+1} .. dy_{2n}); two-forms store a length-C(2n,2)
vector over ordered basis pairs (i < j), so antisymmetry is structural.
Forms are chart-tagged and immutable; mixing charts of different order is
an error, never a silent coercion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .ratlin import Frozen, rational, format_rational

__all__ = [
    "Chart",
    "OneForm",
    "TwoForm",
    "ChartMismatchError",
    "wedge",
]


class ChartMismatchError(ValueError):
    """Raised when forms on charts of different order are combined."""


@lru_cache(maxsize=None)
def _pairs(dim: int) -> tuple:
    return tuple(itertools.combinations(range(dim), 2))

@lru_cache(maxsize=None)
def _pair_index(dim: int) -> dict:
    return {p: k for k, p in enumerate(_pairs(dim))}


class Chart(Frozen):
    """The 2n-dimensional chart carrying a web of order n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("chart order must be at least 1")
        self._set(n=n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Chart) and self.n == other.n

    def __hash__(self) -> int:
        return hash(self.n)

    @property
    def dim(self) -> int:
        return 2 * self.n

    def coordinate_label(self, i: int) -> str:
        """Label of coordinate i (0-based): x1..xn then y{n+1}..y{2n}."""
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate index {i} out of range")
        return f"x{i + 1}" if i < self.n else f"y{i + 1}"

    def form_label(self, i: int) -> str:
        return "d" + self.coordinate_label(i)

    def pairs(self) -> tuple:
        """Ordered basis pairs (i, j), i < j, lexicographic."""
        return _pairs(self.dim)

    def pair_index(self, i: int, j: int) -> int:
        return _pair_index(self.dim)[(i, j)]

    def basis_one_form(self, i: int) -> "OneForm":
        coeffs = [Fraction(0)] * self.dim
        coeffs[i] = Fraction(1)
        return OneForm(self, tuple(coeffs))

    def zero_two_form(self) -> "TwoForm":
        return TwoForm(self, (Fraction(0),) * len(self.pairs()))


def _check_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError(
            f"charts of order {a.chart.n} and {b.chart.n} cannot mix")


class _Form(Frozen):
    """A chart and a coefficient tuple, compared and hashed by both."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs, expected: int):
        coeffs = tuple(rational(c) for c in coeffs)
        if len(coeffs) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(coeffs)}")
        self._set(chart=chart, coeffs=coeffs)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.chart == other.chart
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash((self.chart, self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other):
        _check_chart(self, other)
        return type(self)(self.chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c):
        c = rational(c)
        return type(self)(self.chart, tuple(c * a for a in self.coeffs))


class OneForm(_Form):
    """A 1-form with constant rational coefficients."""

    __slots__ = ()

    def __init__(self, chart: Chart, coeffs):
        super().__init__(chart, coeffs, chart.dim)

    def to_json(self) -> dict:
        return {self.chart.form_label(i): format_rational(c)
                for i, c in enumerate(self.coeffs) if c != 0}

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            label = self.chart.form_label(i)
            if c == 1:
                terms.append(f"+ {label}")
            elif c == -1:
                terms.append(f"- {label}")
            else:
                sign = "-" if c < 0 else "+"
                terms.append(f"{sign} {format_rational(abs(c))}*{label}")
        if not terms:
            return "0"
        head = terms[0].replace("+ ", "", 1) if terms[0].startswith("+ ") else terms[0].replace("- ", "-", 1)
        return " ".join([head] + terms[1:])


class TwoForm(_Form):
    """A 2-form with constant rational coefficients over ordered pairs."""

    __slots__ = ()

    def __init__(self, chart: Chart, coeffs):
        super().__init__(chart, coeffs, len(chart.pairs()))

    def to_json(self) -> dict:
        out = {}
        for k, (i, j) in enumerate(self.chart.pairs()):
            if self.coeffs[k] != 0:
                key = f"{self.chart.form_label(i)}^{self.chart.form_label(j)}"
                out[key] = format_rational(self.coeffs[k])
        return out


def wedge(f: OneForm, g: OneForm) -> TwoForm:
    """Wedge product: coefficient on (i, j), i < j, is f_i g_j - f_j g_i."""
    _check_chart(f, g)
    chart = f.chart
    coeffs = tuple(f.coeffs[i] * g.coeffs[j] - f.coeffs[j] * g.coeffs[i]
                   for i, j in chart.pairs())
    return TwoForm(chart, coeffs)
