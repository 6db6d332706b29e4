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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ratlin import rational, format_rational

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


@dataclass(frozen=True)
class Chart:
    """The 2n-dimensional chart carrying a web of order n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("chart order must be at least 1")

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

    def zero_one_form(self) -> "OneForm":
        return OneForm(self, (Fraction(0),) * self.dim)

    def zero_two_form(self) -> "TwoForm":
        return TwoForm(self, (Fraction(0),) * len(self.pairs()))


def _check_chart(a, b) -> None:
    if a.chart != b.chart:
        raise ChartMismatchError(
            f"charts of order {a.chart.n} and {b.chart.n} cannot mix")


@dataclass(frozen=True)
class OneForm:
    """A 1-form with constant rational coefficients."""

    chart: Chart
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(rational(c) for c in self.coeffs)
        if len(coeffs) != self.chart.dim:
            raise ValueError(f"expected {self.chart.dim} coefficients, "
                             f"got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "OneForm") -> "OneForm":
        _check_chart(self, other)
        return OneForm(self.chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "OneForm") -> "OneForm":
        _check_chart(self, other)
        return OneForm(self.chart, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "OneForm":
        return OneForm(self.chart, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "OneForm":
        c = rational(c)
        return OneForm(self.chart, tuple(c * a for a in self.coeffs))

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


@dataclass(frozen=True)
class TwoForm:
    """A 2-form with constant rational coefficients over ordered pairs."""

    chart: Chart
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(rational(c) for c in self.coeffs)
        expected = len(self.chart.pairs())
        if len(coeffs) != expected:
            raise ValueError(f"expected {expected} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "TwoForm") -> "TwoForm":
        _check_chart(self, other)
        return TwoForm(self.chart, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        _check_chart(self, other)
        return TwoForm(self.chart, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TwoForm":
        return TwoForm(self.chart, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "TwoForm":
        c = rational(c)
        return TwoForm(self.chart, tuple(c * a for a in self.coeffs))

    def coefficient(self, i: int, j: int) -> Fraction:
        """Coefficient on the (i, j) basis pair, antisymmetrized for i > j."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self.coeffs[self.chart.pair_index(i, j)]
        return -self.coeffs[self.chart.pair_index(j, i)]

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
