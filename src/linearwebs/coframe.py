"""Adapted coframe and basis affinors of a linear web.

The gauge rescales each of the first n foliations' defining forms so that
foliation n+1 takes the normalized shape -omega_{n+1}^i = sum_a omega_a^i:

    omega_a^1 = -A[a][1] dx^a,      omega_a^2 = B[1][a] dy_a     (1-based)

which requires every entry of column 1 of A and of row 1 of B to be
nonzero.  When some vanish the coframe is reported degenerate rather than
raising; downstream tests then fall back to cleared-denominator
obstructions (see :mod:`linearwebs.agw`).

For each upper foliation a in {n+2 .. 2n} the negated defining forms expand
over the coframe with coefficient vectors u (x side) and v (y side):

    -dx^a  = sum_b u_b omega_b^1,   u_b = A[b][a-n] / A[b][1]
    -dy_a  = sum_b v_b omega_b^2,   v_b = B[a-n][b] / B[1][b]

The basis affinor scalars are the ratios u_ahat/u_n and v_ahat/v_n for
ahat in {1 .. n-1}; they depend on A alone, never on a chart point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .forms import OneForm
from .ratlin import format_rational

if TYPE_CHECKING:
    from .webmodel import LinearWeb

__all__ = [
    "AdaptedCoframe",
    "CoframeDegenerateError",
    "adapted_coframe",
    "expand_foliation",
    "AffinorEntry",
    "AffinorTable",
    "basis_affinors",
]


class CoframeDegenerateError(ValueError):
    """Raised when an operation requires a valid gauge but the coframe is degenerate."""


@dataclass(frozen=True)
class AdaptedCoframe:
    """The gauge-fixed coframe, or the exact list of vanishing gauge entries."""

    n: int
    status: str  # "valid" | "degenerate"
    vanishing: tuple  # gauge entry names like "A[2][1]" when degenerate
    omega_x: Optional[tuple]  # omega_a^1 for a = 1..n, when valid
    omega_y: Optional[tuple]  # omega_a^2 for a = 1..n, when valid
    top_pair: Optional[tuple]  # (dx^{n+1}, dy_{n+1}) raw forms, when valid
    expansions: tuple = ()  # (u, v) for a = n+2..2n, when valid

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    def expansion(self, a: int) -> tuple:
        """(u, v) of upper foliation a, as :func:`expand_foliation` derived it."""
        _require_upper(self, a)
        return self.expansions[a - self.n - 2]

    def to_dict(self) -> dict:
        out = {"n": self.n, "status": self.status}
        if self.vanishing:
            out["vanishing"] = list(self.vanishing)
        if self.is_valid:
            out["omega_x"] = [f.to_json() for f in self.omega_x]
            out["omega_y"] = [f.to_json() for f in self.omega_y]
        return out


def _gauge_zeros(web: LinearWeb) -> tuple:
    n = web.n
    names = []
    for a in range(1, n + 1):
        if web.A[a - 1, 0] == 0:
            names.append(f"A[{a}][1]")
    for a in range(1, n + 1):
        if web.B[0, a - 1] == 0:
            names.append(f"B[1][{a}]")
    return tuple(names)


def adapted_coframe(web: LinearWeb) -> AdaptedCoframe:
    """Build the coframe and its expansions; degeneracy is a status, not a failure."""
    n = web.n
    vanishing = _gauge_zeros(web)
    if vanishing:
        return AdaptedCoframe(n=n, status="degenerate", vanishing=vanishing,
                              omega_x=None, omega_y=None, top_pair=None)
    omega_x = tuple(web.dx(a).scale(-web.A[a - 1, 0]) for a in range(1, n + 1))
    omega_y = tuple(web.dy(a).scale(web.B[0, a - 1]) for a in range(1, n + 1))
    top = (web.dx(n + 1), web.dy(n + 1))
    cof = AdaptedCoframe(n=n, status="valid", vanishing=(),
                         omega_x=omega_x, omega_y=omega_y, top_pair=top)
    _check_sum_identity(cof)
    return replace(cof, expansions=tuple(
        expand_foliation(web, cof, a) for a in range(n + 2, 2 * n + 1)))


def _check_sum_identity(cof: AdaptedCoframe) -> None:
    # -top^i must equal the sum of the scaled coframe forms, exactly.
    ones = (1,) * cof.n
    for forms, top in zip((cof.omega_x, cof.omega_y), cof.top_pair):
        if _combination(forms, ones) != _negated(top):
            raise AssertionError("coframe normalization identity violated")


def _combination(forms, weights) -> list:
    """Chart coefficients of sum_b weights[b] forms[b], skipping zero terms."""
    total = [0] * len(forms[0].coeffs)
    for form, w in zip(forms, weights):
        if w:
            for k, c in enumerate(form.coeffs):
                if c:
                    total[k] += w * c
    return total


def _negated(form: OneForm) -> list:
    return [-c for c in form.coeffs]


def expand_foliation(web: LinearWeb, cof: AdaptedCoframe, a: int) -> tuple:
    """Coefficients (u, v) of -dx^a and -dy_a over the adapted coframe.

    Requires a valid coframe and n+2 <= a <= 2n.  The expansion identity is
    re-checked exactly before returning.
    """
    n = web.n
    _require_upper(cof, a)
    c = a - n
    u = tuple(web.A[b, c - 1] / web.A[b, 0] for b in range(n))
    v = tuple(web.B[c - 1, b] / web.B[0, b] for b in range(n))
    _check_expansion(web, cof, a, u, v)
    return u, v


def _require_upper(cof: AdaptedCoframe, a: int) -> None:
    if not cof.is_valid:
        raise CoframeDegenerateError(
            "coframe is degenerate: " + ", ".join(cof.vanishing) + " vanish")
    if not cof.n + 2 <= a <= 2 * cof.n:
        raise ValueError(f"foliation index {a} outside {cof.n + 2}..{2 * cof.n}")


def _check_expansion(web, cof, a, u, v) -> None:
    if (_combination(cof.omega_x, u) != _negated(web.dx(a))
            or _combination(cof.omega_y, v) != _negated(web.dy(a))):
        raise AssertionError("coframe expansion identity violated")


@dataclass(frozen=True)
class AffinorEntry:
    """The diagonal affinor scalar pair for one (a, ahat) slot.

    ``x`` or ``y`` is None when the corresponding normalizer vanishes (or
    the whole gauge is degenerate); ``note`` names the reason.
    """

    a: int
    ahat: int
    x: Optional[Fraction]
    y: Optional[Fraction]
    note: Optional[str] = None

    @property
    def defined(self) -> bool:
        return self.x is not None and self.y is not None

    @property
    def consistent(self) -> bool:
        """Whether the x and y scalars agree (the scalar-affinor case)."""
        return self.defined and self.x == self.y

    def to_json_value(self):
        if self.x is None and self.y is None:
            return f"undefined: {self.note}"
        return {
            "x": format_rational(self.x) if self.x is not None else f"undefined: {self.note}",
            "y": format_rational(self.y) if self.y is not None else f"undefined: {self.note}",
        }


@dataclass(frozen=True)
class AffinorTable:
    """Basis affinor scalars for every a in {n+2..2n}, ahat in {1..n-1}."""

    n: int
    gauge_status: str
    entries: tuple

    def entry(self, a: int, ahat: int) -> AffinorEntry:
        for e in self.entries:
            if e.a == a and e.ahat == ahat:
                return e
        raise KeyError(f"no affinor entry ({a}, {ahat})")

    @property
    def fully_defined(self) -> bool:
        return all(e.defined for e in self.entries)

    @property
    def all_consistent(self) -> bool:
        return all(e.consistent for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "gauge_status": self.gauge_status,
            "entries": {f"({e.a}, {e.ahat})": e.to_json_value() for e in self.entries},
        }


def basis_affinors(web: LinearWeb) -> AffinorTable:
    """Extract the affinor scalar table by exact linear expansion.

    The scalars are computed from the (u, v) expansions, never from any
    transcribed closed formula; the comparison against the published
    formulas lives in :func:`linearwebs.agw.affinor_comparison`.
    """
    n = web.n
    cof = web.coframe
    entries = []
    if not cof.is_valid:
        note = "paper-gauge degenerate: " + ", ".join(cof.vanishing)
        for a in range(n + 2, 2 * n + 1):
            for ahat in range(1, n):
                entries.append(AffinorEntry(a=a, ahat=ahat, x=None, y=None, note=note))
        return AffinorTable(n=n, gauge_status="degenerate", entries=tuple(entries))
    for a, (u, v) in zip(range(n + 2, 2 * n + 1), cof.expansions):
        for ahat in range(1, n):
            x = u[ahat - 1] / u[n - 1] if u[n - 1] != 0 else None
            y = v[ahat - 1] / v[n - 1] if v[n - 1] != 0 else None
            note = None
            if x is None and y is None:
                note = "both normalizers vanish"
            elif x is None:
                note = "x normalizer vanishes"
            elif y is None:
                note = "y normalizer vanishes"
            entries.append(AffinorEntry(a=a, ahat=ahat, x=x, y=y, note=note))
    return AffinorTable(n=n, gauge_status="valid", entries=tuple(entries))
