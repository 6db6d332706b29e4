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

The coframe is held as these ratios: the forms omega are never built.  The
normalization and expansion identities are still checked exactly, on the
entries of A and B they reduce to.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

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


class AdaptedCoframe(NamedTuple):
    """The gauge status and the (u, v) ratios, or the exact list of vanishing gauge entries."""

    n: int
    status: str  # "valid" | "degenerate"
    vanishing: tuple  # gauge entry names like "A[2][1]" when degenerate
    expansions: tuple = ()  # (u, v) for a = n+2..2n, when valid

    @property
    def is_valid(self) -> bool:
        return self.status == "valid"

    def expansion(self, a: int) -> tuple:
        """(u, v) of upper foliation a, as :func:`expand_foliation` derived it."""
        _require_upper(self, a)
        return self.expansions[a - self.n - 2]


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
    """Check the gauge and derive its expansions; degeneracy is a status, not a failure."""
    n = web.n
    vanishing = _gauge_zeros(web)
    if vanishing:
        return AdaptedCoframe(n=n, status="degenerate", vanishing=vanishing)
    _check_sum_identity(web)
    cof = AdaptedCoframe(n=n, status="valid", vanishing=())
    return cof._replace(expansions=tuple(
        expand_foliation(web, cof, a) for a in range(n + 2, 2 * n + 1)))


def _check_sum_identity(web: LinearWeb) -> None:
    # sum_b omega_b^2 = -dy_{n+1}: with dy_b = -sum_j A[b][j] dy_{n+j}, row 1
    # of B A must be e_1.  The x side, sum_b -A[b][1] dx^b = -dx^{n+1},
    # holds term by term.
    if not _combines_to_unit(web.B.row(0), web.A.entries(), 0):
        raise AssertionError("coframe normalization identity violated")


def _combines_to_unit(weights, rows, c: int) -> bool:
    """Whether sum_b weights[b] * rows[b] is the unit vector e_c, exactly."""
    return all(sum(w * row[j] for w, row in zip(weights, rows) if row[j]) == int(j == c)
               for j in range(len(rows[0])))


def expand_foliation(web: LinearWeb, cof: AdaptedCoframe, a: int) -> tuple:
    """Coefficients (u, v) of -dx^a and -dy_a over the adapted coframe.

    Requires a valid coframe and n+2 <= a <= 2n.  The expansion identity is
    re-checked exactly before returning.
    """
    _require_upper(cof, a)
    c = a - web.n - 1
    A, B = web.A.entries(), web.B.entries()
    u = tuple(row[c] / row[0] for row in A)
    v = tuple(x / g for x, g in zip(B[c], B[0]))
    _check_expansion(web, cof, a, u, v)
    return u, v


def _require_upper(cof: AdaptedCoframe, a: int) -> None:
    if not cof.is_valid:
        raise CoframeDegenerateError(
            "coframe is degenerate: " + ", ".join(cof.vanishing) + " vanish")
    if not cof.n + 2 <= a <= 2 * cof.n:
        raise ValueError(f"foliation index {a} outside {cof.n + 2}..{2 * cof.n}")


def _check_expansion(web, cof, a, u, v) -> None:
    # x side: u_b omega_b^1 = -u_b A[b][1] dx^b must be the dx^b term of
    # -dx^a, -A[b][a-n] dx^b.  y side: sum_b v_b omega_b^2 = -dy_a, that is
    # sum_b v_b B[1][b] A[b][j] = [j == a-n] on each chart form dy_{n+j}.
    c = a - cof.n - 1
    A = web.A.entries()
    weights = [vb * g for vb, g in zip(v, web.B.row(0))]
    if (any(ub * row[0] != row[c] for ub, row in zip(u, A))
            or not _combines_to_unit(weights, A, c)):
        raise AssertionError("coframe expansion identity violated")


class AffinorEntry(NamedTuple):
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


class AffinorTable(NamedTuple):
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
