"""Almost-Grassmann compatibility of a linear web.

A web of this family is almost Grassmannizable exactly when, for every
upper foliation a in {n+2 .. 2n}, the expansion coefficients u (x side)
and v (y side) over the adapted coframe are proportional: then a common
rescaling turns both components of the foliation's defining pair into the
same linear combination of the first n foliations' forms.  The normative
test is the vanishing of all 2x2 minors u_b v_g - u_g v_b.

When the gauge is degenerate the same minors are evaluated with all gauge
denominators cleared, as polynomials in the entries of A and B:

    P(a; b, g) = A[b][c] B[c][g] A[g][1] B[1][b]
               - A[g][c] B[c][b] A[b][1] B[1][g],      c = a - n, 1-based.

A nonzero cleared minor refutes compatibility regardless of gauge; all
zeros with a degenerate gauge prove nothing (a repaired gauge could still
fail), so the verdict is then "indeterminate" -- except for diagonal
matrices, whose webs split as direct products and are compatible by
construction.

Webs whose rows are orthogonal under a diagonal form are compatible when
their gauge is valid.  Let A D A^T = Delta with D and Delta nonsingular
diagonal.  Then B = D A^T Delta^-1, so A[b][c] = Delta_b B[c][b] / D_c.
Substituted into P(a; b, g), both terms become

    Delta_b Delta_g B[c][b] B[c][g] B[1][b] B[1][g] / (D_c D_1),

so every cleared minor vanishes, whatever the gauge.  With a valid gauge,
u_b = A[b][c] / A[b][1] and v_b = B[c][b] / B[1][b], so each
proportionality minor is P(a; b, g) / (A[b][1] A[g][1] B[1][b] B[1][g]) = 0
and the verdict is AGW.
:func:`linearwebs.families.orthogonal_web` builds such webs.

This module also transcribes, verbatim, the published 3x3 determinant
conditions (three allegedly equivalent forms) and the published affinor
formulas, purely so they can be compared against the derived quantities;
the transcriptions are suspected to carry misprints and are never used to
decide a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .coframe import AffinorTable
from .ratlin import RatMatrix, format_rational
from .webmodel import LinearWeb

__all__ = [
    "MinorWitness",
    "Condition7Result",
    "AgwReport",
    "agw_test",
    "agw_verdict",
    "proportionality_minors",
    "cleared_minors",
    "literal_det",
    "LITERAL_DET_FORMS",
    "literal_affinor_value",
    "AffinorComparison",
    "affinor_comparison",
    "condition7_residual",
]

AGW = "AGW"
NOT_AGW = "not-AGW"
INDETERMINATE = "indeterminate"

#: The three published determinant forms, named by the column that carries
#: the degree-four entry products.
LITERAL_DET_FORMS = ("left", "middle", "right")


class MinorWitness(NamedTuple):
    """A nonzero proportionality minor: exact evidence against compatibility."""

    a: int
    beta: int
    gamma: int
    value: Fraction
    path: str  # "coframe" (gauge valid) or "cleared" (denominators cleared)

    def to_dict(self) -> dict:
        return {"a": self.a, "beta": self.beta, "gamma": self.gamma,
                "value": format_rational(self.value), "path": self.path}


class Condition7Result(NamedTuple):
    """The scalar-affinor identity residual, when the four scalars exist."""

    status: str  # "evaluated" | "not-applicable"
    residual: Optional[Fraction] = None
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        if self.status == "evaluated":
            return {"status": self.status, "residual": format_rational(self.residual)}
        return {"status": self.status, "reason": self.reason}


class AgwReport(NamedTuple):
    """Verdict plus exact witnesses for the compatibility test."""

    n: int
    verdict: str
    gauge_status: str
    gauge_vanishing: tuple
    witnesses: tuple  # nonzero minors only
    unobstructed_foliations: tuple  # upper foliations with no nonzero minor
    literal_dets: Optional[dict]  # form name -> Fraction, n = 3 only
    condition7: Condition7Result

    def witnesses_for(self, a: int) -> tuple:
        return tuple(w for w in self.witnesses if w.a == a)

    def to_dict(self) -> dict:
        per_a = {}
        for a in range(self.n + 2, 2 * self.n + 1):
            hits = [w.to_dict() for w in self.witnesses_for(a)]
            per_a[str(a)] = hits if hits else "no nonzero minors"
        out = {
            "n": self.n,
            "verdict": self.verdict,
            "gauge_status": self.gauge_status,
            "witness_minors": per_a,
            "unobstructed_foliations": list(self.unobstructed_foliations),
            "condition7": self.condition7.to_dict(),
        }
        if self.gauge_vanishing:
            out["gauge_vanishing"] = list(self.gauge_vanishing)
        if self.literal_dets is not None:
            out["literal_dets"] = {k: format_rational(v)
                                   for k, v in self.literal_dets.items()}
        return out

    def to_text(self) -> str:
        lines = [f"almost-Grassmann compatibility: {self.verdict} "
                 f"(gauge {self.gauge_status})"]
        for w in self.witnesses:
            lines.append(f"  witness minor a={w.a} (beta, gamma)=({w.beta}, {w.gamma})"
                         f" value {format_rational(w.value)} [{w.path}]")
        if self.literal_dets is not None:
            vals = ", ".join(f"{k}={format_rational(v)}"
                             for k, v in self.literal_dets.items())
            lines.append(f"  published determinant forms: {vals}")
        if self.condition7.status == "evaluated":
            lines.append(f"  scalar identity residual: "
                         f"{format_rational(self.condition7.residual)}")
        else:
            lines.append(f"  scalar identity: not applicable ({self.condition7.reason})")
        return "\n".join(lines)


def proportionality_minors(web: LinearWeb, a: int) -> list:
    """All (beta, gamma, u_b v_g - u_g v_b) for one upper foliation, gauge path."""
    u, v = web.coframe.expansion(a)
    n = web.n
    return [(b + 1, g + 1, u[b] * v[g] - u[g] * v[b])
            for b in range(n) for g in range(b + 1, n)]


def cleared_minors(web: LinearWeb, a: int) -> list:
    """The same minors with all gauge denominators cleared, from A and B."""
    n = web.n
    c = a - n
    A, B = web.A, web.B
    out = []
    for b in range(n):
        for g in range(b + 1, n):
            value = (A[b, c - 1] * B[c - 1, g] * A[g, 0] * B[0, b]
                     - A[g, c - 1] * B[c - 1, b] * A[b, 0] * B[0, g])
            out.append((b + 1, g + 1, value))
    return out


def _minors(web: LinearWeb, a: int) -> list:
    """The minors that decide upper foliation a: from the coframe when the
    gauge is valid, with the gauge denominators cleared when it is not."""
    return (proportionality_minors(web, a) if web.coframe.is_valid
            else cleared_minors(web, a))


def _verdict(web: LinearWeb, obstructed: bool) -> str:
    """Any nonzero minor refutes; all zeros prove compatibility only with a
    valid gauge or a diagonal A (a direct product)."""
    if obstructed:
        return NOT_AGW
    if web.coframe.is_valid or web.A.is_diagonal():
        return AGW
    return INDETERMINATE


def agw_test(web: LinearWeb) -> AgwReport:
    """Decide compatibility with exact witnesses.

    Gauge valid: minors from the coframe expansion.  Gauge degenerate:
    cleared-denominator minors; any nonzero refutes, all zero leaves the
    verdict indeterminate unless A is diagonal (direct-product webs are
    compatible by construction).
    """
    n = web.n
    cof = web.coframe
    path = "coframe" if cof.is_valid else "cleared"
    witnesses = []
    unobstructed = []
    for a in range(n + 2, 2 * n + 1):
        nonzero = [MinorWitness(a, b, g, val, path)
                   for b, g, val in _minors(web, a) if val != 0]
        witnesses.extend(nonzero)
        if not nonzero:
            unobstructed.append(a)
    literal = None
    if n == 3:
        literal = {form: literal_det(web, form) for form in LITERAL_DET_FORMS}
    return AgwReport(
        n=n,
        verdict=_verdict(web, bool(witnesses)),
        gauge_status=cof.status,
        gauge_vanishing=cof.vanishing,
        witnesses=tuple(witnesses),
        unobstructed_foliations=tuple(unobstructed),
        literal_dets=literal,
        condition7=condition7_residual(web.affinors),
    )


def agw_verdict(web: LinearWeb) -> str:
    """``agw_test(web).verdict`` alone.

    Stops at the first upper foliation with a nonzero minor, and builds no
    witness, published form or affinor table.
    """
    obstructed = any(val != 0 for a in range(web.n + 2, 2 * web.n + 1)
                     for _, _, val in _minors(web, a))
    return _verdict(web, obstructed)


# ---------------------------------------------------------------------------
# published determinant forms (verbatim transcriptions, audit only)


def literal_det(web: LinearWeb, form: str) -> Fraction:
    """Evaluate one of the three published 3x3 determinant conditions.

    The grids are transcribed verbatim (including the doubled factor in the
    last row of the left and middle forms, a suspected misprint); entries
    are read with the locked convention a[row][col] on A.  Only n = 3.
    """
    if web.n != 3:
        raise ValueError("the published determinant forms are specific to n = 3")
    if form not in LITERAL_DET_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {LITERAL_DET_FORMS}")
    a = lambda i, j: web.A[i - 1, j - 1]
    if form == "right":
        grid = [
            [a(1, 1), a(1, 2), a(1, 1) * a(1, 2) * a(2, 3) * a(3, 3)],
            [a(2, 1), a(2, 2), a(2, 1) * a(2, 2) * a(1, 3) * a(3, 3)],
            [a(3, 1), a(3, 2), a(1, 3) * a(2, 3) * a(3, 1) * a(3, 2)],
        ]
    elif form == "middle":
        grid = [
            [a(1, 1), a(1, 1) * a(1, 3) * a(2, 2) * a(3, 2), a(1, 3)],
            [a(2, 1), a(1, 2) * a(2, 1) * a(2, 3) * a(3, 2), a(2, 3)],
            [a(3, 1), a(1, 2) * a(2, 2) * a(2, 2) * a(3, 1), a(3, 3)],
        ]
    else:  # left
        grid = [
            [a(1, 1) * a(1, 3) * a(2, 2) * a(3, 2), a(1, 2), a(1, 3)],
            [a(1, 2) * a(2, 1) * a(2, 3) * a(3, 2), a(2, 2), a(2, 3)],
            [a(1, 2) * a(2, 2) * a(2, 2) * a(3, 1), a(3, 2), a(3, 3)],
        ]
    return RatMatrix(grid).det()


# Published affinor formulas, transcribed verbatim as (numerator entries,
# denominator entries) over A or B; each entry is 1-based (row, col).
_LITERAL_AFFINOR = {
    (5, 1, "x"): ("A", ((1, 2), (3, 1)), ((1, 1), (3, 2))),
    (5, 2, "x"): ("A", ((2, 2), (3, 1)), ((1, 2), (3, 2))),
    (6, 1, "x"): ("A", ((1, 3), (3, 1)), ((1, 1), (3, 3))),
    (6, 2, "x"): ("A", ((2, 3), (3, 1)), ((1, 2), (3, 3))),
    (5, 1, "y"): ("B", ((2, 1), (1, 3)), ((1, 1), (2, 3))),
    (5, 2, "y"): ("B", ((2, 2), (1, 3)), ((1, 1), (2, 3))),
    (6, 1, "y"): ("B", ((3, 1), (1, 3)), ((1, 1), (3, 3))),
    (6, 2, "y"): ("B", ((3, 2), (1, 3)), ((2, 1), (3, 3))),
}


def literal_affinor_value(web: LinearWeb, a: int, ahat: int, side: str) -> Optional[Fraction]:
    """Evaluate one published affinor formula verbatim; None if its denominator vanishes."""
    if web.n != 3:
        raise ValueError("the published affinor formulas are specific to n = 3")
    source, num, den = _LITERAL_AFFINOR[(a, ahat, side)]
    M = web.A if source == "A" else web.B
    d = M[den[0][0] - 1, den[0][1] - 1] * M[den[1][0] - 1, den[1][1] - 1]
    if d == 0:
        return None
    return M[num[0][0] - 1, num[0][1] - 1] * M[num[1][0] - 1, num[1][1] - 1] / d


class AffinorComparison(NamedTuple):
    """Derived-vs-published value of one affinor scalar."""

    a: int
    ahat: int
    side: str
    derived: Optional[Fraction]
    literal: Optional[Fraction]

    @property
    def match(self) -> bool:
        return self.derived == self.literal

    def to_dict(self) -> dict:
        fmt = lambda v: format_rational(v) if v is not None else "undefined"
        return {"a": self.a, "ahat": self.ahat, "side": self.side,
                "derived": fmt(self.derived), "literal": fmt(self.literal),
                "match": self.match}


def affinor_comparison(web: LinearWeb) -> tuple:
    """Compare every derived affinor scalar against its published formula (n = 3)."""
    if web.n != 3:
        raise ValueError("comparison table is specific to n = 3")
    table = web.affinors
    out = []
    for a in (5, 6):
        for ahat in (1, 2):
            if table.gauge_status == "valid":
                entry = table.entry(a, ahat)
                derived = {"x": entry.x, "y": entry.y}
            else:
                derived = {"x": None, "y": None}
            for side in ("x", "y"):
                out.append(AffinorComparison(
                    a=a, ahat=ahat, side=side,
                    derived=derived[side],
                    literal=literal_affinor_value(web, a, ahat, side)))
    return tuple(out)


# ---------------------------------------------------------------------------
# the scalar-affinor identity


def condition7_residual(table: AffinorTable) -> Condition7Result:
    """Residual of the published necessary identity on the four scalars.

    Needs n = 3, all four scalar pairs defined, and each pair consistent
    (x equals y, the compatible case); otherwise not-applicable.  The
    residual is

        s51 s62 (1 - s52 - s61) - s52 s61 (1 - s51 - s62).
    """
    if table.n != 3:
        return Condition7Result("not-applicable", reason="identity stated for n = 3 only")
    if table.gauge_status != "valid":
        return Condition7Result("not-applicable", reason="gauge degenerate")
    scalars = {}
    for a in (5, 6):
        for ahat in (1, 2):
            entry = table.entry(a, ahat)
            if not entry.defined:
                return Condition7Result("not-applicable",
                                        reason=f"scalar ({a},{ahat}) undefined: {entry.note}")
            if not entry.consistent:
                return Condition7Result("not-applicable",
                                        reason=f"scalar ({a},{ahat}) has unequal x/y values")
            scalars[(a, ahat)] = entry.x
    s51, s52 = scalars[(5, 1)], scalars[(5, 2)]
    s61, s62 = scalars[(6, 1)], scalars[(6, 2)]
    residual = s51 * s62 * (1 - s52 - s61) - s52 * s61 * (1 - s51 - s62)
    return Condition7Result("evaluated", residual=residual)
