"""Parallelizability of the constant-coefficient web family.

Every web of this family is parallelizable, for one structural reason.
Its defining forms dx^xi and dy_xi have constant coefficients in the chart
basis, so every form is closed.  Closed forms fed into the web's structure
equations force the connection forms and the torsion tensor to zero.  The
basis affinors are a function of A alone, never of a chart point, so they
are covariantly constant.  Nothing in the argument depends on which A
defines the web, so the report derives nothing per web.  It covers only
this constant-coefficient family, not the general criterion for curved
webs.
"""

from __future__ import annotations

from .webmodel import LinearWeb

__all__ = ["ParallelReport", "parallelizability_report"]

#: The steps of the argument, in the order the reports list them.
_CONSEQUENCES = ("forms_closed", "connection_zero", "torsion_zero",
                 "affinors_constant")


class ParallelReport:
    """The structural parallelizability argument, as a report.

    Constant coefficients make every form closed (``forms_closed``), which
    forces connection and torsion to zero (``connection_zero``,
    ``torsion_zero``); the affinors are a function of A alone
    (``affinors_constant``).  Each step holds for every web of the family,
    so the reports list all four as true and the verdict is always
    "parallelizable".
    """

    __slots__ = ()
    verdict = "parallelizable"
    scope_note = ("checks instantiate the constant-coefficient "
                  "family only; curved webs are out of scope")

    def to_dict(self) -> dict:
        out = dict.fromkeys(_CONSEQUENCES, True)
        out.update(verdict=self.verdict, scope_note=self.scope_note)
        return out

    def to_text(self) -> str:
        steps = ", ".join(f"{name}=True" for name in _CONSEQUENCES)
        return f"parallelizability: {self.verdict} ({steps})"


def parallelizability_report(web: LinearWeb) -> ParallelReport:
    """The parallelizability report of a web of this family.

    The report is the same for every web: the module docstring states the
    argument, and no quantity of ``web`` enters it.
    """
    return ParallelReport()
