"""Full analysis bundles and the reference-example audit.

``analyze`` composes every report for one web built from a single matrix:
general position audit, constant relation space, compatibility verdict,
parallelizability, closed-form equations, and compatibility notes that
track where the published transcriptions disagree with the derivation.

``reference_audit`` runs the complete battery against the three bundled
example webs and splits its findings into derived-math checks (these must
pass; a failure means the library itself is broken) and literal-claim
comparisons (printed equations and claimed determinant values; mismatches
are recorded, never fatal, because the transcriptions are known to carry
misprints while the underlying mathematics stands).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .abelian import RankReport, abelian_residual, relation_space
from .agw import NOT_AGW, AgwReport, affinor_comparison, agw_test
from .parallel import ParallelReport, parallelizability_report
from .published import (CLAIMED_FAMILY, CLAIMED_LEFT_DET, EXAMPLE_KEYS,
                        EXAMPLE_MATRICES, PRINTED_CLOSED_FORMS)
from .families import FAMILY_CONSTRAINTS
from .ratlin import RatMatrix, format_rational, rational
from .webmodel import (AuditReport, ClosedFormEquations, LinearWeb,
                       build_web, closed_form, general_position_audit)

__all__ = [
    "CompatNote",
    "AnalysisBundle",
    "analyze",
    "CheckResult",
    "ExampleAudit",
    "ReferenceAuditReport",
    "reference_audit",
]

_SUM_READING_NOTE = (
    "the forced abelian relation is the vanishing of the SUM of the 2n web "
    "normals; the per-foliation reading (each normal vanishing on its own) "
    "is unsatisfiable for nondegenerate foliation pairs and is not used")


class CompatNote(NamedTuple):
    """One literal-vs-derived observation for the compatibility section."""

    topic: str
    detail: str
    data: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"topic": self.topic, "detail": self.detail}
        if self.data is not None:
            out["data"] = self.data
        return out


def _compat_notes(web: LinearWeb, agw_report: AgwReport) -> tuple:
    notes = [CompatNote("abelian-identity-reading", _SUM_READING_NOTE)]
    if web.n == 3:
        comparison = affinor_comparison(web)
        mismatches = [c.to_dict() for c in comparison if not c.match]
        notes.append(CompatNote(
            "affinor-transcription",
            f"{len(mismatches)} of {len(comparison)} published affinor formulas "
            "disagree with the derived scalars on this web",
            {"mismatches": mismatches}))
        dets = agw_report.literal_dets
        flags = {name: (value == 0) for name, value in dets.items()}
        agree = len(set(flags.values())) == 1
        notes.append(CompatNote(
            "determinant-forms-agreement",
            "the three published determinant forms "
            + ("agree" if agree else "DISAGREE") + " in vanishing on this web",
            {"values": {k: format_rational(v) for k, v in dets.items()},
             "vanishing": flags}))
    return tuple(notes)


class AnalysisBundle(NamedTuple):
    """Every report for one web, all derived from the same LinearWeb instance."""

    matrix: RatMatrix
    web: LinearWeb
    audit: AuditReport
    rank: RankReport
    agw: AgwReport
    parallelizability: ParallelReport
    closed_form: ClosedFormEquations
    compat_notes: tuple

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.to_json(),
            "n": self.web.n,
            "determinant": format_rational(self.matrix.det()),
            "closed_form": self.closed_form.to_dict(),
            "audit": self.audit.to_dict(),
            "relation_space": self.rank.to_dict(),
            "agw": self.agw.to_dict(),
            "parallelizability": self.parallelizability.to_dict(),
            "compatibility_notes": [n.to_dict() for n in self.compat_notes],
        }

    def to_text(self) -> str:
        parts = [
            f"web of order n={self.web.n}, det(A) = {format_rational(self.matrix.det())}",
            "",
            "closed form:",
            self.closed_form.to_text(),
            "",
            self.audit.to_text(),
            "",
            self.rank.to_text(),
            "",
            self.agw.to_text(),
            "",
            self.parallelizability.to_text(),
            "",
            "compatibility notes:",
        ]
        for note in self.compat_notes:
            parts.append(f"  [{note.topic}] {note.detail}")
        return "\n".join(parts)


def analyze(A: RatMatrix) -> AnalysisBundle:
    """Build one web and every report for it."""
    web = build_web(A)
    agw_report = agw_test(web)
    return AnalysisBundle(
        matrix=web.A,
        web=web,
        audit=general_position_audit(web),
        rank=relation_space(web),
        agw=agw_report,
        parallelizability=parallelizability_report(web),
        closed_form=closed_form(web),
        compat_notes=_compat_notes(web, agw_report),
    )


# ---------------------------------------------------------------------------
# reference example audit


class CheckResult(NamedTuple):
    """One named check: derived checks gate the exit code, literal ones do not."""

    name: str
    kind: str  # "derived" | "literal"
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "passed": self.passed, "detail": self.detail}

    def to_text(self) -> str:
        if self.kind == "derived":
            tag = "PASS" if self.passed else "FAIL"
        else:
            tag = "MATCH" if self.passed else "MISMATCH"
        return f"  [{tag}] {self.name}: {self.detail}"


class ExampleAudit(NamedTuple):
    key: int
    bundle: AnalysisBundle
    checks: tuple

    @property
    def derived_ok(self) -> bool:
        return all(c.passed for c in self.checks if c.kind == "derived")

    def to_dict(self) -> dict:
        return {
            "example": self.key,
            "matrix": self.bundle.matrix.to_json(),
            "checks": [c.to_dict() for c in self.checks],
            "analysis": self.bundle.to_dict(),
        }


class ReferenceAuditReport(NamedTuple):
    examples: tuple

    @property
    def derived_ok(self) -> bool:
        return all(e.derived_ok for e in self.examples)

    def to_dict(self) -> dict:
        return {
            "derived_checks_pass": self.derived_ok,
            "examples": [e.to_dict() for e in self.examples],
        }

    def to_text(self) -> str:
        lines = ["reference example audit"]
        for e in self.examples:
            lines.append(f"example {e.key}: A = {e.bundle.matrix.to_json()}")
            lines.extend(c.to_text() for c in e.checks)
        lines.append("derived-math checks: "
                     + ("all pass" if self.derived_ok else "FAILURES PRESENT"))
        lines.append("(literal mismatches reflect misprints in the published "
                     "transcriptions; see the compatibility notes)")
        return "\n".join(lines)


def _closed_form_comparison(key: int, derived: ClosedFormEquations) -> tuple:
    """Per-line comparison against the printed equations; (#mismatch, detail)."""
    printed = PRINTED_CLOSED_FORMS[key]
    mismatches = []
    for letter, rows in (("x", derived.x_rows), ("y", derived.y_rows)):
        for a, row in enumerate(rows):
            stated = tuple(rational(c) for c in printed[letter][a])
            if tuple(row) != stated:
                mismatches.append(
                    f"{letter}{derived.n + a + 1}: derived "
                    f"({', '.join(format_rational(c) for c in row)}) vs printed "
                    f"({', '.join(format_rational(c) for c in stated)})")
    return mismatches


def _family_membership(key: int, A: RatMatrix) -> bool:
    constraints = FAMILY_CONSTRAINTS[CLAIMED_FAMILY[key]]
    return all(A[r - 1, c - 1] == 0 for r, c in constraints)


def _example_checks(key: int, bundle: AnalysisBundle) -> tuple:
    checks = []
    web = bundle.web

    recon_A, recon_B = bundle.closed_form.matrix_pair()
    checks.append(CheckResult(
        "closed-form round trip", "derived",
        recon_A == web.A and recon_B == web.B,
        "re-substituting the equations reproduces A and its inverse exactly"))

    residual = abelian_residual(web, [1] * (2 * web.n))
    checks.append(CheckResult(
        "forced abelian relation", "derived", residual.is_zero,
        "the sum of the 2n web normals vanishes exactly"))

    rank = bundle.rank
    checks.append(CheckResult(
        "relation space", "derived",
        rank.dimension >= 1 and any(all(c == 1 for c in v) for v in rank.basis),
        f"dimension {rank.dimension}, all-ones vector present"))

    agw_report = bundle.agw
    witness = agw_report.witnesses[0] if agw_report.witnesses else None
    checks.append(CheckResult(
        "not almost Grassmannizable", "derived",
        agw_report.verdict == NOT_AGW and witness is not None,
        (f"witness minor a={witness.a} ({witness.beta},{witness.gamma}) = "
         f"{format_rational(witness.value)}" if witness else "no witness found")))

    checks.append(CheckResult(
        "parallelizable", "derived",
        bundle.parallelizability.verdict == "parallelizable",
        "all four flags true"))

    mismatch_lines = _closed_form_comparison(key, bundle.closed_form)
    checks.append(CheckResult(
        "printed closed-form equations", "literal", not mismatch_lines,
        "all printed lines reproduced" if not mismatch_lines
        else "; ".join(mismatch_lines)))

    computed = agw_report.literal_dets["left"]
    claimed = Fraction(CLAIMED_LEFT_DET[key])
    checks.append(CheckResult(
        "claimed left determinant", "literal", computed == claimed,
        f"computed {format_rational(computed)}, claimed {format_rational(claimed)}"))

    member = _family_membership(key, web.A)
    checks.append(CheckResult(
        "claimed family membership", "literal", member,
        f"stated family {CLAIMED_FAMILY[key]} "
        + ("constraints hold" if member else "constraints violated")))

    return tuple(checks)


def reference_audit() -> ReferenceAuditReport:
    """Run the complete battery on the three bundled examples."""
    audits = []
    for key in EXAMPLE_KEYS:
        bundle = analyze(RatMatrix(EXAMPLE_MATRICES[key]))
        audits.append(ExampleAudit(key=key, bundle=bundle,
                                   checks=_example_checks(key, bundle)))
    return ReferenceAuditReport(examples=tuple(audits))
