"""linearwebs: exact construction and audit of linear codimension-two webs.

A nonsingular rational n x n matrix determines 2n foliations of
codimension two on a 2n-dimensional chart.  This package builds such webs
in exact rational arithmetic and provides the verdict machinery around
them: the forced abelian relation and its relation space, the general
position audit, the almost-Grassmann compatibility test with exact
witnesses, parallelizability, parameter-family surveys, and an
audit of three bundled reference examples against their published claims.
"""

from .ratlin import (RatMatrix, ShapeError, SingularMatrixError,
                     format_rational, rational)
from .forms import Chart, ChartMismatchError, OneForm, TwoForm, wedge
from .webmodel import (MAX_ORDER, AuditReport, ClosedFormEquations,
                       DegenerateBlock, LinearWeb, WebConstructionError,
                       build_web, closed_form, general_position_audit,
                       parse_closed_form)
from .abelian import RankReport, abelian_residual, normals, relation_space
from .coframe import (AdaptedCoframe, AffinorEntry, AffinorTable,
                      CoframeDegenerateError, adapted_coframe, basis_affinors,
                      expand_foliation)
from .agw import (AgwReport, Condition7Result, MinorWitness, affinor_comparison,
                  agw_test, cleared_minors, condition7_residual, literal_det,
                  proportionality_minors)
from .parallel import ParallelReport, parallelizability_report
from .families import (FamilySpec, SampleRecord, SurveyStats, derive_seed,
                       example_web, orthogonal_web, sample_family, survey)
from .analysis import (AnalysisBundle, CheckResult, CompatNote,
                       ReferenceAuditReport, analyze, reference_audit)

__version__ = "0.1.0"

__all__ = [
    "RatMatrix", "ShapeError", "SingularMatrixError",
    "format_rational", "rational",
    "Chart", "ChartMismatchError", "OneForm", "TwoForm", "wedge",
    "MAX_ORDER", "AuditReport", "ClosedFormEquations", "DegenerateBlock",
    "LinearWeb",
    "WebConstructionError", "build_web", "closed_form",
    "general_position_audit", "parse_closed_form",
    "RankReport", "abelian_residual", "normals", "relation_space",
    "AdaptedCoframe", "AffinorEntry", "AffinorTable", "CoframeDegenerateError",
    "adapted_coframe", "basis_affinors", "expand_foliation",
    "AgwReport", "Condition7Result", "MinorWitness", "affinor_comparison",
    "agw_test", "cleared_minors", "condition7_residual",
    "literal_det", "proportionality_minors",
    "ParallelReport", "parallelizability_report",
    "FamilySpec", "SampleRecord", "SurveyStats", "derive_seed", "example_web",
    "orthogonal_web", "sample_family", "survey",
    "AnalysisBundle", "CheckResult", "CompatNote", "ReferenceAuditReport",
    "analyze", "reference_audit",
    "__version__",
]
