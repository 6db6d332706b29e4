"""Call budgets of the hot paths, counted rather than timed.

A survey reads only verdicts, so it must row-reduce nothing and wedge
nothing: the relation space comes from the support of A and witnesses are
derived only when read.  Its general position is one early-exit scan of
the zero minors per web, and it runs no audit; each draw is inverted once.
Its AGW verdict builds no report and no affinor table, and the only
determinant is the published left 3x3 form, the one form it reads.  A
rendered analysis row-reduces once per degenerate block, for that block's
witness, and nowhere else.
"""

import sys

import pytest

import linearwebs
from linearwebs import (FamilySpec, RatMatrix, agw, analyze, coframe, forms, survey,
                        webmodel)
from linearwebs.families import derive_seed
from oracles import sample_draws


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_method(monkeypatch, counts, name):
    monkeypatch.setattr(RatMatrix, name, _counted(counts, name, getattr(RatMatrix, name)))


def _count_function(monkeypatch, counts, name, original):
    """Count calls to a module-level function through every binding of it."""
    wrapper = _counted(counts, name, original)
    for module_name, module in list(sys.modules.items()):
        if module_name == "linearwebs" or module_name.startswith("linearwebs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.fixture
def calls(monkeypatch):
    """Count calls to RatMatrix.kernel_basis and forms.wedge, wherever bound."""
    counts = {"kernel_basis": 0, "wedge": 0}
    _count_method(monkeypatch, counts, "kernel_basis")
    _count_function(monkeypatch, counts, "wedge", forms.wedge)
    return counts


@pytest.fixture
def survey_calls(monkeypatch):
    """Count the zero-minor scans, the audit, det, inverse, the full AGW
    report and the affinor table, wherever bound."""
    counts = {"zero_minors": 0, "general_position_audit": 0, "det": 0, "inverse": 0,
              "agw_test": 0, "basis_affinors": 0}
    for name in ("zero_minors", "det", "inverse"):
        _count_method(monkeypatch, counts, name)
    for name, original in (("general_position_audit", webmodel.general_position_audit),
                           ("agw_test", agw.agw_test),
                           ("basis_affinors", coframe.basis_affinors)):
        _count_function(monkeypatch, counts, name, original)
    return counts


def test_counters_see_the_calls(calls):
    linearwebs.normals(linearwebs.example_web(1))
    RatMatrix([[1, 1]]).kernel_basis()
    assert calls == {"kernel_basis": 1, "wedge": 6}


def test_survey_row_reduces_and_wedges_nothing(calls):
    survey(FamilySpec("B6"), 20, seed=11)
    assert calls == {"kernel_basis": 0, "wedge": 0}


def test_survey_counters_see_the_calls(survey_calls):
    analyze(linearwebs.example_web(1).A)
    assert survey_calls == {"zero_minors": 1, "general_position_audit": 1,
                            "det": 3, "inverse": 2, "agw_test": 1,
                            "basis_affinors": 1}


@pytest.mark.parametrize("spec", [FamilySpec("generic"), FamilySpec("B6"),
                                  FamilySpec("B7", entry_bound=1)],
                         ids=["generic", "B6", "B7-box-1"])
def test_survey_scans_minors_and_inverts_once_per_draw(survey_calls, spec):
    # one scan and one det (the left published form) per web, one inverse
    # per draw; in the box [-1, 1] a B7 draw is often singular, so draws
    # outnumber webs
    survey(spec, 20, seed=11)
    draws = sum(len(sample_draws(spec.n, spec.constraints, spec.entry_bound,
                                 derive_seed(11, i))) for i in range(20))
    assert spec.entry_bound != 1 or draws > 20
    assert survey_calls == {"zero_minors": 20, "general_position_audit": 0,
                            "det": 1 * 20, "inverse": draws, "agw_test": 0,
                            "basis_affinors": 0}


def test_analysis_reduces_once_per_degenerate_block(calls):
    # B6-shaped: zeros at A[1][3], A[2][1], A[3][2] fail many blocks
    bundle = analyze(RatMatrix([[3, -7, 0], [0, 5, 9], [4, 0, 2]]))
    assert calls["kernel_basis"] == 0
    blocks = len(bundle.audit.strict_degenerate) + len(bundle.audit.pairwise_degenerate)
    assert blocks > 0
    bundle.to_dict()
    bundle.to_dict()
    assert calls == {"kernel_basis": blocks, "wedge": 0}
