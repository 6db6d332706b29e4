"""Call budgets of the hot paths, counted rather than timed.

A survey reads only verdicts, so it must row-reduce nothing and wedge
nothing: the relation space comes from the support of A and witnesses are
derived only when read.  A rendered analysis row-reduces once per
degenerate block, for that block's witness, and nowhere else.
"""

import sys

import pytest

import linearwebs
from linearwebs import FamilySpec, RatMatrix, analyze, forms, survey


@pytest.fixture
def calls(monkeypatch):
    """Count calls to RatMatrix.kernel_basis and forms.wedge, wherever bound."""
    counts = {"kernel_basis": 0, "wedge": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RatMatrix, "kernel_basis",
                        counted("kernel_basis", RatMatrix.kernel_basis))
    original_wedge = forms.wedge
    wrapped_wedge = counted("wedge", original_wedge)
    for name, module in list(sys.modules.items()):
        if name == "linearwebs" or name.startswith("linearwebs."):
            for attr, value in list(vars(module).items()):
                if value is original_wedge:
                    monkeypatch.setattr(module, attr, wrapped_wedge)
    return counts


def test_counters_see_the_calls(calls):
    linearwebs.normals(linearwebs.example_web(1))
    RatMatrix([[1, 1]]).kernel_basis()
    assert calls == {"kernel_basis": 1, "wedge": 6}


def test_survey_row_reduces_and_wedges_nothing(calls):
    survey(FamilySpec("B6"), 20, seed=11)
    assert calls == {"kernel_basis": 0, "wedge": 0}


def test_analysis_reduces_once_per_degenerate_block(calls):
    # B6-shaped: zeros at A[1][3], A[2][1], A[3][2] fail many blocks
    bundle = analyze(RatMatrix([[3, -7, 0], [0, 5, 9], [4, 0, 2]]))
    assert calls["kernel_basis"] == 0
    blocks = len(bundle.audit.strict_degenerate) + len(bundle.audit.pairwise_degenerate)
    assert blocks > 0
    bundle.to_dict()
    bundle.to_dict()
    assert calls == {"kernel_basis": blocks, "wedge": 0}
