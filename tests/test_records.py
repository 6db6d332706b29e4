"""The record types: immutable, cheap to import, equal where it matters."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from linearwebs import (Chart, ChartMismatchError, FamilySpec, OneForm, RatMatrix,
                        TwoForm, affinor_comparison, analyze,
                        parallelizability_report, reference_audit, survey, wedge)

ROOT = Path(__file__).resolve().parent.parent

# A zero entry makes the y-block {1, 4, 5} and the x-block {2, 3, 6} fail;
# the gauge is valid and the verdict is not-AGW, with witnesses.
DEGENERATE = [[1, 2, 0], [3, 1, 4], [2, 5, 1]]


def test_import_loads_no_dataclasses_or_thread_pool():
    code = ("import linearwebs, linearwebs.cli, sys; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'concurrent.futures',"
            " 'hashlib', '_hashlib', 'argparse', 'csv', 'json')"
            " if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == ""


def _instances():
    """One instance of every record type, with a public attribute of it."""
    bundle = analyze(RatMatrix(DEGENERATE))
    web = bundle.web
    audit = reference_audit()
    example = audit.examples[0]
    stats = survey(FamilySpec("generic", 3, 1), count=10, seed=0)
    assert stats.anomalies, "the survey must log an anomaly"
    chart = web.chart
    return {
        "RankReport": bundle.rank,
        "MinorWitness": bundle.agw.witnesses[0],
        "Condition7Result": bundle.agw.condition7,
        "AgwReport": bundle.agw,
        "AffinorComparison": affinor_comparison(web)[0],
        "CompatNote": bundle.compat_notes[0],
        "AnalysisBundle": bundle,
        "CheckResult": example.checks[0],
        "ExampleAudit": example,
        "ReferenceAuditReport": audit,
        "AdaptedCoframe": web.coframe,
        "AffinorEntry": web.affinors.entries[0],
        "AffinorTable": web.affinors,
        "SampleRecord": stats.anomalies[0],
        "SurveyStats": stats,
        "ClosedFormEquations": bundle.closed_form,
        "AuditReport": bundle.audit,
        "ParallelReport": bundle.parallelizability,
        "FamilySpec": FamilySpec(),
        "Chart": chart,
        "OneForm": web.dx(4),
        "TwoForm": wedge(web.dx(4), web.dy(4)),
        "LinearWeb": web,
        "DegenerateBlock": bundle.audit.strict_degenerate[0],
    }


INSTANCES = _instances()
PLAIN_ATTRIBUTES = {"ParallelReport": "verdict", "FamilySpec": "n", "Chart": "n",
                    "OneForm": "coeffs", "TwoForm": "coeffs", "LinearWeb": "A",
                    "DegenerateBlock": "block"}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_record_is_immutable(name):
    record = INSTANCES[name]
    assert type(record).__name__ == name
    attribute = PLAIN_ATTRIBUTES.get(name) or record._fields[0]
    before = getattr(record, attribute)
    with pytest.raises(AttributeError):
        setattr(record, attribute, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, attribute) is before


def test_degenerate_blocks_compare_without_their_web():
    first = analyze(RatMatrix(DEGENERATE)).audit.strict_degenerate[0]
    other = analyze(RatMatrix([[1, 2, 0], [3, 1, 4], [2, 5, 7]])).audit.strict_degenerate[0]
    assert first.web is not other.web
    assert first == other and hash(first) == hash(other)


def test_parallel_report_is_truthy():
    assert bool(parallelizability_report(INSTANCES["LinearWeb"]))


def test_forms_compare_by_chart_order_and_coefficients():
    assert Chart(3) == Chart(3) and hash(Chart(3)) == hash(Chart(3)) and Chart(2) != Chart(3)
    coeffs = (1, 0, 2, 0, 0, 0)
    assert OneForm(Chart(3), coeffs) == OneForm(Chart(3), coeffs)
    assert len({OneForm(Chart(3), coeffs), OneForm(Chart(3), coeffs)}) == 1
    assert TwoForm(Chart(2), (1,) * 6) != OneForm(Chart(3), coeffs)
    with pytest.raises(ChartMismatchError):
        OneForm(Chart(2), (1, 0, 0, 0)) + OneForm(Chart(3), coeffs)


@pytest.mark.parametrize("name", sorted(PLAIN_ATTRIBUTES))
def test_plain_classes_pickle_and_copy(name):
    record = INSTANCES[name]
    attribute = PLAIN_ATTRIBUTES[name]
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert repr(getattr(twin, attribute)) == repr(getattr(record, attribute))
        with pytest.raises(AttributeError):
            setattr(twin, attribute, None)
