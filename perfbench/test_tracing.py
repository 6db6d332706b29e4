"""Tests of the benchmark's own span arithmetic and output contract.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_tracing.py
"""

import json
import subprocess
import sys
from pathlib import Path

from tracing import (Span, Tracer, count_fractions, covered_ns, layer_totals,
                     self_times)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_covered_ns_merges_overlaps_and_gaps():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert covered_ns([(20, 25), (0, 10), (2, 4)]) == 15


def test_self_time_of_a_nested_tree():
    root = Span("root", None, 0, 100)
    a = Span("a", root, 10, 40)
    a1 = Span("a1", a, 15, 25)
    b = Span("b", root, 50, 70)
    spans = [a1, a, b, root]
    own = self_times(spans)
    assert [own[id(s)] for s in (root, a, a1, b)] == [50, 20, 10, 20]
    # Self times of a single-threaded tree add up to the root's duration.
    assert sum(own.values()) == root.end - root.start


def test_overlapping_children_are_subtracted_once():
    # Two pool threads run children of the same span at once.
    root = Span("survey", None, 0, 100)
    spans = [root, Span("w", root, 10, 60), Span("w", root, 40, 90)]
    assert self_times(spans)[id(root)] == 20


def test_child_outliving_its_parent_is_clipped():
    parent = Span("p", None, 0, 50)
    spans = [parent, Span("c", parent, 40, 70)]
    assert self_times(spans)[id(parent)] == 40


def test_layer_totals_sum_calls_and_self_time_per_name():
    root = Span("x", None, 0, 30)
    spans = [root, Span("y", root, 0, 10), Span("y", root, 20, 25)]
    assert layer_totals(spans) == {"x": (1, 15), "y": (2, 15)}


def test_tracer_restores_the_package_and_counts_calls():
    sys.path.insert(0, str(ROOT / "src"))
    import linearwebs as lw
    from linearwebs import webmodel

    originals = (lw.RatMatrix.det, lw.build_web, webmodel.build_web)

    def work():
        return lw.build_web(lw.RatMatrix([[1, 2], [3, 4]])).A.det()

    with Tracer() as tracer:
        value = work()
    totals = layer_totals(tracer.spans)
    assert value == -2
    assert totals["webmodel.build_web"][0] == 1
    assert totals["ratlin.inverse"][0] == 1
    assert totals["ratlin.det"][0] == 1
    assert (lw.RatMatrix.det, lw.build_web, webmodel.build_web) == originals


def test_fraction_count_repeats_and_is_removed():
    from fractions import Fraction

    original = Fraction.__dict__["__new__"]

    def work():
        return sum(Fraction(i, 3) for i in range(10))

    first = count_fractions(work)
    assert first == count_fractions(work)
    assert first[0] == 15 and first[1] >= 10
    assert Fraction.__dict__["__new__"] is original


def _result(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-paper",
         "--seed", "3", *args], cwd=ROOT, capture_output=True, text=True,
        timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs_emit_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result = _result("--seconds", "1", "--trace", trace)
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared
