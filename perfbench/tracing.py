"""Span tracing of linearwebs layers, installed from outside the package.

Inside a ``with Tracer()`` block the public functions listed in ``LAYERS``
are replaced by wrappers that record one span per call (name, parent span,
start and end in ``perf_counter_ns``).  Nothing under ``src/`` knows about
it: every binding of a listed function in a loaded ``linearwebs`` module is
swapped, and leaving the block puts the originals back.  Spans stay in
memory; ``layer_totals`` turns them into calls and self time per layer name
once the traced work is done.

``count_fractions`` counts ``Fraction.__new__`` calls in a separate pass
without spans: the counter adds a Python frame to every Fraction made,
hundreds of thousands per web, and would otherwise be charged to the self
time of whichever traced function makes the Fractions.

A span opened on a worker thread whose own stack is empty takes as parent
the innermost open span of the installing thread: the worker is running
work that span handed to a pool.  Self time is the span's duration minus
the union of the intervals its children cover, so children that overlap on
two threads are not subtracted twice.
"""

from __future__ import annotations

import fractions
import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

# metric prefix -> targets, each "module:attribute" or "module:Class.method".
# A target missing from the package is skipped and its layer reports 0 calls.
LAYERS = {
    "ratlin.det": ["ratlin:RatMatrix.det"],
    "ratlin.inverse": ["ratlin:RatMatrix.inverse"],
    "ratlin.kernel_basis": ["ratlin:RatMatrix.kernel_basis"],
    "ratlin.rank": ["ratlin:RatMatrix.rank"],
    "forms.independent": ["forms:independent"],
    "forms.wedge": ["forms:wedge"],
    "webmodel.build_web": ["webmodel:build_web"],
    "webmodel.general_position_audit": ["webmodel:general_position_audit"],
    "webmodel.closed_form": ["webmodel:closed_form"],
    "abelian.relation_space": ["abelian:relation_space"],
    "abelian.normals": ["abelian:normals"],
    "coframe.adapted_coframe": ["coframe:adapted_coframe"],
    "coframe.expand_foliation": ["coframe:expand_foliation"],
    "coframe.basis_affinors": ["coframe:basis_affinors"],
    "agw.agw_test": ["agw:agw_test"],
    "agw.literal_det": ["agw:literal_det"],
    "agw.affinor_comparison": ["agw:affinor_comparison"],
    "parallel.parallelizability_report": ["parallel:parallelizability_report"],
    "families.sample_matrix": ["families:sample_matrix"],
    "families.survey": ["families:survey"],
    "analysis.analyze": ["analysis:analyze"],
    "analysis.reference_audit": ["analysis:reference_audit"],
    # Rendering: the report objects' to_dict/to_text and the CLI's JSON emit.
    "analysis.render": ["analysis:AnalysisBundle.to_dict",
                        "analysis:AnalysisBundle.to_text",
                        "analysis:ReferenceAuditReport.to_dict",
                        "analysis:ReferenceAuditReport.to_text",
                        "cli:_emit"],
}

FRACTION_NEW = "ratlin.fraction_new"

PACKAGE = "linearwebs"


class Span:
    __slots__ = ("name", "parent", "start", "end")

    def __init__(self, name, parent, start, end=0):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end


def covered_ns(intervals) -> int:
    """Total length of the union of half-open (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Map id(span) -> duration minus the part its children cover, in ns."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children[id(s)]]
        out[id(s)] = (s.end - s.start) - covered_ns(
            (a, b) for a, b in kids if b > a)
    return out


def layer_totals(spans) -> dict:
    """Map span name -> (calls, self time in ns) over finished spans."""
    own = self_times(spans)
    totals = {}
    for s in spans:
        calls, self_ns = totals.get(s.name, (0, 0))
        totals[s.name] = (calls + 1, self_ns + own[id(s)])
    return totals


class Tracer:
    """Records spans for the LAYERS functions while installed."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._root_stack = None
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            span = Span(name, parent, perf_counter_ns())
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                spans.append(span)
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                self._install_target(layer, target, modules)

    def _install_target(self, layer, target, modules) -> None:
        module_name, attr = target.split(":")
        module = sys.modules.get(f"{PACKAGE}.{module_name}")
        if module is None:
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                return
            original = vars(cls)[meth]
            setattr(cls, meth, self._wrap(layer, original))
            self._restore.append((cls, meth, original))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self._wrap(layer, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        """Restore every original binding."""
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self._root_stack = None

    def __enter__(self):
        self.spans.clear()
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()


def count_fractions(work):
    """Run ``work()`` counting ``Fraction.__new__``; return (result, count)."""
    counter = itertools.count()
    original_new = fractions.Fraction.__dict__["__new__"]
    new = original_new.__func__

    def counting_new(cls, *args, **kwargs):
        next(counter)  # itertools.count is atomic under the GIL
        return new(cls, *args, **kwargs)

    fractions.Fraction.__new__ = staticmethod(counting_new)
    try:
        result = work()
    finally:
        fractions.Fraction.__new__ = original_new
    return result, next(counter)
