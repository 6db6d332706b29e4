"""The benchmark's workloads: inputs, the timed operation, and output checks.

Each workload is one kind of operation a user runs, on inputs derived from
the benchmark seed alone:

- ``prepare`` builds the input of operation ``i`` (untimed);
- ``op`` is the timed call into the public API or the in-process CLI;
- ``check`` returns failure messages for one output (untimed); ``deep``
  checks compare against the independent oracles in ``tests/oracles.py``
  and run on the first few operations only, because the oracles cost about
  as much as the library;
- ``gate`` runs once, on operation 0, for checks that need an extra call;
- ``matrices`` lists the matrices an input covers, for workload-property
  shares in the traced run.

Every input is fresh: no operation sees a matrix an earlier one saw, so a
cache across calls cannot make a run look faster than a user's first call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(ROOT / "src"))
import linearwebs as lw  # noqa: E402
import linearwebs.cli as cli  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

# sha256 of `linearwebs verify-paper --json` stdout, pinned at the commit
# that introduced the benchmark; any byte change in the audit fails it.
VERIFY_PAPER_SHA256 = (
    "f9f03b105c6766663d6afa91ca256cdc7dd5632f753c933a24d50c8e70f16a89")

# Samples per survey call.  Users survey more per call (300 in the demos,
# 1000 in the README), but a call must stay short, about 0.15 s here, for
# the reference samples around it to see the machine at the speed the call
# saw (speed.py): on 2 shared cores that speed swings by 30% within a
# second.  At 300 samples per call, five seeds of survey-generic-jobs2
# spread 12.7% in latency_ms, against 6.2% at 25.  The per-call cost that
# 25 leaves in, starting the jobs=2 thread pool, is about 0.4 ms, 0.3% of
# a call.
SURVEY_COUNT = 25
ENTRY_BOUND = 9


def derive(*parts) -> int:
    """Benchmark-side seed derivation, independent of the library's."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def run_cli(argv) -> tuple:
    """Run the CLI in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _fractions(A) -> list:
    return [[Fraction(x) for x in row] for row in A]


def _all_ones_in(basis, width) -> bool:
    """Whether the all-ones vector lies in the span of a relation basis.

    Above dimension 1 the normalized basis need not list it as a vector:
    it can be the sum of two basis vectors.
    """
    vectors = [[Fraction(c) for c in v] for v in basis]
    if not vectors or any(len(v) != width for v in vectors):
        return False
    return oracles.rank(vectors) == oracles.rank(vectors + [[Fraction(1)] * width])


class Workload:
    name = ""
    webs_per_op = 1
    trace_ops = 1     # operations in the traced pass
    deep_checks = 1   # operations whose output is checked against oracles

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def teardown(self, state: dict) -> None:
        pass

    def warmup(self, state: dict) -> None:
        run_cli(["verify-paper", "--json"])

    def prepare(self, state: dict, i: int):
        raise NotImplementedError

    def op(self, state: dict, inp):
        raise NotImplementedError

    def check(self, state: dict, inp, out, deep: bool) -> list:
        return []

    def gate(self, state: dict, inp, out) -> list:
        return []

    def matrices(self, state: dict, inp) -> list:
        raise NotImplementedError


class Survey(Workload):
    """`survey(FamilySpec(family, 3, 9), 25, seed_i, jobs)` per operation."""

    webs_per_op = SURVEY_COUNT
    trace_ops = 4
    deep_checks = 8

    def __init__(self, name, family, jobs):
        self.name, self.family, self.jobs = name, family, jobs

    def setup(self, seed):
        return {"seed": seed,
                "spec": lw.FamilySpec(self.family, n=3, entry_bound=ENTRY_BOUND)}

    def warmup(self, state):
        lw.survey(state["spec"], count=5, seed=0, jobs=self.jobs)

    def prepare(self, state, i):
        # Keyed by family, not workload name: both generic workloads see the
        # same samples for a seed, so their figures compare jobs levels alone.
        return derive("survey", self.family, state["seed"], i)

    def op(self, state, survey_seed):
        return lw.survey(state["spec"], count=SURVEY_COUNT, seed=survey_seed,
                         jobs=self.jobs)

    def _webs(self, state, survey_seed):
        return [lw.sample_family(state["spec"], lw.derive_seed(survey_seed, i))
                for i in range(SURVEY_COUNT)]

    def matrices(self, state, survey_seed):
        return [web.A for web in self._webs(state, survey_seed)]

    def check(self, state, survey_seed, stats, deep):
        errors = []
        spec = state["spec"]
        if (stats.family, stats.n, stats.samples, stats.seed) != (
                spec.name, spec.n, SURVEY_COUNT, survey_seed):
            errors.append("survey echoes the wrong family, order, count or seed")
        if stats.not_agw + stats.agw + stats.indeterminate != SURVEY_COUNT:
            errors.append("verdict counts do not sum to the sample count")
        if sum(stats.relation_dim_histogram.values()) != SURVEY_COUNT:
            errors.append("relation-dimension histogram does not sum to the count")
        if min(stats.relation_dim_histogram, default=0) < 1:
            errors.append("a sample has no constant relation")
        if not deep:
            return errors
        clean = 0
        for web in self._webs(state, survey_seed):
            grid = _fractions(web.A.entries())
            clean += not oracles.enumerate_degenerate_blocks(grid, spec.n)
            if not _all_ones_in(lw.relation_space(web).basis, 2 * spec.n):
                errors.append("relation space lacks the all-ones vector")
        if clean != stats.audit_clean:
            errors.append(f"audit_clean {stats.audit_clean}, oracle recount {clean}")
        return errors

    def gate(self, state, survey_seed, stats):
        other = 2 if self.jobs == 1 else 1
        again = lw.survey(state["spec"], count=SURVEY_COUNT, seed=survey_seed,
                          jobs=other)
        same = (json.dumps(again.to_dict(), sort_keys=True)
                == json.dumps(stats.to_dict(), sort_keys=True)
                and again.to_text() == stats.to_text())
        return [] if same else [f"survey output differs between jobs={self.jobs} "
                                f"and jobs={other}"]


class VerifyPaper(Workload):
    """In-process `linearwebs verify-paper --json`."""

    name = "verify-paper"
    webs_per_op = 3
    trace_ops = 20
    deep_checks = 0

    def prepare(self, state, i):
        return None

    def op(self, state, inp):
        return run_cli(["verify-paper", "--json"])

    def check(self, state, inp, out, deep):
        code, text = out
        errors = [] if code == 0 else [f"verify-paper exited {code}"]
        if hashlib.sha256(text.encode()).hexdigest() != VERIFY_PAPER_SHA256:
            errors.append("verify-paper --json output differs from the pinned digest")
        return errors

    def matrices(self, state, inp):
        return [lw.example_web(k).A for k in (1, 2, 3)]


class Analyze(Workload):
    """In-process `linearwebs analyze <file> --json` on a seeded generic matrix."""

    def __init__(self, n, trace_ops, deep_checks):
        self.n = n
        self.name = f"analyze-n{n}"
        self.trace_ops = trace_ops
        self.deep_checks = deep_checks

    def setup(self, seed):
        directory = WORK_DIR / f"{self.name}-{os.getpid()}"
        directory.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "dir": directory}

    def teardown(self, state):
        shutil.rmtree(state["dir"], ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    def prepare(self, state, i):
        rng = random.Random(derive(self.name, state["seed"], i))
        while True:
            grid = [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(self.n)]
                    for _ in range(self.n)]
            if oracles.det_cofactor(grid) != 0:
                break
        path = state["dir"] / f"m{i}.json"
        path.write_text(json.dumps(grid))
        return grid, str(path)

    def op(self, state, inp):
        return run_cli(["analyze", inp[1], "--json"])

    def matrices(self, state, inp):
        return [lw.RatMatrix(inp[0])]

    def check(self, state, inp, out, deep):
        grid, _ = inp
        code, text = out
        if code != 0:
            return [f"analyze exited {code}"]
        n = self.n
        A = _fractions(grid)
        data = json.loads(text)
        errors = []
        if [[Fraction(x) for x in row] for row in data["matrix"]] != A or data["n"] != n:
            errors.append("analyze echoes the wrong matrix")
        if Fraction(data["determinant"]) != oracles.det_cofactor(A):
            errors.append("determinant differs from cofactor expansion")
        cf = data["closed_form"]
        x_rows = [[Fraction(c) for c in cf["x"][f"x{n + a + 1}"]] for a in range(n)]
        B = [[-Fraction(c) for c in cf["y"][f"y{n + a + 1}"]] for a in range(n)]
        if x_rows != [list(col) for col in zip(*A)]:
            errors.append("closed-form x rows are not the columns of A")
        product = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
        if product != [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]:
            errors.append("closed-form y rows are not the negated rows of A^-1")
        if not _all_ones_in(data["relation_space"]["basis"], 2 * n):
            errors.append("relation space lacks the all-ones vector")
        if data["parallelizability"]["verdict"] != "parallelizable":
            errors.append("constant-coefficient web not reported parallelizable")
        if deep:
            errors.extend(self._audit_errors(A, data["audit"]))
        return errors

    def _audit_errors(self, A, audit) -> list:
        n = self.n
        expected = oracles.enumerate_degenerate_blocks(A, n)
        found = {(tuple(d["foliations"]), d["block"])
                 for d in audit["strict_degenerate"]}
        errors = []
        if found != expected or audit["general_position"] != (not expected):
            errors.append("strict degenerate blocks differ from the oracle")
        for d in audit["strict_degenerate"]:
            dep = [Fraction(c) for c in d["dependency"]]
            vecs = [_block_vector(A, xi, d["block"]) for xi in d["foliations"]]
            combo = [sum(c * v[k] for c, v in zip(dep, vecs)) for k in range(n)]
            if not any(dep) or any(combo):
                errors.append(f"dependency of block {d['foliations']} is not one")
        return errors


def _block_vector(A, xi, block) -> list:
    """Defining x- or y-form of foliation xi on its chart factor (as the oracle)."""
    n = len(A)
    if block == "x":
        return ([Fraction(int(i == xi - 1)) for i in range(n)] if xi <= n
                else [A[i][xi - n - 1] for i in range(n)])
    return ([-A[xi - 1][j] for j in range(n)] if xi <= n
            else [Fraction(int(j == xi - n - 1)) for j in range(n)])


WORKLOADS = {w.name: w for w in (
    Survey("survey-generic", "generic", 1),
    Survey("survey-generic-jobs2", "generic", 2),
    Survey("survey-b6", "B6", 1),
    VerifyPaper(),
    Analyze(4, trace_ops=20, deep_checks=16),
    Analyze(5, trace_ops=4, deep_checks=4),
    Analyze(6, trace_ops=1, deep_checks=1),
)}
