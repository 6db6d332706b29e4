"""Parameter families, example webs, constructed AGW webs, and seeded surveys.

The named families fix zero entries of A (1-based positions):

    B8: A[1][3] = 0
    B7: A[1][2] = A[1][3] = 0
    B6: A[1][3] = A[2][1] = A[3][2] = 0

"generic" imposes no constraint.  Sampling draws uniform integers from a
box, forces the constrained entries to zero, and rejects singular draws.
Per-sample seeds are derived by hashing (root seed, index), so survey
results are independent of evaluation order and of the --jobs level.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .abelian import relation_space
from .agw import AGW, INDETERMINATE, NOT_AGW, agw_verdict, literal_det
from .published import EXAMPLE_MATRICES
from .ratlin import Frozen, RatMatrix
from .webmodel import MAX_ORDER, LinearWeb, WebConstructionError, build_web

__all__ = [
    "FAMILY_CONSTRAINTS",
    "FamilySpec",
    "SampleRecord",
    "SurveyStats",
    "example_web",
    "sample_family",
    "orthogonal_web",
    "survey",
    "derive_seed",
]

FAMILY_CONSTRAINTS = {
    "generic": (),
    "B8": ((1, 3),),
    "B7": ((1, 2), (1, 3)),
    "B6": ((1, 3), (2, 1), (3, 2)),
}

_SAMPLE_RETRIES = 1000


class FamilySpec(Frozen):
    """A sampling family: name, order, zero constraints, entry box."""

    __slots__ = ("name", "n", "entry_bound")

    def __init__(self, name: str = "generic", n: int = 3, entry_bound: int = 9):
        if name not in FAMILY_CONSTRAINTS:
            raise ValueError(f"unknown family {name!r}; "
                             f"expected one of {sorted(FAMILY_CONSTRAINTS)}")
        if name != "generic" and n != 3:
            raise ValueError(f"family {name} is defined for n = 3 only")
        if n < 1:
            raise ValueError("order must be at least 1")
        if n > MAX_ORDER:
            raise ValueError(f"order {n} is above the limit MAX_ORDER = {MAX_ORDER}")
        if entry_bound < 1:
            raise ValueError("entry bound must be at least 1")
        self._set(name=name, n=n, entry_bound=entry_bound)

    @property
    def constraints(self) -> tuple:
        return FAMILY_CONSTRAINTS[self.name]


def example_web(k: int) -> LinearWeb:
    """One of the three bundled reference webs (k in {1, 2, 3})."""
    if k not in EXAMPLE_MATRICES:
        raise ValueError(f"no example {k}; choose 1, 2 or 3")
    return build_web(RatMatrix(EXAMPLE_MATRICES[k]))


def derive_seed(root: int, *path: int) -> int:
    """Deterministic per-sample seed from a root seed and an index path."""
    import hashlib  # loaded on first use: ``analyze`` and ``verify-paper`` never sample

    text = "/".join(str(p) for p in (root, *path))
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_family(spec: FamilySpec, seed: int) -> LinearWeb:
    """Deterministic-for-seed web of a nonsingular integer matrix satisfying the family.

    Each draw is built into a web at once: a draw is singular exactly when
    its inverse fails, so a singular draw is retried and never row-reduced
    twice.
    """
    rng = random.Random(seed)
    constrained = {(r - 1, c - 1) for r, c in spec.constraints}
    for _ in range(_SAMPLE_RETRIES):
        grid = [[0 if (i, j) in constrained
                 else rng.randint(-spec.entry_bound, spec.entry_bound)
                 for j in range(spec.n)] for i in range(spec.n)]
        try:
            return build_web(RatMatrix(grid))
        except WebConstructionError:
            continue
    raise RuntimeError(f"no nonsingular sample found in {_SAMPLE_RETRIES} draws "
                       f"(family {spec.name}, bound {spec.entry_bound})")


def orthogonal_web(n: int, seed: int, entry_bound: int = 9) -> LinearWeb:
    """Deterministic-for-seed AGW web whose rows are orthogonal under a diagonal form.

    Draws a diagonal D with nonzero entries and n rows from the box
    [-entry_bound, entry_bound], orthogonalizes the rows exactly in
    <v, w> = sum_i v_i D_i w_i (Gram-Schmidt), and scales each row to a
    primitive integer vector, so A D A^T stays diagonal.  A draw with an
    isotropic row, or whose A or B has a zero entry, is retried; the web
    returned has a valid gauge and a fully defined affinor table, and is AGW
    (the proof is in :mod:`linearwebs.agw`).
    """
    FamilySpec(n=n, entry_bound=entry_bound)  # the same order and box checks
    rng = random.Random(seed)
    nonzero = [k for k in range(-entry_bound, entry_bound + 1) if k]
    for _ in range(_SAMPLE_RETRIES):
        D = [rng.choice(nonzero) for _ in range(n)]
        rows, norms = [], []
        for _ in range(n):
            v = [Fraction(rng.randint(-entry_bound, entry_bound)) for _ in range(n)]
            for w, norm in zip(rows, norms):
                t = sum(x * d * y for x, d, y in zip(v, D, w)) / norm
                v = [x - t * y for x, y in zip(v, w)]
            norm = sum(d * x * x for d, x in zip(D, v))
            if norm == 0:
                break
            rows.append(v)
            norms.append(norm)
        else:
            web = build_web(RatMatrix([_primitive(v) for v in rows]))
            if all(x != 0 for M in (web.A, web.B) for row in M.entries() for x in row):
                return web
    raise RuntimeError(f"no orthogonal web without zero entries found in "
                       f"{_SAMPLE_RETRIES} draws (n = {n}, bound {entry_bound})")


def _primitive(v: list) -> list:
    """The integer multiple of a nonzero rational vector with coprime entries."""
    scale = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (scale // x.denominator) for x in v]
    content = gcd(*ints)
    return [x // content for x in ints]


class SampleRecord(NamedTuple):
    """Log line for one survey sample that needs attention downstream."""

    index: int
    relation_dimension: int
    audit_clean: bool
    agw_verdict: str

    def to_dict(self) -> dict:
        return {"index": self.index,
                "relation_dimension": self.relation_dimension,
                "audit_clean": self.audit_clean,
                "agw_verdict": self.agw_verdict}


class SurveyStats(NamedTuple):
    """Aggregated verdicts over a seeded family survey."""

    family: str
    n: int
    entry_bound: int
    samples: int
    seed: int
    not_agw: int
    agw: int
    indeterminate: int
    audit_clean: int
    relation_dim_histogram: dict
    left_det_zero: Optional[int]  # n = 3 only: samples with vanishing left form
    anomalies: tuple = ()  # relation dim >= 2 records

    def to_dict(self) -> dict:
        out = {
            "family": self.family,
            "n": self.n,
            "entry_bound": self.entry_bound,
            "samples": self.samples,
            "seed": self.seed,
            "not_agw": self.not_agw,
            "agw": self.agw,
            "indeterminate": self.indeterminate,
            "audit_clean": self.audit_clean,
            "relation_dim_histogram": {str(k): v for k, v
                                       in sorted(self.relation_dim_histogram.items())},
            "anomalies": [a.to_dict() for a in self.anomalies],
        }
        if self.left_det_zero is not None:
            out["left_det_zero"] = self.left_det_zero
        return out

    def to_text(self) -> str:
        hist = ", ".join(f"dim {k}: {v}" for k, v
                         in sorted(self.relation_dim_histogram.items()))
        lines = [
            f"survey family={self.family} n={self.n} "
            f"box=[-{self.entry_bound},{self.entry_bound}] "
            f"samples={self.samples} seed={self.seed}",
            f"  verdicts: not-AGW {self.not_agw}, AGW {self.agw}, "
            f"indeterminate {self.indeterminate}",
            f"  audit clean: {self.audit_clean}",
            f"  relation dimensions: {hist}",
        ]
        if self.left_det_zero is not None:
            lines.append(f"  vanishing left determinant form: {self.left_det_zero}")
        for a in self.anomalies:
            lines.append(f"  anomaly sample {a.index}: relation dim "
                         f"{a.relation_dimension}, audit clean {a.audit_clean}, "
                         f"verdict {a.agw_verdict}")
        return "\n".join(lines)


def _survey_one(spec: FamilySpec, seed: int, index: int) -> dict:
    # A survey reads the verdict and the left published form only: no
    # witnesses, no other published form, no affinor table.
    web = sample_family(spec, derive_seed(seed, index))
    return {
        "index": index,
        "verdict": agw_verdict(web),
        "audit_clean": web.in_general_position,
        "relation_dim": relation_space(web).dimension,
        "left_zero": literal_det(web, "left") == 0 if spec.n == 3 else None,
    }


def survey(spec: FamilySpec, count: int, seed: int, jobs: int = 1) -> SurveyStats:
    """Run the verdict battery over seeded samples; deterministic for a seed.

    Results are aggregated in sample-index order regardless of ``jobs``.
    """
    if count <= 0:
        raise ValueError("sample count must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs > 1:
        # Imported here, so that `import linearwebs` loads no threading or logging.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                lambda i: _survey_one(spec, seed, i), range(count)))
    else:
        results = [_survey_one(spec, seed, i) for i in range(count)]
    results.sort(key=lambda r: r["index"])

    counts = {NOT_AGW: 0, AGW: 0, INDETERMINATE: 0}
    audit_clean = 0
    histogram: dict = {}
    left_zero = 0 if spec.n == 3 else None
    anomalies = []
    for r in results:
        counts[r["verdict"]] += 1
        audit_clean += r["audit_clean"]
        histogram[r["relation_dim"]] = histogram.get(r["relation_dim"], 0) + 1
        if spec.n == 3 and r["left_zero"]:
            left_zero += 1
        if r["relation_dim"] >= 2:
            anomalies.append(SampleRecord(
                index=r["index"],
                relation_dimension=r["relation_dim"],
                audit_clean=r["audit_clean"],
                agw_verdict=r["verdict"]))
    return SurveyStats(
        family=spec.name,
        n=spec.n,
        entry_bound=spec.entry_bound,
        samples=count,
        seed=seed,
        not_agw=counts[NOT_AGW],
        agw=counts[AGW],
        indeterminate=counts[INDETERMINATE],
        audit_clean=audit_clean,
        relation_dim_histogram=histogram,
        left_det_zero=left_zero,
        anomalies=tuple(anomalies),
    )
