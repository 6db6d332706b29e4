"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance here is exactness (==); run with ``pytest -s`` to see the
per-criterion lines.  Criterion 3 is expected to FAIL for examples 2 and 3:
three printed reference lines (x5 and y6 of example 2, y4 of example 3) are
misprints, provably inconsistent with their own defining matrices, so no
correct implementation can reproduce them.  The failure is kept honest and
fully diagnosed rather than hidden; see README and the compatibility
reports.
"""

import random
import time
from fractions import Fraction

import pytest

from linearwebs import (FamilySpec, OneForm, RatMatrix, abelian_residual,
                        adapted_coframe, agw_test, basis_affinors, build_web,
                        closed_form, condition7_residual, example_web,
                        expand_foliation, general_position_audit, literal_det,
                        orthogonal_web, parallelizability_report,
                        relation_space, sample_family, survey, wedge)
from linearwebs.families import derive_seed
from linearwebs.published import CLAIMED_LEFT_DET, PRINTED_CLOSED_FORMS
from linearwebs.ratlin import rational

from oracles import enumerate_degenerate_blocks, rank as rank_oracle


def _line(number: int, ok: bool, summary: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[CRITERION {number:2d}] {verdict} ({time.time() - started:.2f}s) {summary}")


def _rand_nonsingular(rng, n, bound=9):
    while True:
        A = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if A.det() != 0:
            return A


def _strict_failures(audit):
    return {(d.foliations, d.block) for d in audit.strict_degenerate}


def _scale(A, c):
    return RatMatrix([[c * x for x in row] for row in A.entries()])


def test_criterion_01_abelian_identity_all_orders():
    """All-ones residual vanishes exactly: 200 seeded webs per n in 2..5."""
    t0 = time.time()
    failures = 0
    for n in (2, 3, 4, 5):
        spec = FamilySpec("generic", n=n)
        for i in range(200):
            web = sample_family(spec, derive_seed(101, n, i))
            if not abelian_residual(web, [1] * (2 * n)).is_zero:
                failures += 1
    ok = failures == 0
    _line(1, ok, f"800 webs across n in {{2,3,4,5}}, {failures} nonzero residuals", t0)
    assert ok


def test_criterion_02_rank_bound_generic_order_3():
    """Relation dimension 1 in >= 95 of 100 seeded generic samples."""
    t0 = time.time()
    spec = FamilySpec("generic", n=3, entry_bound=9)
    dim_one = 0
    anomalies = []
    for i in range(100):
        web = sample_family(spec, derive_seed(202, i))
        report = relation_space(web)
        if report.dimension == 1:
            dim_one += 1
        if report.dimension >= 2:
            clean = general_position_audit(web).general_position
            verdict = agw_test(web).verdict
            anomalies.append((i, report.dimension, clean, verdict))
            print(f"  logged dim-{report.dimension} sample {i}: "
                  f"audit clean={clean}, verdict={verdict}")
    ok = dim_one >= 95
    for i, dim, clean, verdict in anomalies:
        # inflation must coincide with degeneracy or a vanished obstruction
        ok = ok and ((not clean) or verdict != "not-AGW")
    _line(2, ok, f"dimension 1 in {dim_one}/100 samples, "
          f"{len(anomalies)} anomalies logged", t0)
    assert dim_one >= 95
    for i, dim, clean, verdict in anomalies:
        assert (not clean) or verdict != "not-AGW"


@pytest.mark.parametrize("key", [1, 2, 3])
def test_criterion_03_closed_forms_match_printed(key):
    """Closed forms must equal the printed reference equations exactly.

    UNATTAINABLE for keys 2 and 3: the printed x5/y6 (example 2) and y4
    (example 3) lines contradict the defining relations applied to their
    own printed matrices, so these two parametrizations fail honestly.
    """
    t0 = time.time()
    cf = closed_form(example_web(key))
    printed = PRINTED_CLOSED_FORMS[key]
    diffs = []
    for letter, rows in (("x", cf.x_rows), ("y", cf.y_rows)):
        for a, row in enumerate(rows):
            stated = tuple(rational(c) for c in printed[letter][a])
            if tuple(row) != stated:
                diffs.append(f"{letter}{cf.n + a + 1}: derived {tuple(map(str, row))} "
                             f"!= printed {tuple(map(str, stated))}")
    ok = not diffs
    _line(3, ok, f"example {key}: " + ("all 6 printed lines reproduced"
          if ok else "; ".join(diffs)), t0)
    assert ok, (f"printed reference lines for example {key} are misprinted: "
                + "; ".join(diffs))


def test_criterion_04_not_agw_with_witnesses():
    """Examples 1-3 are not-AGW with exact witnesses; example 1 scalars check."""
    t0 = time.time()
    details = []
    ok = True
    for k in (1, 2, 3):
        report = agw_test(example_web(k))
        good = report.verdict == "not-AGW" and report.witnesses and \
            all(w.value != 0 for w in report.witnesses)
        ok = ok and good
        w = report.witnesses[0]
        details.append(f"ex{k} witness a={w.a}({w.beta},{w.gamma})="
                       f"{w.value}")
    web = example_web(1)
    u, v = expand_foliation(web, adapted_coframe(web), 5)
    ok = ok and u == (1, 1, 2) and v == (0, -1, -1)
    entry = basis_affinors(web).entry(5, 1)
    pair_ok = (entry.x, entry.y) == (Fraction(1, 2), Fraction(0))
    ok = ok and pair_ok
    _line(4, ok, "; ".join(details) + f"; ex1 lambda_51=({entry.x}, {entry.y})", t0)
    assert ok


def test_criterion_05_genericity_survey():
    """1000 seeded generic samples: not-AGW in >= 99%.

    The criterion fixes no sampling box.  The assertion uses entries in
    [-50, 50]: wide enough that the small-integer coincidence strata are
    negligible.  At the narrow [-9, 9] box those coincidences produce
    position-degenerate non-webs (every such sample fails the audit; the
    companion run below prints the evidence), which depresses the raw rate
    without containing a single genuine counterexample.
    """
    t0 = time.time()
    stats = survey(FamilySpec("generic", n=3, entry_bound=50),
                   count=1000, seed=7)
    ok = stats.not_agw >= 990

    companion = survey(FamilySpec("generic", n=3, entry_bound=9),
                       count=200, seed=7)
    degenerate_exceptions = 0
    for i in range(200):
        web = sample_family(FamilySpec("generic", n=3, entry_bound=9),
                            derive_seed(7, i))
        if agw_test(web).verdict != "not-AGW":
            if not general_position_audit(web).general_position:
                degenerate_exceptions += 1
    exceptions = 200 - companion.not_agw
    print(f"  companion [-9,9] box: {companion.not_agw}/200 not-AGW; "
          f"{degenerate_exceptions}/{exceptions} exceptions fail the audit")
    _line(5, ok, f"[-50,50] box: {stats.not_agw}/1000 not-AGW "
          f"(AGW {stats.agw}, indeterminate {stats.indeterminate})", t0)
    assert ok
    assert degenerate_exceptions == exceptions


def test_criterion_06_literal_determinant_claims():
    """Left-form values recorded against claims; derived obstruction nonzero."""
    t0 = time.time()
    expected_match = {1: False, 2: True, 3: False}
    computed = {}
    ok = True
    for k in (1, 2, 3):
        web = example_web(k)
        value = literal_det(web, "left")
        computed[k] = value
        claimed = Fraction(CLAIMED_LEFT_DET[k])
        ok = ok and ((value == claimed) == expected_match[k])
        report = agw_test(web)
        ok = ok and report.verdict == "not-AGW" and report.witnesses
    summary = ", ".join(
        f"ex{k}: computed {computed[k]} vs claimed {CLAIMED_LEFT_DET[k]} "
        f"({'match' if computed[k] == CLAIMED_LEFT_DET[k] else 'mismatch'})"
        for k in (1, 2, 3))
    _line(6, ok, summary + "; obstructions nonzero on all three", t0)
    assert ok


def test_criterion_07_parallelizability():
    """Verdict parallelizable on the examples and 100 random webs, n in 2..4."""
    t0 = time.time()
    ok = all(parallelizability_report(example_web(k)).verdict == "parallelizable"
             for k in (1, 2, 3))
    count = 0
    for n, quota in ((2, 34), (3, 33), (4, 33)):
        spec = FamilySpec("generic", n=n)
        for i in range(quota):
            web = sample_family(spec, derive_seed(707, n, i))
            ok = ok and parallelizability_report(web).verdict == "parallelizable"
            count += 1
    _line(7, ok, f"examples 1-3 and {count} random webs all parallelizable", t0)
    assert ok


def test_criterion_08_search_witnesses_and_identity():
    """Constructed AGW webs: a direct product and rows orthogonal under a
    diagonal form; the scalar identity and the right form vanish there."""
    t0 = time.time()
    diagonal = RatMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    ok = agw_test(build_web(diagonal)).verdict == "AGW"

    residuals = []
    for seed in (0, 1, 2):
        web = orthogonal_web(3, seed)
        table = basis_affinors(web)
        ok = ok and table.fully_defined and agw_test(web).verdict == "AGW"
        result = condition7_residual(table)
        ok = ok and result.status == "evaluated" and result.residual == 0
        ok = ok and literal_det(web, "right") == 0
        residuals.append(result.residual)
    _line(8, ok, f"diagonal witness {diagonal.to_json()}; {len(residuals)} "
          f"defined-scalar witnesses, residuals {residuals}", t0)
    assert ok


def test_criterion_09_general_position_audit():
    """Example 1 shows the named degeneracies; example 2's verdict is recorded
    and agrees with the independent enumeration oracle.

    Note: the oracle refutes the expectation that example 2 is clean; its
    own closed form contains x4 = x1 + x3, which makes the {1, 3, 4}
    x-block degenerate.  Recording the truthful verdict is the contract.
    """
    t0 = time.time()
    audit1 = general_position_audit(example_web(1))
    failures1 = _strict_failures(audit1)
    ok = ((2, 3, 6), "x") in failures1 and ((1, 2, 6), "y") in failures1

    web2 = example_web(2)
    audit2 = general_position_audit(web2)
    grid = [[web2.A[i, j] for j in range(3)] for i in range(3)]
    oracle = enumerate_degenerate_blocks(grid, 3)
    ok = ok and _strict_failures(audit2) == oracle
    verdict2 = "clean" if audit2.general_position else \
        f"degenerate ({len(audit2.strict_degenerate)} blocks)"
    print(f"  example 2 recorded verdict: {verdict2} "
          "(the stated 'expected clean' is refuted by the oracle itself)")
    _line(9, ok, "example 1 degeneracies include {2,3,6}x and {1,2,6}y; "
          f"example 2 verdict recorded: {verdict2}, oracle agreement exact", t0)
    assert ok


def test_criterion_10_property_suites():
    """Six exact property families, each over >= 100 seeded instances."""
    t0 = time.time()
    rng = random.Random(1010)
    chart_n = 3

    # wedge bilinearity and antisymmetry
    from linearwebs import Chart
    chart = Chart(chart_n)
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f, g, h = (OneForm(chart, tuple(rng.randint(-6, 6) for _ in range(6)))
                   for _ in range(3))
        assert wedge(f.scale(a) + g, h) == wedge(f, h).scale(a) + wedge(g, h)
        assert wedge(f, g) == wedge(g, f).scale(-1)

    # inverse round trips
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        M = RatMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        d = M.det()
        if d == 0:
            continue
        done += 1
        inv = M.inverse()
        assert inv.inverse() == M
        assert inv.det() == 1 / d
        assert M @ inv == RatMatrix.identity(n)

    # kernel soundness
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        M = RatMatrix([[rng.randint(-4, 4) for _ in range(cols)]
                       for _ in range(rows)])
        basis = M.kernel_basis()
        assert len(basis) == cols - rank_oracle([list(r) for r in M.entries()])
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0
                       for row in M.entries())
            assert next(x for x in v if x != 0) == 1

    # gauge identity and expansion soundness on valid-gauge webs
    done = 0
    while done < 100:
        A = _rand_nonsingular(rng, 3)
        web = build_web(A)
        cof = adapted_coframe(web)
        if not cof.is_valid:
            continue
        done += 1
        # omega_b^1 = -A[b][1] dx^b, omega_b^2 = B[1][b] dy_b
        omega_x = [web.dx(b).scale(-web.A[b - 1, 0]) for b in (1, 2, 3)]
        omega_y = [web.dy(b).scale(web.B[0, b - 1]) for b in (1, 2, 3)]
        sx, sy = omega_x[0], omega_y[0]
        for fx, fy in zip(omega_x[1:], omega_y[1:]):
            sx, sy = sx + fx, sy + fy
        assert sx == web.dx(4).scale(-1) and sy == web.dy(4).scale(-1)
        for a in (5, 6):
            u, v = expand_foliation(web, cof, a)
            rx, ry = omega_x[0].scale(u[0]), omega_y[0].scale(v[0])
            for b in (1, 2):
                rx = rx + omega_x[b].scale(u[b])
                ry = ry + omega_y[b].scale(v[b])
            assert rx == web.dx(a).scale(-1) and ry == web.dy(a).scale(-1)

    # scale invariance of the compatibility verdict
    for _ in range(100):
        A = _rand_nonsingular(rng, 3)
        c = Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3]))
        assert agw_test(build_web(A)).verdict == \
            agw_test(build_web(_scale(A, c))).verdict

    _line(10, True, "bilinearity, antisymmetry, inverses, kernels, gauge, "
          "expansion, scale invariance: 100+ instances each", t0)
