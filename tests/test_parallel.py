import random

from linearwebs import (RatMatrix, build_web, example_web,
                        general_position_audit, parallelizability_report)


def rand_web(rng, n, bound=9):
    while True:
        A = RatMatrix([[rng.randint(-bound, bound) for _ in range(n)]
                       for _ in range(n)])
        if A.det() != 0:
            return build_web(A)


def test_examples_parallelizable():
    for k in (1, 2, 3):
        payload = parallelizability_report(example_web(k)).to_dict()
        assert payload["verdict"] == "parallelizable"
        assert payload["forms_closed"]
        assert payload["connection_zero"]
        assert payload["torsion_zero"]
        assert payload["affinors_constant"]


def test_random_webs_all_orders():
    rng = random.Random(83)
    for _ in range(100):
        web = rand_web(rng, rng.choice((2, 3, 4)))
        assert parallelizability_report(web).verdict == "parallelizable"


def test_identity_flags_true_but_audit_degenerate():
    web = build_web(RatMatrix.identity(3))
    report = parallelizability_report(web)
    assert report.verdict == "parallelizable"
    # the report does not hide the position degeneracy; the audit carries it
    assert not general_position_audit(web).general_position


def test_scope_note_present():
    report = parallelizability_report(example_web(1))
    assert "constant-coefficient" in report.scope_note
    assert report.to_dict()["verdict"] == "parallelizable"
