import json

import pytest

from linearwebs.cli import MAX_ORDER, _build_parser, main


@pytest.fixture
def matrix_file(tmp_path):
    def write(data, name="matrix.json", raw=None):
        path = tmp_path / name
        path.write_text(raw if raw is not None else json.dumps(data))
        return str(path)
    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_example_matrix(matrix_file, capsys):
    path = matrix_file([[1, 1, 0], [1, 1, 1], [1, 2, 1]])
    code, out, err = run(capsys, "analyze", path)
    assert code == 0
    assert "not-AGW" in out
    assert "parallelizable" in out
    assert "general position (any 3 foliations): NO" in out


def test_analyze_json_output(matrix_file, capsys):
    path = matrix_file([[1, 1, 0], [1, 1, 1], [1, 2, 1]])
    code, out, _ = run(capsys, "analyze", "--json", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["agw"]["verdict"] == "not-AGW"
    assert payload["relation_space"]["dimension"] == 1


def test_analyze_identity_warns_but_succeeds(matrix_file, capsys):
    path = matrix_file([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "NO" in out  # audit degeneracy is visible


def test_analyze_singular_exits_2(matrix_file, capsys):
    path = matrix_file([[1, 1], [1, 1]])
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "singular" in err


def test_analyze_malformed_exits_2(matrix_file, capsys):
    path = matrix_file(None, raw="{not json")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/matrix.json")
    assert code == 2


def test_csv_fallback(matrix_file, capsys):
    path = matrix_file(None, name="m.csv", raw="1,1,0\n1,1,1\n1,2,1\n")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "not-AGW" in out


def test_object_form_input(matrix_file, capsys):
    path = matrix_file({"n": 3, "A": [[1, 1, 0], [1, 1, 1], [1, 2, 1]]})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "not-AGW" in out


def test_object_form_order_mismatch_exits_2(matrix_file, capsys):
    path = matrix_file({"n": 4, "A": [[1, 1], [0, 1]]})
    code, _, err = run(capsys, "analyze", path)
    assert code == 2


def test_rational_entries_accepted(matrix_file, capsys):
    path = matrix_file([["1/2", 1], [0, "3/4"]])
    code, out, _ = run(capsys, "closed-form", path)
    assert code == 0
    assert "1/2" in out


def test_closed_form_round_trip(matrix_file, capsys):
    from linearwebs import parse_closed_form, closed_form, build_web, RatMatrix
    path = matrix_file([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    code, out, _ = run(capsys, "closed-form", path)
    assert code == 0
    expected = closed_form(build_web(RatMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])))
    assert parse_closed_form(out) == expected


def test_verify_paper_exits_0(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert "derived-math checks: all pass" in out
    assert "MISMATCH" in out  # literal findings are reported, not fatal


def test_verify_paper_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["derived_checks_pass"] is True
    assert len(payload["examples"]) == 3


def test_survey_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(capsys, "survey", "--count", "30", "--seed", "9",
                         "--json", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_survey_jobs_deterministic(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    threaded = tmp_path / "threaded.json"
    run(capsys, "survey", "--count", "24", "--seed", "2", "--json",
        "--out", str(serial))
    run(capsys, "survey", "--count", "24", "--seed", "2", "--json",
        "--jobs", "4", "--out", str(threaded))
    assert serial.read_bytes() == threaded.read_bytes()


def test_survey_family_constraints(capsys):
    code, out, _ = run(capsys, "survey", "--family", "B6", "--count", "20",
                       "--seed", "4")
    assert code == 0
    assert "family=B6" in out


def test_survey_count_zero_exits_2(capsys):
    code, _, err = run(capsys, "survey", "--count", "0")
    assert code == 2


def test_survey_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--family", "B5", "--count", "5"])
    assert exc.value.code == 2


def test_survey_bad_order_for_named_family_exits_2(capsys):
    code, _, err = run(capsys, "survey", "--family", "B8", "--n", "4",
                       "--count", "5")
    assert code == 2


@pytest.mark.parametrize("raw", ['"1"', "5"])
def test_non_array_matrix_exits_2(matrix_file, capsys, raw):
    code, _, err = run(capsys, "analyze", matrix_file(None, raw=raw))
    assert code == 2
    assert err.count("\n") == 1 and "array of arrays" in err


def test_zero_denominator_exits_2(matrix_file, capsys):
    code, _, err = run(capsys, "analyze", matrix_file([[1, "1/0"], [0, 1]]))
    assert code == 2
    assert err.count("\n") == 1 and "zero denominator" in err


def test_boolean_entry_exits_2(matrix_file, capsys):
    code, _, err = run(capsys, "analyze", matrix_file([[True, 0], [0, 1]]))
    assert code == 2
    assert err.count("\n") == 1 and "bool" in err


@pytest.mark.parametrize("jobs", ["0", "-5", "two"])
def test_survey_jobs_below_one_rejected(capsys, jobs):
    parser = _build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["survey", "--count", "5", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert parser.parse_args(["survey", "--count", "5", "--jobs", "1"]).jobs == 1


MALFORMED_MATRIX_FILES = {
    "binary": b"\xff\xfe\x00\x81matrix\x9c",
    "empty": b"",
    "empty-array": b"[]",
    "empty-row": b"[[]]",
    "ragged": b"[[1, 2], [3]]",
    "nested": b"[[[1, 0], [0, 1]]]",
    "deeply-nested": b"[" * 100000 + b"]" * 100000,
    "null-entry": b"[[null, 1], [1, 0]]",
    "float-entry": b"[[1.5, 1], [1, 0]]",
    "non-numeric-entry": b'[["one", 1], [1, 0]]',
    "integer-past-digit-limit": b"[[1" + b"0" * 5000 + b"]]",
    "csv-field-past-size-limit": b"a" * 200000,
    "object-without-A": b'{"n": 2, "B": [[1, 0], [0, 1]]}',
    "object-string-n": b'{"n": "2", "A": [[1, 0], [0, 1]]}',
    "object-float-n": b'{"n": 2.0, "A": [[1, 0], [0, 1]]}',
    "object-bool-n": b'{"n": true, "A": [[1]]}',
    "object-null-n": b'{"n": null, "A": [[1, 0], [0, 1]]}',
    "decimal-string": b'[["0.5", 0], [0, 1]]',
    "exponent-string": b'[["1e5000"]]',
    "underscore-string": b'[["1_000", 0], [0, 1]]',
    # entries inside the grammar whose 6000-digit determinant cannot be printed
    "result-past-digit-limit": b'[["' + b"9" * 3000 + b'", 0], [0, "' + b"9" * 3000 + b'"]]',
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MATRIX_FILES))
def test_malformed_matrix_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / "matrix.json"
    path.write_bytes(MALFORMED_MATRIX_FILES[name])
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_analyze_order_above_limit_exits_2(matrix_file, capsys):
    n = MAX_ORDER + 1
    path = matrix_file([[int(i == j) for j in range(n)] for i in range(n)])
    code, out, err = run(capsys, "analyze", path)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"MAX_ORDER = {MAX_ORDER}" in err


def test_survey_order_above_limit_exits_2(capsys):
    code, out, err = run(capsys, "survey", "--n", str(MAX_ORDER + 1), "--count", "1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"MAX_ORDER = {MAX_ORDER}" in err
