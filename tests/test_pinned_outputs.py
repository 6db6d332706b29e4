"""Byte-identity of the JSON reports for fixed inputs and seeds.

Each digest is the sha256 of the stdout of one CLI run.  A change that
alters any byte of these reports (a value, a key, the ordering, the
formatting) fails here; an intended change of output must update the
digest and say why.
"""

import hashlib
import json

import pytest

from linearwebs.cli import main

ANALYZE = {
    "generic-3x3": (
        [[2, -3, 5], [7, 1, -4], [-6, 8, 3]],
        "c3328d412e9d49310505bdb0fb2273b4bdd87d350f2a192d55a5d3c8fafcf74b"),
    "generic-4x4": (
        [[3, 1, -2, 5], [-1, 4, 2, 7], [6, -5, 1, 2], [2, 3, -7, 1]],
        "0990b0b44a3adf511316b0766dcdbed905c75224ca47b365913246f2c39ea44f"),
    # zero entries in column 1 of A and row 1 of B: the gauge is degenerate
    "degenerate-gauge": (
        [[1, 1, 0], [0, 1, 1], [1, 1, 1]],
        "ea550f0e366279407ac497d80cfc812c61cdbdfa77fb727980321e88d5b0685e"),
    "diagonal": (
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        "f8c786ff8f65cc8b221de010e49e6ab14edf066647a4f39974f69f333ad49981"),
}

SURVEY = {
    "generic": "7c0ed44a973663f1db607e51e8ebdd6c4eb65be9b049cff992489fd2eafaf19c",
    "B6": "f6f5bede8c13cdec648555e295402be861e6c438d8f9f158fa42ebe1b9c3014c",
    "B7": "5e07467dbbe5f5a32c2f606522b9d6329a859ccf563d9894e8c66edbecf0406d",
    "B8": "cb295309b76d12f3d34ba12a54db5070adf072152eb30b06086c088f2ad3528c",
}

VERIFY_PAPER = "f9f03b105c6766663d6afa91ca256cdc7dd5632f753c933a24d50c8e70f16a89"


def _stdout_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_verify_paper_json(capsys):
    assert _stdout_digest(capsys, ["verify-paper", "--json"]) == VERIFY_PAPER


@pytest.mark.parametrize("name", sorted(ANALYZE))
def test_analyze_json(name, tmp_path, capsys):
    matrix, digest = ANALYZE[name]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(matrix))
    assert _stdout_digest(capsys, ["analyze", "--json", str(path)]) == digest


@pytest.mark.parametrize("family", sorted(SURVEY))
def test_survey_json(family, capsys):
    argv = ["survey", "--family", family, "--count", "20", "--seed", "11", "--json"]
    assert _stdout_digest(capsys, argv) == SURVEY[family]
