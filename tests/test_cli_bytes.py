"""Exact CLI bytes: stdout, stderr and exit code of every command in every
format on one small input each, plus the error exits.

The expected bytes live in ``cli_bytes.json`` next to this file.  After a
deliberate change of output, rewrite that file from the current code with

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from flaghorn.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_bytes.json")

FORMATS = ("text", "json", "csv")
COMMANDS = {
    "enumerate": ["enumerate", "--flag", "1,2/3", "--s", "2"],
    "check": ["check", "--flag", "1,2/3", "--tuple", "2,1,3;2,3,1"],
    "check-not-movable": [
        "check", "--flag", "1,2/3", "--tuple", "3,1,2;3,1,2;2,3,1", "--method", "via_i",
    ],
    "coeff": ["coeff", "--flag", "2/4", "--tuple", "2,4,1,3;2,4,1,3;2,4,1,3;2,4,1,3"],
    "factor": ["factor", "--flag", "1,2,3/4", "--tuple", "4,2,3,1;1,3,2,4"],
    "verify": ["verify", "--suite", "thm2", "--max-n", "3"],
}
ERRORS = {
    "malformed-tuple": ["check", "--flag", "1,2/3", "--tuple", "2,1;2,3,1"],
    "degree-mismatch": ["check", "--flag", "1,2/3", "--tuple", "2,1,3;2,1,3"],
    "factor-not-movable": ["factor", "--flag", "1,2/3", "--tuple", "3,1,2;3,1,2;2,3,1"],
    "factor-not-movable-json": [
        "factor", "--flag", "1,2/3", "--tuple", "3,1,2;3,1,2;2,3,1", "--format", "json",
    ],
    "bad-flag": ["enumerate", "--flag", "3,1/4", "--s", "2"],
}
CASES = {
    **{f"{name}-{fmt}": argv + ["--format", fmt] for name, argv in COMMANDS.items() for fmt in FORMATS},
    **ERRORS,
}


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes(case):
    expected = json.loads(GOLDEN.read_text())[case]
    assert expected["argv"] == CASES[case]
    assert run(CASES[case]) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: run(argv) for case, argv in sorted(CASES.items())}, indent=1) + "\n")
