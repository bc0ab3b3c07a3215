"""The CLI builds only the format that was asked for, and the enumerate
writers match the stdlib byte for byte.

The reference renders an enumeration the plain way: the whole document
through ``json.dumps(doc, indent=2)``, the rows through
``csv.DictWriter``, and one printed line per tuple.
"""

import contextlib
import csv
import io
import json

import pytest

from flaghorn import cli
from flaghorn.cli import main
from flaghorn.flags import FlagType, enumerate_flag_types
from flaghorn.levi import METHODS, enumerate_levi_movable
from flaghorn.perm import format_permutation

FORMATS = ("json", "csv", "text")
ENUMERATIONS = [
    (str(flag), s, method)
    for n in range(2, 6)
    for flag in enumerate_flag_types(n)
    for s in (2, 3)
    for method in METHODS
] + [("2/4", 1500, method) for method in METHODS]


def reference(flag: FlagType, s: int, results, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "flag": str(flag),
            "n": flag.n,
            "s": s,
            "results": [
                {"tuple": [list(w) for w in classes], "coefficient": c}
                for classes, c in results
            ],
        }
        return json.dumps(doc, indent=2) + "\n"
    rows = [
        {"tuple": ";".join(format_permutation(w) for w in classes), "coefficient": c}
        for classes, c in results
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if fmt == "csv":
            if rows:
                writer = csv.DictWriter(out, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        else:
            for row in rows:
                print(f"{row['tuple']} -> {row['coefficient']}")
            print(f"{len(results)} movable tuples on {flag} with s={s}")
    return out.getvalue()


@pytest.mark.parametrize("flag, s, method", ENUMERATIONS)
def test_enumerate_matches_the_reference_in_every_format(capsys, flag, s, method):
    parsed = FlagType.parse(flag)
    results = enumerate_levi_movable(parsed, s, method)
    for fmt in FORMATS:
        argv = ["enumerate", "--flag", flag, "--s", str(s), "--method", method, "--format", fmt]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == reference(parsed, s, results, fmt), fmt


def test_enumerate_json_writer_on_no_results():
    flag = FlagType.parse("1,3/5")
    assert cli._enumerate_json(flag, 4, []) == reference(flag, 4, [], "json")


def refuse(*args, **kwargs):
    raise AssertionError("built an output format that was not asked for")


# The writers of the formats other than the key; json.dumps is refused
# too outside json.
OTHER_WRITERS = {
    "json": ("_csv_text", "_lines_text", "format_permutation"),
    "csv": ("_json_text", "_enumerate_json", "_lines_text"),
    "text": ("_json_text", "_enumerate_json", "_csv_text"),
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--flag", "1,2,4/5", "--s", "3"],
        ["verify", "--suite", "thm2", "--max-n", "3"],
    ],
    ids=["enumerate", "verify"],
)
def test_only_the_asked_format_is_built(monkeypatch, capsys, argv, fmt):
    for name in OTHER_WRITERS[fmt]:
        monkeypatch.setattr(cli, name, refuse)
    if fmt != "json":
        monkeypatch.setattr(cli.json, "dumps", refuse)
    assert main([*argv, "--format", fmt]) == 0
    assert capsys.readouterr().out
