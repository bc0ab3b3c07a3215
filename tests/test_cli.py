"""Command line behavior: output formats, exit codes, document round-trips."""

import argparse
import contextlib
import csv
import io
import json
import subprocess
import sys

import pytest

from flaghorn import cli, suites
from flaghorn.cli import (
    _cmd_check,
    _cmd_coeff,
    _cmd_enumerate,
    _cmd_factor,
    _cmd_verify,
    build_parser,
    main,
)
from flaghorn.levi import METHODS
from flaghorn.suites import SUITES


SIGMA1_FOURTH = "2,4,1,3;2,4,1,3;2,4,1,3;2,4,1,3"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--flag", "1,2/3", "--s", "2"
    )
    assert code == 0
    assert err == ""
    lines = out.strip().splitlines()
    assert lines[-1] == "3 movable tuples on 1,2/3 with s=2"
    assert "1,2,3;3,2,1 -> 1" in lines
    assert "2,1,3;2,3,1 -> 1" in lines


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--flag", "1,2/3", "--s", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["flag"] == "1,2/3"
    assert doc["n"] == 3
    assert doc["s"] == 2
    assert len(doc["results"]) == 3
    assert {"tuple": [[1, 2, 3], [3, 2, 1]], "coefficient": 1} in doc["results"]


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--flag", "2/4", "--s", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert all(row["coefficient"] == "1" for row in rows)
    assert {"tuple": "1,3,2,4;2,4,1,3", "coefficient": "1"} in rows


def test_enumerate_method_choices(capsys):
    for method in ("via_i", "via_iv", "cross_check"):
        code, out, _ = run_cli(
            capsys,
            "enumerate", "--flag", "1,2/3", "--s", "2", "--method", method,
        )
        assert code == 0
        assert "3 movable tuples" in out


def test_check_movable_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--flag", "1,2/3", "--tuple", "2,1,3;2,3,1"
    )
    assert code == 0
    assert "movable" in out
    assert "condition (iii): True" in out


def test_check_not_movable_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--flag", "1,2/3", "--tuple", "3,1,2;3,1,2;2,3,1",
        "--method", "via_i",
    )
    assert code == 1
    assert "not movable" in out
    assert "witness: step 1" in out


def test_check_cross_check_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--flag", "1,2/3", "--tuple", "2,1,3;2,3,1",
        "--method", "cross_check", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tuple"] == [[2, 1, 3], [2, 3, 1]]
    assert doc["codims"] == [2, 1]
    assert doc["conditions"] == {"i": True, "iii": True, "iv": True}
    assert doc["coefficient"] == 1
    assert doc["factorization"] is None


def test_check_malformed_tuple_exit_two(capsys):
    for text in ("2,1;2,3,1", ";"):
        code, out, err = run_cli(capsys, "check", "--flag", "1,2/3", "--tuple", text)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_check_degree_mismatch_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "check", "--flag", "1,2/3", "--tuple", "2,1,3;2,1,3"
    )
    assert code == 2
    assert "codimensions sum to" in err


def test_coeff_text(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--flag", "2/4", "--tuple", SIGMA1_FOURTH
    )
    assert code == 0
    assert out.strip() == "2"


def test_coeff_counts_non_movable_products(capsys):
    # classically nonzero even though the tuple is not movable
    code, out, _ = run_cli(
        capsys, "coeff", "--flag", "1,2/3", "--tuple", "3,1,2;3,1,2;2,3,1"
    )
    assert code == 0
    assert out.strip() == "1"


def test_coeff_on_a_long_projective_space(capsys):
    # the point class against the fundamental class of P^32: the point's
    # dual index (33, 1, ..., 32) is 496 first-ascent steps below the
    # longest element of S_33, which a recursion per step could not reach
    point = ",".join(map(str, range(1, 34)))
    fundamental = ",".join(map(str, [33, *range(1, 33)]))
    code, out, err = run_cli(
        capsys, "coeff", "--flag", "1/33", "--tuple", f"{point};{fundamental}"
    )
    assert (code, out.strip(), err) == (0, "1", "")


def test_coeff_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "coeff", "--flag", "2/4", "--tuple", SIGMA1_FOURTH, "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficient"] == 2
    assert doc["codims"] == [1, 1, 1, 1]
    assert doc["conditions"] is None


def test_factor_text(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--flag", "1,2/3", "--tuple", "2,3,1;2,1,3"
    )
    assert code == 0
    assert "coefficient 1" in out
    assert "1/3: partitions" in out
    assert "1/2: partitions" in out


def test_factor_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor", "--flag", "2/5",
        "--tuple", "3,5,1,2,4;3,5,1,2,4;3,5,1,2,4;3,5,1,2,4;3,5,1,2,4;3,5,1,2,4",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficient"] == 5
    node, product = doc["factorization"], 1
    while node is not None:
        product *= node["coefficient"]
        node = node["fiber"]
    assert product == doc["coefficient"]


def test_factor_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "factor", "--flag", "1,2,3/4", "--tuple", "4,2,3,1;1,3,2,4",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["grassmannian"] for row in rows] == ["1/4", "1/3", "1/2"]
    assert [row["level"] for row in rows] == ["1", "2", "3"]


def test_factor_not_movable_exit_two(capsys):
    code, _, err = run_cli(
        capsys, "factor", "--flag", "1,2/3", "--tuple", "3,1,2;3,1,2;2,3,1"
    )
    assert code == 2
    assert "not Levi-movable" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "thm1", "--max-n", "4"
    )
    assert code == 0
    assert out.splitlines()[0] == "thm1: PASS"


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "duality", "--max-n", "4", "--format", "json",
    )
    assert code == 0
    [doc] = json.loads(out)
    assert doc["suite"] == "duality"
    assert doc["passed"] is True
    assert doc["failures"] == []


def test_verify_all(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--max-n", "4"
    )
    assert code == 0
    for name in ("thm1", "thm2", "cor13", "lengths", "lr-oracle", "duality"):
        assert f"{name}: PASS" in out


@pytest.mark.parametrize(
    "max_n,empty",
    [
        ("-1", {"thm1", "thm2", "cor13", "lengths", "lr-oracle", "duality"}),
        ("2", {"thm1", "thm2", "cor13", "lr-oracle"}),
    ],
)
def test_verify_fails_a_bound_that_leaves_nothing_to_check(capsys, max_n, empty):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--max-n", max_n, "--format", "json"
    )
    assert code == 1
    doc = json.loads(out)
    assert {r["suite"] for r in doc if not r["passed"]} == empty
    for r in doc:
        if r["suite"] in empty:
            [failure] = r["failures"]
            assert failure.startswith(f"bound max_n={max_n} leaves no ")


def _no_sweep(n):
    raise AssertionError(f"a refused bound started a sweep at n={n}")


def test_verify_refuses_a_bound_past_the_sweep_limit(capsys, monkeypatch):
    monkeypatch.setattr(suites, "enumerate_flag_types", _no_sweep)
    code, out, err = run_cli(capsys, "verify", "--suite", "lengths", "--max-n", "9")
    assert (code, out) == (2, "")
    assert err == (
        "error: lengths: max_n=9 asks for 7685696 classes of every flag type "
        "with n <= 9; the largest bound lengths sweeps is 8\n"
    )


def test_check_huge_grassmannian_does_not_recurse(capsys):
    # the point class of Gr(2,600) times the fundamental class: the
    # Littlewood-Richardson count walks 1,196 cells
    point = ",".join(map(str, range(1, 601)))
    fundamental = ",".join(map(str, [599, 600, *range(1, 599)]))
    code, out, err = run_cli(
        capsys, "check", "--flag", "2/600", "--tuple", f"{point};{fundamental}"
    )
    assert (code, err) == (0, "")
    assert ": movable" in out.splitlines()[0]


def test_bad_usage_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--flag", "1,2/3"])  # missing --s
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        main(["unknown-command"])


def test_bad_flag_string_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--flag", "3,1/4", "--s", "2"
    )
    assert code == 2
    assert err.startswith("error:")


def test_parser_prog_name():
    assert build_parser().prog == "flaghorn"


def reference_parser() -> argparse.ArgumentParser:
    """The parser as it was written by hand before build_parser read the
    command table: the help text and usage errors that must not change."""
    parser = argparse.ArgumentParser(
        prog="flaghorn",
        description=(
            "Exact Schubert calculus on partial flag manifolds: movability "
            "decisions, structure constants, and their factorization into "
            "Grassmannian Littlewood-Richardson numbers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, tuple_arg: bool) -> None:
        p.add_argument("--flag", required=True, help="flag type, e.g. 1,2/4")
        if tuple_arg:
            p.add_argument(
                "--tuple",
                required=True,
                help="semicolon-separated permutations, e.g. 2,3,1;2,1,3",
            )
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )

    p = sub.add_parser("enumerate", help="list all movable tuples of a size")
    add_common(p, tuple_arg=False)
    p.add_argument("--s", type=int, required=True, help="tuple size, at least 2")
    p.add_argument("--method", choices=METHODS, default="via_iii")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("check", help="decide movability of one tuple")
    add_common(p, tuple_arg=True)
    p.add_argument("--method", choices=METHODS, default="via_iii")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("coeff", help="intersection number of one tuple")
    add_common(p, tuple_arg=True)
    p.set_defaults(handler=_cmd_coeff)

    p = sub.add_parser("factor", help="factor a movable tuple into leaves")
    add_common(p, tuple_arg=True)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=(*SUITES, "all"),
    )
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(handler=_cmd_verify)

    return parser


def subcommands(parser: argparse.ArgumentParser) -> dict:
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_help_and_usage_match_the_reference(monkeypatch):
    # argparse's help text differs between Python versions, so the table
    # built parser is compared with the reference, not with recorded bytes
    monkeypatch.setenv("COLUMNS", "80")
    built, reference = build_parser(), reference_parser()
    assert built.format_help() == reference.format_help()
    assert built.format_usage() == reference.format_usage()
    built_sub, reference_sub = subcommands(built), subcommands(reference)
    assert list(built_sub) == list(reference_sub)
    for name, p in built_sub.items():
        assert p.format_help() == reference_sub[name].format_help(), name
        assert p.format_usage() == reference_sub[name].format_usage(), name


def exit_of(call, argv):
    """Stdout, stderr and exit code of call(argv), which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--flag", "1,2/3"],
        ["unknown-command"],
        ["enumerate", "--flag", "1,2/3", "--s", "x"],
        ["enumerate", "--flag", "1,2/3", "--s", "2", "--method", "bad"],
        ["enumerate", "--flag", "1,2/3", "--s", "2", "--bogus", "1"],
        ["check", "--flag", "1,2/3"],
        ["verify", "--suite", "nope"],
        [],
        ["--help"],
        ["enumerate", "--help"],
        ["verify", "-h"],
    ],
)
def test_usage_errors_and_help_match_the_reference(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = exit_of(main, argv)
    want = exit_of(lambda a: reference_parser().parse_args(a), argv)
    assert got == want
    assert got[2][0] == "SystemExit"


@pytest.mark.parametrize(
    "argv,plain",
    [
        (
            ["enumerate", "--fl", "1,2/3", "--s=2", "--meth", "via_i"],
            ["enumerate", "--flag", "1,2/3", "--s", "2", "--method", "via_i"],
        ),
        (
            ["enumerate", "--flag=1,2/3", "--s", "3", "--s", "2"],
            ["enumerate", "--flag", "1,2/3", "--s", "2"],
        ),
    ],
)
def test_argv_left_to_argparse_still_runs(capsys, argv, plain):
    # abbreviations, "=" forms and repeats take the argparse path and give
    # the output of the plain command
    assert run_cli(capsys, *argv) == run_cli(capsys, *plain)


def test_huge_tuple_size_exits_two(capsys):
    # larger than sys.maxsize: refused before anything is allocated
    code, out, err = run_cli(
        capsys, "enumerate", "--flag", "1/2", "--s", "99999999999999999999"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: tuple size s=99999999999999999999 exceeds")


@pytest.mark.parametrize(
    "name,argv",
    [
        ("enumerate_levi_movable", ["enumerate", "--flag", "1/2", "--s", "2"]),
        ("run_all", ["verify", "--suite", "all"]),
    ],
)
def test_out_of_memory_exits_two(monkeypatch, capsys, name, argv):
    # a command that runs out of memory ends in one error line, not a
    # traceback; the memory is never really exhausted here
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, name, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: out of memory running {argv[0]}\n")


def test_plain_argv_does_not_import_argparse():
    script = (
        "import contextlib, io, sys\n"
        "from flaghorn.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['enumerate', '--flag', '1,2/3', '--s', '2'])\n"
        "assert code == 0, code\n"
        "assert 'argparse' not in sys.modules, 'argparse was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "flaghorn",
            "coeff",
            "--flag",
            "2/4",
            "--tuple",
            SIGMA1_FOURTH,
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_closed_output_pipe_ends_quietly(fmt):
    # Every format of this output is larger than a 64 KiB pipe buffer, so
    # the child is still writing when the reader closes the pipe after
    # one line.
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "flaghorn", "enumerate",
            "--flag", "1,2,3,4,5,6/7", "--s", "2", "--format", fmt,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first
    assert err == b""
    assert proc.returncode == 0
