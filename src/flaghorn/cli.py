"""Command line surface.

Subcommands: enumerate movable tuples, check one tuple, compute a
structure constant, factor a movable tuple into Grassmannian leaves, and
run the verification suites.  Flag types are written "steps/n" (for
example "1,3/4"), tuples as semicolon-separated permutations (for
example "2,3,1;2,1,3").  Output formats: text, json, csv.

Every command and its options are declared once, in _COMMANDS.  ``main``
reads argv of the plain form ``command --option value ...`` straight
from that table, so a plain call never imports argparse.  Everything
else (help, usage errors, ``--option=value``, abbreviations, repeated
options, values that start with "-") goes through the argparse parser
that build_parser makes from the same table, with unchanged output.

Each command builds only the format that ``--format`` names, as one
string, and ``main`` writes it with a single write.  ``enumerate``
renders each distinct class once per run (its indented JSON block, or
its permutation string for CSV and text) and joins those texts for every
tuple; its JSON is byte-identical to ``json.dumps(doc, indent=2)``.

Exit codes: 0 for success or a positive verdict, 1 for a well-formed
negative verdict, 2 for usage and domain errors and for a command that
runs out of memory.  When the reader closes the output pipe early (as
``| head`` does), the rest of the output is dropped without a message
and the exit code is still the command's own.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections.abc import Sequence
from functools import cache
from types import SimpleNamespace

from .factor import factor_full
from .flags import FlagType, check_class_tuple, codim
from .grassmann import format_partition
from .levi import METHODS, enumerate_levi_movable, is_levi_movable
from .oracle import intersection_number
from .perm import Perm, format_permutation, parse_permutation
from .suites import SUITES, run_all, run_suite

__all__ = ["main", "build_parser"]

# What every command returns: the exit code and its whole output, in the
# one format that --format names.
Output = tuple[int, str]


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A header line and one line per row; no text at all without rows.
    csv is imported here, since only this format needs it."""
    import csv

    if not rows:
        return ""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _lines_text(lines: Sequence[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _parse_tuple(text: str) -> tuple[Perm, ...]:
    parts = [p for p in text.split(";") if p.strip()]
    if not parts:
        raise ValueError(f"empty tuple argument: {text!r}")
    return tuple(parse_permutation(p) for p in parts)


def _format_tuple(classes: tuple[Perm, ...]) -> str:
    return ";".join(format_permutation(w) for w in classes)


def _document(
    flag: FlagType,
    classes: tuple[Perm, ...],
    conditions: dict | None = None,
    coefficient: int | None = None,
    factorization: dict | None = None,
) -> dict:
    return {
        "flag": str(flag),
        "n": flag.n,
        "tuple": [list(w) for w in classes],
        "codims": [codim(w, flag) for w in classes],
        "conditions": conditions,
        "coefficient": coefficient,
        "factorization": factorization,
    }


def _enumerate_json(
    flag: FlagType, s: int, results: Sequence[tuple[tuple[Perm, ...], int]]
) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` of the enumerate document
    ``{"flag", "n", "s", "results": [{"tuple", "coefficient"}, ...]}``,
    with each distinct class's block rendered once."""
    head = f'{{\n  "flag": {json.dumps(str(flag))},\n  "n": {flag.n},\n  "s": {s},\n  "results": '
    if not results:
        return head + "[]\n}\n"
    # A class sits at depth 4 (document, results, item, tuple): brackets
    # indented by 8 spaces, values by 10.
    block = cache(lambda w: "        [\n          " + ",\n          ".join(map(str, w)) + "\n        ]")
    items = ",\n".join(
        '    {\n      "tuple": [\n'
        + ",\n".join(map(block, classes))
        + f'\n      ],\n      "coefficient": {c}\n    }}'
        for classes, c in results
    )
    return head + "[\n" + items + "\n  ]\n}\n"


def _cmd_enumerate(args) -> Output:
    flag = FlagType.parse(args.flag)
    results = enumerate_levi_movable(flag, args.s, args.method)
    if args.format == "json":
        return 0, _enumerate_json(flag, args.s, results)
    name = cache(format_permutation)
    rows = [(";".join(map(name, classes)), c) for classes, c in results]
    if args.format == "csv":
        return 0, _csv_text(("tuple", "coefficient"), rows)
    lines = [f"{t} -> {c}" for t, c in rows]
    lines.append(f"{len(results)} movable tuples on {flag} with s={args.s}")
    return 0, _lines_text(lines)


def _cmd_check(args) -> Output:
    flag = FlagType.parse(args.flag)
    classes = _parse_tuple(args.tuple)
    report = is_levi_movable(classes, flag, args.method)
    code = 0 if report.movable else 1
    conditions = {
        "i": report.condition_i,
        "iii": report.condition_iii,
        "iv": report.condition_iv,
    }
    if args.format == "json":
        return code, _json_text(_document(
            flag, report.classes, conditions=conditions, coefficient=report.coefficient
        ))
    if args.format == "csv":
        return code, _csv_text(
            ("flag", "n", "tuple", *(f"condition_{label}" for label in conditions), "coefficient"),
            [(str(flag), flag.n, _format_tuple(report.classes), *conditions.values(),
              report.coefficient)],
        )
    verdict = "movable" if report.movable else "not movable"
    lines = [f"{_format_tuple(report.classes)} on {flag}: {verdict}"]
    for label, value in conditions.items():
        if value is not None:
            lines.append(f"  condition ({label}): {value}")
    if report.coefficient is not None:
        lines.append(f"  coefficient: {report.coefficient}")
    if report.failing_witness:
        lines.append(f"  witness: {report.failing_witness}")
    return code, _lines_text(lines)


def _cmd_coeff(args) -> Output:
    flag = FlagType.parse(args.flag)
    classes = check_class_tuple(_parse_tuple(args.tuple), flag)
    coefficient = intersection_number(classes, flag)
    if args.format == "json":
        return 0, _json_text(_document(flag, classes, coefficient=coefficient))
    if args.format == "csv":
        return 0, _csv_text(
            ("flag", "n", "tuple", "coefficient"),
            [(str(flag), flag.n, _format_tuple(classes), coefficient)],
        )
    return 0, _lines_text([str(coefficient)])


def _cmd_factor(args) -> Output:
    flag = FlagType.parse(args.flag)
    classes = _parse_tuple(args.tuple)
    tree = factor_full(classes, flag)
    if args.format == "json":
        return 0, _json_text(_document(
            flag, tree.classes, coefficient=tree.coefficient, factorization=tree.to_dict()
        ))
    leaves = list(enumerate(tree.leaf_factors(), start=1))
    if args.format == "csv":
        return 0, _csv_text(
            ("level", "grassmannian", "partitions", "coefficient"),
            [
                (depth, str(leaf.space), ";".join(format_partition(p) for p in leaf.partitions),
                 leaf.coefficient)
                for depth, leaf in leaves
            ],
        )
    lines = [f"{_format_tuple(tree.classes)} on {flag}: coefficient {tree.coefficient}"]
    for depth, leaf in leaves:
        parts = ",".join("(" + ",".join(map(str, p)) + ")" for p in leaf.partitions)
        lines.append(
            f"{'  ' * depth}{leaf.space}: partitions {parts} -> "
            f"coefficient {leaf.coefficient}"
        )
    return 0, _lines_text(lines)


def _cmd_verify(args) -> Output:
    if args.suite == "all":
        results = run_all(args.max_n)
    else:
        results = [run_suite(args.suite, args.max_n)]
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        return code, _json_text([
            {"suite": r.name, "passed": r.passed, "lines": r.lines, "failures": r.failures}
            for r in results
        ])
    if args.format == "csv":
        return code, _csv_text(
            ("suite", "passed", "failures"),
            [(r.name, r.passed, " | ".join(r.failures)) for r in results],
        )
    lines = []
    for r in results:
        lines.append(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
        lines.extend(f"  {line}" for line in r.lines)
        lines.extend(f"  FAILURE: {failure}" for failure in r.failures)
    return code, _lines_text(lines)


# Each subcommand once: its help line, its handler, and its options in
# order, as (option, add_argument keywords).  build_parser builds argparse
# from this table, and _parse reads plain argv straight from it.
_FLAG = ("--flag", {"required": True, "help": "flag type, e.g. 1,2/4"})
_TUPLE = (
    "--tuple",
    {"required": True, "help": "semicolon-separated permutations, e.g. 2,3,1;2,1,3"},
)
_FORMAT = ("--format", {"choices": ("text", "json", "csv"), "default": "text"})
_METHOD = ("--method", {"choices": METHODS, "default": "via_iii"})
_COMMANDS = {
    "enumerate": (
        "list all movable tuples of a size",
        _cmd_enumerate,
        (_FLAG, _FORMAT, ("--s", {"type": int, "required": True, "help": "tuple size, at least 2"}),
         _METHOD),
    ),
    "check": ("decide movability of one tuple", _cmd_check, (_FLAG, _TUPLE, _FORMAT, _METHOD)),
    "coeff": ("intersection number of one tuple", _cmd_coeff, (_FLAG, _TUPLE, _FORMAT)),
    "factor": ("factor a movable tuple into leaves", _cmd_factor, (_FLAG, _TUPLE, _FORMAT)),
    "verify": (
        "run a verification suite",
        _cmd_verify,
        (("--suite", {"required": True, "choices": (*SUITES, "all")}),
         ("--max-n", {"type": int, "default": None}),
         _FORMAT),
    ),
}


def build_parser():
    """The argparse parser of every command, built from _COMMANDS.  main
    only builds it for the argv that _parse leaves to it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="flaghorn",
        description=(
            "Exact Schubert calculus on partial flag manifolds: movability "
            "decisions, structure constants, and their factorization into "
            "Grassmannian Littlewood-Richardson numbers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace that build_parser().parse_args(argv) gives, read
    straight from _COMMANDS for argv of the plain form ``command --option
    value ...``.  None for any other argv, which is left to argparse: an
    unknown command or option, a repeated or missing required option, a
    value that starts with "-" or fails its type or choices, help,
    "--option=value" and abbreviations.

    >>> vars(_parse(["coeff", "--tuple", "2,1", "--flag", "1/2"]))["format"]
    'text'
    >>> _parse(["coeff", "--flag=1/2", "--tuple", "2,1"]) is None
    True
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, rest = argv[0], argv[1:]
    _, handler, options = _COMMANDS[command]
    given = dict(zip(rest[::2], rest[1::2]))
    if 2 * len(given) != len(rest) or not given.keys() <= dict(options).keys():
        return None
    values = {}
    for option, keywords in options:
        text = given.get(option)
        if text is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        else:
            if text.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(text)
            except ValueError:
                return None
            if value not in keywords.get("choices", (value,)):
                return None
        values[option[2:].replace("-", "_")] = value
    return SimpleNamespace(command=command, handler=handler, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code, text = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early.  Point stdout at devnull, so
        # that the interpreter's flush at exit has no closed pipe to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
