"""Command line surface.

Subcommands: enumerate movable tuples, check one tuple, compute a
structure constant, factor a movable tuple into Grassmannian leaves, and
run the verification suites.  Flag types are written "steps/n" (for
example "1,3/4"), tuples as semicolon-separated permutations (for
example "2,3,1;2,1,3").  Output formats: text, json, csv.

Exit codes: 0 for success or a positive verdict, 1 for a well-formed
negative verdict, 2 for usage and domain errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .factor import factor_full
from .flags import FlagType, check_class_tuple, codim
from .grassmann import format_partition
from .levi import METHODS, enumerate_levi_movable, is_levi_movable
from .oracle import intersection_number
from .perm import Perm, format_permutation, parse_permutation
from .suites import SUITES, run_all, run_suite

__all__ = ["main", "build_parser"]

# What every command builds, once: the exit code, the JSON document, the
# CSV rows and the text lines.  main prints the format that was asked for.
Output = tuple[int, object, list[dict], list[str]]


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


def _cmd_enumerate(args) -> Output:
    flag = FlagType.parse(args.flag)
    results = enumerate_levi_movable(flag, args.s, args.method)
    doc = {
        "flag": str(flag),
        "n": flag.n,
        "s": args.s,
        "results": [
            {"tuple": [list(w) for w in classes], "coefficient": c}
            for classes, c in results
        ],
    }
    rows = [
        {"tuple": _format_tuple(classes), "coefficient": c}
        for classes, c in results
    ]
    lines = [f"{row['tuple']} -> {row['coefficient']}" for row in rows]
    lines.append(f"{len(results)} movable tuples on {flag} with s={args.s}")
    return 0, doc, rows, lines


def _cmd_check(args) -> Output:
    flag = FlagType.parse(args.flag)
    classes = _parse_tuple(args.tuple)
    report = is_levi_movable(classes, flag, args.method)
    conditions = {
        "i": report.condition_i,
        "iii": report.condition_iii,
        "iv": report.condition_iv,
    }
    doc = _document(
        flag, report.classes, conditions=conditions, coefficient=report.coefficient
    )
    row = {
        "flag": str(flag),
        "n": flag.n,
        "tuple": _format_tuple(report.classes),
        **{f"condition_{label}": value for label, value in conditions.items()},
        "coefficient": report.coefficient,
    }
    verdict = "movable" if report.movable else "not movable"
    lines = [f"{_format_tuple(report.classes)} on {flag}: {verdict}"]
    for label, value in conditions.items():
        if value is not None:
            lines.append(f"  condition ({label}): {value}")
    if report.coefficient is not None:
        lines.append(f"  coefficient: {report.coefficient}")
    if report.failing_witness:
        lines.append(f"  witness: {report.failing_witness}")
    return (0 if report.movable else 1), doc, [row], lines


def _cmd_coeff(args) -> Output:
    flag = FlagType.parse(args.flag)
    classes = check_class_tuple(_parse_tuple(args.tuple), flag)
    coefficient = intersection_number(classes, flag)
    doc = _document(flag, classes, coefficient=coefficient)
    row = {
        "flag": str(flag),
        "n": flag.n,
        "tuple": _format_tuple(classes),
        "coefficient": coefficient,
    }
    return 0, doc, [row], [str(coefficient)]


def _cmd_factor(args) -> Output:
    flag = FlagType.parse(args.flag)
    classes = _parse_tuple(args.tuple)
    tree = factor_full(classes, flag)
    doc = _document(
        flag, tree.classes, coefficient=tree.coefficient, factorization=tree.to_dict()
    )
    rows = []
    lines = [f"{_format_tuple(tree.classes)} on {flag}: coefficient {tree.coefficient}"]
    for depth, leaf in enumerate(tree.leaf_factors(), start=1):
        rows.append(
            {
                "level": depth,
                "grassmannian": str(leaf.space),
                "partitions": ";".join(format_partition(p) for p in leaf.partitions),
                "coefficient": leaf.coefficient,
            }
        )
        parts = ",".join("(" + ",".join(map(str, p)) + ")" for p in leaf.partitions)
        lines.append(
            f"{'  ' * depth}{leaf.space}: partitions {parts} -> "
            f"coefficient {leaf.coefficient}"
        )
    return 0, doc, rows, lines


def _cmd_verify(args) -> Output:
    if args.suite == "all":
        results = run_all(args.max_n)
    else:
        results = [run_suite(args.suite, args.max_n)]
    doc = [
        {"suite": r.name, "passed": r.passed, "lines": r.lines, "failures": r.failures}
        for r in results
    ]
    rows = [
        {"suite": r.name, "passed": r.passed, "failures": " | ".join(r.failures)}
        for r in results
    ]
    lines = []
    for r in results:
        lines.append(f"{r.name}: {'PASS' if r.passed else 'FAIL'}")
        lines.extend(f"  {line}" for line in r.lines)
        lines.extend(f"  FAILURE: {failure}" for failure in r.failures)
    return (0 if all(r.passed for r in results) else 1), doc, rows, lines


def build_parser() -> argparse.ArgumentParser:
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc, rows, lines = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        if rows:
            writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
