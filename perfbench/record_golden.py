"""Record the golden output digests the benchmark checks on every run.

Usage (from the root of a checkout): python3 perfbench/record_golden.py

Runs every job the enumerate pool can draw, and `verify --suite all`, once
each, and writes the SHA-256 of what each printed to perfbench/golden.json.
Record them only from a commit whose output is known to be right: the
benchmark then counts any change in these bytes as a wrong answer.
"""

import json
import sys

import inputs
import run


def main() -> int:
    golden = {"enumerate": {}, "verify": None}
    for job in inputs.pool_variants():
        report = run.spawn("cli", {"argv": run.enumerate_argv(*job), "trace": False})
        if report["rc"] != 0 or report["error"] is not None:
            print(f"{run.job_key(*job)} failed: {report}", file=sys.stderr)
            return 1
        golden["enumerate"][run.job_key(*job)] = report["sha256"]
        print(run.job_key(*job), report["sha256"], f"{report['wall_s']:.2f} s")
    report = run.spawn("cli", {"argv": run.VERIFY_ARGV, "trace": False})
    if report["rc"] != 0 or report["error"] is not None:
        print(f"verify failed: {report}", file=sys.stderr)
        return 1
    golden["verify"] = report["sha256"]
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
