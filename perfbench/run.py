"""flaghorn benchmark: the enumerate, verify and query workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {enumerate,verify,query} --seed N \
        --seconds S --trace {0,1}

Every session starts a fresh interpreter (session.py), because a CLI user
pays flaghorn's import and cold caches on every invocation.  Sessions run
one at a time.  With --trace 0 the run repeats the workload's work until
--seconds have passed and prints the end-to-end metrics.  With --trace 1
it runs the seed's work exactly once untraced and once traced, and prints
the per-layer metrics, which then repeat exactly for a seed; the spans go
to perfbench/traces/.  The end-to-end times are given at the fixed
reference speed that session.SpeedProbe measures against, and the clock
figures are printed too.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SESSION = os.path.join(HERE, "session.py")
GOLDEN = os.path.join(HERE, "golden.json")
TRACES = os.path.join(HERE, "traces")
SESSION_TIMEOUT_S = 150
VERIFY_ARGV = ["verify", "--suite", "all", "--format", "json"]
SUITE_NAMES = ("thm1", "thm2", "cor13", "lengths", "lr-oracle", "duality")


class SessionError(RuntimeError):
    """A session that did not run to the end: the run cannot report."""


def spawn(kind: str, spec: dict) -> dict:
    """Run one session; returns its report with ``setup_s`` added, the
    time from the spawn to flaghorn imported, less the probe's slices."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, SESSION, ROOT, kind],
            input=json.dumps(spec), capture_output=True, text=True,
            timeout=SESSION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SessionError(f"session timed out after {SESSION_TIMEOUT_S} s: {spec.get('argv', kind)}") from None
    if proc.returncode != 0:
        raise SessionError(f"session exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise SessionError(f"session printed no report: {proc.stderr.strip()[-2000:]}") from None
    report["setup_s"] = report["ready"] - start
    return report


def enumerate_argv(flag: str, s: int, method: str) -> list[str]:
    return ["enumerate", "--flag", flag, "--s", str(s), "--method", method, "--format", "json"]


def job_key(flag: str, s: int, method: str) -> str:
    return f"{flag} s={s} {method}"


def repeat_until(seconds: float, once, minimum: int = 1) -> list:
    """Call once(k) for k = 0, 1, ... at least ``minimum`` times, and again
    while a call of the average length so far still ends in time."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(once(len(results)))
        now = time.perf_counter()
        average = (now - start) / len(results)
        if len(results) >= minimum and now + average > start + seconds:
            return results


class Run:
    """Collects sessions, failures and traces of one benchmark run."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.setups: list[tuple[float, float]] = []  # (set-up seconds, session scale)
        self.traced: list[dict] = []

    def cli(self, argv: list[str], expected_sha256: str, trace: bool) -> dict:
        report = spawn("cli", {"argv": argv, "trace": trace})
        self.setups.append((report["setup_s"], report["setup_scale"]))
        self.attempted += 1
        ok = report["error"] is None and report["rc"] == 0 and report["sha256"] == expected_sha256
        if not ok:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: rc={report['rc']} error={report['error']} "
                  f"sha256={report['sha256']}", file=sys.stderr)
        if trace:
            self.traced.append(report)
        return report

    def query(self, requests: list[dict], trace: bool) -> dict:
        report = spawn("query", {"requests": requests, "trace": trace})
        self.setups.append((report["setup_s"], report["setup_scale"]))
        self.attempted += len(requests)
        self.failed += len(report["wrong"])
        for i in report["wrong"]:
            print(f"FAILED query request {json.dumps(requests[i])}", file=sys.stderr)
        if trace:
            self.traced.append(report)
        return report


# -- the workloads -----------------------------------------------------------


def mean_times(reports: list[dict]) -> dict:
    """Mean session time at the reference speed, and as the clock showed."""
    return {"wall_s": statistics.fmean(r["wall_s"] * r["scale"] for r in reports),
            "clock_wall_s": statistics.fmean(r["wall_s"] for r in reports)}


def run_enumerate(run: Run, seed: int, seconds: float, trace: bool) -> dict:
    jobs = inputs.enumerate_jobs(seed)
    tuples = sum(inputs.count_exact_degree_tuples(f, s) for f, s, _ in jobs)

    def job(k: int, traced: bool = False) -> dict:
        flag, s, method = jobs[k % len(jobs)]
        return run.cli(enumerate_argv(flag, s, method),
                       run.golden["enumerate"][job_key(flag, s, method)], traced)

    if trace:
        return traced_overhead([job(k) for k in range(len(jobs))],
                               [job(k, True) for k in range(len(jobs))])
    # The jobs run round after round until time is up.  A pass over the job
    # list costs the sum of each job's mean time.
    reports = repeat_until(seconds, job, minimum=len(jobs))
    per_job = [reports[j::len(jobs)] for j in range(len(jobs))]
    times = [mean_times(runs) for runs in per_job]
    return {
        "wall_s": sum(t["wall_s"] for t in times),
        "clock_wall_s": sum(t["clock_wall_s"] for t in times),
        "tuples": tuples,
        "peak_rss_mb": max(statistics.median(r["peak_rss_mb"] for r in runs) for runs in per_job),
        "info": {"jobs": ([job_key(*j) for j in jobs], ""), "job_runs": (len(reports), "")},
    }


def run_verify(run: Run, seed: int, seconds: float, trace: bool) -> dict:
    # verify --suite all has no inputs to draw: the seed changes nothing.
    tuples = sum(inputs.count_exact_degree_tuples(f, s)
                 for f in inputs.VERIFY_SWEEP for s in inputs.VERIFY_SIZES)

    def once(_k: int, traced: bool = False) -> dict:
        return run.cli(VERIFY_ARGV, run.golden["verify"], traced)

    if trace:
        return traced_overhead([once(0)], [once(0, True)])
    reports = repeat_until(seconds, once)
    return {**mean_times(reports), "tuples": tuples,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "info": {"invocations": (len(reports), "")}}


def run_query(run: Run, seed: int, seconds: float, trace: bool) -> dict:
    def session(k: int, traced: bool = False) -> dict:
        return run.query(inputs.query_requests(seed, k), traced)

    if trace:
        return traced_overhead([session(0)], [session(0, True)])
    reports = repeat_until(seconds, session)
    info: dict = {"sessions": (len(reports), "")}
    for kind in ("coeff", "decide"):
        lat = [t * r["scale"] * 1e3 for r in reports
               for k, t in zip(r["kinds"], r["latency_s"]) if k == kind]
        info[f"{kind}_p50_ms"] = (statistics.median(lat), "ms")
        info[f"{kind}_p90_ms"] = (statistics.quantiles(lat, n=10, method="inclusive")[-1], "ms")
        info[f"{kind}_samples"] = (len(lat), "")
    info["decide_movable"] = (sum(r["movable"] for r in reports), "")
    # The mean session: every request of the run counts once, so the heavy
    # tail of coefficient requests is averaged, not sampled.
    return {**mean_times(reports), "tuples": sum(inputs.REQUESTS.values()),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "info": info}


WORKLOADS = {"enumerate": run_enumerate, "verify": run_verify, "query": run_query}


# -- traced runs -------------------------------------------------------------


def traced_overhead(untraced: list[dict], traced: list[dict]) -> dict:
    return {"overhead": sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in untraced)}


PER_LAYER = (
    "perm.calls", "perm.self_s", "flags.calls", "flags.self_s",
    "flags.check_minimal_rep.calls", "flags.codim.calls",
    "levi.exact_degree_tuples.calls", "levi.tuples_kept", "levi.is_levi_movable.calls",
    "levi.movable_ratio", "levi.self_s",
    "poly.mul.calls", "poly.term_products", "poly.divided_difference.calls", "poly.self_s",
    "oracle.intersection_number.calls", "oracle.schubert_polynomial.calls",
    "oracle.expand.calls", "oracle.expand.terms", "oracle.self_s",
    "grassmann.product_to_point.calls", "grassmann.lr_coefficient.calls",
    "grassmann.lr_coefficient.hit_ratio", "grassmann.lr_expand.hit_ratio",
    "grassmann.horn_inequality_holds.calls", "grassmann.self_s",
    "factor.factor_full.calls", "factor.levels", "factor.self_s",
    *(f"suites.{suite}.wall_s" for suite in SUITE_NAMES), "suites.self_s",
    "cli.self_s", "trace.overhead", "trace.spans",
)


def layer_metrics(reports: list[dict], overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, summed over its sessions."""
    total: dict[str, float] = {}
    for report in reports:
        for name, value in report["trace"].items():
            total[name] = total.get(name, 0) + value

    def calls(layer: str) -> int:
        return sum(v for k, v in total.items() if k.startswith(layer + ".") and k.endswith(".calls"))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def hit_ratio(fn: str) -> float:
        hits, misses = total[f"grassmann.{fn}.hits"], total[f"grassmann.{fn}.misses"]
        return ratio(hits, hits + misses)

    derived = {
        "perm.calls": calls("perm"),
        "flags.calls": calls("flags"),
        "levi.movable_ratio": ratio(total["levi.movable_verdicts"], total["levi.verdicts"]),
        "grassmann.lr_coefficient.hit_ratio": hit_ratio("lr_coefficient"),
        "grassmann.lr_expand.hit_ratio": hit_ratio("lr_expand"),
        "trace.overhead": overhead,
    }
    for suite in SUITE_NAMES:
        derived[f"suites.{suite}.wall_s"] = total[f"suites.run_{suite.replace('-', '_')}.inclusive_s"]

    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith(("_ratio", ".overhead")) else "count"

    return {name: (derived[name] if name in derived else total[name], unit(name)) for name in PER_LAYER}


# -- run header --------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def src_digest() -> str:
    """SHA-256 over the program's source files, which names the code measured
    also where there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def header(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# -- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "flaghorn", "__init__.py")):
        print(f"error: no flaghorn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    head = header(args)
    run = Run(golden)
    try:
        result = WORKLOADS[args.workload](run, args.seed, args.seconds, bool(args.trace))
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    head["loadavg_end"] = list(os.getloadavg())

    if args.trace:
        metrics = layer_metrics(run.traced, result["overhead"])
        os.makedirs(TRACES, exist_ok=True)
        path = os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"header": head, "metrics": metrics,
                       "sessions": [r["spans"] for r in run.traced]}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        info = {**result["info"], "tuples": (result["tuples"], ""),
                "clock_wall_s": (result["clock_wall_s"], "s"),
                "clock_tuples_per_s": (result["tuples"] / result["clock_wall_s"], "1/s"),
                "clock_setup_s": (statistics.median(s for s, _ in run.setups), "s")}
        for name, (value, unit) in info.items():
            print(f"{name}: {value} {unit}".rstrip())
        metrics = {
            "wall_s": (result["wall_s"], "s"),
            "tuples_per_s": (result["tuples"] / result["wall_s"], "1/s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(s * scale for s, scale in run.setups), "s"),
        }

    print(f"failed_frac: {run.failed / run.attempted} ({run.failed} of {run.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({"header": head}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
