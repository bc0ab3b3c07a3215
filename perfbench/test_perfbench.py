"""Self-test of the benchmark.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

It takes about two minutes: each workload runs traced twice.
"""

import json
import os
import subprocess
import sys

import pytest

import inputs
import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from flaghorn import FlagType, enumerate_minimal_reps, exact_degree_tuples  # noqa: E402

SEED = 5


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


SPEC = _load(os.path.join(run.ROOT, "BENCHMARK.json"))


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_untraced_run_reports_the_end_to_end_metrics():
    result = _run("query", 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    assert {k: m["unit"] for k, m in first["metrics"].items()} == _units("per_layer")
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] == "count" or name.endswith("_ratio")}

    assert counts(first) == counts(second)
    assert len(counts(first)) > 20


def test_tuple_count_equals_enumeration():
    jobs = {(f, s) for f, s, _ in inputs.pool_variants()}
    jobs |= {(f, s) for f in inputs.VERIFY_SWEEP for s in inputs.VERIFY_SIZES}
    for flag, s in sorted(jobs):
        expected = len(exact_degree_tuples(FlagType.parse(flag), s))
        assert inputs.count_exact_degree_tuples(flag, s) == expected, (flag, s)


def test_query_classes_are_the_minimal_reps():
    for flag, _ in inputs.COEFF_FAMILY + inputs.DECIDE_FAMILY:
        assert set(inputs.classes(flag)) == set(enumerate_minimal_reps(FlagType.parse(flag)))


def test_enumerate_jobs_follow_the_seed():
    assert inputs.enumerate_jobs(3) == inputs.enumerate_jobs(3)
    assert inputs.query_requests(3, 1) == inputs.query_requests(3, 1)
    assert inputs.query_requests(3, 1) != inputs.query_requests(3, 2)
    for job in inputs.enumerate_jobs(3):
        assert run.job_key(*job) in _load(run.GOLDEN)["enumerate"]


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith((".py", ".json")):
            with open(os.path.join(run.HERE, name), "rb") as fh:
                (bench / name).write_bytes(fh.read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
