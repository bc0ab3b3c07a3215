"""One benchmark session in a fresh interpreter.

Usage: python3 session.py <checkout root> <cli|query>   (spec as JSON on stdin)

The session imports flaghorn from ``<root>/src`` first, so that the parent
can time set-up from the spawn to the end of the import.  A ``cli`` session
runs ``flaghorn.cli.main(argv)`` once and reports the SHA-256 of what it
printed.  A ``query`` session runs library requests back to back, one
client in a closed loop, then checks every answer by a second route outside
the timed window.  While the job runs, a speed probe (``SpeedProbe``)
samples how fast the machine runs Python, so that the job's time can also
be given at a fixed reference speed.  With ``"trace": true`` the calls are
traced (see tracer.py) and the probe is off.  The session prints one JSON
object on stdout.
"""

import os
import signal
import sys
import time

# Everything else is imported after flaghorn, so that the set-up the parent
# times is the interpreter start plus flaghorn's import.


# A slice of the probe's fixed work: building small tuples and comparing
# their entries pairwise, as flaghorn's permutation code does.  It takes
# well under a millisecond.  REFERENCE_SLICE_S, about what a slice takes
# inside a job on the 2-CPU machine the benchmark was tuned on, sets the
# reference speed.
SLICE_ITERATIONS = 80
REFERENCE_SLICE_S = 0.00065
# Set-up takes about a tenth of a second, so it is sampled more densely.
JOB_PROBE_INTERVAL_S = 0.02
SETUP_PROBE_INTERVAL_S = 0.005


def reference_slice() -> int:
    total = 0
    for i in range(SLICE_ITERATIONS):
        w = tuple((i * 7 + k * 3) % 11 for k in range(8))
        total += sum(1 for a in range(8) for b in range(a + 1, 8) if w[a] > w[b])
    return total


class SpeedProbe:
    """Samples the machine's speed while a job runs.

    On a shared machine the speed at which Python runs changes by a factor
    of two within seconds, so a reference loop timed before and after a job
    says little about the job's own window.  Inside that window a timer
    signal runs ``reference_slice`` every ``interval_s`` and times it.
    ``total`` is the time spent in slices, which the job's timing subtracts.
    ``scale()`` is the mean over the samples of REFERENCE_SLICE_S over the
    slice's time: multiplied by a clock time, it gives the time the same work
    takes at the reference speed."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.total = 0.0

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_slice()
        duration = time.perf_counter() - start
        self.samples.append(duration)
        self.total += duration

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self) -> float | None:
        if not self.samples:
            return None
        return sum(REFERENCE_SLICE_S / d for d in self.samples) / len(self.samples)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(flaghorn, spec: dict, probe: SpeedProbe) -> dict:
    import contextlib
    import hashlib
    import io

    out = io.StringIO()
    rc, error = None, None
    start, probed = time.perf_counter(), probe.total
    try:
        with contextlib.redirect_stdout(out):
            rc = flaghorn.cli.main(spec["argv"])
    except Exception as exc:  # counted as a failed operation by the parent
        error = repr(exc)
    wall = time.perf_counter() - start - (probe.total - probed)
    return {
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "rc": rc,
        "error": error,
        "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def _leaf_product(tree) -> int:
    import math

    return math.prod(leaf.coefficient for leaf in tree.leaf_factors())


def run_query(flaghorn, spec: dict, probe: SpeedProbe) -> tuple[dict, list, list]:
    flags = {text: flaghorn.FlagType.parse(text) for text in {r["flag"] for r in spec["requests"]}}
    work = [(r["kind"], flags[r["flag"]], tuple(tuple(w) for w in r["tuple"])) for r in spec["requests"]]
    answers, latency = [], []
    clock = time.perf_counter
    for kind, flag, classes in work:
        start, probed = clock(), probe.total
        try:
            if kind == "coeff":
                answer = flaghorn.intersection_number(classes, flag)
            else:
                report = flaghorn.is_levi_movable(classes, flag, "via_iii")
                answer = (report.movable, flaghorn.factor_full(classes, flag) if report.movable else None)
        except Exception as exc:  # counted as a failed request
            answer = exc
        latency.append(clock() - start - (probe.total - probed))
        answers.append(answer)
    result = {
        "wall_s": sum(latency),
        "peak_rss_mb": _peak_rss_mb(),
        "kinds": [kind for kind, _, _ in work],
        "latency_s": latency,
        "movable": sum(1 for (kind, _, _), a in zip(work, answers)
                       if kind == "decide" and isinstance(a, tuple) and a[0]),
    }
    return result, work, answers


def check_query(flaghorn, work: list, answers: list) -> list[int]:
    """Indices of the answers that a second route contradicts, or that
    raised.  Runs outside the timed window."""
    wrong = []
    for i, ((kind, flag, classes), answer) in enumerate(zip(work, answers)):
        try:
            if isinstance(answer, Exception):
                ok = False
            elif kind == "decide":
                movable, tree = answer
                check = flaghorn.is_levi_movable(classes, flag, "cross_check")
                ok = check.movable == movable and (not movable or _leaf_product(tree) == check.coefficient)
            else:
                ok = isinstance(answer, int) and answer >= 0
                if ok and flaghorn.is_levi_movable(classes, flag).movable:
                    ok = _leaf_product(flaghorn.factor_full(classes, flag)) == answer
        except Exception:  # a check that raises is a wrong answer
            ok = False
        if not ok:
            wrong.append(i)
    return wrong


def main() -> None:
    root, kind = os.path.abspath(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    with SpeedProbe(SETUP_PROBE_INTERVAL_S) as setup_probe:
        __import__("flaghorn.cli" if kind == "cli" else "flaghorn")
        ready = time.perf_counter() - setup_probe.total
    flaghorn = sys.modules["flaghorn"]

    import contextlib
    import json

    from tracer import Tracer

    expected = os.path.join(root, "src", "flaghorn")
    if os.path.dirname(os.path.abspath(flaghorn.__file__)) != expected:
        sys.exit(f"flaghorn was imported from {flaghorn.__file__}, not from {expected}")
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec.get("trace") else None
    # The probe's slices would count in the traced layers' self times.
    probe = SpeedProbe(JOB_PROBE_INTERVAL_S)
    if tracer is not None:
        tracer.install()
    with contextlib.nullcontext() if tracer is not None else probe:
        if kind == "cli":
            result = run_cli(flaghorn, spec, probe)
        else:
            result, work, answers = run_query(flaghorn, spec, probe)
    result["scale"] = probe.scale()
    if tracer is not None:
        tracer.uninstall()
    if kind == "query":
        result["wrong"] = check_query(flaghorn, work, answers)
    result["ready"] = ready
    result["setup_scale"] = setup_probe.scale()
    if tracer is not None:
        result["trace"] = tracer.report()
        result["spans"] = [
            [sid, parent, name, round(start - ready, 7), round(end - ready, 7)]
            for sid, parent, name, start, end in tracer.spans
        ]
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
