"""One benchmark worker: a single process and thread that runs a job
stream in-process through ``cyclotwist.cli.main(argv)``.

Set-up ends when ``import cyclotwist.cli`` returns; the worker records
that instant on the system-wide monotonic clock so the parent can
subtract the moment it spawned the process, and then times a fixed
piece of pure-Python work (``calibrate``).  With ``--probe`` the worker
prints those two and exits.

Otherwise it runs the cycle of jobs in ``--jobs`` once, in order, and
then the jobs not marked ``once`` again and again, in the same order,
until the jobs have taken ``--budget`` seconds in total.  It stops
early, even within the first pass, once they have taken ``--limit``
seconds.  Each job is timed from the call of ``main`` to its return,
with stdout and stderr captured, under a wall-clock timeout that counts
as a failure.  Outputs are checked between jobs, outside the timed
interval.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cyclotwist.cli  # noqa: E402  (set-up ends here)

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


class JobTimeout(BaseException):
    """Raised in the job by the wall-clock alarm; a BaseException so that
    no handler in the program under test swallows it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(argv, timeout):
    """(exit code or a failure label, stdout, seconds) for one call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                rc = cyclotwist.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        rc = "timeout"
    except Exception as exc:  # an uncaught error is a failed job, not a crash
        rc = "uncaught %s" % type(exc).__name__
    return rc, out.getvalue(), time.perf_counter() - start


def calibrate():
    """Seconds for a fixed piece of pure-Python work (integer arithmetic
    and dict lookups, inserts and deletes), a probe of how fast the
    machine runs the interpreter at this moment."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(1500):
        key = (i * 7919) % 1021
        acc = (acc * 31 + table.get(key, i)) % 1000003
        table[key] = acc
        if acc & 1:
            table.pop((key * 3) % 1021, None)
    return time.perf_counter() - start


def _inputs(job):
    files = {}
    for name, path in job["paths"].items():
        with open(path, "r", encoding="utf-8") as fh:
            files[name] = json.load(fh)
    return files


def _schedule(jobs, budget):
    """Indices of the jobs to run: the whole cycle, then the repeatable
    jobs for as long as ``budget()`` says there is time left."""
    yield from range(len(jobs))
    again = [i for i, job in enumerate(jobs) if not job["once"]]
    while again:
        for i in again:
            if not budget():
                return
            yield i


def stream(jobs, budget, limit, timeout, tracer, cycle):
    """Records [job index, kind, seconds, failure or None, calibration
    seconds]: the mean of the calibrations just before and just after
    the job, each the best of three."""
    records = []
    broken = set()
    inputs = {}
    busy = 0.0
    before = min(calibrate() for _ in range(3))
    for i in _schedule(jobs, lambda: busy < budget):
        if busy >= limit:
            break
        job = jobs[i]
        out_path = job["out"]
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        if tracer is not None:
            tracer.job = "%d:%d" % (cycle, i)
        rc, out, dur = run_job(job["run_argv"], timeout)
        busy += dur
        if i not in inputs:
            inputs[i] = _inputs(job)
        files = inputs[i]
        reason = checks.check(job, rc, out, files, out_path)
        if rc == job["expect"]["rc"] and checks.check(
                checks.wrong(job), rc, out, files, out_path) is None:
            broken.add(job["kind"])
        after = min(calibrate() for _ in range(3))
        records.append([i, job["kind"], dur, reason, (before + after) / 2])
        before = after
    return records, sorted(broken)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--jobs")
    ap.add_argument("--cycle", type=int, default=0)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--limit", type=float)
    ap.add_argument("--timeout", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args()
    calibration = min(calibrate() for _ in range(3))
    if args.probe:
        print(repr(IMPORTED), repr(calibration))
        return 0
    signal.signal(signal.SIGALRM, _alarm)
    with open(args.jobs, "r", encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    records, broken = stream(jobs, args.budget, args.limit, args.timeout,
                             tracer, args.cycle)
    result = {
        "imported": IMPORTED,
        "calibration": calibration,
        "records": records,
        "checker_broken": broken,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
