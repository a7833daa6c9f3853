"""Benchmark of certified cyclotwist CLI jobs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cocycle-classify --seed 1 \
        --seconds 35 --trace 0

``--workload all`` runs the three workloads in turn, each ending with
its own result line.

Workloads (see BENCHMARK.json and perfbench/notes.json for why each):
cocycle-classify, lattice-certify, scan-sweep.  The job cycle is
generated from ``--seed`` before anything is timed and written as JSON
input files; the program sees only those files and its argv.

Each run spawns a few probe processes that only import the CLI, then
runs the cycle in WORKERS fresh single-threaded workers, one after
another.  A worker runs the whole cycle once, then the jobs that are
not marked ``once`` again and again until its share of ``--seconds``
of job time is used; so every job is timed at least WORKERS times, and
a quick one many times more.  A worker is a single client in a closed
loop: the next job starts when the previous one returns.  Every job's
exit code and stdout are checked against an answer the benchmark
derives on its own.

On a shared host the speed at which the interpreter runs can swing by
up to 1.8x, within seconds and over minutes, and every job slows
alike.  So the worker times a fixed piece of pure-Python work
(``worker.calibrate``) before and after each job, and each time is
scaled by CALIBRATION_S over that calibration: the time the job would
take on a machine where the calibration takes CALIBRATION_S.  The
calibration does not touch cyclotwist, so a change to the program
moves the scaled times as it moves the raw ones.  A job's time is the
median of its scaled times over its runs (every run of a job does the
same work in the same state), and the throughput, median and tail are
taken over those per-job times.  Set-up times are scaled the same way,
by a calibration made right after the import.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs single passes of the cycle, untraced and traced
from outside the package in turn, for ``--seconds`` of job time, and
reports the per-layer metrics per traced pass and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The lines before it print every metric by name and unit.
Exit status is 0 when a result was printed, 2 when the run could not be
made (no cyclotwist sources beside perfbench/, a worker that crashed or
overran its deadline).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.tracer import COMPUTED, layer_metrics  # noqa: E402

WORKER = ROOT / "perfbench" / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"
PROBES = 12         # import-only spawns per run for setup_s
WORKERS = 3         # fresh workers per run, each running the whole cycle
JOB_TIMEOUT = 30.0  # seconds; a job past this is stopped and counted failed
RUNAWAY = 3.0       # stop a run at this multiple of --seconds of job time
TAIL_BEYOND = 10    # jobs that must lie beyond the reported tail percentile
# Times are scaled to a machine on which worker.calibrate() takes this
# long, its usual time on the machine of the figures in notes.json.
CALIBRATION_S = 5e-4


class RunError(Exception):
    """The run could not produce a result."""


def _spawn(args, deadline):
    """Run the worker with args; (monotonic spawn time, stdout)."""
    cmd = [sys.executable, str(WORKER)] + args
    # a fixed string hash seed makes set and dict orders repeat across
    # workers, so repetitions of a job do the same work
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=str(ROOT), env=env,
                            text=True)
    try:
        out, err = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError("worker overran its %.0f s deadline" % deadline)
    except BaseException:
        # interrupted: leave no worker behind
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RunError("worker exited %d: %s" % (proc.returncode,
                                                 err.strip()[-2000:]))
    return spawned, out


def _write_inputs(jobs, tmp):
    """Write each job's input files, fill its argv with their paths and
    write the job file; returns its path."""
    out_path = str(tmp / "out.json")
    for i, job in enumerate(jobs):
        paths = {}
        for name, obj in job.pop("files").items():
            path = tmp / ("j%d-%s.json" % (i, name))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            paths[name] = str(path)
        subst = dict(paths, out=out_path)
        job["run_argv"] = [a.format(**subst) if a.startswith("{") else a
                           for a in job["argv"]]
        job["paths"] = paths
        job["out"] = out_path if "{out}" in job["argv"] else None
    path = tmp / "jobs.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    return path


def _worker(job_file, tmp, n, budget, cap, trace, spans=None):
    """Run worker n with ``budget`` and ``cap`` seconds of job time; its
    result, with its set-up time and job time added."""
    result_path = tmp / "result.json"
    args = ["--jobs", str(job_file), "--cycle", str(n),
            "--budget", repr(budget), "--limit", repr(cap),
            "--timeout", repr(JOB_TIMEOUT), "--trace", str(trace),
            "--result", str(result_path)]
    if spans:
        args += ["--spans", spans]
    spawned, _ = _spawn(args, cap + JOB_TIMEOUT + 30)
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup"] = _scaled(result["imported"] - spawned,
                              result["calibration"])
    result["busy"] = sum(r[2] for r in result["records"])
    return result


def _measure(job_file, tmp, seconds):
    """WORKERS workers, each given an equal share of the job time left;
    the runaway guard cuts the run short past RUNAWAY times seconds."""
    results = []
    busy = 0.0
    cap = seconds * RUNAWAY
    for n in range(WORKERS):
        budget = (seconds - busy) / (WORKERS - n)
        results.append(_worker(job_file, tmp, n, budget, cap - busy, 0))
        busy += results[-1]["busy"]
        if busy >= cap:
            break
    return results


def _traced(job_file, tmp, seconds, stem):
    """Single passes of the cycle, untraced and traced in turn, until
    one of each ran and the jobs took ``seconds``; (untraced, traced)."""
    runs = ([], [])
    busy = 0.0
    cap = seconds * RUNAWAY
    while not runs[1] or busy < seconds:
        trace = len(runs[0]) > len(runs[1])
        n = len(runs[0]) + len(runs[1])
        spans = "%s-c%d.jsonl.gz" % (stem, n) if trace else None
        runs[trace].append(_worker(job_file, tmp, n, 0.0, cap - busy,
                                   int(trace), spans))
        busy += runs[trace][-1]["busy"]
        if busy >= cap:
            break
    return runs


def _scaled(seconds, calibration):
    """A time taken when the calibration took ``calibration`` seconds,
    scaled to a machine on which it takes CALIBRATION_S."""
    return seconds * CALIBRATION_S / calibration


def _probe_setup():
    spawned, out = _spawn(["--probe"], 60)
    imported, calibration = (float(x) for x in out.split())
    return _scaled(imported - spawned, calibration)


def job_times(results):
    """{job index: (median of its scaled times, number of runs, all runs
    passed)} over the jobs that ran."""
    runs = {}
    for result in results:
        for i, _, dur, reason, calibration in result["records"]:
            runs.setdefault(i, []).append((_scaled(dur, calibration),
                                           reason is None))
    return {i: (statistics.median(d for d, _ in r), len(r),
                all(ok for _, ok in r))
            for i, r in runs.items()}


def _tail(times):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND jobs beyond it; the slowest job if there are too few."""
    xs = sorted(times)
    idx = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def end_to_end(setups, results):
    per_job = job_times(results).values()
    times = [t for t, _, _ in per_job]
    reps = [k for _, k, _ in per_job]
    passed = sum(1 for _, _, ok in per_job if ok)
    n = len(times)
    tail, pct = _tail(times)
    reps = "each the median of %d to %d runs" % (min(reps), max(reps))
    rss = [r["maxrss_kb"] for r in results]
    return {
        "setup_s": (statistics.median(setups), "s",
                    "median of %d spawns" % len(setups)),
        "jobs_per_s": (passed / sum(times), "1/s",
                       "%d correct jobs / %.3f s, job times %s"
                       % (passed, sum(times), reps)),
        "job_p50_s": (statistics.median(times), "s",
                      "median of %d jobs, %s" % (n, reps)),
        "job_tail_s": (tail, "s", "p%.2f of %d jobs, %d beyond, %s"
                       % (pct, n, min(TAIL_BEYOND, n - 1), reps)),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB",
                        "median ru_maxrss of %d workers" % len(rss)),
    }


def _overhead(plain, traced):
    """Traced over untraced job time, per job the median of its scaled
    runs, on the jobs both ran, minus one."""
    a, b = job_times(plain), job_times(traced)
    both = a.keys() & b.keys()
    return sum(b[i][0] for i in both) / sum(a[i][0] for i in both) - 1


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "cyclotwist" / "cli.py").is_file():
        raise RunError("no cyclotwist sources under %s" % (ROOT / "src"))
    jobs = workloads.build(workload, seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / ("run-%d" % os.getpid())
    tmp.mkdir()
    try:
        job_file = _write_inputs(jobs, tmp)
        setups = [_probe_setup() for _ in range(PROBES)]
        if not trace:
            results = _measure(job_file, tmp, seconds)
            metrics = end_to_end(setups + [r["setup"] for r in results],
                                 results)
        else:
            stem = OUT_DIR / ("spans-%s-seed%d" % (workload, seed))
            plain, traced = _traced(job_file, tmp, seconds, stem)
            results = plain + traced
            metrics = {name: (value, unit, COMPUTED[name][1]
                              if name in COMPUTED else "per traced pass")
                       for name, (value, unit)
                       in layer_metrics([r["layers"]
                                         for r in traced]).items()}
            metrics["trace_overhead_frac"] = (
                _overhead(plain, traced), "ratio",
                "traced / untraced job time on the same jobs, minus 1")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    records = [rec for r in results for rec in r["records"]]
    failures = [r for r in records if r[3] is not None]
    broken = sorted({k for r in results for k in r["checker_broken"]})
    for _, kind, dur, reason, _ in failures[:20]:
        print("FAILED %s (%.3f s): %s" % (kind, dur, reason))
    if broken:
        print("CHECKER BROKEN: a wrong answer passed for %s"
              % ", ".join(broken))
    print("%s seed=%d trace=%d" % (workload, seed, trace))
    print("  failed_frac = %r  (%d failed / %d attempted)"
          % (len(failures) / len(records), len(failures), len(records)))
    for name, (value, unit, note) in metrics.items():
        print("  %s = %r %s  (%s)" % (name, value, unit, note))
    return {
        "correct": not failures and not broken,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="certified cyclotwist CLI jobs: end-to-end and "
                    "per-layer metrics")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        try:
            summary = run(name, args.seed, args.seconds, args.trace)
        except RunError as exc:
            sys.stderr.write("perfbench: %s\n" % exc)
            return 2
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
