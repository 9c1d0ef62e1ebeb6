"""End-to-end benchmark of the tdlcinv command-line tool.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds the workload's inputs from the seed (see
``workloads.py``), then runs its jobs one at a time in a closed loop: one
client, one child process at a time.  Each job is a fresh
``python -m tdlcinv.cli ... --format json`` process whose output is
checked against a reference computed without tdlcinv.

With ``--trace 0`` it repeats rounds of the job list, in which the
workload's largest job runs ``workloads.LARGEST_REPEATS`` times, for up to
``--seconds`` (at least one round) and reports end-to-end metrics from
per-job means; every job's samples are kept in
``.bench_work/<workload>-<seed>/samples.json``.  With ``--trace 1`` it
runs one untraced pass and one pass through ``traced_cli.py``, requires
byte-identical standard output from both, and reports per-layer metrics.

The shared machines this benchmark runs on change speed by 20 to 30 % over
minutes, which no length of run averages away.  So every timing it reports
is in reference seconds: measured seconds times ``REFERENCE_CALIBRATION_S``
over the run's mean ``launcher.calibrate`` time, a fixed piece of
pure-Python work timed just before each job on the CPU the jobs run on.
The mean, not the median, because the readings switch between a fast and
a slow level, and the mean follows the share of time spent at each, as the
jobs' times do.  A run at the reference speed reports its measured
seconds.  The mean calibration time is on the detail line, and with
``--trace 0`` the measured timings too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries details such as the failed fraction and the sample counts.  The
program is imported from ``src/`` of the current directory; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import workloads
from traced_cli import COUNTERS, TARGETS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
SETUP_REPEATS = 5
# typical mean time of ``launcher.calibrate`` over a run on the machine the
# benchmark was written on (2 vCPUs of a shared Xeon host, CPython 3.11),
# where it ranged from 13 to 21 ms: timings are scaled to that speed;
# changing this value rescales every timing
REFERENCE_CALIBRATION_S = 0.018
JOB_TIMEOUT_S = 60.0
# no new job starts unless it is expected to end within this many seconds
# of the benchmark's start, which keeps a run well inside three minutes
RUN_BUDGET_S = 150.0


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    stdout: bytes
    calibration_s: float


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # a fixed hash seed keeps set iteration order, and with it the work done
    # by order-dependent loops, the same in every run
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Starts jobs through ``launcher.py`` and reads back their usage.

    ``os.wait4`` in the launcher reaps exactly one job, so its resource
    usage, peak RSS included, is that job's own and not a running maximum
    over earlier children; see ``launcher.py`` for why the launcher is a
    separate small process.
    """

    def __init__(self, env, cwd):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=cwd,
            text=True,
        )

    def run(self, command, out_path):
        request = {"argv": command, "stdout": out_path, "stderr": out_path + ".err", "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("bench: the job launcher exited")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=JOB_TIMEOUT_S)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def matches(stdout, expected):
    """Whether the output is JSON equal to the reference; the canonical dumps
    keep ``true`` apart from ``1``."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def run_job(launcher, job, command, out_path):
    usage = launcher.run(command, out_path)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    problem = None
    if usage["timed_out"]:
        problem = f"killed after {JOB_TIMEOUT_S:g} s"
    elif usage["exit_code"] != 0:
        problem = f"exit code {usage['exit_code']}"
    elif not matches(stdout, job.expected):
        problem = "output differs from the reference"
    if problem:
        sys.stderr.write(f"FAILED {job.name}: {problem}\n")
    return Outcome(
        usage["wall_s"], usage["cpu_s"], usage["maxrss_kb"] / 1024.0, problem is None, stdout, usage["calibration_s"]
    )


def cli_command(job):
    return [sys.executable, "-m", "tdlcinv.cli", *job.argv, "--format", "json"]


def traced_command(job, trace_path):
    script = os.path.join(BENCH_DIR, "traced_cli.py")
    return [sys.executable, script, trace_path, *job.argv, "--format", "json"]


def warm_up(launcher, root, workdir):
    """One start of the program outside the job metrics (``setup_s``
    includes it), which also proves it is the copy under ``src/`` that the
    benchmark measures."""
    probe = os.path.join(workdir, "warm_up.out")
    command = [sys.executable, "-c", "import tdlcinv.cli; print(tdlcinv.cli.__file__)"]
    code = launcher.run(command, probe)["exit_code"]
    with open(probe, encoding="utf-8") as handle:
        location = handle.read().strip()
    expected = os.path.join(root, "src", "tdlcinv")
    if code != 0 or os.path.dirname(os.path.realpath(location)) != os.path.realpath(expected):
        raise SystemExit(f"bench: tdlcinv.cli did not load from {expected} (got {location!r})")


def setup(launcher, workload, seed, root):
    """Fresh inputs and references plus one warm-up start; returns (seconds, jobs, dir)."""
    start = perf_counter()
    workdir = os.path.join(root, WORK_DIR, f"{workload}-{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.build(workload, seed, os.path.join(workdir, "inputs"))
    warm_up(launcher, root, workdir)
    return perf_counter() - start, jobs, workdir


def one_pass(launcher, jobs, make_command, workdir, tag):
    return [
        run_job(launcher, job, make_command(job, k), os.path.join(workdir, f"{tag}_{k:02d}.out"))
        for k, job in enumerate(jobs)
    ]


def round_order(jobs, repeats):
    """Job indices of one round: every job once, and the largest job
    ``repeats`` times at evenly spaced places, so that its samples spread
    over the whole run like those of the other jobs."""
    largest = next(k for k, job in enumerate(jobs) if job.largest)
    others = [k for k in range(len(jobs)) if k != largest]
    order = []
    for part in range(repeats):
        order.append(largest)
        order.extend(others[part * len(others) // repeats:(part + 1) * len(others) // repeats])
    return order


def measure(launcher, jobs, repeats, workdir, seconds, started):
    """Rounds of ``round_order`` for up to ``seconds``: the first round in
    full, then job by job while the next job, as slow as its slowest run so
    far, would end in time.  Returns one outcome list per job."""
    samples = [[] for _ in jobs]
    order = round_order(jobs, repeats)
    first = perf_counter()
    full_round = True
    while True:
        for k in order:
            if not full_round:
                now = perf_counter()
                expected = max(o.wall_s for o in samples[k])
                if now - first + expected > seconds or now - started + expected > RUN_BUDGET_S:
                    return samples
            outcome = run_job(launcher, jobs[k], cli_command(jobs[k]), os.path.join(workdir, f"job_{k:02d}.out"))
            samples[k].append(outcome)
        full_round = False


def save_samples(path, jobs, samples):
    """Every job's samples, kept for inspection after a run."""
    record = {
        job.name: [
            {"wall_s": o.wall_s, "cpu_s": o.cpu_s, "rss_mb": o.rss_mb, "ok": o.ok, "calibration_s": o.calibration_s}
            for o in outcomes
        ]
        for job, outcomes in zip(jobs, samples)
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(jobs, samples, setup_times):
    """The end-to-end metrics, timings in reference seconds, and the
    measured timings and mean calibration time they were scaled from.

    Each job counts with the mean of its samples: a job's time switches
    between a fast and a slow level with the machine, and the mean follows
    the share of each where a median of a few samples jumps between them."""
    walls = [statistics.fmean(o.wall_s for o in s) for s in samples]
    cpus = [statistics.fmean(o.cpu_s for o in s) for s in samples]
    rss = [statistics.median(o.rss_mb for o in s) for s in samples]
    largest = next(k for k, job in enumerate(jobs) if job.largest)
    measured = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(walls),
        "cpu_s": sum(cpus),
        "job_p50_s": statistics.median(walls),
        "largest_job_s": walls[largest],
    }
    calibration = statistics.fmean(o.calibration_s for s in samples for o in s)
    scale = REFERENCE_CALIBRATION_S / calibration
    metrics = {name: metric(value * scale, "s") for name, value in measured.items()}
    metrics["peak_rss_mb"] = metric(max(rss), "MB")
    return metrics, measured, calibration


def per_layer(launcher, jobs, workdir):
    """One untraced and one traced pass; per-layer metrics and failure count."""
    plain = one_pass(launcher, jobs, lambda job, k: cli_command(job), workdir, "plain")
    trace_paths = [os.path.join(workdir, f"trace_{k:02d}.json") for k in range(len(jobs))]
    traced = one_pass(
        launcher, jobs, lambda job, k: traced_command(job, trace_paths[k]), workdir, "traced"
    )
    failed = sum(not o.ok for o in plain)
    calls, self_s, counts, import_s = {}, {}, {}, []
    for job, untraced, outcome, path in zip(jobs, plain, traced, trace_paths):
        if outcome.stdout != untraced.stdout:
            sys.stderr.write(f"FAILED {job.name}: traced stdout differs from untraced stdout\n")
            outcome.ok = False
        try:
            with open(path, encoding="utf-8") as handle:
                trace = json.load(handle)
        except (OSError, ValueError):
            sys.stderr.write(f"FAILED {job.name}: no trace written\n")
            outcome.ok, trace = False, None
        failed += not outcome.ok
        if trace is None:
            continue
        import_s.append(trace["import_s"])
        for table, key in ((calls, "calls"), (self_s, "self_s"), (counts, "counts")):
            for name, value in trace[key].items():
                table[name] = table.get(name, 0) + value
    calibration = statistics.fmean(o.calibration_s for o in plain + traced)
    scale = REFERENCE_CALIBRATION_S / calibration
    metrics = {}
    for name, _, _, _ in TARGETS:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0) * scale, "s")
    for name in COUNTERS:
        metrics[name] = metric(counts.get(name, 0), "count")
    metrics["cli.import_s"] = metric(statistics.median(import_s) * scale if import_s else 0.0, "s")
    overhead = sum(o.wall_s for o in traced) / sum(o.wall_s for o in plain) - 1.0
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    return metrics, 2 * len(jobs), failed, calibration


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tdlcinv", "cli.py")):
        sys.stderr.write("bench: run from the root of a tdlcinv checkout (src/tdlcinv missing)\n")
        return 2
    with Launcher(child_env(root), root) as launcher:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            seconds, jobs, workdir = setup(launcher, args.workload, args.seed, root)
            setup_times.append(seconds)
        if args.trace:
            metrics, attempted, failed, calibration = per_layer(launcher, jobs, workdir)
            counts = [1] * len(jobs)
            scaled_from = {"calibration_s": calibration}
        else:
            repeats = workloads.LARGEST_REPEATS[args.workload]
            samples = measure(launcher, jobs, repeats, workdir, args.seconds, started)
            save_samples(os.path.join(workdir, "samples.json"), jobs, samples)
            metrics, measured, calibration = end_to_end(jobs, samples, setup_times)
            scaled_from = {"measured_s": measured, "calibration_s": calibration}
            attempted = sum(len(s) for s in samples)
            failed = sum(not o.ok for s in samples for o in s)
            counts = [len(s) for s in samples]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "largest_job": next(job.name for job in jobs if job.largest),
        "samples": {"largest_job": max(counts), "fewest": min(counts), "total": sum(counts)},
        "failed_frac": metric(failed / attempted, "ratio"),
        **scaled_from,
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
