"""Small long-lived process that starts the benchmark's jobs.

Reads one JSON request per line on stdin: ``{"argv": [...], "stdout": path,
"stderr": path, "timeout": seconds}``.  Starts ``argv`` with stdin from
/dev/null and both output streams sent to the given files, reaps it with
``os.wait4`` and answers with one JSON line: wall time, user and system
CPU, peak RSS in kilobytes, exit status and whether the timeout killed it,
plus the time ``calibrate`` took just before the job started.  Exits when
stdin closes.  The launcher and its jobs run on one CPU (see ``main``).

Jobs are started from here rather than from the benchmark itself because
a child's ``ru_maxrss`` begins at the resident size of the process that
spawned it: the benchmark grows with the inputs it generates, while this
process stays smaller than any job it starts.
"""

import json
import os
import signal
import sys
from fractions import Fraction
from time import perf_counter


def calibrate():
    """Seconds taken by a fixed piece of pure-Python work: exact fraction
    sums and dictionary updates, the kind of work the program's jobs do.

    The benchmark divides its timings by the mean of these readings over a
    run (see ``run.py``), so this work must never change: a different loop
    would rescale every timing the benchmark reports.
    """
    start = perf_counter()
    total = Fraction(0)
    buckets = {}
    for k in range(1, 5000):
        total += Fraction(k % 7, k % 11 + 1)
        buckets[k % 97] = buckets.get(k % 97, 0) + k
    return perf_counter() - start


def run(request):
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], write, 0o644),
    ]
    argv = request["argv"]
    killed = []
    calibration = calibrate()
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)

    def on_timeout(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_timeout)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": bool(killed),
        "calibration_s": calibration,
    }


def main():
    # the launcher and every job it starts share one CPU, so that the
    # calibration times the CPU the jobs run on: on a shared host each CPU
    # slows and speeds up on its own
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
