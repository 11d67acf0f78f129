"""Scaling table of the heuristic simulator: seconds per run by job count.

    python3 tools/scaling.py --checkout parent=../marsched-parent \
        --checkout change=. --out BENCH_6.json

Every row simulates one synthetic trace (128 processors, 0.05 jobs/s, seed
1, so the ready queue grows with the job count) under one policy, with EASY
backfilling on or off. Only ``simulator.run_episode`` is timed; generating
the trace is not. Every run is a fresh process with the checkout's ``src/``
first on ``PYTHONPATH``, and the checkouts take turns run by run, so a
slow stretch of a shared machine hits them alike. A row reports each
checkout's runs and their median, and whether every checkout gave the same
schedule (sha256 of the job ids and start times). The JSON also records
nproc, the Python and numpy versions, and the line count of every
``src/marsched/*.py`` of each checkout. Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# (policy, backfill, job counts)
ROWS = (("fcfs", "off", (1000, 4000)),
        ("fcfs", "on", (1000, 4000)),
        ("sjf", "on", (1000, 4000, 16000)),
        ("wfp3", "on", (1000, 4000)))
TRACE = dict(total_procs=128, arrival_rate=0.05, seed=1)
REPEATS = 3


def worker(policy: str, backfill: str, jobs: int) -> dict:
    """One timed run in this process; the simulator comes from sys.path."""
    from marsched import simulator, workload
    trace = workload.generate_synthetic(
        workload.SyntheticConfig(job_count=jobs, **TRACE))
    t0 = time.perf_counter()
    result = simulator.run_episode(trace, policy, backfill=backfill == "on")
    seconds = time.perf_counter() - t0
    starts = sorted((j.id, j.start_time) for j in result.jobs)
    return {"seconds": seconds,
            "schedule": hashlib.sha256(repr(starts).encode()).hexdigest()}


def timed_run(root: str, policy: str, backfill: str, jobs: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", policy,
         backfill, str(jobs)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def checkout_facts(root: str) -> dict:
    lines = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "marsched",
                                              "*.py"))):
        with open(path) as fp:
            lines[os.path.basename(path)] = sum(1 for _ in fp)
    lines["total"] = sum(lines.values())
    git = lambda *cmd: subprocess.run(["git", "-C", root, *cmd],
                                      capture_output=True, text=True).stdout
    return {"commit": git("rev-parse", "HEAD").strip() or None,
            "uncommitted_src": bool(git("status", "--porcelain", "src")),
            "src_lines": lines}


def machine_facts() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                   help="a checkout to time, repeatable (default change=.)")
    p.add_argument("--out", help="write the JSON here as well as stdout")
    p.add_argument("--worker", nargs=3, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        policy, backfill, jobs = args.worker
        print(json.dumps(worker(policy, backfill, int(jobs))))
        return 0

    checkouts = dict(c.split("=", 1) for c in args.checkout or ["change=."])
    checkouts = {label: os.path.abspath(root)
                 for label, root in checkouts.items()}
    rows = []
    for policy, backfill, counts in ROWS:
        for jobs in counts:
            runs = {label: [] for label in checkouts}
            for _ in range(REPEATS):
                for label, root in checkouts.items():
                    runs[label].append(timed_run(root, policy, backfill,
                                                 jobs))
            row = {"policy": policy, "backfill": backfill, "jobs": jobs,
                   "seconds": {label: [r["seconds"] for r in rs]
                               for label, rs in runs.items()},
                   "median_s": {label: statistics.median(
                                    r["seconds"] for r in rs)
                                for label, rs in runs.items()},
                   "same_schedule": len({r["schedule"] for rs in
                                         runs.values() for r in rs}) == 1}
            rows.append(row)
            print(f"{policy:5} {backfill:3} {jobs:6} "
                  + " ".join(f"{label}={s:.3f}s"
                             for label, s in row["median_s"].items())
                  + ("" if row["same_schedule"] else "  SCHEDULES DIFFER"),
                  file=sys.stderr)
    result = {"schema": "marsched.scaling.v1", "trace": TRACE,
              "repeats": REPEATS, "timed": "simulator.run_episode",
              "machine": machine_facts(),
              "checkouts": {label: checkout_facts(root)
                            for label, root in checkouts.items()},
              "rows": rows}
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text + "\n")
    print(text)
    return 0 if all(r["same_schedule"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
