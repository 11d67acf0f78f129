"""Scaling table of the simulator and the agent: seconds per run by job count.

    python3 tools/scaling.py --checkout parent=../marsched-parent \
        --checkout change=. --out BENCH_16.json

A ``parse`` row writes the synthetic trace below to an SWF file (untimed)
and times ``workload.load_swf`` of it. A ``costs`` row loads that file
(untimed), then times ``workload.assign_costs`` with the synthetic cost
defaults and the trace's seed, as the CLI draws them for a command that runs
the agent.
A ``simulate`` row simulates one synthetic trace (128 processors, 0.05
jobs/s, seed 1, so the ready queue grows with the job count) under one
policy, with EASY backfilling on or off, and times ``simulator.run_episode``.
A ``cli simulate`` row writes that trace to an SWF file (untimed) and times
the whole ``cli.main simulate`` of it in-process (parse, run, metrics and
the jobs.csv and report.csv writes); its output is the sha256 of the two
files.
The agent's rows use c08's job mix (32 processors, runtimes 5-10000 s, exact
estimates) and the benchmark's training settings: a ``train`` row times
``agent.train`` for a few epochs on a trace at 0.005 jobs/s and reports
seconds per epoch; the ``evaluate`` row trains a model for two epochs
(untimed), then times one greedy episode over a burst (2 jobs/s) and reports
decisions per second; the ``model io`` row trains a model as a ``train``
row does (untimed), then times ``agent.save_model`` followed by
``agent.load_model`` of it. Generating the traces is never timed. Every run is a
fresh process with the checkout's ``src/`` first on ``PYTHONPATH`` and BLAS
on one thread, and the checkouts take turns run by run, so a slow stretch of
a shared machine hits them alike. A row reports each checkout's runs,
their median and their spread (slowest minus fastest run), and whether
every checkout gave the same output: the schedule (sha256 of the job ids
and start times, read from the finished jobs or from the run's columns,
whichever layout the checkout returns), the output files, the parsed
trace (every job's input fields, the dropped jobs and the line errors),
the drawn cost rates (of the sorted job ids and cost rates), the training
curve's rewards or the bytes of every array of the model read back. A row is ``"resolved": false`` when
the checkouts' medians differ by less than the first checkout's spread:
the run-to-run noise is then as large as the difference, which says
nothing about which checkout is faster. With one checkout no row is
resolved.
The JSON also records nproc, the Python and numpy versions, and the line
count of every ``src/marsched/*.py`` of each checkout. Standard library and
numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

# (row, job counts); a simulate row names its policy and backfill setting
ROWS = (("parse", (1000, 4000, 16000)),
        ("costs", (1000, 4000, 16000)),
        ("simulate fcfs off", (1000, 4000, 16000)),
        ("cli simulate fcfs off", (1000, 4000, 16000)),
        ("simulate sjf off", (1000, 4000, 16000)),
        ("simulate fcfs on", (1000, 4000)),
        ("simulate sjf on", (1000, 4000, 16000)),
        ("simulate wfp3 on", (1000, 4000)),
        ("simulate unicef on", (1000, 4000)),
        ("train", (512, 2048)),
        ("evaluate", (500,)),
        ("model io", (512,)))
TRACE = dict(total_procs=128, arrival_rate=0.05, seed=1)
# acceptance check c08's job mix; tools/learning.py builds c08's trace from it
C08_MIX = dict(runtime_min=5.0, runtime_max=10000.0, total_procs=32,
               overestimate_min=1.0, overestimate_max=1.0, seed=1)
TRAIN_RATE, BURST_RATE = 0.005, 2.0
TRAIN_EPOCHS = 3
REPEATS = 5


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _fields(job) -> tuple:
    """A job's six input fields, which every checkout's ``Job`` has."""
    return (job.id, job.submit_time, job.run_time, job.requested_procs,
            job.requested_time, job.cost_rate)


def _schedule(finished) -> str:
    """Digest of a run's sorted (id, start time) pairs; ``finished`` is the
    run's columns, or a list of finished jobs that hold their start times."""
    if hasattr(finished, "start"):
        pairs = zip(finished.id.tolist(), finished.start.tolist())
    else:
        pairs = ((j.id, j.start_time) for j in finished)
    return _digest(sorted(pairs))


def _run_schedule(result) -> str:
    """``_schedule`` of a ``RunResult`` in either layout."""
    return _schedule(result.schedule if hasattr(result, "schedule")
                     else result.jobs)


def worker(row: str, jobs: int) -> dict:
    """One timed run in this process; the program comes from sys.path."""
    import numpy
    from marsched import agent, simulator, workload
    kind, *setting = row.split()
    if kind in ("parse", "costs"):
        cfg = workload.SyntheticConfig(job_count=jobs, **TRACE)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.swf")
            workload.write_swf(path, workload.generate_synthetic(cfg))
            t0 = time.perf_counter()
            trace = workload.load_swf(path, name="trace")
            seconds = time.perf_counter() - t0
        if kind == "parse":
            return {"seconds": seconds,
                    "output": _digest(([_fields(j) for j in trace.jobs],
                                       trace.dropped_jobs,
                                       trace.line_errors))}
        t0 = time.perf_counter()
        workload.assign_costs(trace, cfg.cost_mean, cfg.cost_std, cfg.seed)
        return {"seconds": time.perf_counter() - t0,
                "output": _digest(sorted((j.id, j.cost_rate)
                                         for j in trace.jobs))}
    if kind == "simulate":
        policy, backfill = setting
        trace = workload.generate_synthetic(
            workload.SyntheticConfig(job_count=jobs, **TRACE))
        t0 = time.perf_counter()
        result = simulator.run_episode(trace, policy,
                                       backfill=backfill == "on")
        return {"seconds": time.perf_counter() - t0,
                "output": _run_schedule(result)}
    if kind == "cli":
        from marsched import cli
        command, policy, backfill = setting
        cfg = workload.SyntheticConfig(job_count=jobs, **TRACE)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.swf")
            workload.write_swf(path, workload.generate_synthetic(cfg))
            argv = [command, "--trace", path, "--policy", policy,
                    "--backfill", backfill, "--out", tmp]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - t0
            if code != 0:
                raise SystemExit(f"{row}: exit code {code}")
            digest = hashlib.sha256()
            for name in ("jobs.csv", "report.csv"):
                with open(os.path.join(tmp, name), "rb") as fp:
                    digest.update(fp.read())
        return {"seconds": seconds, "output": digest.hexdigest()}

    def c08(count, rate):
        return workload.generate_synthetic(workload.SyntheticConfig(
            job_count=count, arrival_rate=rate, **C08_MIX))

    def trained(trace, epochs):
        hyper = agent.Hyperparameters(epochs=epochs, seed=1, actor_lr=0.01,
                                      critic_lr=0.05, time_norm=3600.0)
        return agent.train(lambda w, e: (trace.jobs, trace.total_procs),
                           hyper)

    if kind == "train":
        trace = c08(jobs, TRAIN_RATE)
        t0 = time.perf_counter()
        _, _, curve = trained(trace, TRAIN_EPOCHS)
        return {"seconds": (time.perf_counter() - t0) / TRAIN_EPOCHS,
                "output": _digest([p.reward for p in curve])}
    if kind == "model":
        model = trained(c08(jobs, TRAIN_RATE), TRAIN_EPOCHS)[0].model
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            t0 = time.perf_counter()
            agent.save_model(path, model)
            loaded = agent.load_model(path)
            seconds = time.perf_counter() - t0
        arrays = [a for m in (loaded.actor_adam, loaded.critic_adam)
                  for a in m.m + m.v] \
            + loaded.actor.parameters() + loaded.critic.parameters()
        return {"seconds": seconds,
                "output": hashlib.sha256(b"".join(
                    a.tobytes() for a in arrays)).hexdigest()}
    mars, _, _ = trained(c08(512, TRAIN_RATE), 2)
    burst = c08(jobs, BURST_RATE)
    t0 = time.perf_counter()
    finished, _, stats, _ = mars.run_collect(
        burst.jobs, burst.total_procs, rng=numpy.random.default_rng(0),
        greedy=True)
    seconds = time.perf_counter() - t0
    return {"seconds": seconds, "output": _schedule(finished),
            "decisions_per_s": (stats.started - stats.forced_starts)
            / seconds}


def timed_run(root: str, row: str, jobs: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", row,
         str(jobs)],
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
    p.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        row, jobs = args.worker
        print(json.dumps(worker(row, int(jobs))))
        return 0

    checkouts = dict(c.split("=", 1) for c in args.checkout or ["change=."])
    checkouts = {label: os.path.abspath(root)
                 for label, root in checkouts.items()}
    rows = []
    for name, counts in ROWS:
        for jobs in counts:
            runs = {label: [] for label in checkouts}
            for _ in range(REPEATS):
                for label, root in checkouts.items():
                    runs[label].append(timed_run(root, name, jobs))
            median = lambda key: {label: statistics.median(r[key] for r in rs)
                                  for label, rs in runs.items()}
            seconds = {label: [r["seconds"] for r in rs]
                       for label, rs in runs.items()}
            spread = {label: max(s) - min(s) for label, s in seconds.items()}
            medians = median("seconds")
            row = {"row": name, "jobs": jobs, "seconds": seconds,
                   "median_s": medians, "spread_s": spread,
                   "resolved": max(medians.values()) - min(medians.values())
                   >= spread[next(iter(checkouts))],
                   "same_output": len({r["output"] for rs in runs.values()
                                       for r in rs}) == 1}
            if name == "evaluate":
                row["median_decisions_per_s"] = median("decisions_per_s")
            rows.append(row)
            print(f"{name:17} {jobs:6} "
                  + " ".join(f"{label}={s:.3f}s"
                             for label, s in row["median_s"].items())
                  + ("" if row["resolved"] else "  unresolved")
                  + ("" if row["same_output"] else "  OUTPUTS DIFFER"),
                  file=sys.stderr)
    result = {"schema": "marsched.scaling.v3", "trace": TRACE,
              "c08_mix": C08_MIX, "train_rate": TRAIN_RATE,
              "burst_rate": BURST_RATE, "train_epochs": TRAIN_EPOCHS,
              "repeats": REPEATS,
              "timed": {"parse": "workload.load_swf",
                        "costs": "workload.assign_costs",
                        "simulate": "simulator.run_episode",
                        "cli simulate": "cli.main simulate: parse, run, "
                                        "metrics, jobs.csv and report.csv",
                        "train": "agent.train, per epoch",
                        "evaluate": "MarsAgent.run_collect, greedy",
                        "model io": "agent.save_model + agent.load_model"},
              "machine": machine_facts(),
              "checkouts": {label: checkout_facts(root)
                            for label, root in checkouts.items()},
              "rows": rows}
    text = json.dumps(result, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text + "\n")
    print(text)
    return 0 if all(r["same_output"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
