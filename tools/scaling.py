"""Scaling table of the simulator and the agent: seconds per run by job count.

    python3 tools/scaling.py --checkout parent=../marsched-parent \
        --checkout change=. --out BENCH_16.json

A ``gen`` row times ``workload.generate_synthetic`` of the synthetic trace
below plus ``workload.write_swf`` of it; its output is the sha256 of the
SWF file. A ``parse`` row writes that trace to an SWF file (untimed) and
times ``workload.load_swf`` of it; a ``parse irregular`` row does the same
with a short line (``1 2 3``) before each block of 1,024 jobs, so that the
line-by-line reader runs and reports one line error per block. A ``costs``
row loads the plain file (untimed), then times ``workload.assign_costs`` with
the synthetic cost defaults and the trace's seed, as the CLI draws them for
a command that runs the agent.
A ``simulate`` row simulates one synthetic trace (128 processors, 0.05
jobs/s, seed 1, so the ready queue grows with the job count) under one
policy, with EASY backfilling on or off, and times ``simulator.run_episode``.
A ``cli simulate`` row has a child process write that trace to an SWF file
(untimed) and times the whole ``cli.main simulate`` of it in-process
(parse, run, metrics and the jobs.csv and report.csv writes); its output is
the sha256 of the two files.
A ``peak`` row is the ``gen`` or ``cli simulate`` row it names, and also
reports the process's peak resident set (``ru_maxrss``) after the work and
before it, when only the imports have run; as the child writes a ``cli
simulate`` row's SWF file, that peak is the command's alone.
The agent's rows use c08's job mix (32 processors, runtimes 5-10000 s, exact
estimates) and the benchmark's training settings: a ``train`` row times
``agent.train`` for a few epochs on a trace at 0.005 jobs/s and reports
seconds per epoch; the ``evaluate`` row trains a model for two epochs
(untimed), then times one greedy episode over a burst (2 jobs/s) and reports
decisions per second; the ``model io`` row trains a model as a ``train``
row does (untimed), then times ``agent.save_model`` followed by
``agent.load_model`` of it. An ``update`` row times one
``agent.actor_critic_step`` of a fresh model (default hyperparameters,
hidden 64, 64) on one episode of that many random steps, built untimed,
after an untimed warm-up step of another model on 16 steps; its output is the sha256 of the parameters after the step, and it also
reports tracemalloc's peak bytes over a second, traced run of the same step
from the same parameters. Outside the ``gen`` rows, generating the
traces is never timed. Every run is a fresh process with the checkout's
``src/`` first on ``PYTHONPATH`` and BLAS on one thread, and the checkouts
take turns run by run, the first of one repeat last in the next, so a slow
stretch of a shared machine hits them alike. A row reports each checkout's runs,
their median and their spread (slowest minus fastest run), and whether
every checkout gave the same output: the schedule (sha256 of the job ids
and start times, read from the run's columns), the output files, the parsed
trace (every job's input fields, the dropped jobs and the line errors),
the drawn cost rates (of the sorted job ids and cost rates), the SWF
text, the training curve's rewards or the bytes of every array of the
model read back. The i-th runs of two checkouts are a pair.
A row is ``"resolved": true`` only when, against the first checkout, every
other checkout is faster (or slower) in at least 9 of 10 pairs, and the
medians differ by more than the interquartile range of the first
checkout's runs; otherwise the noise can explain the difference, which
then says nothing about which checkout is faster. With one checkout no
row is resolved. Each checkout runs ``REPEATS`` (10) times a row: at 5
the rule needed 5 of 5 pairs, which a row of unchanged code meets by
chance with probability up to 1/16, and at 10 it needs 9 of 10, at most
22/1024. A table takes about twice as long as at 5.
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
ROWS = (("gen", (1000, 4000, 16000)),
        ("parse", (1000, 4000, 16000)),
        ("parse irregular", (1000, 4000, 16000)),
        ("costs", (1000, 4000, 16000)),
        ("simulate fcfs off", (1000, 4000, 16000)),
        ("cli simulate fcfs off", (1000, 4000, 16000)),
        ("simulate sjf off", (1000, 4000, 16000)),
        ("simulate fcfs on", (1000, 4000)),
        ("simulate sjf on", (1000, 4000, 16000)),
        ("simulate wfp3 on", (1000, 4000)),
        ("simulate unicef on", (1000, 4000)),
        ("simulate wfp3 off", (1000, 4000)),
        ("simulate unicef off", (1000, 4000)),
        ("train", (512, 2048)),
        ("evaluate", (500,)),
        ("model io", (512,)),
        ("update", (1000, 4000, 16000)),
        ("peak gen", (16000, 100000)),
        ("peak cli simulate fcfs off", (16000, 100000)))
TRACE = dict(total_procs=128, arrival_rate=0.05, seed=1)
# acceptance check c08's job mix; tools/learning.py builds c08's trace from it
C08_MIX = dict(runtime_min=5.0, runtime_max=10000.0, total_procs=32,
               overestimate_min=1.0, overestimate_max=1.0, seed=1)
TRAIN_RATE, BURST_RATE = 0.005, 2.0
TRAIN_EPOCHS = 3
REPEATS = 10
IRREGULAR_EVERY = 1024     # jobs per short line of a ``parse irregular`` row


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _fields(job) -> tuple:
    """A job's six input fields, which every checkout's ``Job`` has."""
    return (job.id, job.submit_time, job.run_time, job.requested_procs,
            job.requested_time, job.cost_rate)


def _schedule(schedule) -> str:
    """Digest of a run's sorted (id, start time) pairs, read from its
    columns (``metrics.Schedule``)."""
    return _digest(sorted(zip(schedule.id.tolist(), schedule.start.tolist())))


def _random_episode(hyper, steps: int):
    """A finished episode of ``steps`` random decisions in ``hyper``'s
    shapes, seeded by its length: states in [0, 1), masks that keep the
    pass action valid, an action among each step's valid ones and a
    negative terminal reward."""
    import numpy
    from marsched import agent
    rng = numpy.random.default_rng(steps)
    width = hyper.action_dim
    masks = rng.random((steps, width)) < 0.5
    masks[:, -1] = True
    actions = (rng.random((steps, width)) * masks).argmax(axis=1)
    traj = agent.EpisodeTrajectory()
    for state, action, mask, cost in zip(
            rng.random((steps, hyper.state_dim)), actions.tolist(),
            masks.tolist(), rng.random((steps, width))):
        traj.add_step(state, action, mask, cost)
    traj.finalize(-100.0 * float(rng.random()))
    return traj


def write_trace(path: str, jobs: int, irregular: bool = False) -> None:
    """Write the synthetic trace of ``jobs`` jobs to an SWF file; when
    ``irregular``, a short line opens each block of ``IRREGULAR_EVERY``
    jobs after the header."""
    from marsched import workload
    workload.write_swf(path, workload.generate_synthetic(
        workload.SyntheticConfig(job_count=jobs, **TRACE)))
    if irregular:
        with open(path) as fp:
            lines = fp.readlines()
        with open(path, "w") as fp:
            fp.write(lines[0])
            for lo in range(1, len(lines), IRREGULAR_EVERY):
                fp.writelines(["1 2 3\n", *lines[lo:lo + IRREGULAR_EVERY]])


def _max_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def worker(row: str, jobs: int) -> dict:
    """One timed run in this process; the program comes from sys.path."""
    import numpy
    from marsched import agent, simulator, workload
    kind, *setting = row.split()
    if kind == "peak":
        start_rss = _max_rss_mb()
        result = worker(" ".join(setting), jobs)
        return dict(result, start_rss_mb=start_rss, peak_rss_mb=_max_rss_mb())
    if kind == "gen":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.swf")
            t0 = time.perf_counter()
            write_trace(path, jobs)
            seconds = time.perf_counter() - t0
            with open(path, "rb") as fp:
                return {"seconds": seconds,
                        "output": hashlib.sha256(fp.read()).hexdigest()}
    if kind in ("parse", "costs"):
        cfg = workload.SyntheticConfig(job_count=jobs, **TRACE)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.swf")
            write_trace(path, jobs, irregular=setting == ["irregular"])
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
                "output": _schedule(result.schedule)}
    if kind == "cli":
        from marsched import cli
        command, policy, backfill = setting
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.swf")
            # a child writes the trace, so that this process's peak
            # resident set is the command's
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--write-trace", path, str(jobs)], check=True)
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
    if kind == "update":
        import tracemalloc
        hyper = agent.Hyperparameters(seed=1)
        model = agent.new_model(hyper)
        agent.actor_critic_step(agent.new_model(hyper),
                                [_random_episode(hyper, 16)], hyper)
        traj = _random_episode(hyper, jobs)
        before = model.snapshot()
        t0 = time.perf_counter()
        agent.actor_critic_step(model, [traj], hyper)
        seconds = time.perf_counter() - t0
        output = hashlib.sha256(b"".join(
            p.tobytes() for p in model.actor.parameters()
            + model.critic.parameters())).hexdigest()
        model.restore(before)
        tracemalloc.start()
        agent.actor_critic_step(model, [traj], hyper)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"seconds": seconds, "output": output, "peak_bytes": peak}
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


def resolved(first: list[float], other: list[float]) -> bool:
    """Whether ``other``'s runs differ from ``first``'s beyond the noise:
    one is faster in at least 9 of 10 pairs (``first[i]``, ``other[i]``),
    and the medians differ by more than the interquartile range of
    ``first``."""
    faster = sum(b < a for a, b in zip(first, other))
    slower = sum(b > a for a, b in zip(first, other))
    q1, _, q3 = statistics.quantiles(first, n=4, method="inclusive")
    return (10 * max(faster, slower) >= 9 * len(first)
            and abs(statistics.median(other) - statistics.median(first))
            > q3 - q1)


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
    p.add_argument("--write-trace", nargs=2, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.write_trace:
        path, jobs = args.write_trace
        write_trace(path, int(jobs))
        return 0
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
            order = list(checkouts.items())
            for _ in range(REPEATS):
                for label, root in order:
                    runs[label].append(timed_run(root, name, jobs))
                order.reverse()
            median = lambda key: {label: statistics.median(r[key] for r in rs)
                                  for label, rs in runs.items()}
            seconds = {label: [r["seconds"] for r in rs]
                       for label, rs in runs.items()}
            spread = {label: max(s) - min(s) for label, s in seconds.items()}
            first, *others = seconds.values()
            row = {"row": name, "jobs": jobs, "seconds": seconds,
                   "median_s": median("seconds"), "spread_s": spread,
                   "resolved": bool(others) and all(resolved(first, other)
                                                    for other in others),
                   "same_output": len({r["output"] for rs in runs.values()
                                       for r in rs}) == 1}
            if name == "evaluate":
                row["median_decisions_per_s"] = median("decisions_per_s")
            if name == "update":
                row["median_peak_bytes"] = median("peak_bytes")
            if name.startswith("peak"):
                row["median_start_rss_mb"] = median("start_rss_mb")
                row["median_peak_rss_mb"] = median("peak_rss_mb")
            rows.append(row)
            print(f"{name:17} {jobs:6} "
                  + " ".join(f"{label}={s:.3f}s"
                             for label, s in row["median_s"].items())
                  + "".join(f" {label}={mb:.1f}MB" for label, mb
                            in row.get("median_peak_rss_mb", {}).items())
                  + ("" if row["resolved"] else "  unresolved")
                  + ("" if row["same_output"] else "  OUTPUTS DIFFER"),
                  file=sys.stderr)
    result = {"schema": "marsched.scaling.v3", "trace": TRACE,
              "c08_mix": C08_MIX, "train_rate": TRAIN_RATE,
              "burst_rate": BURST_RATE, "train_epochs": TRAIN_EPOCHS,
              "repeats": REPEATS,
              "timed": {"gen": "workload.generate_synthetic + "
                               "workload.write_swf",
                        "parse": "workload.load_swf",
                        "parse irregular": "workload.load_swf, one short "
                                           "line per 1,024 jobs",
                        "costs": "workload.assign_costs",
                        "simulate": "simulator.run_episode",
                        "cli simulate": "cli.main simulate: parse, run, "
                                        "metrics, jobs.csv and report.csv",
                        "train": "agent.train, per epoch",
                        "evaluate": "MarsAgent.run_collect, greedy",
                        "model io": "agent.save_model + agent.load_model",
                        "update": "agent.actor_critic_step, one episode "
                                  "of that many steps",
                        "peak": "the row it names; also ru_maxrss before "
                                "and after"},
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
