"""The benchmark's workloads: seeded inputs and the ops run over them.

Each workload owns a bank of traces generated from the benchmark seed. One
round runs the workload's ops over one trace of the bank, and a run repeats
rounds, moving through the bank, until its time is up. Why the workloads
are what they are is in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field

from checks import read_jobs_csv, read_report, schedule_problems, sha256_file
from marsched import agent, cli, workload

# Run-level settings the program reads from the INI file of every op.
CONFIG_INI = "[run]\nseed = 0\ntau = 10.0\n"
RUN_SEED = 0      # [run] seed above: keys the CLI's per-job cost draws
COST_MEAN, COST_STD = 1.0, 0.5      # the CLI's defaults for assign_costs


@dataclass
class OpResult:
    name: str
    wall_s: float = 0.0
    jobs: int = 0               # jobs scheduled by the op's episodes
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bsld: float | None = None
    epoch_s: list[float] = field(default_factory=list)
    fingerprint: tuple = ()     # compared when a bank entry comes round again


@dataclass
class Trace:
    path: str
    total_procs: int
    jobs: dict[int, tuple[float, float, int]]   # id -> (submit, run, procs)


@dataclass
class Spec:
    name: str
    why: str
    bank: int                        # traces per seed
    traces: tuple                    # SyntheticConfig keyword sets per round
    policies: tuple = ()             # simulate ops; none means train + evaluate
    backfill: str = "on"


# c08's job mix: 32 processors, runtimes 5-10000 s, exact estimates. The
# arrival rates differ from c08's 0.014/s; README.md says why.
C08_MIX = dict(runtime_min=5.0, runtime_max=10000.0, total_procs=32,
               overestimate_min=1.0, overestimate_max=1.0)

SPECS = {
    "easy_overload": Spec(
        "easy_overload",
        "deep ready queue under EASY: queue scans, scoring, sorting and "
        "reservations dominate; all eight heuristics",
        bank=24,
        traces=(dict(job_count=300, arrival_rate=2.0, total_procs=128),),
        policies=("fcfs", "sjf", "wfp3", "unicef", "f1", "f2", "f3", "f4")),
    "nobf_underload": Spec(
        "nobf_underload",
        "short ready queue, backfill off: SWF parse, cost draws, event loop, "
        "metrics and CSV writes dominate; fcfs, sjf, wfp3",
        bank=8,
        traces=(dict(job_count=5000, arrival_rate=0.0025, total_procs=128),),
        policies=("fcfs", "sjf", "wfp3"), backfill="off"),
    "train_eval": Spec(
        "train_eval",
        "agent and neural layers: actor-critic training on the c08 job mix, "
        "then greedy evaluation of the saved model over a deep queue",
        bank=32,
        traces=(dict(job_count=512, arrival_rate=0.005, **C08_MIX),
                dict(job_count=500, arrival_rate=2.0, **C08_MIX))),
}

TRAIN_EPOCHS = 10


def trace_seed(workload_name: str, seed: int, index: int, part: int) -> int:
    """Seed of one generated trace; distinct for every workload, benchmark
    seed, bank index and trace within a round."""
    tag = sorted(SPECS).index(workload_name)
    return ((seed * 8 + tag) * 4096 + index) * 4 + part


def make_inputs(spec: Spec, seed: int, inputs_dir: str) -> list[tuple]:
    """Write the workload's bank of SWF traces; one tuple of Trace per
    bank entry."""
    bank = []
    for index in range(spec.bank):
        entry = []
        for part, params in enumerate(spec.traces):
            cfg = workload.SyntheticConfig(
                seed=trace_seed(spec.name, seed, index, part), **params)
            trace = workload.generate_synthetic(cfg)
            path = os.path.join(inputs_dir, f"{spec.name}-{index}-{part}.swf")
            workload.write_swf(path, trace)
            entry.append(Trace(path, trace.total_procs,
                               {j.id: (j.submit_time, j.run_time,
                                       j.requested_procs)
                                for j in trace.jobs}))
        bank.append(tuple(entry))
    return bank


def write_config(inputs_dir: str) -> str:
    path = os.path.join(inputs_dir, "bench.ini")
    with open(path, "w") as fp:
        fp.write(CONFIG_INI)
    return path


# -- ops --------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, float, str]:
    """One in-process ``marsched`` command; (exit code, wall s, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return code, wall, err.getvalue()


def _check_outputs(res: OpResult, out_dir: str, trace: Trace) -> None:
    jobs_csv = os.path.join(out_dir, "jobs.csv")
    report_csv = os.path.join(out_dir, "report.csv")
    res.problems += schedule_problems(read_jobs_csv(jobs_csv), trace.jobs,
                                      trace.total_procs)
    report = read_report(report_csv)
    if int(report["job_count"]) != len(trace.jobs):
        res.problems.append("report.csv job_count differs from the trace")
    res.bsld = float(report["mean_bounded_slowdown"])
    res.digests = {"jobs": sha256_file(jobs_csv),
                   "report": sha256_file(report_csv)}
    res.fingerprint = tuple(sorted(res.digests.items()))


def _guarded(name: str, body) -> OpResult:
    """Run one op; an exception fails the op and the run goes on."""
    res = OpResult(name)
    try:
        body(res)
    except Exception:
        res.problems.append("raised " + traceback.format_exc(limit=-3))
    return res


def cli_op(name: str, argv: list[str], trace: Trace,
           out_dir: str) -> OpResult:
    """A ``simulate`` or ``evaluate`` command over ``trace``."""
    def body(res):
        code, res.wall_s, err = _cli(argv + ["--out", out_dir])
        if code != 0:
            res.problems.append(f"exit code {code}: {err.strip()}")
            return
        res.jobs = len(trace.jobs)
        _check_outputs(res, out_dir, trace)
    return _guarded(name, body)


def train_op(trace: Trace, seed: int, out_dir: str) -> OpResult:
    """One ``agent.train`` run with the CLI's 70/30 split; the model goes
    to ``model.json`` in ``out_dir``."""
    def body(res):
        t0 = time.perf_counter()
        loaded = workload.load_swf(trace.path,
                                   name=os.path.basename(trace.path))
        workload.assign_costs(loaded, COST_MEAN, COST_STD, RUN_SEED)
        n = len(loaded.jobs)
        k = max(1, round(0.7 * n))
        train_slice = workload.slice_trace(loaded, 0, k)
        val_slice = workload.slice_trace(loaded, k, n - k)
        hyper = agent.Hyperparameters(
            epochs=TRAIN_EPOCHS, seed=seed, actor_lr=0.01, critic_lr=0.05,
            time_norm=3600.0)
        stamps = [time.perf_counter()]
        trained, _, curve = agent.train(
            lambda w, e: (train_slice.jobs, loaded.total_procs), hyper,
            agent.ModelVersions(hyper.rollback_patience),
            validation_factory=lambda: (val_slice.jobs, loaded.total_procs),
            log=lambda point: stamps.append(time.perf_counter()))
        res.epoch_s = [b - a for a, b in zip(stamps, stamps[1:])]
        agent.save_model(os.path.join(out_dir, "model.json"), trained.model)
        res.wall_s = time.perf_counter() - t0
        # one rollout per epoch, plus the periodic greedy validations
        res.jobs = len(train_slice.jobs) * TRAIN_EPOCHS + len(val_slice.jobs) \
            * (TRAIN_EPOCHS // hyper.validate_every)
        if len(curve) != TRAIN_EPOCHS \
                or not all(math.isfinite(p.reward) for p in curve):
            res.problems.append("training curve is short or not finite")
        res.fingerprint = tuple(p.reward for p in curve)
    return _guarded("train", body)


def round_ops(spec: Spec, config: str, entry: tuple, seed: int,
              index: int, new_dir) -> list[OpResult]:
    """The ops of one round over one bank entry; ``new_dir()`` gives each op
    a fresh output directory."""
    if spec.policies:
        trace = entry[0]
        return [cli_op(f"simulate {p}",
                       ["simulate", "--config", config, "--trace", trace.path,
                        "--policy", p, "--backfill", spec.backfill],
                       trace, new_dir())
                for p in spec.policies]
    train_dir = new_dir()
    trained = train_op(entry[0], trace_seed(spec.name, seed, index, 2),
                       train_dir)
    if trained.problems:
        return [trained]
    model = os.path.join(train_dir, "model.json")
    return [trained, cli_op("evaluate",
                            ["evaluate", "--config", config,
                             "--trace", entry[1].path, "--model", model],
                            entry[1], new_dir())]
