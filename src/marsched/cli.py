"""Command-line interface: simulate, train, evaluate, compare, gen, inspect.

Exit codes: 0 success, 2 configuration or usage problems, 3 runtime errors
(scheduling deadlock, training divergence), 4 I/O failures. Output files are
byte-stable for a fixed config and seed; timing information goes to stderr
only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import __version__, decision, metrics
from .agent import (Hyperparameters, MarsAgent, ModelVersions, load_model,
                    new_model, save_model, train)
from .config import (ENV_CONFIG, Settings, as_bool, as_float, as_int,
                     load_config)
from .errors import (ConfigError, ContractError, ModelFormatError,
                     SchedulingError, TraceFormatError, TrainingDiverged)
from .heuristics import HEURISTIC_KINDS, PolicyKind
from .metrics import DEFAULT_TAU
from .simulator import job_csv_rows, write_jobs_csv
from .workload import (SyntheticConfig, WorkloadTrace, assign_costs,
                       check_cost_distribution, generate_synthetic, load_swf,
                       slice_trace, write_swf)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

# the policies that run the agent, the only reader of a job's cost rate
AGENT_POLICY_NAMES = ["rl", "mars"]
POLICY_NAMES = [k.value for k in HEURISTIC_KINDS] + AGENT_POLICY_NAMES

CURVE_CSV_COLUMNS = ["epoch", "reward", "entropy", "delta_mean"]
CURVE_SCHEMA = "marsched.curve.v1"


def _fmt_float(x: float) -> str:
    return repr(float(x))


# -- argument plumbing ----------------------------------------------------

def _add_common(sp: argparse.ArgumentParser, *, trace_source: bool = True):
    sp.add_argument("--config", help=f"config file (default ${ENV_CONFIG})")
    sp.add_argument("--seed", type=int, help="run seed (default 0)")
    sp.add_argument("--tau", type=float,
                    help="bounded-slowdown threshold seconds (default 10)")
    sp.add_argument("--out", help="output directory (default .)")
    if trace_source:
        sp.add_argument("--trace", help="SWF trace file")
        sp.add_argument("--synthetic", type=int, metavar="COUNT",
                        help="generate a synthetic trace of COUNT jobs")
        sp.add_argument("--procs", type=int,
                        help="override processor count for the run")
        sp.add_argument("--backfill", choices=["on", "off"],
                        help="EASY backfilling for heuristic runs (default on)")


# built once per process: it depends only on constants, no argument has a
# mutable default, and each parse fills a new namespace
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marsched",
        description="HPC cluster scheduling simulator with heuristic, "
                    "learned, and size-routed policies")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one policy over one trace")
    _add_common(p)
    p.add_argument("--policy", choices=POLICY_NAMES,
                   help="policy (default fcfs)")
    p.add_argument("--model", help="model file for rl/mars policies")
    p.add_argument("--train-on-demand", action="store_true",
                   help="train a model on the spot when none is supplied")
    p.add_argument("--explain", action="store_true",
                   help="print the routing plan as JSON (mars policy)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the scheduling agent")
    _add_common(p)
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--workers", type=int,
                   help="episodes per epoch, run one after another")
    p.add_argument("--resume", help="continue training from a model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="greedy-evaluate a trained model")
    _add_common(p)
    p.add_argument("--model", help="model file (or [run] model)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="run several policies on one trace")
    _add_common(p)
    p.add_argument("--policies", required=True,
                   help="comma-separated policy names (at least two)")
    p.add_argument("--model", help="model file for rl/mars entries")
    p.add_argument("--train-on-demand", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="write a synthetic SWF trace")
    _add_common(p, trace_source=False)
    p.add_argument("--count", type=int, help="job count")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("inspect", help="describe a trace or model file")
    p.add_argument("--config", help=f"config file (default ${ENV_CONFIG})")
    p.add_argument("--trace", help="SWF trace file")
    p.add_argument("--model", help="model file")
    p.set_defaults(func=cmd_inspect)
    return parser


# -- shared resolution -----------------------------------------------------

def _seed(args, settings: Settings) -> int:
    seed = settings.get("run", "seed", getattr(args, "seed", None), 0, as_int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _tau(args, settings: Settings) -> float:
    tau = settings.get("run", "tau", getattr(args, "tau", None),
                       DEFAULT_TAU, as_float)
    if tau <= 0:
        raise ConfigError(f"tau must be > 0, got {tau}")
    return tau


def _out_dir(args, settings: Settings) -> str:
    out = settings.get("run", "out", getattr(args, "out", None), ".")
    os.makedirs(out, exist_ok=True)
    return out


def _backfill(args, settings: Settings) -> bool:
    return settings.get("run", "backfill", getattr(args, "backfill", None),
                        True, as_bool)


def _synthetic_config(args, settings: Settings, seed: int) -> SyntheticConfig:
    flag = getattr(args, "synthetic", getattr(args, "count", None))
    count = settings.get("synthetic", "job_count", flag, None, as_int)
    if count is None:
        raise ConfigError("synthetic generation needs a job count "
                          "(--synthetic/--count or [synthetic] job_count)")
    if count < 1:
        raise ConfigError(f"synthetic job count must be >= 1, got {count}")
    return settings.fill(
        SyntheticConfig, "synthetic", {}, job_count=count,
        seed=settings.get("synthetic", "seed", None, seed, as_int))


def _resolve_trace(args, settings: Settings, seed: int, *,
                   draw_costs: bool) -> WorkloadTrace:
    """The run's trace. An SWF trace gets per-job cost rates only when
    ``draw_costs`` says the command runs the agent; the cost keys are read
    and checked either way."""
    trace_path = settings.get("run", "trace", getattr(args, "trace", None))
    if trace_path and getattr(args, "synthetic", None) is not None:
        raise ConfigError("give either --trace or --synthetic, not both")
    if trace_path:
        trace = load_swf(trace_path, name=os.path.basename(trace_path))
        # SWF carries no cost column; draw per-job cost rates here so that
        # cost-aware runs see the same costs for the same seed
        mean = settings.get("synthetic", "cost_mean", None,
                            SyntheticConfig.cost_mean, as_float)
        std = settings.get("synthetic", "cost_std", None,
                           SyntheticConfig.cost_std, as_float)
        if draw_costs:
            assign_costs(trace, mean, std, seed)
        else:
            check_cost_distribution(mean, std)
        return trace
    if getattr(args, "synthetic", None) is not None \
            or settings.get("synthetic", "job_count") is not None:
        return generate_synthetic(_synthetic_config(args, settings, seed))
    raise ConfigError("no trace source: pass --trace FILE or --synthetic COUNT")


def _procs(args, settings: Settings, trace: WorkloadTrace) -> int:
    procs = settings.get("run", "procs", getattr(args, "procs", None),
                         None, as_int)
    if procs is None:
        return trace.total_procs
    biggest = max((j.requested_procs for j in trace.jobs), default=1)
    if procs < biggest:
        raise ConfigError(
            f"--procs {procs} is smaller than the widest job ({biggest})")
    return procs


def _thresholds(settings: Settings) -> decision.Thresholds:
    return decision.Thresholds(
        min_size=settings.get("decision", "min", None,
                              decision.DEFAULT_MIN, as_int),
        median_size=settings.get("decision", "median", None,
                                 decision.DEFAULT_MEDIAN, as_int),
        max_size=settings.get("decision", "max", None,
                              decision.DEFAULT_MAX, as_int),
    )


def _hyper(args, settings: Settings, seed: int, tau: float) -> Hyperparameters:
    flags = {"epochs": getattr(args, "epochs", None),
             "workers": getattr(args, "workers", None)}
    return settings.fill(Hyperparameters, "agent", flags, seed=seed, tau=tau)


def _load_agent(args, settings: Settings) -> MarsAgent | None:
    path = settings.get("run", "model", getattr(args, "model", None))
    if path is None:
        return None
    return MarsAgent(model=load_model(path))


def _flag(args, settings: Settings, name: str) -> bool:
    if getattr(args, name, False):
        return True
    return settings.get("run", name, None, False, as_bool)


# -- execution helpers ------------------------------------------------------

def _run_policy(label: str, trace: WorkloadTrace, *, procs: int, tau: float,
                seed: int, agent: MarsAgent | None, backfill: bool = True,
                thresholds: decision.Thresholds = decision.Thresholds(),
                hyper: Hyperparameters | None = None,
                train_on_demand: bool = False):
    """Run one policy label as a plan; returns (plan, results, reports).

    A heuristic or ``rl`` is a one-chunk plan and reports its one chunk;
    ``mars`` routes the trace with ``decide`` and leads its chunk reports
    with their aggregate.
    """
    if label == "mars":
        plan = decision.decide(trace.jobs, None, thresholds)
    else:
        plan = decision.Plan([decision.PlanChunk(trace.jobs,
                                                 PolicyKind.from_name(label))])
    results = decision.run_plan(
        plan, total_procs=procs, tau=tau, backfill=backfill, agent=agent,
        train_on_demand=train_on_demand, on_demand_hyper=hyper, seed=seed)
    forced = sum(r.stats.forced_starts for r in results)
    if forced:
        print(f"warning: {label}: {forced} job(s) force-started after the "
              f"policy passed with the cluster idle", file=sys.stderr)
    reports = [r.report for r in results]
    if label == "mars":
        reports.insert(0, metrics.aggregate(
            metrics.Schedule.concat([r.schedule for r in results]), tau=tau,
            policy="mars", total_procs=procs))
    return plan, results, reports


def _write_run_outputs(out: str, results, reports) -> None:
    write_jobs_csv(os.path.join(out, "jobs.csv"), job_csv_rows(results))
    metrics.write_report_csv(os.path.join(out, "report.csv"), reports)


def _print_report(report) -> None:
    print(f"policy={report.policy} jobs={report.job_count} "
          f"mean_bounded_slowdown={report.mean_bounded_slowdown:.4f} "
          f"median={report.median_bounded_slowdown:.4f} "
          f"p95={report.p95_bounded_slowdown:.4f} "
          f"makespan={report.makespan:.0f}s")


# -- commands ----------------------------------------------------------------

def cmd_simulate(args, settings: Settings) -> int:
    seed = _seed(args, settings)
    tau = _tau(args, settings)
    out = _out_dir(args, settings)
    label = settings.get("run", "policy", args.policy, "fcfs")
    trace = _resolve_trace(args, settings, seed,
                           draw_costs=label in AGENT_POLICY_NAMES)
    procs = _procs(args, settings, trace)
    if label not in POLICY_NAMES:
        raise ConfigError(f"unknown policy {label!r}")
    hyper = _hyper(args, settings, seed, tau)
    plan, results, reports = _run_policy(
        label, trace, procs=procs, tau=tau, seed=seed,
        backfill=_backfill(args, settings), agent=_load_agent(args, settings),
        thresholds=_thresholds(settings), hyper=hyper,
        train_on_demand=_flag(args, settings, "train_on_demand"))
    if args.explain and label == "mars":
        print(plan.to_json())
    _write_run_outputs(out, results, reports)
    _print_report(reports[0])
    return EXIT_OK


def cmd_evaluate(args, settings: Settings) -> int:
    seed = _seed(args, settings)
    tau = _tau(args, settings)
    out = _out_dir(args, settings)
    trace = _resolve_trace(args, settings, seed, draw_costs=True)
    procs = _procs(args, settings, trace)
    agent = _load_agent(args, settings)
    if agent is None:
        raise ConfigError("evaluate needs a model: --model or [run] model")
    _, results, reports = _run_policy("rl", trace, procs=procs, tau=tau,
                                      seed=seed, agent=agent)
    _write_run_outputs(out, results, reports)
    _print_report(reports[0])
    # episode_reward(schedule, tau), from the report's own mean
    print(f"episode_reward={-reports[0].mean_bounded_slowdown:.4f}")
    return EXIT_OK


def cmd_train(args, settings: Settings) -> int:
    seed = _seed(args, settings)
    tau = _tau(args, settings)
    out = _out_dir(args, settings)
    trace = _resolve_trace(args, settings, seed, draw_costs=True)
    procs = _procs(args, settings, trace)
    hyper = _hyper(args, settings, seed, tau)

    # the agent exists before training starts, so a divergence in any epoch
    # still writes the last good model
    if args.resume:
        model = load_model(args.resume)
        run_keys = {"epochs": hyper.epochs, "workers": hyper.workers,
                    "seed": hyper.seed, "tau": hyper.tau,
                    "validate_every": hyper.validate_every}
        hyper = dataclasses.replace(model.hyper, **run_keys)
        model = dataclasses.replace(model, hyper=hyper)
        agent = MarsAgent(model=model)
    else:
        agent = MarsAgent(hyper)

    # deterministic 70/30 split: leading jobs train, trailing jobs validate
    n = len(trace.jobs)
    k = max(1, round(0.7 * n))
    train_slice = slice_trace(trace, 0, k)
    val_slice = slice_trace(trace, k, n - k) if n - k > 0 else train_slice

    env = lambda w, e: (train_slice.jobs, procs)
    val = lambda: (val_slice.jobs, procs)
    versions = ModelVersions(hyper.rollback_patience)
    started = time.monotonic()
    try:
        agent, versions, curve = train(env, hyper, versions, agent=agent,
                                       validation_factory=val)
    except TrainingDiverged as exc:
        save_model(os.path.join(out, "model.json"), agent.model)
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    wall = time.monotonic() - started
    print(f"trained {hyper.epochs} epochs ({hyper.workers} episode(s) each) "
          f"in {wall:.1f}s", file=sys.stderr)

    save_model(os.path.join(out, "model.json"), agent.model)
    for idx, fname in ((1, "model_gm1.json"), (2, "model_gm2.json")):
        if len(versions.entries) > idx:
            shadow = new_model(hyper)
            shadow.restore(versions.entries[idx].payload)
            save_model(os.path.join(out, fname), shadow)
    lines = [f"# schema: {CURVE_SCHEMA}", ",".join(CURVE_CSV_COLUMNS)]
    for pt in curve:
        lines.append(",".join([str(pt.epoch), _fmt_float(pt.reward),
                               _fmt_float(pt.entropy),
                               _fmt_float(pt.delta_mean)]))
    with open(os.path.join(out, "curve.csv"), "w") as fp:
        fp.write("\n".join(lines) + "\n")
    if curve:
        print(f"final epoch {curve[-1].epoch}: "
              f"mean reward {curve[-1].reward:.4f}")
    print(f"model written to {os.path.join(out, 'model.json')}")
    return EXIT_OK


def cmd_compare(args, settings: Settings) -> int:
    seed = _seed(args, settings)
    tau = _tau(args, settings)
    out = _out_dir(args, settings)
    labels = [s.strip().lower() for s in args.policies.split(",") if s.strip()]
    if len(labels) < 2:
        raise ConfigError("compare needs at least two policies")
    for label in labels:
        if label not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {label!r}")
    trace = _resolve_trace(
        args, settings, seed,
        draw_costs=any(label in AGENT_POLICY_NAMES for label in labels))
    procs = _procs(args, settings, trace)
    backfill = _backfill(args, settings)
    hyper = _hyper(args, settings, seed, tau)
    agent = _load_agent(args, settings)
    thresholds = _thresholds(settings)
    on_demand = _flag(args, settings, "train_on_demand")

    reports, walls = [], []
    for label in labels:
        started = time.monotonic()
        _, _, policy_reports = _run_policy(
            label, trace, procs=procs, tau=tau, seed=seed, agent=agent,
            backfill=backfill, thresholds=thresholds, hyper=hyper,
            train_on_demand=on_demand)
        reports.append(policy_reports[0])
        walls.append(time.monotonic() - started)
    metrics.write_report_csv(os.path.join(out, "compare.csv"), reports)

    header = (f"{'policy':<8} {'jobs':>6} {'mean_bsld':>10} "
              f"{'median_bsld':>12} {'p95_bsld':>10} {'makespan':>12} "
              f"{'wall_s':>8}")
    print(header)
    for rep, wall in zip(reports, walls):
        print(f"{rep.policy:<8} {rep.job_count:>6} "
              f"{rep.mean_bounded_slowdown:>10.4f} "
              f"{rep.median_bounded_slowdown:>12.4f} "
              f"{rep.p95_bounded_slowdown:>10.4f} "
              f"{rep.makespan:>12.0f} {wall:>8.2f}")
    return EXIT_OK


def cmd_gen(args, settings: Settings) -> int:
    seed = _seed(args, settings)
    out = _out_dir(args, settings)
    cfg = _synthetic_config(args, settings, seed)
    trace = generate_synthetic(cfg)
    path = os.path.join(out, f"{cfg.name}.swf")
    write_swf(path, trace)
    print(f"wrote {len(trace.jobs)} jobs to {path}")
    return EXIT_OK


def cmd_inspect(args, settings: Settings) -> int:
    if bool(args.trace) == bool(args.model):
        raise ConfigError("inspect needs exactly one of --trace or --model")
    if args.trace:
        trace = load_swf(args.trace, name=os.path.basename(args.trace))
        runtimes = [j.run_time for j in trace.jobs]
        cores = [j.requested_procs for j in trace.jobs]
        span = trace.jobs[-1].submit_time - trace.jobs[0].submit_time
        print(f"trace {trace.name}: {len(trace.jobs)} jobs, "
              f"{trace.total_procs} processors")
        print(f"  submit span {span:.0f}s, dropped {trace.dropped_jobs}, "
              f"bad lines {len(trace.line_errors)}")
        print(f"  runtime s: min {min(runtimes):.0f} "
              f"mean {float(np.mean(runtimes)):.0f} max {max(runtimes):.0f}")
        print(f"  procs: min {min(cores)} mean {float(np.mean(cores)):.1f} "
              f"max {max(cores)}")
    else:
        model = load_model(args.model)
        dims = [model.actor.input_dim] + \
               [l.weights.shape[1] for l in model.actor.layers]
        print(f"model {args.model}: format v{model.format_version}, "
              f"epoch {model.epoch}")
        print(f"  actor dims {dims}, slots {model.hyper.slots}, "
              f"gamma {model.hyper.gamma}, cost_weight {model.hyper.cost_weight}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = Settings(load_config(getattr(args, "config", None)))
        return args.func(args, settings)
    except (ConfigError, TraceFormatError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchedulingError, TrainingDiverged, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
