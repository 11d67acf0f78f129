"""A job is an input: no run writes it, so every run can share one trace.

``assign_costs`` is the one writer of a loaded job, and it runs before any
simulation. The check below runs one list of jobs through every kind of
run and holds each job to a snapshot taken before the first of them.
"""

import dataclasses

import numpy as np

from marsched.agent import (Hyperparameters, MarsAgent, make_random_selector,
                            random_baseline)
from marsched.decision import Plan, PlanChunk, run_plan
from marsched.heuristics import HEURISTIC_KINDS, PolicyKind
from marsched.simulator import job_csv_rows, run_episode, write_jobs_csv
from marsched.workload import (SyntheticConfig, assign_costs,
                               generate_synthetic, load_swf, write_swf)

HYPER = Hyperparameters(slots=8, hidden=(16,), cost_weight=0.5, seed=4)


def state(jobs):
    """Each job's fields, and every attribute it holds."""
    return [(dataclasses.astuple(j), sorted(vars(j).items())) for j in jobs]


def load(path):
    trace = load_swf(path, name="shared")
    assign_costs(trace, 1.0, 0.5, seed=3)
    return trace


def run_all(jobs, procs, agent, out_dir):
    """Every kind of run over ``jobs``: the 8 heuristics with EASY on and
    off, the random selector and its baseline, and the greedy agent. Writes
    each run's jobs.csv to ``out_dir``; returns the files' bytes and the
    baseline reward."""
    results = [run_episode(jobs, kind, backfill=backfill, total_procs=procs)
               for kind in HEURISTIC_KINDS for backfill in (True, False)]
    results.append(run_episode(
        jobs, make_random_selector(np.random.default_rng(5), HYPER.slots),
        total_procs=procs))
    results += run_plan(Plan([PlanChunk(jobs, PolicyKind.RL)]),
                        total_procs=procs, agent=agent, seed=6)
    out_dir.mkdir()
    texts = []
    for i, result in enumerate(results):
        path = out_dir / f"jobs-{i}.csv"
        write_jobs_csv(path, job_csv_rows([result]))
        texts.append(path.read_bytes())
    baseline = random_baseline(jobs, procs, HYPER, episodes=2, seed=7)
    return texts, baseline


def test_runs_share_one_trace_and_never_write_a_job(tmp_path):
    path = tmp_path / "trace.swf"
    write_swf(path, generate_synthetic(SyntheticConfig(
        job_count=150, arrival_rate=0.05, runtime_min=5, runtime_max=2000,
        total_procs=32, seed=7)))
    trace = load(path)
    jobs = trace.jobs
    snapshot = state(jobs)
    identities = [id(j) for j in jobs]
    agent = MarsAgent(HYPER)

    first = run_all(jobs, trace.total_procs, agent, tmp_path / "first")
    assert state(jobs) == snapshot
    assert [id(j) for j in trace.jobs] == identities

    # a second pass over the same objects writes what a fresh load writes
    second = run_all(jobs, trace.total_procs, agent, tmp_path / "second")
    fresh = run_all(load(path).jobs, trace.total_procs, agent,
                    tmp_path / "fresh")
    assert second == fresh
    assert first == second
    assert state(jobs) == snapshot
