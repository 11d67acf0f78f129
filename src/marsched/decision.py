"""Workload-size routing: combine undersized batches, split oversized ones,
and pick SJF, UNICEF, or the learned policy per chunk.

``run_plan`` is the one way a policy runs: a routed plan from ``decide``, or
a single heuristic or the learned policy as a plan of one chunk."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .agent import Hyperparameters, MarsAgent, train
from .errors import ConfigError
from .heuristics import PolicyKind
from .metrics import DEFAULT_TAU
from .simulator import RunResult, run_episode
from .workload import Job

DEFAULT_MIN = 256
DEFAULT_MEDIAN = 512
DEFAULT_MAX = 20000


@dataclass(frozen=True)
class Thresholds:
    min_size: int = DEFAULT_MIN
    median_size: int = DEFAULT_MEDIAN
    max_size: int = DEFAULT_MAX

    def validate(self) -> None:
        if not (0 < self.min_size < self.median_size < self.max_size):
            raise ConfigError(
                f"thresholds must satisfy 0 < MIN < MEDIAN < MAX, got "
                f"({self.min_size}, {self.median_size}, {self.max_size})")


@dataclass
class PlanChunk:
    jobs: list[Job]
    policy: PolicyKind
    note: str = ""


@dataclass
class Plan:
    chunks: list[PlanChunk] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": "marsched.plan.v1",
            "chunks": [
                {"policy": c.policy.value, "jobs": len(c.jobs), "note": c.note}
                for c in self.chunks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def split_workload(jobs: list, max_size: int) -> list[list]:
    """Halve recursively (first half gets the ceiling) until chunks fit max_size."""
    if max_size < 1:
        raise ConfigError(f"max_size must be >= 1, got {max_size}")
    jobs = list(jobs)
    if len(jobs) <= max_size:
        return [jobs]
    mid = (len(jobs) + 1) // 2
    return split_workload(jobs[:mid], max_size) + split_workload(jobs[mid:], max_size)


def decide(current: list[Job], nxt: list[Job] | None = None,
           thresholds: Thresholds = Thresholds()) -> Plan:
    """Route one workload batch per its size.

    Branches, in order: merge with a compatible next batch when together they
    clear MEDIAN; SJF below MIN; UNICEF below MEDIAN; the learned policy up
    to MAX; above MAX, recursive halving into learned-policy chunks.
    """
    thresholds.validate()
    current = list(current)
    if not current:
        return Plan(chunks=[])
    size = len(current)
    if size < thresholds.median_size and nxt is not None \
            and size + len(nxt) > thresholds.median_size:
        merged = current + list(nxt)
        chunks = [PlanChunk(jobs=part, policy=PolicyKind.RL,
                            note=f"combined {size}+{len(nxt)}")
                  for part in split_workload(merged, thresholds.max_size)]
        return Plan(chunks=chunks)
    if size < thresholds.min_size:
        return Plan(chunks=[PlanChunk(jobs=current, policy=PolicyKind.SJF,
                                      note=f"below MIN {thresholds.min_size}")])
    if size < thresholds.median_size:
        return Plan(chunks=[PlanChunk(jobs=current, policy=PolicyKind.UNICEF,
                                      note=f"below MEDIAN {thresholds.median_size}")])
    if size <= thresholds.max_size:
        return Plan(chunks=[PlanChunk(jobs=current, policy=PolicyKind.RL,
                                      note="within RL window")])
    parts = split_workload(current, thresholds.max_size)
    return Plan(chunks=[PlanChunk(jobs=p, policy=PolicyKind.RL,
                                  note=f"split from {size}")
                        for p in parts])


def run_plan(plan: Plan, *, total_procs: int, tau: float = DEFAULT_TAU,
             backfill: bool = True, agent: MarsAgent | None = None,
             train_on_demand: bool = False,
             on_demand_hyper: Hyperparameters | None = None,
             seed: int = 0) -> list[RunResult]:
    """Execute each chunk under its policy; one result per chunk, in order.

    Aggregating over the chunks is the caller's choice: a one-chunk plan's
    only result already carries its report.

    Learned-policy chunks run the agent greedily. With no agent loaded,
    train_on_demand trains one on the first such chunk (seeded, so the whole
    plan run stays deterministic); otherwise it is a configuration error.
    """
    results: list[RunResult] = []
    for chunk in plan.chunks:
        if chunk.policy is PolicyKind.RL:
            if agent is None:
                if not train_on_demand:
                    raise ConfigError(
                        "plan contains a learned-policy chunk but no model is "
                        "loaded (pass a model or enable train-on-demand)")
                hyper = on_demand_hyper if on_demand_hyper is not None \
                    else Hyperparameters(seed=seed)
                agent, _, _ = train(
                    lambda w, e: (chunk.jobs, total_procs), hyper)
            rng = np.random.default_rng(seed)
            schedule, _, stats, _ = agent.run_collect(
                chunk.jobs, total_procs, rng=rng, greedy=True)
            report = metrics.aggregate(schedule, tau=tau, policy="rl",
                                       total_procs=total_procs)
            results.append(RunResult(schedule=schedule, report=report,
                                     stats=stats, policy="rl"))
        else:
            results.append(run_episode(chunk.jobs, chunk.policy,
                                       backfill=backfill, tau=tau,
                                       total_procs=total_procs))
    return results
