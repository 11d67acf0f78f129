"""Discrete-event cluster simulator.

The clock jumps between events (arrivals, completions); between jumps a
scheduling cycle starts whatever the active policy picks. Completions at a
given instant are processed before arrivals at the same instant so freed
processors are visible immediately; remaining ties break by job id.

Ready set. ``ClusterState.ready`` holds the dependency-ready pending jobs in
arrival order, and the events keep it current: a job enters when it arrives
with its dependencies finished, or when its last unfinished dependency
completes (it then takes its arrival position); it leaves when it starts.
``ready_jobs`` returns it without rescanning ``pending``, and ``start_job``
and ``backfill_easy`` test membership in it. Jobs without dependencies, which
is every SWF job, enter on arrival, so for them pending equals ready.

One sort per heuristic cycle. Within a cycle the clock and the finished set
are fixed, so every score is fixed, and the order (score, submit time, id) is
total. Starting a job only removes it from the sorted list; the others keep
their order. Sorting once and walking the list therefore starts exactly the
jobs that re-sorting after every start would, and the outputs are
byte-identical. Scores that do not depend on the clock
(``heuristics.TIME_INVARIANT_KINDS``) are computed once per job per run;
WFP3 and UNICEF are rescored every cycle.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field

from . import heuristics, metrics
from .errors import ConfigError, ContractError, SchedulingError
from .heuristics import PolicyKind
from .metrics import DEFAULT_TAU, MetricsReport
from .workload import Job, JobStatus, WorkloadTrace


class EventKind(enum.IntEnum):
    COMPLETION = 0   # lower sorts first: frees resources before same-time arrivals
    ARRIVAL = 1


@dataclass(frozen=True)
class SimEvent:
    time: float
    kind: EventKind
    job_id: int


@dataclass
class ClusterState:
    total_procs: int
    free_procs: int
    clock: float = 0.0
    pending: dict[int, Job] = field(default_factory=dict)     # arrival order
    ready: dict[int, Job] = field(default_factory=dict)       # arrival order
    unmet: dict[int, int] = field(default_factory=dict)       # id -> unfinished deps
    dependents: dict[int, list[Job]] = field(default_factory=dict)  # dep id -> waiters
    running: dict[int, Job] = field(default_factory=dict)
    run_heap: list[tuple[float, int]] = field(default_factory=list)
    finished: list[Job] = field(default_factory=list)
    finished_ids: set[int] = field(default_factory=set)
    arrivals: list[Job] = field(default_factory=list)         # (submit, id) order
    next_arrival: int = 0


@dataclass
class RunStats:
    started: int = 0
    backfilled: int = 0
    forced_starts: int = 0
    events: int = 0
    first_blocked_head: int | None = None


@dataclass
class RunResult:
    jobs: list[Job]
    report: MetricsReport
    stats: RunStats
    policy: str


def new_cluster(total_procs: int, arrivals: list[Job] | None = None) -> ClusterState:
    if total_procs < 1:
        raise ConfigError(f"cluster needs >= 1 processor, got {total_procs}")
    jobs = sorted(arrivals or [], key=lambda j: (j.submit_time, j.id))
    return ClusterState(total_procs=total_procs, free_procs=total_procs,
                        arrivals=jobs)


def deps_met(state: ClusterState, job: Job) -> bool:
    return all(d in state.finished_ids for d in job.dependencies)


def ready_jobs(state: ClusterState) -> list[Job]:
    """Dependency-ready pending jobs, in arrival order."""
    return list(state.ready.values())


def _arrival_key(job: Job) -> tuple[float, int]:
    return job.submit_time, job.id


def _release_dependents(state: ClusterState, job: Job) -> None:
    """Count the finished job off its dependents; the last one makes them ready."""
    for dep in state.dependents.pop(job.id, ()):
        state.unmet[dep.id] -= 1
        if state.unmet[dep.id]:
            continue
        del state.unmet[dep.id]
        last = next(reversed(state.ready.values()), None)
        state.ready[dep.id] = dep
        if last is not None and _arrival_key(dep) < _arrival_key(last):
            state.ready = dict(sorted(state.ready.items(),
                                      key=lambda item: _arrival_key(item[1])))


def start_job(state: ClusterState, job: Job, now: float) -> bool:
    """Start a pending job; False means rejection (retry later), not an error."""
    if job.id not in state.pending:
        raise ContractError(f"job {job.id} is not pending")
    if now < job.submit_time:
        raise ContractError(f"job {job.id} cannot start before submission")
    if job.requested_procs > state.free_procs or job.id not in state.ready:
        return False
    del state.pending[job.id]
    del state.ready[job.id]
    job.start_time = now
    job.status = JobStatus.RUNNING
    state.free_procs -= job.requested_procs
    state.running[job.id] = job
    heapq.heappush(state.run_heap, (now + job.run_time, job.id))
    return True


def next_event_time(state: ClusterState) -> float:
    """Time of the next event; inf when there is none."""
    t = state.run_heap[0][0] if state.run_heap else math.inf
    if state.next_arrival < len(state.arrivals):
        t = min(t, state.arrivals[state.next_arrival].submit_time)
    return t


def advance_to_next_event(state: ClusterState) -> SimEvent:
    """Jump the clock to the next event and apply it."""
    heap = state.run_heap
    arriving = (state.arrivals[state.next_arrival]
                if state.next_arrival < len(state.arrivals) else None)
    if heap and (arriving is None or heap[0][0] <= arriving.submit_time):
        t, jid = heapq.heappop(heap)
        state.clock = t
        job = state.running.pop(jid)
        job.status = JobStatus.FINISHED
        state.free_procs += job.requested_procs
        state.finished.append(job)
        state.finished_ids.add(jid)
        if state.dependents:
            _release_dependents(state, job)
        return SimEvent(t, EventKind.COMPLETION, jid)
    job = arriving
    if job is None:
        raise SchedulingError("no future events")
    state.clock = job.submit_time
    state.next_arrival += 1
    state.pending[job.id] = job
    if deps_met(state, job):
        state.ready[job.id] = job       # every ready job arrived before it
    else:
        waiting_on = {d for d in job.dependencies if d not in state.finished_ids}
        state.unmet[job.id] = len(waiting_on)
        for d in waiting_on:
            state.dependents.setdefault(d, []).append(job)
    return SimEvent(job.submit_time, EventKind.ARRIVAL, job.id)


def schedule_cycle(state: ClusterState, selector) -> list[int]:
    """Start jobs chosen by the selector until it passes (returns None)."""
    started: list[int] = []
    while True:
        choice = selector(state)
        if choice is None:
            return started
        job = state.pending.get(choice)
        if job is None:
            raise ContractError(f"selector returned non-pending job id {choice}")
        if not start_job(state, job, state.clock):
            raise ContractError(
                f"selector chose job {choice} which cannot start "
                f"(procs or dependencies)")
        started.append(choice)


def compute_reservation(state: ClusterState, head: Job) -> tuple[float, int]:
    """Shadow time and spare processors for the head job's reservation.

    Running jobs are projected to release at max(start + requested_time,
    clock); a job past its estimate is projected to release now. Returns
    (shadow, extra): the earliest projected time the head fits, and the
    processors spare at that time beyond the head's need.
    """
    if head.requested_procs > state.total_procs:
        raise SchedulingError(
            f"job {head.id} requests {head.requested_procs} processors, "
            f"system has {state.total_procs}: it can never start")
    releases: dict[float, int] = {}
    for job in state.running.values():
        t = max(job.start_time + job.requested_time, state.clock)
        releases[t] = releases.get(t, 0) + job.requested_procs
    avail = state.free_procs
    for t in sorted(releases):
        avail += releases[t]
        if avail >= head.requested_procs:
            return t, avail - head.requested_procs
    raise SchedulingError(
        f"job {head.id} never fits under the current projection "
        f"(free {state.free_procs} of {state.total_procs})")


def backfill_easy(state: ClusterState, ordered_ids: list[int],
                  stats: RunStats | None = None) -> list[int]:
    """One EASY pass over a priority-ordered ready queue.

    The head gets a reservation; later jobs start now only if they fit free
    processors and either finish (by their own estimate) before the shadow
    time or use no more than the spare processors. The head's reservation is
    recomputed after every backfill and may only move earlier.
    """
    queue = [state.pending[i] for i in ordered_ids if i in state.pending]
    started: list[int] = []
    while queue and queue[0].id in state.ready \
            and queue[0].requested_procs <= state.free_procs:
        head = queue.pop(0)
        start_job(state, head, state.clock)
        started.append(head.id)
    if not queue:
        return started
    head = queue[0]
    shadow, extra = compute_reservation(state, head)
    for cand in queue[1:]:
        if cand.requested_procs > state.free_procs \
                or cand.id not in state.ready:
            continue
        fits_window = state.clock + cand.requested_time <= shadow
        if not (fits_window or cand.requested_procs <= extra):
            continue
        start_job(state, cand, state.clock)
        started.append(cand.id)
        if stats is not None:
            stats.backfilled += 1
        new_shadow, extra = compute_reservation(state, head)
        if new_shadow > shadow:
            raise AssertionError(
                f"backfill of job {cand.id} delayed the head reservation "
                f"({shadow} -> {new_shadow})")
        shadow = new_shadow
    return started


class Simulation:
    """One episode over one job set. Single-threaded; instances independent."""

    def __init__(self, jobs: list[Job], total_procs: int, *,
                 backfill: bool = True, allow_forced_start: bool = True):
        self.state = new_cluster(total_procs, jobs)
        self.backfill = backfill
        self.allow_forced_start = allow_forced_start
        self.stats = RunStats()
        self.total_jobs = len(self.state.arrivals)
        self.on_event = None     # optional callback(state, event) for invariant probes

    # -- scheduling ------------------------------------------------------

    def _priority_key(self, kind: PolicyKind):
        """Sort key of one run's cycles (see the module docstring)."""
        state = self.state
        if kind not in heuristics.TIME_INVARIANT_KINDS:
            return lambda j: heuristics.sort_key(j, state.clock, kind)
        # score every job once, up front; an int rank compares faster than
        # the (score, submit, id) tuple it stands for
        order = sorted(state.arrivals,
                       key=lambda j: heuristics.sort_key(j, state.clock, kind))
        rank = {j.id: r for r, j in enumerate(order)}
        return lambda j: rank[j.id]

    def _schedule_heuristic(self, key) -> None:
        """Start ready jobs in priority order until the head does not fit,
        then hand the rest of the sorted queue to EASY."""
        state = self.state
        ready = ready_jobs(state)
        ready.sort(key=key)
        for n, head in enumerate(ready):
            if head.requested_procs > state.free_procs:
                break
            start_job(state, head, state.clock)
            self.stats.started += 1
        else:
            return
        if self.stats.first_blocked_head is None:
            self.stats.first_blocked_head = head.id
        if head.requested_procs > state.total_procs:
            raise SchedulingError(
                f"job {head.id} requests {head.requested_procs} processors, "
                f"system has {state.total_procs}: it can never start")
        if self.backfill:
            started = backfill_easy(state, [j.id for j in ready[n:]], self.stats)
            self.stats.started += len(started)

    def _schedule_selector(self, selector) -> None:
        started = schedule_cycle(self.state, selector)
        self.stats.started += len(started)

    def _force_start_one(self) -> None:
        """Break a no-event stall by starting the oldest runnable job.

        Happens when a selector keeps passing with an idle cluster and no
        future arrivals; without this the episode could never terminate.
        """
        state = self.state
        ready = ready_jobs(state)
        if not ready:
            raise SchedulingError(
                "pending jobs remain but none is dependency-ready: "
                f"stuck ids {sorted(state.pending)}")
        fitting = [j for j in ready if j.requested_procs <= state.free_procs]
        if not fitting:
            worst = min(ready, key=lambda j: (j.submit_time, j.id))
            raise SchedulingError(
                f"job {worst.id} requests {worst.requested_procs} processors, "
                f"system has {state.total_procs}: it can never start")
        job = min(fitting, key=lambda j: (j.submit_time, j.id))
        start_job(state, job, state.clock)
        self.stats.started += 1
        self.stats.forced_starts += 1

    # -- event loop ------------------------------------------------------

    def _drain_next_time(self) -> None:
        """Apply every event at the next event time."""
        state = self.state
        while True:
            event = advance_to_next_event(state)
            self.stats.events += 1
            if self.on_event is not None:
                self.on_event(state, event)
            if next_event_time(state) != state.clock:
                return

    def run(self, policy) -> list[Job]:
        """Drive the episode to completion; returns finished jobs in end order."""
        state = self.state
        if isinstance(policy, (str, PolicyKind)):
            kind = PolicyKind.from_name(policy) if isinstance(policy, str) else policy
            if kind is PolicyKind.RL:
                raise ContractError("RL runs need a selector, not a policy name")
            key = self._priority_key(kind)
            schedule = lambda: self._schedule_heuristic(key)
        elif callable(policy):
            schedule = lambda: self._schedule_selector(policy)
        else:
            raise ContractError(f"unsupported policy object {policy!r}")

        while len(state.finished) < self.total_jobs:
            schedule()
            if len(state.finished) >= self.total_jobs:
                break
            if next_event_time(state) < math.inf:
                self._drain_next_time()
            elif state.pending:
                if not self.allow_forced_start:
                    raise SchedulingError(
                        f"policy passed with no future events and "
                        f"{len(state.pending)} jobs pending")
                self._force_start_one()
            else:
                raise SchedulingError("event loop stalled with no pending jobs")
        return state.finished


def run_episode(trace: WorkloadTrace | list[Job], policy="fcfs", *,
                backfill: bool = True, tau: float = DEFAULT_TAU,
                total_procs: int | None = None,
                allow_forced_start: bool = True,
                on_event=None) -> RunResult:
    """Simulate one policy over one trace and report metrics.

    Deterministic: identical (trace, policy, options) gives identical
    finished-job records.
    """
    if isinstance(trace, WorkloadTrace):
        jobs = trace.fresh_jobs()
        procs = total_procs if total_procs is not None else trace.total_procs
    else:
        jobs = [j.fresh_copy() for j in trace]
        if total_procs is None:
            raise ConfigError("total_procs is required when passing a bare job list")
        procs = total_procs
    sim = Simulation(jobs, procs, backfill=backfill,
                     allow_forced_start=allow_forced_start)
    sim.on_event = on_event
    label = policy.value if isinstance(policy, PolicyKind) else (
        policy if isinstance(policy, str) else getattr(policy, "label", "selector"))
    finished = sim.run(policy)
    report = metrics.aggregate(finished, tau=tau, policy=str(label), total_procs=procs)
    return RunResult(jobs=finished, report=report, stats=sim.stats, policy=str(label))


JOBS_CSV_COLUMNS = ["id", "submit_time", "start_time", "end_time",
                    "wait_time", "procs", "policy"]


def job_csv_rows(jobs: list[Job], policy: str) -> list[list[str]]:
    def fmt(x: float) -> str:
        xi = int(x)
        return str(xi) if x == xi else repr(float(x))
    rows = []
    for j in sorted(jobs, key=lambda j: j.id):
        rows.append([str(j.id), fmt(j.submit_time), fmt(j.start_time),
                     fmt(j.end_time), fmt(j.wait_time), str(j.requested_procs),
                     policy])
    return rows


def write_jobs_csv(path, rows: list[list[str]]) -> None:
    lines = [",".join(JOBS_CSV_COLUMNS)]
    lines.extend(",".join(r) for r in rows)
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")
