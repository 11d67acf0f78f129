"""Discrete-event cluster simulator.

The clock jumps between events (arrivals, completions); between jumps a
scheduling cycle starts whatever the active policy picks. Completions at a
given instant are processed before arrivals at the same instant so freed
processors are visible immediately; remaining ties break by job id.

Event loop. After each cycle ``Simulation.run`` looks up the next event
time once (``next_event_time``), then applies every event at that time, one
``advance_to_next_event`` call each, until neither the run heap's top nor
the next arrival is at that time. A ``SimEvent`` is built only for an
``on_event`` probe.

State per kind of run. Every run keeps the ready set, the run heap, the
finished jobs and the start times (``ClusterState.start``); it writes no
job, and returns its schedule as columns (``metrics.Schedule``). A
time-invariant heuristic also keeps its rank heap. Only an EASY run (a
heuristic with backfill on) keeps the release profile
(``ClusterState.releases``) and the processor index (``by_procs``,
``proc_counts``, and an aging kind's ``rank_key``); in runs without EASY,
selector runs included, they are None and no start or completion pays for
them.

Ready set. ``ClusterState.ready`` holds the waiting jobs in arrival order:
a job enters when it arrives and leaves when it starts. ``ready_jobs``
returns it, and ``start_job`` and ``backfill_easy`` test membership in it.

Heuristic cycle. Within a cycle the clock is fixed, so every score is
fixed, and the order (score, submit time, id) of
``heuristics.priority_key`` is total. Starting a job only removes it from
that order; the others keep theirs. So taking the minimum again after every
start starts exactly the jobs a full re-sort would. The kinds whose score
ignores the clock (``heuristics.TIME_INVARIANT_KINDS``) keep one heap of
(rank, job) for the whole run. Invariant: every ready job has exactly one
entry in ``ClusterState.rank_heap``, pushed when it entered the ready set;
any other entry belongs to a job an EASY pass started, and it is dropped when
it reaches the top. A cycle then pops only the jobs it starts. WFP3 and
UNICEF age, so each of their cycles scores every ready job once, in one batch
(``heuristics.AGING_ENTRIES``), into a fresh heap of entries (score, submit
time, id, job); the cycle pops the jobs it starts, and the EASY pass takes
the entries left, so no job is scored twice at one clock.

No free processor, no cycle. ``Simulation`` rejects a job that requests
fewer than 1 processor, so every job needs at least one free processor to
start. A heuristic cycle that finds none free therefore starts nothing, and
its EASY pass finds no candidate; once the run's first blocked head is
recorded, such a cycle returns before it scores, pops or backfills. (A
ready job wider than the cluster is then reported by the next cycle that
finds a processor free.) A cycle with an empty ready set returns at once
too.

EASY reads a processor index, then sorts. Within one pass the shadow time
stays where it is (the pass checks that it never rises), and ``free_procs``
and the head's spare processors ``extra`` only fall: a backfilled job either
ends by the shadow, which leaves the processors free at the shadow as they
were, or fits the spare processors, and then takes its processors from both.
A candidate that fails ``procs <= free`` or ``clock + requested_time <=
shadow or procs <= extra`` at the start of the pass therefore fails at every
later point of it, and once no processor is free every candidate fails.
Collecting the candidates that pass both tests at the start, sorting only
them, and walking them in order with the same tests until no processor is
free starts the same jobs as walking the whole sorted queue. The blocked
head needs more than the free processors, so it is never a candidate.

Every EASY run keeps a processor index of its ready set:
``ClusterState.by_procs`` buckets the ready jobs by requested processors,
each bucket sorted by (requested time, rank, job), and
``ClusterState.proc_counts`` holds the bucket keys in order, with no empty
bucket. The rank is the run's priority rank for the time-invariant kinds and
the job id for the aging kinds. A job enters its bucket when it enters the
ready set and leaves it when it starts. A pass that finds the smallest key
above the free processors has no candidate and computes no reservation.

The time-invariant kinds collect the candidates from the index. A pass
visits only the buckets with ``procs <= free``. From each it takes the
prefix whose ``clock + requested_time <= shadow``, found with that same
float test (tried on the bucket's two ends before it bisects): adding
``clock`` never reverses the order of two requested times, so the jobs that
pass form a prefix. When ``procs <= extra``, the rest of the bucket can
start only on spare processors. The walk meets them in rank order and starts
them until the first one that no longer fits the spare or the free
processors, and each start uses ``procs`` of both, so only the first
``min(extra, free) // procs`` of them by rank can start, and only those are
taken. The aging kinds filter the entries their cycle already scored, with
both tests in one pass. ``ClusterState.releases`` keeps the running jobs'
projected releases sorted as jobs start and finish, so a reservation walks a
list instead of sorting the running set.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from . import heuristics, metrics
from .errors import ConfigError, ContractError, SchedulingError
from .heuristics import PolicyKind
from .metrics import DEFAULT_TAU, MetricsReport, Schedule
from .workload import Job, WorkloadTrace, format_column


class EventKind(enum.IntEnum):
    COMPLETION = 0   # lower sorts first: frees resources before same-time arrivals
    ARRIVAL = 1


class SimEvent(NamedTuple):
    time: float
    kind: EventKind
    job_id: int


@dataclass
class ClusterState:
    total_procs: int
    free_procs: int
    clock: float = 0.0
    ready: dict[int, Job] = field(default_factory=dict)       # arrival order
    running: dict[int, Job] = field(default_factory=dict)
    start: dict[int, float] = field(default_factory=dict)     # id -> start time
    run_heap: list[tuple[float, int]] = field(default_factory=list)
    finished: list[Job] = field(default_factory=list)
    arrivals: list[Job] = field(default_factory=list)         # (submit, id) order
    next_arrival: int = 0
    # time-invariant kinds: rank_key is the priority rank, and rank_heap
    # holds (rank, job) for every ready job plus started ones not yet dropped
    rank_key: Callable[[Job], int] | None = None
    rank_heap: list[tuple[int, Job]] | None = None
    # EASY runs only (a heuristic with backfill on), None otherwise: the
    # running jobs' (start + requested_time, id, procs), sorted; and the
    # processor index of the ready set (buckets of (requested_time,
    # rank_key(job), job) by requested procs, and the sorted keys of the
    # nonempty buckets), where an aging kind's rank_key is the id
    releases: list[tuple[float, int, int]] | None = None
    by_procs: dict[int, list[tuple[float, int, Job]]] | None = None
    proc_counts: list[int] | None = None


@dataclass
class RunStats:
    started: int = 0
    backfilled: int = 0
    forced_starts: int = 0
    events: int = 0
    first_blocked_head: int | None = None


@dataclass
class RunResult:
    schedule: Schedule
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
    """True: a job waits for nothing but processors. Nothing calls it;
    bench/tracing.py patches it by name."""
    return True


def ready_jobs(state: ClusterState) -> list[Job]:
    """The waiting jobs, in arrival order."""
    return list(state.ready.values())


def _index_ready(state: ClusterState, job: Job) -> None:
    """Put a newly ready job in the run's rank heap and processor index,
    whichever of them the run keeps."""
    rank = state.rank_key(job)
    if state.rank_heap is not None:
        heapq.heappush(state.rank_heap, (rank, job))
    if state.by_procs is None:
        return
    procs = job.requested_procs
    bucket = state.by_procs.get(procs)
    if bucket is None:
        state.by_procs[procs] = [(job.requested_time, rank, job)]
        bisect.insort(state.proc_counts, procs)
    else:
        bisect.insort(bucket, (job.requested_time, rank, job))


def _unindex_started(state: ClusterState, job: Job) -> None:
    """Take a started job out of its bucket; a rank heap drops it lazily."""
    procs = job.requested_procs
    bucket = state.by_procs[procs]
    if len(bucket) == 1:
        del state.by_procs[procs]
        state.proc_counts.remove(procs)
    else:
        del bucket[bisect.bisect_left(
            bucket, (job.requested_time, state.rank_key(job)))]


def start_job(state: ClusterState, job: Job, now: float) -> bool:
    """Start a ready job; False means rejection (retry later), not an error."""
    if job.id not in state.ready:
        raise ContractError(f"job {job.id} is not ready")
    if now < job.submit_time:
        raise ContractError(f"job {job.id} cannot start before submission")
    if job.requested_procs > state.free_procs:
        return False
    del state.ready[job.id]
    state.start[job.id] = now
    state.free_procs -= job.requested_procs
    state.running[job.id] = job
    heapq.heappush(state.run_heap, (now + job.run_time, job.id))
    if state.releases is not None:          # EASY runs
        _unindex_started(state, job)
        bisect.insort(state.releases,
                      (now + job.requested_time, job.id, job.requested_procs))
    return True


def next_event_time(state: ClusterState) -> float:
    """Time of the next event; inf when there is none."""
    t = state.run_heap[0][0] if state.run_heap else math.inf
    if state.next_arrival < len(state.arrivals):
        t = min(t, state.arrivals[state.next_arrival].submit_time)
    return t


def advance_to_next_event(state: ClusterState) -> tuple[EventKind, int]:
    """Jump the clock to the next event and apply it; returns the event's
    kind and job id (its time is the new clock)."""
    heap = state.run_heap
    arriving = (state.arrivals[state.next_arrival]
                if state.next_arrival < len(state.arrivals) else None)
    if heap and (arriving is None or heap[0][0] <= arriving.submit_time):
        t, jid = heapq.heappop(heap)
        state.clock = t
        job = state.running.pop(jid)
        releases = state.releases
        if releases is not None:
            del releases[bisect.bisect_left(
                releases, (state.start[jid] + job.requested_time, jid))]
        state.free_procs += job.requested_procs
        state.finished.append(job)
        return EventKind.COMPLETION, jid
    job = arriving
    if job is None:
        raise SchedulingError("no future events")
    state.clock = job.submit_time
    state.next_arrival += 1
    state.ready[job.id] = job
    if state.rank_key is not None:
        _index_ready(state, job)
    return EventKind.ARRIVAL, job.id


def schedule_cycle(state: ClusterState, selector) -> list[int]:
    """Start jobs chosen by the selector until it passes (returns None)."""
    started: list[int] = []
    while True:
        choice = selector(state)
        if choice is None:
            return started
        job = state.ready.get(choice)
        if job is None:
            raise ContractError(f"selector returned non-ready job id {choice}")
        if not start_job(state, job, state.clock):
            raise ContractError(
                f"selector chose job {choice}, which needs more processors "
                f"than are free")
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
    clock = state.clock
    need = head.requested_procs
    avail = state.free_procs
    releases = iter(state.releases)
    for t, _, procs in releases:
        avail += procs
        if avail >= need:
            break
    else:
        raise SchedulingError(
            f"job {head.id} never fits under the current projection "
            f"(free {state.free_procs} of {state.total_procs})")
    # the releases projected to the same time as the one the head fits at
    # are spare too; every release before the clock is projected to it
    at = t if t > clock else clock
    for t, _, procs in releases:
        if t > at:
            break
        avail += procs
    return at, avail - need


def backfill_easy(state: ClusterState, head: Job,
                  stats: RunStats | None = None,
                  entries: list[tuple] | None = None) -> list[int]:
    """One EASY pass behind a blocked head; returns the started ids.

    The head gets a reservation; other ready jobs start now, in priority
    order, only if they fit free processors and either finish (by their own
    estimate) before the shadow time or use no more than the spare
    processors. ``entries``, when given, holds one keyed entry per ready job
    with the job as its last field, as an aging cycle's heap does, and is
    filtered and sorted without keying a job again; otherwise the candidates
    come from the processor index of a time-invariant run, in rank order
    (module docstring). The head's reservation is recomputed after every
    backfill and may only move earlier.
    """
    if head.id not in state.ready or head.requested_procs <= state.free_procs:
        raise ContractError(f"job {head.id} is not a blocked ready head")
    free = state.free_procs
    counts = state.proc_counts
    if not counts or counts[0] > free:
        return []
    clock = state.clock
    shadow, extra = compute_reservation(state, head)
    if entries is None:
        queue = []
        for procs in counts[:bisect.bisect_right(counts, free)]:
            bucket = state.by_procs[procs]
            if clock + bucket[-1][0] <= shadow:
                cut = len(bucket)
            elif clock + bucket[0][0] > shadow:
                cut = 0
            else:
                cut = bisect.bisect_right(bucket, shadow,
                                          key=lambda e: clock + e[0])
            queue += bucket[:cut]
            if procs <= extra and cut < len(bucket):
                # past the shadow: only the first few by rank can start
                queue += heapq.nsmallest(min(extra, free) // procs,
                                         bucket[cut:], key=itemgetter(1))
        queue.sort(key=itemgetter(1))
    else:
        queue = [e for e in entries
                 if (cand := e[-1]).requested_procs <= free
                 and (clock + cand.requested_time <= shadow
                      or cand.requested_procs <= extra)]
        queue.sort()
    started: list[int] = []
    for entry in queue:
        cand = entry[-1]
        if cand.requested_procs > state.free_procs:
            continue
        if not (clock + cand.requested_time <= shadow
                or cand.requested_procs <= extra):
            continue
        start_job(state, cand, clock)
        started.append(cand.id)
        if stats is not None:
            stats.backfilled += 1
        new_shadow, extra = compute_reservation(state, head)
        if new_shadow > shadow:
            raise AssertionError(
                f"backfill of job {cand.id} delayed the head reservation "
                f"({shadow} -> {new_shadow})")
        shadow = new_shadow
        if not state.free_procs:
            break
    return started


class Simulation:
    """One episode over one job set. Single-threaded; instances independent."""

    def __init__(self, jobs: list[Job], total_procs: int, *,
                 backfill: bool = True):
        for job in jobs:
            if job.requested_procs < 1:
                raise ContractError(
                    f"job {job.id} requests {job.requested_procs} processors;"
                    f" every job needs at least 1")
        self.state = new_cluster(total_procs, jobs)
        self.backfill = backfill
        self.stats = RunStats()
        self.total_jobs = len(self.state.arrivals)
        self.on_event = None     # optional callback(state, event) for invariant probes

    # -- scheduling ------------------------------------------------------

    def _schedule_heuristic(self, score_all=None) -> None:
        """Start ready jobs in priority order until the head does not fit,
        then run EASY behind it.

        A time-invariant kind passes no ``score_all`` and uses the run's
        (rank, job) heap; its entries of jobs no longer ready are dropped. An
        aging kind passes its batch scorer from ``heuristics.AGING_ENTRIES``:
        the cycle scores every ready job once into a fresh heap of entries
        (score, submit, id, job), and EASY reuses what is left of it. A
        cycle with no ready job, or with no free processor after the first
        blocked head, starts nothing, so it returns at once (module
        docstring).
        """
        state = self.state
        stats = self.stats
        if not state.ready or (not state.free_procs
                               and stats.first_blocked_head is not None):
            return
        if score_all is None:
            heap = state.rank_heap
        else:
            heap = score_all(state.ready.values(), state.clock)
            heapq.heapify(heap)
        ready = state.ready
        while heap:
            head = heap[0][-1]
            if head.id not in ready:
                heapq.heappop(heap)
                continue
            if head.requested_procs > state.free_procs:
                break
            heapq.heappop(heap)
            start_job(state, head, state.clock)
            stats.started += 1
        else:
            return
        if stats.first_blocked_head is None:
            stats.first_blocked_head = head.id
        if head.requested_procs > state.total_procs:
            raise SchedulingError(
                f"job {head.id} requests {head.requested_procs} processors, "
                f"system has {state.total_procs}: it can never start")
        if self.backfill:
            started = backfill_easy(state, head, stats,
                                    None if score_all is None else heap)
            stats.started += len(started)

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
        job = next((j for j in ready if j.requested_procs <= state.free_procs),
                   None)
        if job is None:
            raise SchedulingError(
                f"job {ready[0].id} requests {ready[0].requested_procs} "
                f"processors, system has {state.total_procs}: it can never "
                f"start")
        start_job(state, job, state.clock)
        self.stats.started += 1
        self.stats.forced_starts += 1

    # -- event loop ------------------------------------------------------

    def run(self, policy) -> Schedule:
        """Drive the episode to completion; returns the finished jobs' columns
        in end order.

        After each scheduling cycle the next event time is looked up once,
        and every event at that time is applied before the next cycle.
        """
        state = self.state
        if isinstance(policy, (str, PolicyKind)):
            kind = PolicyKind.from_name(policy) if isinstance(policy, str) else policy
            if kind is PolicyKind.RL:
                raise ContractError("RL runs need a selector, not a policy name")
            # before any job has arrived
            if self.backfill:
                state.releases, state.by_procs, state.proc_counts = [], {}, []
            if kind in heuristics.TIME_INVARIANT_KINDS:
                state.rank_key = heuristics.priority_key(kind, state)
                state.rank_heap = []
                schedule = self._schedule_heuristic
            else:
                if self.backfill:
                    state.rank_key = attrgetter("id")
                score_all = heuristics.AGING_ENTRIES[kind]
                schedule = lambda: self._schedule_heuristic(score_all)
        elif callable(policy):
            schedule = lambda: self._schedule_selector(policy)
        else:
            raise ContractError(f"unsupported policy object {policy!r}")

        stats, on_event = self.stats, self.on_event
        run_heap, arrivals = state.run_heap, state.arrivals
        total, finished = self.total_jobs, state.finished
        while len(finished) < total:
            schedule()
            t = next_event_time(state)
            if t == math.inf:
                if not state.ready:
                    raise SchedulingError(
                        "event loop stalled with no ready jobs")
                self._force_start_one()
                continue
            while True:
                what, jid = advance_to_next_event(state)
                stats.events += 1
                if on_event is not None:
                    on_event(state, SimEvent(t, what, jid))
                if not ((run_heap and run_heap[0][0] == t)
                        or (state.next_arrival < total
                            and arrivals[state.next_arrival].submit_time
                            == t)):
                    break
        return _finished_schedule(state)


def _int_column(values: list[int]) -> np.ndarray:
    """int64, or Python ints (object) when a value does not fit int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _finished_schedule(state: ClusterState) -> Schedule:
    """The finished jobs' columns, in end order."""
    finished = state.finished
    ids = [j.id for j in finished]
    return Schedule(
        _int_column(ids),
        np.array([j.submit_time for j in finished], dtype=float),
        np.array(list(map(state.start.__getitem__, ids)), dtype=float),
        np.array([j.run_time for j in finished], dtype=float),
        _int_column([j.requested_procs for j in finished]))


def run_episode(trace: WorkloadTrace | list[Job], policy="fcfs", *,
                backfill: bool = True, tau: float = DEFAULT_TAU,
                total_procs: int | None = None,
                on_event=None) -> RunResult:
    """Simulate one policy over one trace and report metrics.

    Deterministic: identical (trace, policy, options) gives an identical
    schedule. The jobs are read, never written, so runs share them.
    """
    if isinstance(trace, WorkloadTrace):
        procs = total_procs if total_procs is not None else trace.total_procs
        trace = trace.jobs
    elif total_procs is None:
        raise ConfigError("total_procs is required when passing a bare job list")
    else:
        procs = total_procs
    sim = Simulation(trace, procs, backfill=backfill)
    sim.on_event = on_event
    label = policy.value if isinstance(policy, PolicyKind) else (
        policy if isinstance(policy, str) else "selector")
    schedule = sim.run(policy)
    report = metrics.aggregate(schedule, tau=tau, policy=str(label),
                               total_procs=procs)
    return RunResult(schedule=schedule, report=report, stats=sim.stats,
                     policy=str(label))


JOBS_CSV_COLUMNS = ["id", "submit_time", "start_time", "end_time",
                    "wait_time", "procs", "policy"]


def job_csv_rows(results: list[RunResult]) -> list[str]:
    """One jobs.csv line per finished job of the runs, ordered by id; a
    run's jobs carry its policy."""
    schedule = Schedule.concat([r.schedule for r in results])
    order = np.argsort(schedule.id, kind="stable")
    submit, start = schedule.submit[order], schedule.start[order]
    policy = np.repeat([r.policy for r in results],
                       [len(r.schedule) for r in results])[order]
    return list(map(",".join, zip(
        map(str, schedule.id[order].tolist()), format_column(submit),
        format_column(start), format_column(start + schedule.run[order]),
        format_column(start - submit),
        map(str, schedule.procs[order].tolist()), policy.tolist())))


def write_jobs_csv(path, rows: list[str]) -> None:
    with open(path, "w") as fp:
        fp.write("\n".join([",".join(JOBS_CSV_COLUMNS), *rows]) + "\n")
