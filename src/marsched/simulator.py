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

State per kind of run. Every run keeps the ready set, the run heap and
the finished jobs. A running job's only record is its run-heap entry (end,
id, job, start), and its completion appends (job, start) to
``ClusterState.finished``; a run writes no job, and returns its schedule as
columns (``metrics.Schedule``). A time-invariant heuristic also keeps its
rank heap, and an aging one its ready set as columns (``ClusterState.aging``,
a ``heuristics.AgingQueue``). Only an EASY run (a heuristic with backfill
on) keeps the release profile (``ClusterState.releases``), and only one of a
time-invariant kind the processor index (``by_procs``, ``proc_counts``); in
other runs, selector runs included, they are None and no start or
completion pays for them.

Ready set. ``ClusterState.ready`` holds the waiting jobs in arrival order:
a job enters when it arrives and leaves when it starts. ``ready_jobs``
returns it, and ``start_job`` and ``backfill_easy`` test membership in it.

Heuristic cycle. Within a cycle the clock is fixed, so every score is
fixed, and the order (score, submit time, id) is total. Starting a job only
removes it from that order; the others keep theirs. So taking the minimum
again after every start starts exactly the jobs a full re-sort would. The
kinds whose score ignores the clock (``heuristics.TIME_INVARIANT_KINDS``)
keep one heap of (rank, job) for the whole run, ranked once by
``heuristics.priority_key``. Invariant: every ready job has exactly one
entry in ``ClusterState.rank_heap``, pushed when it entered the ready set;
any other entry belongs to a job an EASY pass started, and it is dropped when
it reaches the top. A cycle then pops only the jobs it starts. WFP3 and
UNICEF age, so each of their cycles scores every ready job once, in one batch
(``heuristics.AGING_URGENCY``), into one float per job of the run's
``AgingQueue``: parallel lists of the ready jobs' ids, submit times,
divisors, weights, processors and requested times, in arrival order. A job
is added when it arrives and dropped when it starts, so the queue's order is
(submit time, id) order, and taking the first most urgent job,
``scores.index(max(scores))``, breaks ties as that order does. The cycle
deletes the score of each job it starts, and the EASY pass reuses the rest,
so no job is scored twice at one clock. A lone ready job heads the queue
unscored.

No free processor, no cycle. ``Simulation`` rejects a job that requests
fewer than 1 or more than ``total_procs`` processors, so every job needs at
least one free processor to start, and every job fits the idle cluster. A
heuristic cycle that finds none free therefore starts nothing, and its EASY
pass finds no candidate; once the run's first blocked head is recorded, such
a cycle returns before it scores, pops or backfills. A cycle with an empty
ready set returns at once too.

EASY reads a processor index, then sorts. Within one pass the shadow time
stays where it is, so the pass computes the reservation once, and
``free_procs`` and the head's spare processors ``extra`` only fall: a
backfilled job either ends by the shadow, which leaves the processors free
at the shadow as they were, or fits the spare processors, and then takes its
processors from both. With fewer processors free before the shadow, the head
cannot fit earlier either.
A candidate that fails ``procs <= free`` or ``clock + requested_time <=
shadow or procs <= extra`` at the start of the pass therefore fails at every
later point of it, and once no processor is free every candidate fails.
Collecting the candidates that pass both tests at the start, sorting only
them, and walking them in order with the same tests until no processor is
free starts the same jobs as walking the whole sorted queue. The blocked
head needs more than the free processors, so it is never a candidate.

An EASY run of a time-invariant kind keeps a processor index of its
ready set: ``ClusterState.by_procs`` buckets the ready jobs by requested
processors, each bucket sorted by (requested time, rank, job), and
``ClusterState.proc_counts`` holds the bucket keys in order, with no empty
bucket. A job enters its bucket when it enters the ready set and leaves it
when it starts. A pass with no ready job that fits the free processors has
no candidate and computes no reservation: it reads that off the index's
smallest key, and an aging run off its queue's smallest requested
processors.

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
taken. The aging kinds filter the queue's columns, with both tests in one
pass, and sort the candidates' positions by the cycle's scores, most urgent
first; the sort is stable, so equal scores keep arrival order.
``ClusterState.releases`` keeps the running jobs' projected releases sorted
as jobs start and finish, so a reservation walks a list instead of sorting
the running set.
"""

from __future__ import annotations

import bisect
import enum
import heapq
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from . import heuristics, metrics
from .errors import ConfigError, ContractError, SchedulingError
from .heuristics import PolicyKind
from .metrics import DEFAULT_TAU, MetricsReport, Schedule
from .workload import BLOCK_JOBS, Job, WorkloadTrace, format_column


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
    # a running job's one record: (start + run_time, id, job, start)
    run_heap: list[tuple[float, int, Job, float]] = field(default_factory=list)
    finished: list[tuple[Job, float]] = field(default_factory=list)  # (job, start)
    arrivals: list[Job] = field(default_factory=list)         # (submit, id) order
    next_arrival: int = 0
    # time-invariant kinds: rank_key is the priority rank, and rank_heap
    # holds (rank, job) for every ready job plus started ones not yet dropped
    rank_key: Callable[[Job], int] | None = None
    rank_heap: list[tuple[int, Job]] | None = None
    # EASY runs only (a heuristic with backfill on), None otherwise: the
    # running jobs' (start + requested_time, id, procs), sorted
    releases: list[tuple[float, int, int]] | None = None
    # EASY runs of time-invariant kinds only, None otherwise: the processor
    # index of the ready set (buckets of (requested_time, rank_key(job), job)
    # by requested procs, and the sorted keys of the nonempty buckets)
    by_procs: dict[int, list[tuple[float, int, Job]]] | None = None
    proc_counts: list[int] | None = None
    # aging kinds only, None otherwise: the ready set as columns
    aging: heuristics.AgingQueue | None = None


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
    """Put a newly ready job in the run's rank heap and, in an EASY run, its
    processor index."""
    rank = state.rank_key(job)
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
    state.free_procs -= job.requested_procs
    heapq.heappush(state.run_heap, (now + job.run_time, job.id, job, now))
    if state.by_procs is not None:
        _unindex_started(state, job)
    elif state.aging is not None:
        state.aging.drop(job.id)
    if state.releases is not None:          # EASY runs
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
        t, jid, job, start = heapq.heappop(heap)
        state.clock = t
        releases = state.releases
        if releases is not None:
            del releases[bisect.bisect_left(
                releases, (start + job.requested_time, jid))]
        state.free_procs += job.requested_procs
        state.finished.append((job, start))
        return EventKind.COMPLETION, jid
    job = arriving
    if job is None:
        raise SchedulingError("no future events")
    state.clock = job.submit_time
    state.next_arrival += 1
    state.ready[job.id] = job
    if state.rank_key is not None:
        _index_ready(state, job)
    elif state.aging is not None:
        state.aging.add(job)
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
    processors spare at that time beyond the head's need. The head is no
    wider than the machine, and the free processors and the releases add
    up to the machine, so it fits at one of the releases.
    """
    clock = state.clock
    need = head.requested_procs
    avail = state.free_procs
    releases = iter(state.releases)
    for t, _, procs in releases:
        avail += procs
        if avail >= need:
            break
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
                  scores: list[float] | None = None) -> list[int]:
    """One EASY pass behind a blocked head; returns the started ids.

    The head gets a reservation; other ready jobs start now, in priority
    order, only if they fit free processors and either finish (by their own
    estimate) before the shadow time or use no more than the spare
    processors. ``scores``, when given, holds an aging cycle's urgency of
    every job of ``state.aging``, in its order, and the candidates are
    filtered on the queue's columns and started most urgent first, ties in
    arrival order; otherwise they come from the processor index of a
    time-invariant run, in rank order (module docstring). The reservation
    is computed once, and only when a ready job fits the free processors; a
    backfill that runs past the shadow takes its processors from ``extra``.
    """
    if head.id not in state.ready or head.requested_procs <= state.free_procs:
        raise ContractError(f"job {head.id} is not a blocked ready head")
    free = state.free_procs
    clock = state.clock
    if scores is not None:
        aging = state.aging
        procs, req_time = aging.procs, aging.req_time
        if min(procs) > free:
            return []
        shadow, extra = compute_reservation(state, head)
        fits = [i for i, p in enumerate(procs) if p <= free
                and (clock + req_time[i] <= shadow or p <= extra)]
        fits.sort(key=scores.__getitem__, reverse=True)    # stable
        ready, ids = state.ready, aging.ids
        queue = [ready[ids[i]] for i in fits]
    else:
        counts = state.proc_counts
        if not counts or counts[0] > free:
            return []
        shadow, extra = compute_reservation(state, head)
        entries = []
        for procs in counts[:bisect.bisect_right(counts, free)]:
            bucket = state.by_procs[procs]
            if clock + bucket[-1][0] <= shadow:
                cut = len(bucket)
            elif clock + bucket[0][0] > shadow:
                cut = 0
            else:
                cut = bisect.bisect_right(bucket, shadow,
                                          key=lambda e: clock + e[0])
            entries += bucket[:cut]
            if procs <= extra and cut < len(bucket):
                # past the shadow: only the first few by rank can start
                entries += heapq.nsmallest(min(extra, free) // procs,
                                           bucket[cut:], key=itemgetter(1))
        entries.sort(key=itemgetter(1))
        queue = map(itemgetter(2), entries)
    started: list[int] = []
    for cand in queue:
        if cand.requested_procs > state.free_procs:
            continue
        if not (clock + cand.requested_time <= shadow
                or cand.requested_procs <= extra):
            continue
        start_job(state, cand, clock)
        started.append(cand.id)
        if stats is not None:
            stats.backfilled += 1
        if clock + cand.requested_time > shadow:
            extra -= cand.requested_procs
        if not state.free_procs:
            break
    return started


class Simulation:
    """One episode over one job set. Single-threaded; instances independent."""

    def __init__(self, jobs: list[Job], total_procs: int, *,
                 backfill: bool = True):
        """Every job must request between 1 and ``total_procs``
        processors; the first that does not, in (submit time, id) order, is
        rejected here, so no run meets a job that cannot start."""
        self.state = new_cluster(total_procs, jobs)
        for job in self.state.arrivals:
            if not 1 <= job.requested_procs <= total_procs:
                if job.requested_procs < 1:
                    raise ContractError(
                        f"job {job.id} requests {job.requested_procs} "
                        f"processors; every job needs at least 1")
                raise SchedulingError(
                    f"job {job.id} requests {job.requested_procs} processors, "
                    f"system has {total_procs}: it can never start")
        self.backfill = backfill
        self.stats = RunStats()
        self.total_jobs = len(self.state.arrivals)
        self.on_event = None     # optional callback(state, event) for invariant probes

    # -- scheduling ------------------------------------------------------

    def _schedule_heuristic(self) -> None:
        """Start ready jobs in rank order until the head does not fit, then
        run EASY behind it: the cycle of a time-invariant kind, over the
        run's (rank, job) heap, whose entries of jobs no longer ready are
        dropped. A cycle with no ready job, or with no free processor after
        the first blocked head, starts nothing, so it returns at once
        (module docstring).
        """
        state = self.state
        stats = self.stats
        if not state.ready or (not state.free_procs
                               and stats.first_blocked_head is not None):
            return
        heap = state.rank_heap
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
        self._blocked_head(head)

    def _schedule_aging(self, urgency) -> None:
        """The cycle of an aging kind: ``urgency`` (from
        ``heuristics.AGING_URGENCY``) scores every job of the run's
        ``AgingQueue`` once, and the cycle starts the most urgent job, the
        first in arrival order among equals, until it does not fit; EASY
        then reuses the scores. It returns at once as
        ``_schedule_heuristic`` does.
        """
        state = self.state
        stats = self.stats
        ids, procs = state.aging.ids, state.aging.procs
        if not ids or (not state.free_procs
                       and stats.first_blocked_head is not None):
            return
        clock, ready = state.clock, state.ready
        # a lone ready job heads the queue whatever its score
        scores = urgency(state.aging, clock) if len(ids) > 1 else [0.0]
        while True:
            i = scores.index(max(scores))
            head = ready[ids[i]]
            if procs[i] > state.free_procs:
                break
            del scores[i]
            start_job(state, head, clock)
            stats.started += 1
            if not ids:
                return
        self._blocked_head(head, scores)

    def _blocked_head(self, head: Job,
                      scores: list[float] | None = None) -> None:
        """Record the run's first blocked head, and run EASY behind it."""
        stats = self.stats
        if stats.first_blocked_head is None:
            stats.first_blocked_head = head.id
        if self.backfill:
            stats.started += len(backfill_easy(self.state, head, stats,
                                               scores))

    def _schedule_selector(self, selector) -> None:
        started = schedule_cycle(self.state, selector)
        self.stats.started += len(started)

    def _force_start_one(self) -> None:
        """Break a no-event stall by starting the oldest ready job.

        Happens when a selector keeps passing with an idle cluster and no
        future arrivals; without this the episode could never terminate.
        The cluster is idle, so the job fits.
        """
        state = self.state
        start_job(state, ready_jobs(state)[0], state.clock)
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
                state.releases = []
            if kind in heuristics.TIME_INVARIANT_KINDS:
                state.rank_key = heuristics.priority_key(kind, state)
                state.rank_heap = []
                if self.backfill:
                    state.by_procs, state.proc_counts = {}, []
                schedule = self._schedule_heuristic
            else:
                state.aging = heuristics.AgingQueue(kind)
                urgency = heuristics.AGING_URGENCY[kind]
                schedule = lambda: self._schedule_aging(urgency)
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
                # no job runs or is still to arrive, so the unfinished wait
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


def _int_column(jobs: list[Job], name: str) -> np.ndarray:
    """The jobs' int field ``name``: int64, or Python ints (object) when a
    value does not fit int64."""
    try:
        return np.fromiter(map(attrgetter(name), jobs), np.int64, len(jobs))
    except OverflowError:
        return np.fromiter(map(attrgetter(name), jobs), object, len(jobs))


def _finished_schedule(state: ClusterState) -> Schedule:
    """The finished jobs' columns, in end order, from the (job, start) pairs."""
    jobs = list(map(itemgetter(0), state.finished))
    n = len(jobs)
    return Schedule(
        _int_column(jobs, "id"),
        np.fromiter(map(attrgetter("submit_time"), jobs), float, n),
        np.fromiter(map(itemgetter(1), state.finished), float, n),
        np.fromiter(map(attrgetter("run_time"), jobs), float, n),
        _int_column(jobs, "requested_procs"))


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
    stats = sim.stats
    del sim     # the run's state goes before the metrics' arrays come
    report = metrics.aggregate(schedule, tau=tau, policy=str(label),
                               total_procs=procs)
    return RunResult(schedule=schedule, report=report, stats=stats,
                     policy=str(label))


JOBS_CSV_COLUMNS = ["id", "submit_time", "start_time", "end_time",
                    "wait_time", "procs", "policy"]


def job_csv_rows(results: list[RunResult]) -> Iterator[str]:
    """One jobs.csv line per finished job of the runs, ordered by id; a
    run's jobs carry its policy. The ids are sorted once; the lines are
    formatted a block at a time, as they are consumed."""
    schedule = Schedule.concat([r.schedule for r in results])
    order = np.argsort(schedule.id, kind="stable")
    policy = np.repeat([r.policy for r in results],
                       [len(r.schedule) for r in results])
    for lo in range(0, len(order), BLOCK_JOBS):
        block = order[lo:lo + BLOCK_JOBS]
        submit, start = schedule.submit[block], schedule.start[block]
        yield from map(",".join, zip(
            map(str, schedule.id[block].tolist()), format_column(submit),
            format_column(start), format_column(start + schedule.run[block]),
            format_column(start - submit),
            map(str, schedule.procs[block].tolist()), policy[block].tolist()))


def write_jobs_csv(path, rows) -> None:
    """Write the header and the rows (any iterable of lines), one string
    per block of rows."""
    rows = iter(rows)
    with open(path, "w") as fp:
        fp.write(",".join(JOBS_CSV_COLUMNS) + "\n")
        while block := list(islice(rows, BLOCK_JOBS)):
            fp.write("\n".join(block) + "\n")
