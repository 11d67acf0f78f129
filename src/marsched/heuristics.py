"""Closed-form priority policies and the one ordering of a ready queue.

All eight scores are compared min-first: the two aging formulas (WFP3,
UNICEF) carry leading minus signs so that waiting drives their scores down,
which makes min-first consistent with FCFS (min submit) and SJF (min
requested time). A simulator's aging cycle reads the same formulas without
the sign, as urgencies, and takes the most urgent job: negation is exact,
so the order is the same.
"""

from __future__ import annotations

import enum
import math
from operator import attrgetter

from .errors import ContractError
from .workload import Job


class PolicyKind(enum.Enum):
    FCFS = "fcfs"
    SJF = "sjf"
    WFP3 = "wfp3"
    UNICEF = "unicef"
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"
    F4 = "f4"
    RL = "rl"

    @classmethod
    def from_name(cls, name: str) -> "PolicyKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ContractError(f"unknown policy {name!r}") from None


HEURISTIC_KINDS = tuple(k for k in PolicyKind if k is not PolicyKind.RL)

# fitted constants used verbatim by the F1-F4 formulas
_F1_C = 8.70e2
_F2_C = 2.56e4
_F3_C = 6.86e6
_F4_C = 5.30e5


def _log10_clamped(x: float) -> float:
    return math.log10(max(x, 1.0))


# kind -> score of one job, for the kinds that rank a run once
# (``priority_key``)
RANK_SCORES = {
    PolicyKind.FCFS: attrgetter("submit_time"),
    PolicyKind.SJF: attrgetter("requested_time"),
    PolicyKind.F1: lambda j: (_log10_clamped(j.requested_time)
                              * j.requested_procs
                              + _F1_C * _log10_clamped(j.submit_time)),
    PolicyKind.F2: lambda j: (math.sqrt(j.requested_time) * j.requested_procs
                              + _F2_C * _log10_clamped(j.submit_time)),
    PolicyKind.F3: lambda j: (j.requested_time * j.requested_procs
                              + _F3_C * _log10_clamped(j.submit_time)),
    PolicyKind.F4: lambda j: (j.requested_time * math.sqrt(j.requested_procs)
                              + _F4_C * _log10_clamped(j.submit_time)),
}
# kinds whose score ignores `now`; the aging kinds WFP3 and UNICEF are left out
TIME_INVARIANT_KINDS = frozenset(RANK_SCORES)


# The aging kinds score every ready job in every cycle. Each formula is split
# in two: a divisor that does not age, computed once per job when it joins an
# ``AgingQueue``, and an urgency, the score without its minus sign, computed
# for the whole queue at one clock by one list comprehension
# (``AGING_URGENCY``). The urgency reads the wait as ``now - submit``
# unclamped, since a ready job's wait is never negative; ``score`` clamps it
# by scoring at ``max(now, submit)``.

def _unicef_divisor(job: Job) -> float:
    n = job.requested_procs
    return (math.log2(n) if n > 1 else 1.0) * job.requested_time


# kind -> divisor of one job
AGING_DIVISORS = {PolicyKind.WFP3: attrgetter("requested_time"),
                  PolicyKind.UNICEF: _unicef_divisor}


class AgingQueue:
    """The ready set of an aging run as parallel lists in arrival order,
    which is (submit time, id) order: ids, submit times, divisors, weights
    (requested processors as floats), requested processors and requested
    times. A job is added when it arrives and dropped when it starts."""

    __slots__ = ("divisor_of", "ids", "submit", "divisor", "weight", "procs",
                 "req_time")

    def __init__(self, kind: PolicyKind, jobs=()):
        self.divisor_of = AGING_DIVISORS[kind]
        self.ids, self.submit, self.divisor, self.weight = [], [], [], []
        self.procs, self.req_time = [], []
        for job in jobs:
            self.add(job)

    def add(self, job: Job) -> None:
        self.ids.append(job.id)
        self.submit.append(job.submit_time)
        self.divisor.append(self.divisor_of(job))
        self.weight.append(float(job.requested_procs))
        self.procs.append(job.requested_procs)
        self.req_time.append(job.requested_time)

    def drop(self, job_id) -> None:
        i = self.ids.index(job_id)
        del (self.ids[i], self.submit[i], self.divisor[i], self.weight[i],
             self.procs[i], self.req_time[i])


# WFP3 multiplies by the weight, a float, and raises to 3.0: a float times
# an int converts the int first, and x ** 3 computes x ** 3.0, so the bits
# are those of the formula in ints, on Python's faster float paths.

def _wfp3_urgency(queue: AgingQueue, now: float) -> list[float]:
    return [((now - s) / d) ** 3.0 * n
            for s, d, n in zip(queue.submit, queue.divisor, queue.weight)]


def _unicef_urgency(queue: AgingQueue, now: float) -> list[float]:
    return [(now - s) / d for s, d in zip(queue.submit, queue.divisor)]


# kind -> urgencies (queue, now) -> one float per queued job, in queue order
AGING_URGENCY = {PolicyKind.WFP3: _wfp3_urgency,
                 PolicyKind.UNICEF: _unicef_urgency}


def score(job: Job, now: float, kind: PolicyKind) -> float:
    """Priority score; lower runs first. Pure in (job, now)."""
    if kind is PolicyKind.RL:
        raise ContractError("RL has no closed-form score; use the agent module")
    if kind in AGING_URGENCY:
        # before its submit time a job has waited 0
        return -AGING_URGENCY[kind](AgingQueue(kind, (job,)),
                                    max(now, job.submit_time))[0]
    if kind in RANK_SCORES:
        return RANK_SCORES[kind](job)
    raise ContractError(f"unhandled policy kind {kind}")


def sort_key(job: Job, now: float, kind: PolicyKind):
    return (score(job, now, kind), job.submit_time, job.id)


def priority_key(kind: PolicyKind, state):
    """Sort key of one run's scheduling cycles for a time-invariant kind
    (``TIME_INVARIANT_KINDS``); lower runs first.

    ``state`` carries the run's ``arrivals``. The score ignores the clock, so
    every job is keyed once, up front, by ``RANK_SCORES`` in one
    comprehension of (score, submit, id) and one sort, and ranked by its
    place in that order: an int, which compares faster than the key it
    stands for. The aging kinds are ordered by their ``AGING_URGENCY``
    instead.
    """
    score_of = RANK_SCORES[kind]
    keys = [(score_of(j), j.submit_time, j.id) for j in state.arrivals]
    keys.sort()
    rank = {key[2]: r for r, key in enumerate(keys)}
    return lambda j: rank[j.id]
