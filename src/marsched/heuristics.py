"""Closed-form priority policies and the one ordering of a ready queue.

All eight formulas are compared min-first: the two aging formulas (WFP3,
UNICEF) carry leading minus signs so that waiting drives their scores down,
which makes min-first consistent with FCFS (min submit) and SJF (min
requested time).
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


# The aging kinds score every ready job in every cycle, so each formula is
# written once, as a batch: the entries (score, submit time, id, job) of an
# iterable of jobs at one clock, built by one list comprehension; a
# simulator's aging cycle orders by them. ``score`` takes the entry of a
# one-job batch. The wait is clamped at 0 by a test, which gives max(w,
# 0.0)'s value without a call per job.

def _wfp3_entries(jobs, now: float) -> list[tuple]:
    return [(-(((0.0 if (w := now - j.submit_time) < 0.0 else w)
                / j.requested_time) ** 3) * j.requested_procs,
             j.submit_time, j.id, j) for j in jobs]


def _unicef_entries(jobs, now: float) -> list[tuple]:
    log2 = math.log2
    return [(-(0.0 if (w := now - j.submit_time) < 0.0 else w)
             / ((log2(n) if (n := j.requested_procs) > 1 else 1.0)
                * j.requested_time),
             j.submit_time, j.id, j) for j in jobs]


# kind -> batch scorer (jobs, now) -> entries (score, submit, id, job)
AGING_ENTRIES = {PolicyKind.WFP3: _wfp3_entries,
                 PolicyKind.UNICEF: _unicef_entries}


def score(job: Job, now: float, kind: PolicyKind) -> float:
    """Priority score; lower runs first. Pure in (job, now)."""
    if kind is PolicyKind.RL:
        raise ContractError("RL has no closed-form score; use the agent module")
    if kind in AGING_ENTRIES:
        return AGING_ENTRIES[kind]((job,), now)[0][0]
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
    stands for. The aging kinds are ordered by their ``AGING_ENTRIES``
    batch instead.
    """
    score_of = RANK_SCORES[kind]
    keys = [(score_of(j), j.submit_time, j.id) for j in state.arrivals]
    keys.sort()
    rank = {key[2]: r for r, key in enumerate(keys)}
    return lambda j: rank[j.id]
