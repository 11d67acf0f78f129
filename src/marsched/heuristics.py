"""Closed-form priority policies and the one ordering of a ready queue.

All eight formulas are compared min-first: the two aging formulas (WFP3,
UNICEF) carry leading minus signs so that waiting drives their scores down,
which makes min-first consistent with FCFS (min submit) and SJF (min
requested time).
"""

from __future__ import annotations

import enum
import math

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
# kinds whose score ignores `now`; the aging kinds WFP3 and UNICEF are left out
TIME_INVARIANT_KINDS = frozenset(HEURISTIC_KINDS) - {PolicyKind.WFP3,
                                                     PolicyKind.UNICEF}

# fitted constants used verbatim by the F1-F4 formulas
_F1_C = 8.70e2
_F2_C = 2.56e4
_F3_C = 6.86e6
_F4_C = 5.30e5


def _log10_clamped(x: float) -> float:
    return math.log10(max(x, 1.0))


# The aging kinds score every ready job in every cycle, so each formula is
# written once, as a batch: the entries (score, submit time, id, job) of an
# iterable of jobs at one clock, built by one list comprehension. ``score``
# and ``priority_key`` take the entry of a one-job batch. The wait is clamped
# at 0 by a test, which gives max(w, 0.0)'s value without a call per job.

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
    s_t = job.submit_time
    r_t = job.requested_time
    n_t = job.requested_procs

    if kind is PolicyKind.FCFS:
        return s_t
    if kind is PolicyKind.SJF:
        return r_t
    if kind in AGING_ENTRIES:
        return AGING_ENTRIES[kind]((job,), now)[0][0]
    if kind is PolicyKind.F1:
        return _log10_clamped(r_t) * n_t + _F1_C * _log10_clamped(s_t)
    if kind is PolicyKind.F2:
        return math.sqrt(r_t) * n_t + _F2_C * _log10_clamped(s_t)
    if kind is PolicyKind.F3:
        return r_t * n_t + _F3_C * _log10_clamped(s_t)
    if kind is PolicyKind.F4:
        return r_t * math.sqrt(n_t) + _F4_C * _log10_clamped(s_t)
    raise ContractError(f"unhandled policy kind {kind}")


def sort_key(job: Job, now: float, kind: PolicyKind):
    return (score(job, now, kind), job.submit_time, job.id)


def priority_key(kind: PolicyKind, state):
    """Sort key of one run's scheduling cycles; lower runs first.

    ``state`` carries the run's ``arrivals`` and its current ``clock``. An
    aging kind keys a job to its entry (score, submit, id, job) from
    ``AGING_ENTRIES`` at the clock of the call; ids are unique, so the job
    never takes part in a comparison. An aging cycle builds the same entries
    for the whole ready set in one batch. The other kinds ignore the clock,
    so every job is scored once, up front, and keyed by its int rank, which
    compares faster than the (score, submit, id) tuple it stands for.
    """
    if kind not in TIME_INVARIANT_KINDS:
        entries = AGING_ENTRIES[kind]
        return lambda j: entries((j,), state.clock)[0]
    order = sorted(state.arrivals, key=lambda j: sort_key(j, state.clock, kind))
    rank = {j.id: r for r, j in enumerate(order)}
    return lambda j: rank[j.id]
