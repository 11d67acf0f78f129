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


# the aging scores run for every ready job in every cycle: a test is cheaper
# than a call to max(w_t, 0.0) and gives the same value

def _wfp3(job: Job, now: float) -> float:
    w_t = now - job.submit_time
    if w_t < 0.0:
        w_t = 0.0
    return -((w_t / job.requested_time) ** 3) * job.requested_procs


def _unicef(job: Job, now: float) -> float:
    w_t = now - job.submit_time
    if w_t < 0.0:
        w_t = 0.0
    n_t = job.requested_procs
    denom = math.log2(n_t) if n_t > 1 else 1.0
    return -w_t / (denom * job.requested_time)


_AGING_SCORES = {PolicyKind.WFP3: _wfp3, PolicyKind.UNICEF: _unicef}


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
    if kind in _AGING_SCORES:
        return _AGING_SCORES[kind](job, now)
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
    aging kind keys a job to the entry (score, submit, id, job) at the clock
    of the call, through its own score function rather than ``score``'s
    dispatch on the kind; ids are unique, so the job never takes part in a
    comparison, and an aging cycle heaps these entries as they are. The
    other kinds ignore the clock, so every job is scored once, up front, and
    keyed by its int rank, which compares faster than the (score, submit,
    id) tuple it stands for.
    """
    if kind not in TIME_INVARIANT_KINDS:
        fn = _AGING_SCORES[kind]
        return lambda j: (fn(j, state.clock), j.submit_time, j.id, j)
    order = sorted(state.arrivals, key=lambda j: sort_key(j, state.clock, kind))
    rank = {j.id: r for r, j in enumerate(order)}
    return lambda j: rank[j.id]
