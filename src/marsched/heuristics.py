"""Closed-form priority policies and the uniform selection rule.

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


def score(job: Job, now: float, kind: PolicyKind) -> float:
    """Priority score; lower runs first. Pure in (job, now)."""
    if kind is PolicyKind.RL:
        raise ContractError("RL has no closed-form score; use the agent module")
    s_t = job.submit_time
    r_t = job.requested_time
    n_t = job.requested_procs
    w_t = max(now - s_t, 0.0)

    if kind is PolicyKind.FCFS:
        return s_t
    if kind is PolicyKind.SJF:
        return r_t
    if kind is PolicyKind.WFP3:
        return -((w_t / r_t) ** 3) * n_t
    if kind is PolicyKind.UNICEF:
        denom = math.log2(n_t) if n_t > 1 else 1.0
        return -w_t / (denom * r_t)
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


def select_next(queue, now: float, kind: PolicyKind, free_procs: int,
                finished: frozenset | set = frozenset()) -> Job | None:
    """Pick the minimum-score dependency-ready job, or pass.

    Passing (returning None) happens when no job is dependency-ready or when
    the minimum-score job does not fit the free processors. Skipping past a
    blocked front-runner is deliberately not done here; that is backfilling's
    job and it lives in the simulator.
    """
    ready = [j for j in queue if all(d in finished for d in j.dependencies)]
    if not ready:
        return None
    best = min(ready, key=lambda j: sort_key(j, now, kind))
    if best.requested_procs <= free_procs:
        return best
    return None
