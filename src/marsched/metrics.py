"""Scheduling quality metrics and per-run report aggregation.

All three slowdown variants are >= 1 by construction. ``tau`` shields the
bounded variants from very short jobs; the per-processor variant additionally
normalizes by the job's processor count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

DEFAULT_TAU = 10.0

REPORT_SCHEMA = "marsched.report.v1"


def job_slowdowns(wait, run, procs, tau: float = DEFAULT_TAU):
    """Slowdowns of finished jobs from columns of wait, run time and procs.

    Returns three arrays: the slowdown (T_w + T_r) / T_r, the bounded
    slowdown max{(T_w + T_r) / max{T_r, tau}, 1}, and the per-processor
    variant, which divides the bounded one's quotient by the processor count
    before flooring it at 1.
    """
    wait = np.asarray(wait, dtype=float)
    run = np.asarray(run, dtype=float)
    procs = np.asarray(procs, dtype=float)
    if (run <= 0).any():
        raise ValueError(f"run time must be positive, got {run[run <= 0][0]}")
    if (wait < 0).any():
        raise ValueError(
            f"wait time must be nonnegative, got {wait[wait < 0][0]}")
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if (procs < 1).any():
        raise ValueError(
            f"processor count must be >= 1, got {procs[procs < 1][0]}")
    total = wait + run
    shielded = np.maximum(run, tau)
    return (total / run, np.maximum(total / shielded, 1.0),
            np.maximum(total / (procs * shielded), 1.0))


@dataclass
class Schedule:
    """A run's finished jobs as columns in end order: ``id`` and ``procs``
    int64 (Python ints when a value does not fit), the times float64."""

    id: np.ndarray
    submit: np.ndarray
    start: np.ndarray
    run: np.ndarray
    procs: np.ndarray

    def __len__(self) -> int:
        return len(self.id)

    @classmethod
    def concat(cls, schedules) -> "Schedule":
        """The schedules' entries one after another, in the given order."""
        return cls(*(np.concatenate([getattr(s, f.name) for s in schedules])
                     for f in fields(cls)))


def _columns(schedule: Schedule):
    """(submit, wait, run, procs) float columns of a schedule."""
    submit = schedule.submit
    return (submit, schedule.start - submit, schedule.run,
            schedule.procs.astype(float))


def bounded_slowdowns(schedule: Schedule,
                      tau: float = DEFAULT_TAU) -> np.ndarray:
    """Vector of bounded slowdowns of a schedule, in its end order."""
    _, wait, run, procs = _columns(schedule)
    return job_slowdowns(wait, run, procs, tau)[1]


@dataclass
class MetricsReport:
    """One run's report; the fields are report.csv's columns, in order."""
    policy: str
    job_count: int
    mean_bounded_slowdown: float
    median_bounded_slowdown: float
    p95_bounded_slowdown: float
    mean_slowdown: float
    median_slowdown: float
    p95_slowdown: float
    mean_pp_slowdown: float
    median_pp_slowdown: float
    p95_pp_slowdown: float
    makespan: float
    tau: float
    total_procs: int | None


def aggregate(schedule: Schedule, tau: float = DEFAULT_TAU, policy: str = "",
              total_procs: int | None = None) -> MetricsReport:
    """Build a MetricsReport over a schedule's finished jobs."""
    if not len(schedule):
        raise ValueError("cannot aggregate metrics over zero jobs")
    submit, wait, run, procs = _columns(schedule)
    sds, bsds, ppsds = job_slowdowns(wait, run, procs, tau)
    makespan = float((submit + wait + run).max() - submit.min())
    return MetricsReport(
        policy=policy,
        job_count=len(schedule),
        mean_bounded_slowdown=float(np.mean(bsds)),
        median_bounded_slowdown=float(np.median(bsds)),
        p95_bounded_slowdown=float(np.percentile(bsds, 95.0)),
        mean_slowdown=float(np.mean(sds)),
        median_slowdown=float(np.median(sds)),
        p95_slowdown=float(np.percentile(sds, 95.0)),
        mean_pp_slowdown=float(np.mean(ppsds)),
        median_pp_slowdown=float(np.median(ppsds)),
        p95_pp_slowdown=float(np.percentile(ppsds, 95.0)),
        makespan=makespan,
        tau=tau,
        total_procs=total_procs,
    )


def report_csv_row(report: MetricsReport) -> list[str]:
    values = (getattr(report, f.name) for f in fields(report))
    return ["" if v is None else (repr(v) if isinstance(v, float) else str(v))
            for v in values]


def write_report_csv(path, reports) -> None:
    """Write one CSV row per report; floats use repr for byte-stable output."""
    lines = [f"# schema: {REPORT_SCHEMA}",
             ",".join(f.name for f in fields(MetricsReport))]
    for rep in reports:
        lines.append(",".join(report_csv_row(rep)))
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")
