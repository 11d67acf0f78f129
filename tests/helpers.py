"""Shared factories and file digests for the test suite."""

import hashlib

import numpy as np

from marsched.metrics import Schedule
from marsched.workload import Job, WorkloadTrace


def sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def make_job(id, submit=0.0, run=100.0, procs=1, req_time=None, cost=0.0,
             deps=()):
    return Job(id=id, submit_time=float(submit), run_time=float(run),
               requested_procs=int(procs),
               requested_time=float(req_time if req_time is not None else run),
               cost_rate=float(cost), dependencies=tuple(deps))


def make_schedule(rows):
    """A schedule of (id, submit, start, run[, procs]) rows, in end order;
    procs defaults to 1."""
    rows = [row if len(row) == 5 else (*row, 1) for row in rows]
    ids, submit, start, run, procs = zip(*rows) if rows else [()] * 5
    return Schedule(np.array(ids, dtype=np.int64),
                    np.array(submit, dtype=float),
                    np.array(start, dtype=float), np.array(run, dtype=float),
                    np.array(procs, dtype=np.int64))


def starts(schedule):
    """{job id: start time} of a schedule."""
    return dict(zip(schedule.id.tolist(), schedule.start.tolist()))


def ends(schedule):
    """{job id: end time} of a schedule."""
    return dict(zip(schedule.id.tolist(),
                    (schedule.start + schedule.run).tolist()))


def make_trace(jobs, total_procs, name="test"):
    trace = WorkloadTrace(jobs=list(jobs), total_procs=total_procs, name=name)
    trace.validate()
    return trace
