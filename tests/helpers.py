"""Shared factories and file digests for the test suite."""

import hashlib

from marsched.workload import Job, JobStatus, WorkloadTrace


def sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def make_job(id, submit=0.0, run=100.0, procs=1, req_time=None, cost=0.0,
             deps=()):
    return Job(id=id, submit_time=float(submit), run_time=float(run),
               requested_procs=int(procs),
               requested_time=float(req_time if req_time is not None else run),
               cost_rate=float(cost), dependencies=tuple(deps))


def make_finished(id, submit, start, run, procs=1, req_time=None):
    j = make_job(id, submit, run, procs, req_time)
    j.start_time = float(start)
    j.status = JobStatus.FINISHED
    return j


def make_trace(jobs, total_procs, name="test"):
    trace = WorkloadTrace(jobs=list(jobs), total_procs=total_procs, name=name)
    trace.validate()
    return trace
