"""Workload ingestion: SWF traces, workflow descriptions, synthetic generation.

SWF here means the Standard Workload Format v2.2 used by the parallel
workloads archive: ';' comment/header lines, then one job per line with 18
whitespace-separated numeric fields.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TraceFormatError


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


@dataclass
class Job:
    """One rigid, non-preemptable job.

    Scheduling outcome (start_time, status) is filled in by the simulator;
    a freshly loaded job is pending with start_time None.
    """

    id: int
    submit_time: float
    run_time: float            # T_r, actual
    requested_procs: int       # n_t
    requested_time: float      # r_t, user estimate
    cost_rate: float = 0.0     # currency per processor-second
    dependencies: tuple[int, ...] = ()
    status: JobStatus = JobStatus.PENDING
    start_time: float | None = None

    def validate(self) -> None:
        if self.id < 1:
            raise TraceFormatError(f"job id must be positive, got {self.id}")
        if self.requested_procs < 1:
            raise TraceFormatError(f"job {self.id}: requested_procs must be >= 1")
        if self.run_time <= 0:
            raise TraceFormatError(f"job {self.id}: run_time must be > 0")
        if self.requested_time <= 0:
            raise TraceFormatError(f"job {self.id}: requested_time must be > 0")
        if self.submit_time < 0:
            raise TraceFormatError(f"job {self.id}: submit_time must be >= 0")
        if self.cost_rate < 0:
            raise TraceFormatError(f"job {self.id}: cost_rate must be >= 0")

    @property
    def wait_time(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def end_time(self) -> float | None:
        if self.start_time is None:
            return None
        return self.start_time + self.run_time

    def fresh_copy(self) -> "Job":
        return dataclasses.replace(self, status=JobStatus.PENDING, start_time=None)


@dataclass
class WorkloadTrace:
    jobs: list[Job]
    total_procs: int
    name: str = ""
    dropped_jobs: int = 0                               # filtered at parse time
    line_errors: list[tuple[int, str]] = field(default_factory=list)

    def validate(self) -> None:
        if self.total_procs < 1:
            raise TraceFormatError(f"trace {self.name!r}: total_procs must be >= 1")
        seen: set[int] = set()
        prev = -math.inf
        for job in self.jobs:
            job.validate()
            if job.id in seen:
                raise TraceFormatError(f"trace {self.name!r}: duplicate job id {job.id}")
            seen.add(job.id)
            if job.submit_time < prev:
                raise TraceFormatError(
                    f"trace {self.name!r}: jobs not sorted by submit_time at id {job.id}")
            prev = job.submit_time
            if job.requested_procs > self.total_procs:
                raise TraceFormatError(
                    f"trace {self.name!r}: job {job.id} requests {job.requested_procs} "
                    f"processors but the system has {self.total_procs}")

    def fresh_jobs(self) -> list[Job]:
        """Pristine copies for one simulation run; the trace itself stays clean."""
        return [j.fresh_copy() for j in self.jobs]

    def __len__(self) -> int:
        return len(self.jobs)


@dataclass(frozen=True)
class SyntheticConfig:
    job_count: int
    arrival_rate: float = 0.02          # jobs per second, exponential inter-arrival
    runtime_min: float = 30.0           # log-uniform runtime bounds, seconds
    runtime_max: float = 8000.0
    total_procs: int = 128
    max_cores_exp: int | None = None    # cores = 2**k, k in [0, exp]; default log2(P)
    overestimate_min: float = 1.0       # r_t = ceil(T_r * factor); 1.0/1.0 = exact
    overestimate_max: float = 5.0
    cost_mean: float = 1.0
    cost_std: float = 0.5
    seed: int = 0
    name: str = "synthetic"

    def validate(self) -> None:
        if self.job_count < 0:
            raise ConfigError("job_count must be >= 0")
        if self.arrival_rate <= 0:
            raise ConfigError("arrival_rate must be > 0")
        if not (0 < self.runtime_min <= self.runtime_max):
            raise ConfigError("need 0 < runtime_min <= runtime_max")
        if self.total_procs < 1:
            raise ConfigError("total_procs must be >= 1")
        if self.cost_std < 0 or self.cost_mean < 0:
            raise ConfigError("cost distribution parameters must be >= 0")
        if not (1.0 <= self.overestimate_min <= self.overestimate_max):
            raise ConfigError("need 1 <= overestimate_min <= overestimate_max")
        exp = self.max_cores_exp
        if exp is not None and not (0 <= exp <= math.log2(self.total_procs)):
            raise ConfigError("max_cores_exp must satisfy 2**exp <= total_procs")


# SWF v2.2 field indices (0-based) for the fields this scheduler consumes.
class SwfField(enum.IntEnum):
    JOB_ID = 0
    SUBMIT_TIME = 1
    WAIT_TIME = 2
    RUN_TIME = 3
    ALLOCATED_PROCS = 4
    AVG_CPU_TIME = 5
    USED_MEMORY = 6
    REQUESTED_PROCS = 7
    REQUESTED_TIME = 8
    REQUESTED_MEMORY = 9
    STATUS = 10

SWF_FIELD_COUNT = 18
_SWF_READ_FIELDS = (SwfField.JOB_ID, SwfField.SUBMIT_TIME, SwfField.RUN_TIME,
                    SwfField.ALLOCATED_PROCS, SwfField.REQUESTED_PROCS,
                    SwfField.REQUESTED_TIME)


def parse_swf(text: str, name: str = "") -> WorkloadTrace:
    """Parse SWF text into a trace.

    Field mapping: 1 -> id, 2 -> submit_time, 4 -> run_time, 5 -> procs
    (falling back to field 8 when -1), 9 -> requested_time (falling back to
    run_time when -1). Jobs with nonpositive run_time or proc count are
    dropped and counted. Malformed lines, including a nan or infinite value
    in any of those fields, are recorded with their line number and skipped;
    a trace with zero valid jobs is a hard error.
    """
    jobs: list[Job] = []
    dropped = 0
    line_errors: list[tuple[int, str]] = []
    max_procs_header: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            header = line.lstrip("; ").strip()
            if header.lower().startswith("maxprocs:"):
                try:
                    max_procs_header = int(float(header.split(":", 1)[1].strip()))
                except (ValueError, OverflowError):
                    line_errors.append((lineno, "unreadable MaxProcs header"))
            continue
        tokens = line.split()
        if len(tokens) < SwfField.REQUESTED_TIME + 1:
            line_errors.append((lineno, f"expected >= 9 fields, got {len(tokens)}"))
            continue
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            line_errors.append((lineno, "non-numeric field"))
            continue
        if not all(math.isfinite(values[f]) for f in _SWF_READ_FIELDS):
            line_errors.append((lineno, "non-finite field"))
            continue

        job_id = int(values[SwfField.JOB_ID])
        submit = values[SwfField.SUBMIT_TIME]
        run = values[SwfField.RUN_TIME]
        procs = int(values[SwfField.ALLOCATED_PROCS])
        if procs == -1:
            procs = int(values[SwfField.REQUESTED_PROCS])
        req_time = values[SwfField.REQUESTED_TIME]
        if req_time == -1:
            req_time = run

        if run <= 0 or procs <= 0:
            dropped += 1
            continue
        if job_id < 1 or submit < 0 or req_time <= 0:
            line_errors.append((lineno, f"job {job_id}: field out of range"))
            continue
        jobs.append(Job(id=job_id, submit_time=submit, run_time=run,
                        requested_procs=procs, requested_time=req_time))

    if not jobs:
        raise TraceFormatError(f"trace {name!r}: no valid jobs parsed")
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    total = max_procs_header if max_procs_header else max(j.requested_procs for j in jobs)
    trace = WorkloadTrace(jobs=jobs, total_procs=total, name=name,
                          dropped_jobs=dropped, line_errors=line_errors)
    trace.validate()
    return trace


def load_swf(path, name: str | None = None) -> WorkloadTrace:
    with open(path) as fp:
        text = fp.read()
    return parse_swf(text, name=name if name is not None else str(path))


def _fmt_num(x: float) -> str:
    xi = int(x)
    return str(xi) if x == xi else repr(float(x))


def write_swf(path, trace: WorkloadTrace) -> None:
    """Serialize a trace to SWF; parse_swf(write_swf(t)) is field-equal to t."""
    lines = [f"; MaxProcs: {trace.total_procs}"]
    for j in trace.jobs:
        fields = ["-1"] * SWF_FIELD_COUNT
        fields[SwfField.JOB_ID] = str(j.id)
        fields[SwfField.SUBMIT_TIME] = _fmt_num(j.submit_time)
        fields[SwfField.RUN_TIME] = _fmt_num(j.run_time)
        fields[SwfField.ALLOCATED_PROCS] = str(j.requested_procs)
        fields[SwfField.REQUESTED_PROCS] = str(j.requested_procs)
        fields[SwfField.REQUESTED_TIME] = _fmt_num(j.requested_time)
        fields[SwfField.STATUS] = "1"
        lines.append(" ".join(fields))
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")


def _truncated_gauss(rng: np.random.Generator, mean: float, std: float) -> float:
    # resample below zero; clamp only if the distribution is badly placed
    for _ in range(100):
        x = rng.normal(mean, std)
        if x >= 0:
            return float(x)
    return 0.0


def generate_synthetic(cfg: SyntheticConfig) -> WorkloadTrace:
    """Seeded synthetic trace; identical config gives an identical trace."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.job_count
    if n == 0:
        return WorkloadTrace(jobs=[], total_procs=cfg.total_procs, name=cfg.name)

    gaps = rng.exponential(1.0 / cfg.arrival_rate, size=n)
    submits = np.floor(np.cumsum(gaps) - gaps[0]).astype(int)

    log_lo, log_hi = math.log(cfg.runtime_min), math.log(cfg.runtime_max)
    runtimes = np.exp(rng.uniform(log_lo, log_hi, size=n))
    runtimes = np.maximum(np.round(runtimes), 1.0)

    max_exp = cfg.max_cores_exp
    if max_exp is None:
        max_exp = int(math.log2(cfg.total_procs))
    weights = np.array([2.0 ** -k for k in range(max_exp + 1)])
    weights /= weights.sum()
    exps = rng.choice(max_exp + 1, size=n, p=weights)
    cores = (2 ** exps).astype(int)

    factors = rng.uniform(cfg.overestimate_min, cfg.overestimate_max, size=n)
    req_times = np.ceil(runtimes * factors)

    jobs = []
    for i in range(n):
        jobs.append(Job(
            id=i + 1,
            submit_time=float(submits[i]),
            run_time=float(runtimes[i]),
            requested_procs=int(cores[i]),
            requested_time=float(req_times[i]),
            cost_rate=_truncated_gauss(rng, cfg.cost_mean, cfg.cost_std),
        ))
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    trace = WorkloadTrace(jobs=jobs, total_procs=cfg.total_procs, name=cfg.name)
    trace.validate()
    return trace


def assign_costs(trace: WorkloadTrace, mean: float, std: float, seed: int) -> None:
    """Draw per-job cost rates from a Gaussian truncated at 0.

    Each job's draw is keyed by (seed, job id), so a job keeps its cost under
    slicing or reordering of the trace.
    """
    if mean < 0 or std < 0:
        raise ConfigError("cost distribution parameters must be >= 0")
    for job in trace.jobs:
        rng = np.random.default_rng([seed, job.id])
        job.cost_rate = _truncated_gauss(rng, mean, std)


def slice_trace(trace: WorkloadTrace, start_index: int, count: int,
                seed: int = 0, shuffle: bool = False) -> WorkloadTrace:
    """Take a contiguous slice (or a seeded random sample) re-based to t=0."""
    jobs = trace.jobs
    if shuffle:
        if count < 0 or count > len(jobs):
            raise ConfigError(f"sample of {count} from {len(jobs)} jobs is out of range")
        rng = np.random.default_rng(seed)
        idx = sorted(rng.choice(len(jobs), size=count, replace=False).tolist())
        selected = [jobs[i] for i in idx]
        label = f"{trace.name}[sample{count}s{seed}]"
    else:
        if start_index < 0 or count < 0 or start_index + count > len(jobs):
            raise ConfigError(
                f"slice [{start_index}:{start_index + count}] out of range "
                f"for {len(jobs)} jobs")
        selected = jobs[start_index:start_index + count]
        label = f"{trace.name}[{start_index}:{start_index + count}]"

    base = selected[0].submit_time if selected else 0.0
    rebased = [dataclasses.replace(j.fresh_copy(), submit_time=j.submit_time - base)
               for j in selected]
    out = WorkloadTrace(jobs=rebased, total_procs=trace.total_procs, name=label)
    out.validate()
    return out


def parse_workflow(text: str) -> list[Job]:
    """Parse the simplified workflow description format.

    One task per line: ``<id> <label> <cores> <runtime> [dep,dep,...]``,
    '#' comments. Runtime is the estimate; it doubles as the simulated
    runtime since workflows carry no post-hoc measurement.
    """
    jobs: list[Job] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (4, 5):
            raise TraceFormatError(
                f"workflow line {lineno}: expected 'id label cores runtime [deps]', "
                f"got {len(tokens)} fields")
        try:
            task_id = int(tokens[0])
            cores = int(tokens[2])
            runtime = float(tokens[3])
            deps: tuple[int, ...] = ()
            if len(tokens) == 5:
                deps = tuple(int(d) for d in tokens[4].split(",") if d)
        except ValueError as exc:
            raise TraceFormatError(f"workflow line {lineno}: {exc}") from exc
        job = Job(id=task_id, submit_time=0.0, run_time=runtime,
                  requested_procs=cores, requested_time=runtime,
                  dependencies=deps)
        job.validate()
        jobs.append(job)
    ids = {j.id for j in jobs}
    if len(ids) != len(jobs):
        raise TraceFormatError("workflow has duplicate task ids")
    for j in jobs:
        missing = [d for d in j.dependencies if d not in ids]
        if missing:
            raise TraceFormatError(f"task {j.id} depends on unknown task(s) {missing}")
    return jobs


def load_workflow(path) -> list[Job]:
    with open(path) as fp:
        return parse_workflow(fp.read())
