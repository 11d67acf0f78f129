"""Workload ingestion: SWF traces and synthetic generation.

SWF here means the Standard Workload Format v2.2 used by the parallel
workloads archive: ';' comment/header lines, then one job per line with 18
whitespace-separated numeric fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import ConfigError, TraceFormatError


@dataclass
class Job:
    """One rigid, non-preemptable job: an input, never written after load,
    so runs share it. The one writer is ``assign_costs``, before any run and
    only for the commands that run the agent. Not frozen: a frozen
    constructor costs over four times as much per job.
    """

    id: int
    submit_time: float
    run_time: float            # T_r, actual
    requested_procs: int       # n_t
    requested_time: float      # r_t, user estimate
    cost_rate: float = 0.0     # currency per processor-second


@dataclass
class WorkloadTrace:
    jobs: list[Job]
    total_procs: int
    name: str = ""
    dropped_jobs: int = 0                               # filtered at parse time
    line_errors: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class SyntheticConfig:
    job_count: int
    arrival_rate: float = 0.02          # jobs per second, exponential inter-arrival
    runtime_min: float = 30.0           # log-uniform runtime bounds, seconds
    runtime_max: float = 8000.0
    total_procs: int = 128
    max_cores_exp: int | None = None    # cores = 2**k, k in [0, exp]; default the largest
    overestimate_min: float = 1.0       # r_t = ceil(T_r * factor); 1.0/1.0 = exact
    overestimate_max: float = 5.0
    cost_mean: float = 1.0
    cost_std: float = 0.5
    seed: int = 0
    name: str = "synthetic"

    def __post_init__(self) -> None:
        if self.job_count < 0:
            raise ConfigError("job_count must be >= 0")
        if self.arrival_rate <= 0:
            raise ConfigError("arrival_rate must be > 0")
        if not (0 < self.runtime_min <= self.runtime_max):
            raise ConfigError("need 0 < runtime_min <= runtime_max")
        if not 1 <= self.total_procs < 2 ** 63:     # cores column is int64
            raise ConfigError("total_procs must be >= 1 and < 2**63")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_cost_distribution(self.cost_mean, self.cost_std)
        if not (1.0 <= self.overestimate_min <= self.overestimate_max):
            raise ConfigError("need 1 <= overestimate_min <= overestimate_max")
        # a drawn runtime is rounded to whole seconds, so it can exceed
        # runtime_max by up to 1 s, and its estimate by that times the factor
        if not math.isfinite((self.runtime_max + 1.0) * self.overestimate_max):
            raise ConfigError(
                "requested times up to (runtime_max + 1) * overestimate_max "
                f"must be finite; got runtime_max {self.runtime_max!r} and "
                f"overestimate_max {self.overestimate_max!r}")
        exp = self.max_cores_exp
        # 2**exp <= P exactly when exp < P.bit_length(), with no float log
        if exp is not None and not 0 <= exp < self.total_procs.bit_length():
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

# the six fields parse_swf reads, in the order it unpacks them
_SWF_READ = (SwfField.JOB_ID, SwfField.SUBMIT_TIME, SwfField.RUN_TIME,
             SwfField.ALLOCATED_PROCS, SwfField.REQUESTED_PROCS,
             SwfField.REQUESTED_TIME)
_read_swf_fields = itemgetter(*_SWF_READ)
# jobs, SWF lines and jobs.csv rows are built this many at a time, so that
# the Python objects a column or a text layer needs in passing are bounded
# by the block, not by the trace
BLOCK_JOBS = 1024


def _max_procs_header(line: str) -> int | None:
    """The count of a ``; MaxProcs: N`` comment line, None for any other
    comment; raises ValueError or OverflowError when N is unreadable."""
    header = line.lstrip("; ").strip()
    if not header.lower().startswith("maxprocs:"):
        return None
    return int(float(header.split(":", 1)[1].strip()))


def _scan_swf_lines(lines: list[str]):
    """One scan of the lines; (data lines, their line numbers, the last
    MaxProcs header or 0, line errors of unreadable headers). Only the
    comment and blank lines are listed on the way, so a data line costs no
    Python int."""
    data, skipped, line_errors, max_procs = [], [], [], 0
    for i, line in enumerate(map(str.strip, lines)):
        if line and line[0] != ";":
            data.append(line)
            continue
        skipped.append(i)
        try:
            header = _max_procs_header(line)      # None for a blank line
        except (ValueError, OverflowError):
            line_errors.append((i + 1, "unreadable MaxProcs header"))
        else:
            max_procs = max_procs if header is None else header
    linenos = np.delete(np.arange(1, len(lines) + 1),
                        np.array(skipped, dtype=np.intp))
    return data, linenos, max_procs, line_errors


def _read_swf_lines(data: list[str], linenos: np.ndarray,
                    line_errors: list[tuple[int, str]]):
    """``_read_swf_body`` line by line, for any body: a line with fewer
    than 9 fields, or a non-numeric one, becomes a line error."""
    rows, read = [], []
    for lineno, line in zip(linenos.tolist(), data):
        tokens = line.split()
        if len(tokens) < SwfField.REQUESTED_TIME + 1:
            line_errors.append((lineno, f"expected >= 9 fields, got {len(tokens)}"))
            continue
        try:
            values = list(map(float, tokens))
        except ValueError:
            line_errors.append((lineno, "non-numeric field"))
        else:
            rows.append(_read_swf_fields(values))
            read.append(lineno)
    return (np.array(rows, dtype=np.float64).reshape(-1, len(_SWF_READ)),
            np.array(read, dtype=np.int64))


def _read_swf_body(data: list[str], linenos: np.ndarray,
                   line_errors: list[tuple[int, str]]):
    """The six read fields of the data lines as an (n, 6) float block, and
    each row's line number. A rectangular body of at least 9 numeric fields
    a line is read by one ``np.loadtxt`` call, any other one by
    ``_read_swf_lines``. numpy converts a field with
    ``PyOS_string_to_double``, as ``float()`` does, so the values are equal;
    the tokens ``float()`` alone accepts (``1_000``, non-ASCII digits) make
    numpy raise."""
    if data:
        try:
            block = np.loadtxt(data, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            block = None
        if block is not None and block.shape[1] > SwfField.REQUESTED_TIME:
            return block[:, _SWF_READ], linenos   # a copy: the block goes here
    return _read_swf_lines(data, linenos, line_errors)


def _int_column(values: np.ndarray) -> np.ndarray:
    """Integral floats as int64, or as Python ints when one is >= 2**63."""
    if (values < 2.0 ** 63).all():
        return values.astype(np.int64)
    return np.array([int(x) for x in values.tolist()], dtype=object)


def _swf_columns(fields: np.ndarray, linenos: np.ndarray,
                 line_errors: list[tuple[int, str]]):
    """SWF's field rules over whole columns of either reader's block; (the
    columns of ``_jobs_from_columns`` sorted by (submit time, id), dropped).
    Adds the line errors of the rows it rejects, then sorts them all by line
    number."""
    finite = np.isfinite(fields).all(axis=1)
    if not finite.all():     # a copy of the block only when a row goes
        line_errors += [(n, "non-finite field")
                        for n in linenos[~finite].tolist()]
        fields, linenos = fields[finite], linenos[finite]
    job_id, submit, run, alloc, req_procs, req_time = fields.T
    job_id, procs = np.trunc(job_id), np.trunc(alloc)
    procs = np.where(procs == -1, np.trunc(req_procs), procs)
    req_time = np.where(req_time == -1, run, req_time)
    kept = (run > 0) & (procs > 0)
    dropped = len(kept) - int(np.count_nonzero(kept))
    bad = kept & ((job_id < 1) | (submit < 0) | (req_time <= 0))
    line_errors += [(n, f"job {int(i)}: field out of range") for n, i
                    in zip(linenos[bad].tolist(), job_id[bad].tolist())]
    line_errors.sort()
    kept &= ~bad
    job_id, submit, run, procs, req_time = (
        job_id[kept], submit[kept], run[kept], procs[kept], req_time[kept])
    # stable, and a truncated float id orders as the int it converts to
    order = np.lexsort((job_id, submit))
    return (_int_column(job_id[order]), submit[order], run[order],
            _int_column(procs[order]), req_time[order]), dropped


def _jobs_from_columns(*columns: np.ndarray) -> list[Job]:
    """Jobs from numpy columns of ``Job``'s fields in order, built a block
    at a time: only one block of each column is ever Python numbers that no
    job holds yet."""
    jobs: list[Job] = []
    for lo in range(0, len(columns[0]), BLOCK_JOBS):
        jobs += map(Job, *(c[lo:lo + BLOCK_JOBS].tolist() for c in columns))
    return jobs


def _check_ids_and_width(job_id: np.ndarray, procs: np.ndarray, total: int,
                         name: str) -> None:
    """Raise for the first job in the columns' order whose id an earlier
    job has, or that requests more than ``total`` processors; a job with
    both faults is a repeat. Either column is int64 or Python ints."""
    by_id = np.argsort(job_id, kind="stable")
    sorted_ids = job_id[by_id]
    # stable: the job that first has an id sorts before its repeats
    repeats = by_id[1:][sorted_ids[1:] == sorted_ids[:-1]]
    first = int(repeats.min()) if len(repeats) else len(job_id)
    wide = np.flatnonzero(procs[:first] > total)
    if len(wide):
        i = wide[0]
        raise TraceFormatError(
            f"trace {name!r}: job {job_id[i]} requests {procs[i]} "
            f"processors but the system has {total}")
    if first < len(job_id):
        raise TraceFormatError(
            f"trace {name!r}: duplicate job id {job_id[first]}")


def parse_swf(text: str, name: str = "") -> WorkloadTrace:
    """Parse SWF text into a trace.

    Field mapping: 1 -> id, 2 -> submit_time, 4 -> run_time, 5 -> procs
    (falling back to field 8 when -1), 9 -> requested_time (falling back to
    run_time when -1). Jobs with nonpositive run_time or proc count are
    dropped and counted. Malformed lines, including a nan or infinite value
    in any of those fields, are recorded with their line number and skipped;
    a trace with zero valid jobs is a hard error. The last ``; MaxProcs:``
    header gives the processor count, or the widest job when there is none
    or it is below 1. A reader turns the body into a block of the read
    fields, and one pass of column rules turns that block into jobs.
    Two rules hold for the whole trace and are checked on the sorted
    columns before any job is built: no two jobs share an id, and no job
    requests more processors than the count; the first job in (submit
    time, id) order that breaks one is a TraceFormatError.

    The text, its lines and numpy's block are dropped before the jobs are
    built; the text goes only when the caller passed its last reference,
    as ``load_swf`` does.
    """
    lines = text.splitlines()
    del text
    data, linenos, max_procs, line_errors = _scan_swf_lines(lines)
    del lines
    fields, linenos = _read_swf_body(data, linenos, line_errors)
    del data
    columns, dropped = _swf_columns(fields, linenos, line_errors)
    del fields, linenos
    job_id, procs = columns[0], columns[3]
    if not len(job_id):
        raise TraceFormatError(f"trace {name!r}: no valid jobs parsed")
    total = max_procs if max_procs >= 1 else int(procs.max())
    _check_ids_and_width(job_id, procs, total, name)
    del job_id, procs
    jobs = _jobs_from_columns(*columns)
    del columns
    return WorkloadTrace(jobs=jobs, total_procs=total, name=name,
                         dropped_jobs=dropped, line_errors=line_errors)


def _read_utf8(path) -> str:
    """The file's text; bytes that are not UTF-8 raise TraceFormatError."""
    with open(path, encoding="utf-8") as fp:
        try:
            return fp.read()
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from None


def load_swf(path, name: str | None = None) -> WorkloadTrace:
    # the text is passed, never named here, so parse_swf holds its last
    # reference and frees it once the text is split into lines
    return parse_swf(_read_utf8(path),
                     name=name if name is not None else str(path))


def format_column(values: np.ndarray) -> list[str]:
    """The SWF and jobs.csv text of a float column: ``str(int(x))`` for an
    integral value, ``repr(x)`` otherwise; in one int64 pass when every value
    is integral and below 2**63 in magnitude, so converts exactly."""
    if (np.abs(values) < 2.0 ** 63).all() and (np.trunc(values) == values).all():
        return list(map(str, values.astype(np.int64).tolist()))
    return [str(xi) if x == (xi := int(x)) else repr(x)
            for x in values.tolist()]


def write_swf(path, trace: WorkloadTrace) -> None:
    """Serialize a trace to SWF; parse_swf(write_swf(t)) equals t in every
    field but ``cost_rate``, which SWF has no column for and reads back as
    0.0. The lines are formatted and written a block of jobs at a time."""
    with open(path, "w") as fp:
        fp.write(f"; MaxProcs: {trace.total_procs}\n")
        for lo in range(0, len(trace.jobs), BLOCK_JOBS):
            jobs = trace.jobs[lo:lo + BLOCK_JOBS]
            submit, run, requested = (
                format_column(np.array([getattr(j, name) for j in jobs],
                                       dtype=float))
                for name in ("submit_time", "run_time", "requested_time"))
            # fields 0-17: id, submit, wait, run, allocated and average CPU,
            # memory, requested procs, time and memory, status 1, and seven
            # unused fields
            fp.write("".join(
                f"{j.id} {s} -1 {r} {j.requested_procs} -1 -1 "
                f"{j.requested_procs} {q} -1 1 -1 -1 -1 -1 -1 -1 -1\n"
                for j, s, r, q in zip(jobs, submit, run, requested)))


def _truncated_gauss(normal, mean: float, std: float) -> float:
    """One draw of ``normal(mean, std)`` (a generator's ``normal`` method)
    truncated at 0."""
    # resample below zero; clamp only if the distribution is badly placed
    for _ in range(100):
        x = normal(mean, std)
        if x >= 0:
            return float(x)
    return 0.0


def _truncated_gauss_block(rng, mean: float, std: float, count: int,
                           size: int) -> list[float]:
    """``count`` successive ``_truncated_gauss(rng.normal, mean, std)``
    draws from one block of ``size`` normal draws, which holds the values
    of as many scalar calls; the generator may end past the draws used.
    When the block holds too few non-negative draws, or 100 negatives in a
    row, the scalar rule runs from the restored generator."""
    state = rng.bit_generator.state
    draws = rng.normal(mean, std, size=size)
    kept = np.flatnonzero(draws >= 0)[:count]
    if len(kept) == count and (np.diff(kept, prepend=-1) <= 100).all():
        return draws[kept].tolist()
    rng.bit_generator.state = state
    return [_truncated_gauss(rng.normal, mean, std) for _ in range(count)]


def generate_synthetic(cfg: SyntheticConfig) -> WorkloadTrace:
    """Seeded synthetic trace; identical config gives an identical trace.
    Valid as drawn, so not checked again: ids 1..n, floored submit times
    that never fall, whole runtimes >= 1, estimates >= runtimes, 2**k
    processors with k <= log2(P), and costs >= 0."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.job_count
    if n == 0:
        return WorkloadTrace(jobs=[], total_procs=cfg.total_procs, name=cfg.name)

    gaps = rng.exponential(1.0 / cfg.arrival_rate, size=n)
    with np.errstate(over="ignore"):
        arrivals = np.cumsum(gaps)
    # submit times rise, so the last is the largest; a Python float
    # subtraction is the array's, without its warning for inf - inf
    if not float(arrivals[-1]) - float(gaps[0]) < 2.0 ** 63:
        raise ConfigError(
            f"arrival_rate {cfg.arrival_rate!r} is too small for "
            f"{n} jobs: the last submit time would reach 2**63 s")
    submits = np.floor(arrivals - gaps[0]).astype(int).astype(float)

    log_lo, log_hi = math.log(cfg.runtime_min), math.log(cfg.runtime_max)
    runtimes = np.exp(rng.uniform(log_lo, log_hi, size=n))
    runtimes = np.maximum(np.round(runtimes), 1.0)

    max_exp = cfg.max_cores_exp
    if max_exp is None:
        max_exp = cfg.total_procs.bit_length() - 1
    weights = np.array([2.0 ** -k for k in range(max_exp + 1)])
    weights /= weights.sum()
    exps = rng.choice(max_exp + 1, size=n, p=weights)
    cores = (2 ** exps).astype(int)

    factors = rng.uniform(cfg.overestimate_min, cfg.overestimate_max, size=n)
    req_times = np.ceil(runtimes * factors)

    # the last draws, so overdrawing moves nothing; cost_mean >= 0, so a
    # draw is kept with probability at least 1/2 and the block runs out
    # with negligible chance. Submit times rise, so the jobs come sorted.
    costs = np.array(_truncated_gauss_block(
        rng, cfg.cost_mean, cfg.cost_std, n, 2 * n + 16 * math.isqrt(n) + 64))
    jobs = _jobs_from_columns(np.arange(1, n + 1), submits, runtimes, cores,
                              req_times, costs)
    return WorkloadTrace(jobs=jobs, total_procs=cfg.total_procs, name=cfg.name)


def check_cost_distribution(mean: float, std: float) -> None:
    """Reject a mean or standard deviation of the cost rates that is
    negative or not finite."""
    if not (0 <= mean < math.inf and 0 <= std < math.inf):
        raise ConfigError("cost distribution parameters must be >= 0 and "
                          f"finite, got mean {mean!r} and std {std!r}")


def assign_costs(trace: WorkloadTrace, mean: float, std: float, seed: int) -> None:
    """Draw per-job cost rates from a Gaussian truncated at 0.

    Each job's rate is the ``_truncated_gauss`` draw of
    ``np.random.default_rng([seed, job.id])``, so a job keeps its cost under
    slicing or reordering of the trace.
    """
    check_cost_distribution(mean, std)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    for job in trace.jobs:
        job.cost_rate = _truncated_gauss(
            np.random.default_rng([seed, job.id]).normal, mean, std)


def slice_trace(trace: WorkloadTrace, start_index: int,
                count: int) -> WorkloadTrace:
    """Take a contiguous slice re-based to t=0; a slice of a valid trace
    is valid, as subtracting its first submit time keeps their order."""
    jobs = trace.jobs
    if start_index < 0 or count < 0 or start_index + count > len(jobs):
        raise ConfigError(
            f"slice [{start_index}:{start_index + count}] out of range "
            f"for {len(jobs)} jobs")
    selected = jobs[start_index:start_index + count]
    label = f"{trace.name}[{start_index}:{start_index + count}]"
    base = selected[0].submit_time if selected else 0.0
    rebased = [Job(j.id, j.submit_time - base, j.run_time, j.requested_procs,
                   j.requested_time, j.cost_rate)
               for j in selected]
    return WorkloadTrace(jobs=rebased, total_procs=trace.total_procs,
                         name=label)
