"""Workload ingestion: SWF traces, workflow descriptions, synthetic generation.

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
    dependencies: tuple[int, ...] = ()

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
# the six fields parse_swf reads, in the order it unpacks them
_SWF_READ = (SwfField.JOB_ID, SwfField.SUBMIT_TIME, SwfField.RUN_TIME,
             SwfField.ALLOCATED_PROCS, SwfField.REQUESTED_PROCS,
             SwfField.REQUESTED_TIME)
_read_swf_fields = itemgetter(*_SWF_READ)
# a truncated id or processor count below this converts to int64 exactly
_INT64_LIMIT = 2.0 ** 63


def _max_procs_header(line: str) -> int | None:
    """The count of a ``; MaxProcs: N`` comment line, None for any other
    comment; raises ValueError or OverflowError when N is unreadable."""
    header = line.lstrip("; ").strip()
    if not header.lower().startswith("maxprocs:"):
        return None
    return int(float(header.split(":", 1)[1].strip()))


def _parse_swf_lines(lines: list[str]):
    """Parse line by line; (jobs, dropped, line errors, MaxProcs header)."""
    jobs: list[Job] = []
    dropped = 0
    line_errors: list[tuple[int, str]] = []
    max_procs_header: int | None = None
    isfinite = math.isfinite

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            try:
                header = _max_procs_header(line)
            except (ValueError, OverflowError):
                line_errors.append((lineno, "unreadable MaxProcs header"))
                continue
            if header is not None:
                max_procs_header = header
            continue
        tokens = line.split()
        if len(tokens) < SwfField.REQUESTED_TIME + 1:
            line_errors.append((lineno, f"expected >= 9 fields, got {len(tokens)}"))
            continue
        try:
            values = list(map(float, tokens))
        except ValueError:
            line_errors.append((lineno, "non-numeric field"))
            continue
        job_id, submit, run, alloc, req_procs, req_time = \
            _read_swf_fields(values)
        if not (isfinite(job_id) and isfinite(submit) and isfinite(run)
                and isfinite(alloc) and isfinite(req_procs)
                and isfinite(req_time)):
            line_errors.append((lineno, "non-finite field"))
            continue

        job_id = int(job_id)
        procs = int(alloc)
        if procs == -1:
            procs = int(req_procs)
        if req_time == -1:
            req_time = run

        if run <= 0 or procs <= 0:
            dropped += 1
            continue
        if job_id < 1 or submit < 0 or req_time <= 0:
            line_errors.append((lineno, f"job {job_id}: field out of range"))
            continue
        jobs.append(Job(job_id, submit, run, procs, req_time))
    return jobs, dropped, line_errors, max_procs_header


def _parse_swf_block(lines: list[str]):
    """Parse a regular body with one ``np.loadtxt`` call; the result of
    ``_parse_swf_lines``, or None when a line would be a line error or numpy
    cannot read the body exactly.

    Regular means every data line has the same number of fields, at least
    9, and every field is a number numpy reads. numpy converts a field with
    ``PyOS_string_to_double``, as ``float()`` does, so the values are equal;
    the tokens ``float()`` alone accepts (``1_000``, non-ASCII digits) make
    numpy raise. The column rules below are the loop's, applied to whole
    columns.
    """
    stripped = list(map(str.strip, lines))
    data = [line for line in stripped if line and line[0] != ";"]
    if not data:
        return None
    max_procs_header = None
    for line in stripped:
        if line[:1] == ";":
            try:
                header = _max_procs_header(line)
            except (ValueError, OverflowError):
                return None
            if header is not None:
                max_procs_header = header
    try:
        block = np.loadtxt(data, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape[1] < SwfField.REQUESTED_TIME + 1:
        return None
    columns = block[:, _SWF_READ]
    if not np.isfinite(columns).all():
        return None
    job_id, submit, run, alloc, req_procs, req_time = columns.T
    procs = np.trunc(alloc)
    procs = np.where(procs == -1, np.trunc(req_procs), procs)
    req_time = np.where(req_time == -1, run, req_time)
    kept = (run > 0) & (procs > 0)
    job_id, submit, run, procs, req_time = (
        np.trunc(job_id[kept]), submit[kept], run[kept], procs[kept],
        req_time[kept])
    if (job_id < 1).any() or (submit < 0).any() or (req_time <= 0).any() \
            or (job_id >= _INT64_LIMIT).any() or (procs >= _INT64_LIMIT).any():
        return None
    jobs = list(map(Job, job_id.astype(np.int64).tolist(), submit.tolist(),
                    run.tolist(), procs.astype(np.int64).tolist(),
                    req_time.tolist()))
    return jobs, len(kept) - len(jobs), [], max_procs_header


def parse_swf(text: str, name: str = "") -> WorkloadTrace:
    """Parse SWF text into a trace.

    Field mapping: 1 -> id, 2 -> submit_time, 4 -> run_time, 5 -> procs
    (falling back to field 8 when -1), 9 -> requested_time (falling back to
    run_time when -1). Jobs with nonpositive run_time or proc count are
    dropped and counted. Malformed lines, including a nan or infinite value
    in any of those fields, are recorded with their line number and skipped;
    a trace with zero valid jobs is a hard error. A regular body is read in
    one numpy pass; any other text goes line by line, with the same result.
    """
    lines = text.splitlines()
    parsed = _parse_swf_block(lines) or _parse_swf_lines(lines)
    jobs, dropped, line_errors, max_procs_header = parsed
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


def _truncated_gauss(normal, mean: float, std: float) -> float:
    """One draw of ``normal(mean, std)`` (a generator's ``normal`` method)
    truncated at 0."""
    # resample below zero; clamp only if the distribution is badly placed
    for _ in range(100):
        x = normal(mean, std)
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
            cost_rate=_truncated_gauss(rng.normal, cfg.cost_mean,
                                       cfg.cost_std),
        ))
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    trace = WorkloadTrace(jobs=jobs, total_procs=cfg.total_procs, name=cfg.name)
    trace.validate()
    return trace


# numpy's SeedSequence hash (pool size 4, no spawn key) and PCG64's seeding,
# so that the generators of np.random.default_rng([seed, id]) for many ids
# are seeded in one pass of uint32 array arithmetic
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _word_count(n: int) -> int:
    """How many 32-bit words numpy splits a seed value into; 0 is one word."""
    return max(1, -(-int(n).bit_length() // 32))


def _uint32_words(values, count: int) -> np.ndarray:
    """Each value's ``count`` 32-bit words, least significant first, as rows."""
    big = np.array(values, dtype=object)
    return np.stack([((big >> 32 * k) & _MASK32).astype(np.uint32)
                     for k in range(count)], axis=1)


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    value = value ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> _XSHIFT), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _seed_states(entropy: np.ndarray) -> list[list[int]]:
    """SeedSequence(row).generate_state(4, np.uint64) for each entropy row."""
    rows, length = entropy.shape
    pool = []
    const = _INIT_A
    for i in range(_POOL_SIZE):
        word = entropy[:, i] if i < length else np.zeros(rows, np.uint32)
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(entropy[:, src], const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state(4, np.uint64): eight words, then little-endian pairs
    words = []
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        words.append(value ^ (value >> _XSHIFT))
    return np.ascontiguousarray(np.stack(words, axis=1),
                                "<u4").view("<u8").tolist()


def check_cost_distribution(mean: float, std: float) -> None:
    """Reject a negative mean or standard deviation of the cost rates."""
    if mean < 0 or std < 0:
        raise ConfigError("cost distribution parameters must be >= 0")


def assign_costs(trace: WorkloadTrace, mean: float, std: float, seed: int) -> None:
    """Draw per-job cost rates from a Gaussian truncated at 0.

    Each job's draw is keyed by (seed, job id), so a job keeps its cost under
    slicing or reordering of the trace. It is the draw of
    ``np.random.default_rng([seed, job.id])``, with every job's generator
    seeded at once and drawn through one reused ``Generator``.
    """
    check_cost_distribution(mean, std)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    jobs = trace.jobs
    ids = np.array([job.id for job in jobs], dtype=object)
    count = _word_count(max(ids, default=0))
    words = _uint32_words(ids, count)
    # an id's entropy runs up to its highest nonzero word, so ids of each
    # width are hashed together
    widths = np.ones(len(jobs), dtype=int)
    for k in range(1, count):
        widths += ids >= 2 ** (32 * k)
    seed_words = _uint32_words([seed], _word_count(seed))
    bitgen = np.random.PCG64()
    normal = np.random.Generator(bitgen).normal
    # one state dict, refilled per job
    pcg = {"state": 0, "inc": 0}
    bitgen_state = {"bit_generator": "PCG64", "state": pcg,
                    "has_uint32": 0, "uinteger": 0}
    for width in np.unique(widths):
        rows = np.flatnonzero(widths == width)
        entropy = np.hstack([np.repeat(seed_words, len(rows), axis=0),
                             words[rows, :width]])
        for row, (state_hi, state_lo, seq_hi, seq_lo) in zip(
                rows.tolist(), _seed_states(entropy)):
            # PCG64's pcg_setseq_128_srandom_r
            inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
            state = (inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc
            pcg["state"] = state & _MASK128
            pcg["inc"] = inc
            bitgen.state = bitgen_state
            jobs[row].cost_rate = _truncated_gauss(normal, mean, std)


def slice_trace(trace: WorkloadTrace, start_index: int,
                count: int) -> WorkloadTrace:
    """Take a contiguous slice re-based to t=0."""
    jobs = trace.jobs
    if start_index < 0 or count < 0 or start_index + count > len(jobs):
        raise ConfigError(
            f"slice [{start_index}:{start_index + count}] out of range "
            f"for {len(jobs)} jobs")
    selected = jobs[start_index:start_index + count]
    label = f"{trace.name}[{start_index}:{start_index + count}]"
    base = selected[0].submit_time if selected else 0.0
    rebased = [Job(j.id, j.submit_time - base, j.run_time, j.requested_procs,
                   j.requested_time, j.cost_rate, j.dependencies)
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

