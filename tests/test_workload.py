"""SWF parsing, serialization round trips, and synthetic generation."""

import dataclasses
import importlib
import math
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_job, make_trace
from marsched import workload
from marsched.errors import ConfigError, TraceFormatError
from marsched.workload import (Job, SyntheticConfig,
                               WorkloadTrace, _truncated_gauss, assign_costs,
                               format_column, generate_synthetic, parse_swf,
                               slice_trace, write_swf)

HEADER = "; MaxProcs: 64\n"


def swf_line(job_id, submit, run, alloc, req_procs=-1, req_time=-1):
    fields = ["-1"] * 18
    fields[0] = str(job_id)
    fields[1] = str(submit)
    fields[3] = str(run)
    fields[4] = str(alloc)
    fields[7] = str(req_procs)
    fields[8] = str(req_time)
    return " ".join(fields)


def test_field_mapping():
    text = HEADER + swf_line(3, 100, 250, 8, req_time=400)
    trace = parse_swf(text, "t")
    assert trace.total_procs == 64
    (j,) = trace.jobs
    assert (j.id, j.submit_time, j.run_time, j.requested_procs,
            j.requested_time) == (3, 100.0, 250.0, 8, 400.0)


def test_fallback_fields():
    # allocated procs -1 falls back to requested procs;
    # requested time -1 falls back to run time
    text = HEADER + swf_line(1, 0, 120, -1, req_procs=16, req_time=-1)
    (j,) = parse_swf(text, "t").jobs
    assert j.requested_procs == 16
    assert j.requested_time == 120.0


def test_drops_and_line_errors():
    text = HEADER + "\n".join([
        swf_line(1, 0, 100, 4),
        swf_line(2, 5, -1, 4),        # nonpositive run time: dropped
        swf_line(3, 6, 100, 0),       # nonpositive procs: dropped
        "1 2 three 4 5 6 7 8 9",      # non-numeric: line error
        "1 2 3",                      # too few fields: line error
        swf_line(4, 9, 50, 2),
    ])
    trace = parse_swf(text, "t")
    assert [j.id for j in trace.jobs] == [1, 4]
    assert trace.dropped_jobs == 2
    assert len(trace.line_errors) == 2
    assert all(isinstance(ln, int) and msg for ln, msg in trace.line_errors)


def test_zero_valid_jobs_is_hard_error():
    with pytest.raises(TraceFormatError):
        parse_swf(HEADER + swf_line(1, 0, -1, 4), "t")


# swf_line keyword for each field the parser reads
READ_FIELDS = ["job_id", "submit", "run", "alloc", "req_procs", "req_time"]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", READ_FIELDS)
def test_non_finite_field_is_a_line_error(field, bad):
    good = dict(job_id=2, submit=10, run=100, alloc=-1, req_procs=4,
                req_time=200)
    text = HEADER + "\n".join([swf_line(1, 0, 100, 4),
                               swf_line(**{**good, field: bad})])
    trace = parse_swf(text, "t")
    assert [j.id for j in trace.jobs] == [1]
    assert trace.line_errors == [(3, "non-finite field")]
    assert trace.dropped_jobs == 0


def test_infinite_maxprocs_header_is_a_line_error():
    trace = parse_swf("; MaxProcs: inf\n" + swf_line(1, 0, 100, 4), "t")
    assert trace.line_errors == [(1, "unreadable MaxProcs header")]
    assert trace.total_procs == 4


SWF_TOKENS = st.one_of(
    st.sampled_from(["-1", "0", "1", "4", "nan", "inf", "-inf", "1e400",
                     "-1e400", "1e300", "2.5", "-0", "x", ";"]),
    st.integers(-10, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
SWF_LINES = st.one_of(
    st.lists(SWF_TOKENS, min_size=0, max_size=20).map(" ".join),
    st.sampled_from(["; MaxProcs: 64", "; MaxProcs: inf", "; MaxProcs: nan",
                     "; MaxProcs: -3", "; MaxProcs: 1e400", "; MaxProcs:"]),
    st.text(max_size=40))


@given(st.lists(SWF_LINES, max_size=12).map("\n".join))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_raises_trace_format_error(text):
    try:
        trace = parse_swf(text, "fuzz")
    except TraceFormatError:
        return
    trace.validate()
    for j in trace.jobs:
        assert all(np.isfinite([j.submit_time, j.run_time, j.requested_time]))


def parse_outcome(text):
    """Everything parse_swf returns, as text that tells 0.0 from -0.0 and
    an int from a float; or the TraceFormatError's message."""
    try:
        trace = parse_swf(text, "d")
    except TraceFormatError as exc:
        return f"error: {exc}"
    return repr(([repr(j) for j in trace.jobs], trace.dropped_jobs,
                 trace.line_errors, trace.total_procs))


def line_loop_outcome(text):
    """parse_outcome with the one-pass parser switched off."""
    with mock.patch.object(workload, "_parse_swf_block", return_value=None):
        return parse_outcome(text)


# tokens float() reads differently from numpy, or that read as a value no
# job may have, or that split a line differently ("\xa0" is whitespace)
SALT = ["1_000", "\u0661\u0662", "\xa0", ";", "x;", "0x1p3", "1e400",
        "1e300", "-0", "2.5", "nan", "-inf", "9.3e18", "1e19"]
# mostly values a job may have, so that many blocks parse
BLOCK_VALUES = ["1", "2", "4", "16", "64", "100", "3600", "2.5"] * 6 \
    + ["-1", "0", "-0", "-1.5"]
COMMENT_LINES = ["; MaxProcs: 4096", "; MaxProcs: 64", "; Version: 2.2",
                 ";", "", "   "] * 3 + ["; MaxProcs: inf", "; MaxProcs: x"]


@st.composite
def swf_texts(draw):
    """A block of 9-20 fields a row; in about half of the texts one row is
    salted, in a quarter one row is ragged, and some hold only comments."""
    head = draw(st.lists(st.sampled_from(COMMENT_LINES), max_size=3))
    width = draw(st.integers(9, 20))
    rows = draw(st.integers(0, 6))
    salted = draw(st.integers(-rows - 1, rows))       # out of range: no salt
    ragged = draw(st.integers(-3 * rows - 1, rows))   # out of range: none
    lines = []
    for i in range(rows):
        row = [str(i + 1)] + draw(st.lists(st.sampled_from(BLOCK_VALUES),
                                           min_size=width - 1,
                                           max_size=width - 1))
        if i == salted:
            row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(SALT))
        if i == ragged:
            row = row[:draw(st.integers(0, width + 2))] + ["1"] * 2
        lines.append(" ".join(row))
    tail = draw(st.lists(st.sampled_from(COMMENT_LINES), max_size=2))
    return "\n".join(head + lines + tail)


@given(swf_texts())
@settings(max_examples=400, deadline=None)
def test_one_pass_parse_equals_line_loop(text):
    # warnings as errors in the body only: numpy warns on a text with no
    # data line, and the parser must not ask it to read one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_outcome(text) == line_loop_outcome(text)


# (text, whether the one-pass parser reads it); each text has a valid job
REGULAR = "\n".join(swf_line(i, 10 * i, 100, 4) for i in range(1, 4))
UNREAD_HUGE = " ".join(["4", "0", "-1", "100", "4", "-1", "-1", "-1", "-1",
                        "1e400"] + ["-1"] * 8)
BLOCK_CASES = [
    (HEADER + REGULAR, True),
    (REGULAR.replace(" ", "\xa0"), True),
    (HEADER + REGULAR + "\n" + swf_line(9, 0, 0, 4), True),      # dropped
    (HEADER + swf_line(1, "-0", 100, -1.5, 2, 2.5), True),
    (HEADER + REGULAR + "\n" + UNREAD_HUGE, True),
    (swf_line(1, 0, 100, "1e18"), True),
    (HEADER + REGULAR + "\n" + "5 " * 17 + "5 5", False),         # ragged
    (HEADER + REGULAR + "\n" + "1 2 3", False),
    (HEADER + REGULAR + "\n" + swf_line("1_000", 0, 100, 4), False),
    (HEADER + REGULAR + "\n" + swf_line("\u0661\u0662", 0, 100, 4), False),
    (HEADER + REGULAR + " ; done", False),
    (HEADER + REGULAR + "\n" + swf_line(7, 0, "0x1p3", 4), False),
    (HEADER + REGULAR + "\n" + swf_line(7, 0, 100, 4, req_time="inf"),
     False),
    (HEADER + REGULAR + "\n" + swf_line(0, 0, 100, 4), False),  # id < 1
    (swf_line(1, 0, 100, "1e19"), False),                       # > int64
    ("; MaxProcs: x\n" + REGULAR, False),
]


@pytest.mark.parametrize("text, one_pass", BLOCK_CASES)
def test_one_pass_parser_reads_only_regular_text(text, one_pass):
    block = workload._parse_swf_block(text.splitlines())
    assert (block is not None) == one_pass
    if one_pass:
        assert block == workload._parse_swf_lines(text.splitlines())
    assert parse_outcome(text) == line_loop_outcome(text)
    assert not parse_outcome(text).startswith("error")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "; MaxProcs: 64\n; Note", "\n  \n"])
def test_text_without_data_lines_is_an_error_without_warning(text):
    with pytest.raises(TraceFormatError, match="no valid jobs"):
        parse_swf(text, "t")


def test_jobs_sorted_by_submit_then_id():
    text = HEADER + "\n".join([
        swf_line(5, 50, 10, 1),
        swf_line(2, 10, 10, 1),
        swf_line(9, 10, 10, 1),
    ])
    assert [j.id for j in parse_swf(text, "t").jobs] == [2, 9, 5]


def test_total_procs_without_header():
    text = "\n".join([swf_line(1, 0, 10, 4), swf_line(2, 1, 10, 32)])
    assert parse_swf(text, "t").total_procs == 32


def test_write_read_round_trip(tmp_path):
    jobs = [make_job(1, 0, 100, 4, req_time=150),
            make_job(2, 33, 7.5, 16, req_time=9.25)]
    trace = make_trace(jobs, 64)
    path = tmp_path / "t.swf"
    write_swf(path, trace)
    back = parse_swf(path.read_text(), "t")
    assert back.total_procs == 64
    for a, b in zip(trace.jobs, back.jobs):
        assert (a.id, a.submit_time, a.run_time, a.requested_procs,
                a.requested_time) == \
               (b.id, b.submit_time, b.run_time, b.requested_procs,
                b.requested_time)


def test_synthetic_deterministic_and_bounded():
    cfg = SyntheticConfig(job_count=300, seed=11)
    t1, t2 = generate_synthetic(cfg), generate_synthetic(cfg)
    assert [(j.id, j.submit_time, j.run_time, j.requested_procs,
             j.requested_time, j.cost_rate) for j in t1.jobs] == \
           [(j.id, j.submit_time, j.run_time, j.requested_procs,
             j.requested_time, j.cost_rate) for j in t2.jobs]
    assert t1.jobs[0].submit_time == 0.0
    for j in t1.jobs:
        assert cfg.runtime_min - 1 <= j.run_time <= cfg.runtime_max + 1
        assert 1 <= j.requested_procs <= cfg.total_procs
        assert j.requested_procs & (j.requested_procs - 1) == 0  # power of two
        assert j.requested_time >= j.run_time
        assert j.cost_rate >= 0


def test_synthetic_exact_estimates():
    cfg = SyntheticConfig(job_count=100, overestimate_min=1.0,
                          overestimate_max=1.0, seed=5)
    for j in generate_synthetic(cfg).jobs:
        assert j.requested_time == j.run_time   # runtimes are integral


def test_synthetic_seed_changes_trace():
    a = generate_synthetic(SyntheticConfig(job_count=50, seed=1))
    b = generate_synthetic(SyntheticConfig(job_count=50, seed=2))
    assert [j.run_time for j in a.jobs] != [j.run_time for j in b.jobs]


def test_assign_costs_keyed_by_job_id():
    trace = make_trace([make_job(i, i, 10) for i in (1, 2, 3)], 8)
    assign_costs(trace, 1.0, 0.5, seed=9)
    full = {j.id: j.cost_rate for j in trace.jobs}
    sub = make_trace([make_job(3, 0, 10)], 8)
    assign_costs(sub, 1.0, 0.5, seed=9)
    assert sub.jobs[0].cost_rate == full[3]


EQUIVALENCE_IDS = [*range(1, 3001), 2**32 - 1, 2**32, 2**40, 2**64 + 3]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32 + 7])
@pytest.mark.parametrize("mean,std", [(1.0, 0.5), (0.0, 1.0), (1.0, 0.0)])
def test_assign_costs_equals_per_job_generators(seed, mean, std):
    # mean 0, std 1 resamples about half the draws; ids and seeds >= 2**32
    # take more than one 32-bit word of entropy each
    trace = WorkloadTrace(jobs=[make_job(i) for i in EQUIVALENCE_IDS],
                          total_procs=1)
    assign_costs(trace, mean, std, seed)
    expected = [_truncated_gauss(np.random.default_rng([seed, i]).normal,
                                 mean, std)
                for i in EQUIVALENCE_IDS]
    assert [j.cost_rate for j in trace.jobs] == expected


def test_assign_costs_empty_trace_and_negative_seed():
    empty = WorkloadTrace(jobs=[], total_procs=1)
    assign_costs(empty, 1.0, 0.5, seed=3)
    assert empty.jobs == []
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        assign_costs(make_trace([make_job(1)], 1), 1.0, 0.5, seed=-1)


def test_synthetic_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        generate_synthetic(SyntheticConfig(job_count=5, seed=-1))


def test_slice_contiguous_rebased():
    trace = make_trace([make_job(i, 10 * i, 5 + i, procs=i, req_time=9 * i,
                                 cost=0.5 * i)
                        for i in (1, 2, 3, 4)], 8)
    part = slice_trace(trace, 1, 2)
    assert [j.id for j in part.jobs] == [2, 3]
    assert [j.submit_time for j in part.jobs] == [0.0, 10.0]
    # every other field is the source job's
    assert part.jobs == [dataclasses.replace(j, submit_time=j.submit_time - 20)
                         for j in trace.jobs[1:3]]
    # slicing never mutates the source
    assert [j.submit_time for j in trace.jobs] == [10.0, 20.0, 30.0, 40.0]


def test_slice_out_of_range():
    trace = make_trace([make_job(1, 0, 5)], 8)
    with pytest.raises(ConfigError):
        slice_trace(trace, 0, 2)


def test_trace_validate_rejects_oversized_job():
    with pytest.raises(TraceFormatError):
        make_trace([make_job(1, 0, 10, procs=16)], 8)


def test_trace_validate_rejects_duplicates():
    with pytest.raises(TraceFormatError):
        make_trace([make_job(1, 0, 10), make_job(1, 1, 10)], 8)


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 5000),
                          st.integers(1, 64), st.integers(1, 6000)),
                min_size=1, max_size=30))
@settings(max_examples=100)
def test_round_trip_property(tmp_path_factory, rows):
    jobs = [make_job(i + 1, submit, run, procs, req_time=max(req, run))
            for i, (submit, run, procs, req) in enumerate(rows)]
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    # duplicate submit times are fine; ids are unique by construction
    trace = WorkloadTrace(jobs=jobs, total_procs=64, name="p")
    path = tmp_path_factory.mktemp("swf") / "t.swf"
    write_swf(path, trace)
    back = parse_swf(path.read_text(), "p")
    assert len(back.jobs) == len(jobs)
    for a, b in zip(sorted(jobs, key=lambda j: j.id),
                    sorted(back.jobs, key=lambda j: j.id)):
        assert (a.id, a.submit_time, a.run_time, a.requested_procs,
                a.requested_time) == \
               (b.id, b.submit_time, b.run_time, b.requested_procs,
                b.requested_time)


def test_scaling_parse_digest_reads_every_job_field(monkeypatch):
    # tools/scaling.py compares parsed traces across checkouts by these
    # fields; a Job field it left out would go unchecked
    root = pathlib.Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "tools"))
    scaling = importlib.import_module("scaling")
    job = make_job(7, submit=1.5, run=20, procs=3, req_time=40, cost=0.25)
    assert scaling._fields(job) == dataclasses.astuple(job)


# -- SWF and jobs.csv number text, against the per-value rule it replaced ------

def per_value_text(x: float) -> str:
    """The oracle: the SWF and jobs.csv text of one number, value by value."""
    xi = int(x)
    return str(xi) if x == xi else repr(float(x))


EDGES = [-0.0, 0.0, 5e-324, -5e-324, 0.1, 2.5, float(2 ** 53 - 1),
         float(2 ** 53), float(2 ** 53 + 1), float(2 ** 53 + 2),
         math.nextafter(2.0 ** 63, 0), 2.0 ** 63, -2.0 ** 63,
         math.nextafter(-2.0 ** 63, 0), 1e300, -1e300, 1e18, 9.3e18]
INTEGRAL = st.one_of(st.sampled_from([x for x in EDGES if x == int(x)]),
                     st.integers(-2 ** 70, 2 ** 70).map(float),
                     st.integers(-10 ** 6, 10 ** 6).map(float))
FINITE = st.one_of(INTEGRAL, st.sampled_from(EDGES),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(INTEGRAL, max_size=30),
                 st.lists(FINITE, max_size=30)))
def test_format_column_equals_per_value_rule(values):
    column = np.array(values, dtype=float)
    assert format_column(column) == [per_value_text(x) for x in values]


@pytest.mark.parametrize("values", [
    [2.0 ** 63], [1.0, 2.0 ** 63], [-2.0 ** 63, 3.0], [1e300, 0.0],
    [-1e300], [float(2 ** 64)]])
def test_format_column_guards_int64_range(values):
    # every value is integral, so only the magnitude guard keeps these off
    # the int64 path, where they would not convert exactly
    column = np.array(values, dtype=float)
    assert format_column(column) == [per_value_text(x) for x in values]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_format_column_raises_as_the_per_value_rule(bad):
    with pytest.raises(Exception) as want:
        per_value_text(bad)
    with pytest.raises(want.type):
        format_column(np.array([1.0, bad]))


@pytest.mark.parametrize("value", [-0.0, float(2 ** 53 - 1),
                                   float(2 ** 53 + 1), 2.0 ** 63, 1e300])
def test_write_swf_numbers_round_trip(tmp_path, value):
    # run and requested times must be positive, so -0.0 is a submit time only
    times = value if value > 0 else 1.0
    trace = make_trace([make_job(1, value, times, req_time=times)], 8)
    path = tmp_path / "t.swf"
    write_swf(path, trace)
    fields = path.read_text().splitlines()[1].split()
    assert [fields[1], fields[3], fields[8]] == \
        [per_value_text(value), per_value_text(times), per_value_text(times)]
    back = parse_swf(path.read_text(), "t").jobs[0]
    assert (back.submit_time, back.run_time, back.requested_time) == \
        (value, times, times)
