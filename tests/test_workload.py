"""SWF parsing, serialization round trips, and synthetic generation."""

import dataclasses
import importlib
import math
import pathlib
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BLOCK_COUNTS, B, boundary_jobs, make_job, make_trace,
                     oracle_check_trace, oracle_parse_swf, oracle_swf_text,
                     oracle_synthetic, oracle_write_swf, per_value_text)
from marsched import workload
from marsched.errors import ConfigError, TraceFormatError
from marsched.workload import (Job, SyntheticConfig,
                               WorkloadTrace, _truncated_gauss,
                               _truncated_gauss_block, assign_costs,
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


@pytest.mark.parametrize("header", ["0", "-1", "-64"])
def test_maxprocs_header_below_one_reads_as_absent(header):
    # SWF writes -1 for an unknown value; the widest job gives the count
    text = f"; MaxProcs: {header}\n" + "\n".join(
        [swf_line(1, 0, 100, 4), swf_line(2, 5, 100, 16)])
    trace = parse_swf(text, "t")
    assert (trace.total_procs, trace.line_errors) == (16, [])


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
    oracle_check_trace(trace)
    for j in trace.jobs:
        assert all(np.isfinite([j.submit_time, j.run_time, j.requested_time]))


def parse_outcome(text, parse=parse_swf):
    """Everything ``parse`` returns, as text that tells 0.0 from -0.0 and
    an int from a float; or the TraceFormatError's message."""
    try:
        trace = parse(text, "d")
    except TraceFormatError as exc:
        return f"error: {exc}"
    return repr(([repr(j) for j in trace.jobs], trace.dropped_jobs,
                 trace.line_errors, trace.total_procs))


def line_reader_outcome(text):
    """parse_outcome with ``np.loadtxt`` made to raise, so that every body
    goes through the line-by-line reader."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return parse_outcome(text)


def reader_outcomes(text):
    """parse_outcome through both readers, the oracle's outcome, and
    whether the line-by-line reader ran without ``np.loadtxt`` raising."""
    want = parse_outcome(text, oracle_parse_swf)
    with mock.patch.object(workload, "_read_swf_lines",
                           wraps=workload._read_swf_lines) as lines_reader:
        got = parse_outcome(text)
    return got, line_reader_outcome(text), want, lines_reader.called


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
    # both readers against the oracle's two parsers; warnings as errors in
    # the body only: numpy warns on a text with no data line, and the
    # parser must not ask it to read one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, by_lines, want, _ = reader_outcomes(text)
    assert got == by_lines == want


# (text, whether np.loadtxt reads its body); each text has a valid job
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
    # faults of the field rules, not of the reading
    (HEADER + REGULAR + "\n" + swf_line(7, 0, 100, 4, req_time="inf"),
     True),
    (HEADER + REGULAR + "\n" + swf_line(0, 0, 100, 4), True),   # id < 1
    (swf_line(1, 0, 100, "1e19"), True),                        # > int64
    ("; MaxProcs: x\n" + REGULAR, True),
]


@pytest.mark.parametrize("text, one_pass", BLOCK_CASES)
def test_one_pass_parser_reads_only_regular_text(text, one_pass):
    got, by_lines, want, lines_read = reader_outcomes(text)
    assert lines_read != one_pass
    assert got == by_lines == want
    assert not got.startswith("error")


def swf_body(*jobs):
    """SWF lines of (id, submit, processors) jobs under the 64-processor
    header, each running 100 s."""
    return HEADER + "\n".join(swf_line(i, t, 100, p) for i, t, p in jobs)


def dup(job_id):
    return f"error: trace 'd': duplicate job id {job_id}"


def wide(job_id, procs):
    return (f"error: trace 'd': job {job_id} requests {procs} processors "
            "but the system has 64")


BIG = 2 ** 63
# jobs 1..B+6, one a second, but the one at B+2 repeats the id of job 3
ACROSS = [(i, i, 4) for i in range(1, B + 7)]
ACROSS[B + 1] = (3, B + 2, 4)
# ids 1..50 over and over, and the eleventh job too wide
CYCLE = [(k % 50 + 1, k, 65 if k == 10 else 4) for k in range(B + 6)]
# (text, the first fault in (submit, id) order, or None); a job that both
# repeats an id and is too wide is a repeat
TRACE_FAULT_CASES = {
    "duplicate": (swf_body((1, 0, 4), (1, 1, 4)), dup(1)),
    "wide": (swf_body((1, 0, 65)), wide(1, 65)),
    "as_wide_as_header": (swf_body((1, 0, 64), (2, 1, 1)), None),
    "repeat_before_wide": (swf_body((2, 9, 65), (1, 0, 4), (1, 5, 4)),
                           dup(1)),
    "wide_before_repeat": (swf_body((1, 9, 4), (2, 5, 65), (1, 0, 4)),
                           wide(2, 65)),
    "both_at_one_job": (swf_body((1, 0, 4), (1, 5, 65)), dup(1)),
    "first_of_two_repeats": (swf_body((1, 0, 4), (2, 1, 4), (2, 2, 4),
                                      (1, 3, 4)), dup(2)),
    "wide_then_its_repeat": (swf_body((1, 0, 65), (1, 5, 4)), wide(1, 65)),
    "id_breaks_submit_tie": (swf_body((5, 0, 4), (3, 0, 65), (5, 0, 4)),
                             wide(3, 65)),
    "huge_ids_distinct": (swf_body((BIG, 0, 4), (2 * BIG, 0, 4), (1, 0, 4)),
                          None),
    "huge_id_repeat": (swf_body((BIG, 0, 4), (1, 1, 4), (BIG, 2, 65)),
                       dup(BIG)),
    # the ids differ as text but read as one float
    "huge_ids_one_float": (swf_body((BIG, 0, 4), (BIG + 1, 1, 4)), dup(BIG)),
    "huge_id_wide": (swf_body((1, 0, 4), (BIG, 1, 65)), wide(BIG, 65)),
    "huge_procs_wide": (swf_body((2, 1, 4), (1, 0, "1e19")),
                        wide(1, 10 ** 19)),
    "repeat_across_blocks": (swf_body(*ACROSS, (B + 7, B + 7, 65)), dup(3)),
    "wide_across_blocks": (swf_body(*ACROSS[:B + 1], (B + 2, B + 2, 65),
                                    (3, B + 3, 4)),
                           wide(B + 2, 65)),
    "wide_before_many_repeats": (swf_body(*CYCLE), wide(11, 65)),
}


@pytest.mark.parametrize("case", sorted(TRACE_FAULT_CASES))
def test_parse_swf_trace_faults_equal_oracle(case):
    # the repeat and width rules run on the parser's sorted columns; the
    # oracle checks its jobs one by one
    text, fault = TRACE_FAULT_CASES[case]
    got, by_lines, want, _ = reader_outcomes(text)
    assert got == by_lines == want
    assert (got if got.startswith("error") else None) == fault


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
    jobs = [make_job(1, 0, 100, 4, req_time=150, cost=0.75),
            make_job(2, 33, 7.5, 16, req_time=9.25, cost=1.5)]
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
    # SWF has no cost column
    assert [b.cost_rate for b in back.jobs] == [0.0, 0.0]


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


# -- synthetic traces by columns, against the per-job rules they replaced -----

DISTRIBUTIONS = [(1.0, 0.5), (0.0, 1.0), (0.0, 0.0), (2.0, 0.0), (0.1, 3.0),
                 (5.0, 1.0)]


def scalar_draws(seed, mean, std, count):
    """``count`` scalar ``_truncated_gauss`` draws and the generator left
    after them."""
    rng = np.random.default_rng(seed)
    return [_truncated_gauss(rng.normal, mean, std)
            for _ in range(count)], rng


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("mean,std", DISTRIBUTIONS)
def test_truncated_gauss_block_equals_scalar_draws(seed, mean, std):
    want, scalar_rng = scalar_draws(seed, mean, std, 3000)
    rng = np.random.default_rng(seed)
    assert _truncated_gauss_block(rng, mean, std, 3000, 7000) == want
    # served by the block, whose end lies past the draws used
    assert rng.bit_generator.state != scalar_rng.bit_generator.state


@pytest.mark.parametrize("mean,std", [(0.0, 1.0), (math.nan, 1.0)])
def test_truncated_gauss_block_falls_back_exactly(mean, std):
    # a 700-draw block holds about 350 non-negative draws at mean 0, and
    # none at all at mean nan, where every job takes 100 draws and gets 0.0;
    # either way the scalar rule runs from the restored generator
    want, scalar_rng = scalar_draws(4, mean, std, 500)
    rng = np.random.default_rng(4)
    assert _truncated_gauss_block(rng, mean, std, 500, 700) == want
    assert rng.bit_generator.state == scalar_rng.bit_generator.state


class ScriptedGenerator:
    """A generator whose normal draws are a fixed list; its state is the
    position in that list."""

    def __init__(self, values):
        self.values = values
        self.bit_generator = types.SimpleNamespace(state=0)

    def normal(self, mean, std, size=None):
        start = self.bit_generator.state
        if size is None:
            self.bit_generator.state += 1
            return self.values[start]
        self.bit_generator.state += size
        return np.array(self.values[start:start + size])


@pytest.mark.parametrize("negatives", [98, 99, 100, 101, 150])
def test_truncated_gauss_block_runs_of_negatives(negatives):
    # a job takes its first non-negative draw among 100, or 0.0; the block
    # serves the runs it can, and the scalar rule the others
    values = [-1.0] * negatives + [2.0, -1.0, 3.0, 4.0]
    scalar = ScriptedGenerator(values)
    want = [_truncated_gauss(scalar.normal, 0.0, 1.0) for _ in range(2)]
    assert want == ([2.0, 3.0] if negatives < 100 else [0.0, 2.0])
    block = ScriptedGenerator(values)
    assert _truncated_gauss_block(block, 0.0, 1.0, 2, len(values)) == want
    assert block.bit_generator.state == \
        (len(values) if negatives < 100 else scalar.bit_generator.state)


SYNTHETIC_CONFIGS = [
    dict(job_count=1),
    dict(job_count=2000, seed=3),
    dict(job_count=500, seed=4, max_cores_exp=0),
    dict(job_count=500, seed=5, total_procs=8, max_cores_exp=3),
    dict(job_count=500, seed=6, overestimate_min=1.0, overestimate_max=1.0),
    dict(job_count=500, seed=7, runtime_min=1.0, runtime_max=1e6,
         overestimate_min=2.5, overestimate_max=9.0),
    dict(job_count=800, seed=8, cost_mean=0.0, cost_std=1.0),
    dict(job_count=800, seed=9, cost_mean=0.1, cost_std=3.0),
    dict(job_count=300, seed=10, cost_mean=2.0, cost_std=0.0),
    dict(job_count=300, seed=11, cost_mean=0.0, cost_std=0.0),
    dict(job_count=300, seed=12, arrival_rate=5.0, cost_mean=5.0),
    dict(job_count=0, seed=13, name="empty"),
]


@pytest.mark.parametrize("config", SYNTHETIC_CONFIGS)
def test_generate_synthetic_equals_per_job_oracle(config):
    cfg = SyntheticConfig(**config)
    got, want = generate_synthetic(cfg), oracle_synthetic(cfg)
    assert (got.total_procs, got.name) == (want.total_procs, want.name)
    rows = [dataclasses.astuple(j) for j in got.jobs]
    assert rows == [dataclasses.astuple(j) for j in want.jobs]
    # the same Python types too, as the SWF and CSV text depends on them
    assert [tuple(map(type, row)) for row in rows] == \
        [(int, float, float, int, float, float)] * len(rows)


@pytest.mark.parametrize("config", SYNTHETIC_CONFIGS)
def test_write_swf_equals_oracle_on_generated_traces(tmp_path, config):
    trace = generate_synthetic(SyntheticConfig(**config))
    write_swf(tmp_path / "t.swf", trace)
    assert (tmp_path / "t.swf").read_bytes() == \
        oracle_swf_text(trace).encode()


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


PINNED_IDS = [1, 2**32 - 1, 2**32, 2**40, 2**64 + 3]
# rates recorded from the batched re-implementation of numpy's seeding that
# this rule replaced; at seed 2**32 + 7, mean 0 resamples the draws of ids
# 2**32 and 2**40, whose mean-1 rates lie below 1
PINNED_RATES = {
    (0, 1.0, 0.5): [1.0514838400071806, 1.2246909880156702,
                    1.3596584881427283, 1.6802132405591306,
                    1.2715668555055586],
    (0, 0.0, 1.0): [0.10296768001436127, 0.4493819760313406,
                    0.7193169762854567, 1.3604264811182611,
                    0.5431337110111172],
    (2**32 + 7, 1.0, 0.5): [1.6296629823230293, 1.1451925029297492,
                            0.5723880748920604, 0.5399575308429646,
                            1.4293573037549367],
    (2**32 + 7, 0.0, 1.0): [1.2593259646460588, 0.2903850058594981,
                            0.9292866230826125, 0.22792020316882064,
                            0.8587146075098735],
}


@pytest.mark.parametrize("seed,mean,std", sorted(PINNED_RATES))
def test_assign_costs_pinned_values(seed, mean, std):
    # ids and seeds wider than one 32-bit word keep their bytes
    trace = WorkloadTrace(jobs=[make_job(i) for i in PINNED_IDS],
                          total_procs=1)
    assign_costs(trace, mean, std, seed)
    assert [j.cost_rate for j in trace.jobs] == PINNED_RATES[seed, mean, std]


def test_assign_costs_empty_trace_and_negative_seed():
    empty = WorkloadTrace(jobs=[], total_procs=1)
    assign_costs(empty, 1.0, 0.5, seed=3)
    assert empty.jobs == []
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        assign_costs(make_trace([make_job(1)], 1), 1.0, 0.5, seed=-1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", ["mean", "std"])
def test_non_finite_cost_distribution_rejected(key, bad):
    # unchecked, a nan mean gives every job a rate of 0.0, an infinite one inf
    with pytest.raises(ConfigError, match="cost distribution parameters"):
        generate_synthetic(SyntheticConfig(job_count=50,
                                           **{f"cost_{key}": bad}))
    trace = make_trace([make_job(1), make_job(2)], 1)
    with pytest.raises(ConfigError, match="cost distribution parameters"):
        assign_costs(trace, **{"mean": 1.0, "std": 0.5} | {key: bad}, seed=0)
    assert [j.cost_rate for j in trace.jobs] == [0.0, 0.0]


@pytest.mark.parametrize("count,rate", [(3, 1e-300), (2, 1e-300),
                                        (1, 5e-324), (50, 1e-18),
                                        (50, 1e-307)])
def test_tiny_arrival_rate_names_itself(count, rate):
    # the last submit time would reach 2**63 s, where int64 wraps; the
    # error comes before the cast, so numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="arrival_rate"):
            generate_synthetic(SyntheticConfig(job_count=count,
                                               arrival_rate=rate))


def test_arrival_rate_just_large_enough_keeps_its_trace():
    # a last submit time between 2**62 and 2**63 s is valid and goes
    # through int64 exactly, as before
    trace = generate_synthetic(SyntheticConfig(job_count=2,
                                               arrival_rate=2.0 ** -62))
    last = trace.jobs[-1].submit_time
    assert 2.0 ** 62 <= last < 2.0 ** 63 and last == math.floor(last)
    assert [j.submit_time for j in trace.jobs] == \
        [j.submit_time for j in oracle_synthetic(
            SyntheticConfig(job_count=2, arrival_rate=2.0 ** -62)).jobs]


def test_synthetic_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        generate_synthetic(SyntheticConfig(job_count=5, seed=-1))


@pytest.mark.parametrize("k", [49, 53, 62])
def test_max_cores_exp_bound_is_exact(monkeypatch, k):
    # float log2 rounds 2**k - 1 up to k from k = 49 on; the bound and the
    # default exponent are k - 1 there, so no job can be wider than P
    procs = 2 ** k - 1
    SyntheticConfig(job_count=1, total_procs=procs,
                    max_cores_exp=k - 1)
    with pytest.raises(ConfigError, match="max_cores_exp"):
        SyntheticConfig(job_count=1, total_procs=procs,
                        max_cores_exp=k)
    # the default draws among the exponents 0..k - 1, and 0..k at 2**k
    drawn = []
    make_rng = np.random.default_rng

    class ChoiceSpy:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def choice(self, a, *args, **kwargs):
            drawn.append(a)
            return self.rng.choice(a, *args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", ChoiceSpy)
    for total in (procs, procs + 1):
        trace = generate_synthetic(SyntheticConfig(job_count=50,
                                                   total_procs=total))
        assert max(j.requested_procs for j in trace.jobs) <= total
    assert drawn == [k, k + 1]


def test_total_procs_past_int64_rejected():
    # the cores column is int64, so 2**63 processors cannot be drawn
    SyntheticConfig(job_count=1, total_procs=2 ** 63 - 1)
    for procs in (2 ** 63, 2 ** 70):
        with pytest.raises(ConfigError, match="total_procs"):
            generate_synthetic(SyntheticConfig(job_count=1,
                                               total_procs=procs))


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


@st.composite
def synthetic_configs(draw):
    """Configs that ``SyntheticConfig.validate`` accepts, out to its bounds:
    2**60 to 2**63 - 1 processors, ``2**k - 1`` where a float log2 rounds
    up, rates around the one whose last submit time reaches 2**63 s,
    runtimes up to 1e300 and estimates up to 1e200 times them, and cost
    draws from zero to 1e300."""
    procs = draw(st.one_of(st.integers(1, 256),
                           st.integers(2 ** 60, 2 ** 63 - 1),
                           st.sampled_from([2 ** k - 1
                                            for k in (49, 53, 62, 63)])))
    count = draw(st.integers(0, 1500))
    rate = draw(st.one_of(
        st.floats(1e-6, 1e3),
        st.floats(0.5, 4.0).map(lambda m: m * max(count - 1, 1) / 2.0 ** 63)))
    run_lo = draw(st.floats(-3, 300))
    run_hi = draw(st.floats(run_lo, 300))
    over_hi = draw(st.floats(0, min(200, 307 - run_hi)))
    costs = st.one_of(st.sampled_from([0.0, 1.0, 1e300]), st.floats(0, 1e300))
    return SyntheticConfig(
        job_count=count, arrival_rate=rate, total_procs=procs,
        runtime_min=10.0 ** run_lo, runtime_max=10.0 ** run_hi,
        overestimate_max=10.0 ** over_hi,
        overestimate_min=draw(st.floats(1.0, 10.0 ** over_hi)),
        max_cores_exp=draw(st.sampled_from([None, 0,
                                            procs.bit_length() - 1])),
        cost_mean=draw(costs), cost_std=draw(costs),
        seed=draw(st.integers(0, 2 ** 64)))


@given(synthetic_configs(), st.data())
@settings(max_examples=200, deadline=None)
def test_generated_and_sliced_traces_keep_every_trace_rule(cfg, data):
    # neither generate_synthetic nor slice_trace checks its trace again:
    # the config's rules and the way the columns are drawn make it valid,
    # and a slice rebased by its first submit time stays valid
    try:
        trace = generate_synthetic(cfg)
    except ConfigError as exc:
        assert "arrival_rate" in str(exc)
        return
    oracle_check_trace(trace)
    n = len(trace.jobs)
    start = data.draw(st.integers(0, n))
    oracle_check_trace(slice_trace(trace, start,
                                   data.draw(st.integers(0, n - start))))


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


@pytest.mark.parametrize("ids", [[1, 2, 3], [2 ** 63 - 1, 2 ** 63, 2 ** 64 + 3],
                                 [10 ** 30, 7, 1]])
def test_write_swf_equals_oracle_on_edge_values(tmp_path, ids):
    # the writer does not validate, so any float takes every number field;
    # ids and processor counts of 2**63 and above never pass through int64
    jobs = [Job(ids[k % len(ids)] + k // len(ids) * 3, value,
                EDGES[k - 1], ids[(k + 1) % len(ids)], EDGES[k - 2])
            for k, value in enumerate(EDGES)]
    trace = WorkloadTrace(jobs=jobs, total_procs=ids[0])
    write_swf(tmp_path / "t.swf", trace)
    assert (tmp_path / "t.swf").read_bytes() == \
        oracle_swf_text(trace).encode()


# -- SWF text a block at a time, against the whole-trace writer and parser ---

@pytest.mark.parametrize("kind", ["integral", "fraction", "huge"])
@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_write_swf_equals_oracle_at_block_boundaries(tmp_path, n, kind):
    trace = WorkloadTrace(jobs=boundary_jobs(n, kind), total_procs=4)
    write_swf(tmp_path / "got.swf", trace)
    oracle_write_swf(tmp_path / "want.swf", trace)
    got = (tmp_path / "got.swf").read_bytes()
    assert got == (tmp_path / "want.swf").read_bytes()
    assert len(got.splitlines()) == n + 1


def shuffled_swf(n, kind, seed=0):
    """The SWF text of ``boundary_jobs`` with its lines shuffled, so that
    the parser's sort by (submit time, id) breaks many ties."""
    jobs = boundary_jobs(n, kind)
    np.random.default_rng(seed).shuffle(jobs)
    return oracle_swf_text(WorkloadTrace(jobs=jobs, total_procs=4))


@pytest.mark.parametrize("kind", ["integral", "fraction", "huge"])
@pytest.mark.parametrize("n", BLOCK_COUNTS)
def test_parse_swf_equals_oracle_at_block_boundaries(n, kind):
    # np.loadtxt reads every body, ids of 2**63 and more included; the
    # oracle's line loop reads those
    text = shuffled_swf(n, kind)
    got, by_lines, want, lines_read = reader_outcomes(text)
    assert lines_read == (n == 0)
    assert got == by_lines == want
    assert got.startswith("error") == (n == 0)


@pytest.mark.parametrize("n", [B + 1, 3 * B + 7])
def test_parse_swf_equals_oracle_on_irregular_text(n):
    # a short line and a non-numeric field past the first block send the
    # whole body through the line-by-line reader; a dropped job and a bad
    # header go with it
    lines = shuffled_swf(n, "fraction").splitlines()
    lines[B] = "1 2 3"
    lines[B - 1] = lines[B - 1].replace(" -1 1 ", " x 1 ", 1)
    lines.insert(2, swf_line(n + 5, 3, 0, 4))
    lines.insert(B + 3, "; MaxProcs: many")
    text = "\n".join(lines)
    got, by_lines, want, lines_read = reader_outcomes(text)
    assert lines_read
    assert got == by_lines == want
    trace = parse_swf(text, "d")
    assert (len(trace.jobs), trace.dropped_jobs, len(trace.line_errors)) == \
        (n - 2, 1, 3)
