"""Metric oracle: exact rational arithmetic versus the float implementation.

With integer inputs below 2**53 both the Fraction quotient and the float
quotient are correctly rounded, so equality here is exact, not approximate.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_schedule
from marsched import metrics


def oracle_slowdown(wait: int, run: int) -> float:
    return float(Fraction(wait + run, run))


def oracle_bounded(wait: int, run: int, tau: int) -> float:
    return float(max(Fraction(wait + run, max(run, tau)), Fraction(1)))


def oracle_pp(wait: int, run: int, tau: int, procs: int) -> float:
    return float(max(Fraction(wait + run, procs * max(run, tau)), Fraction(1)))


def one_job(wait, run, tau=10.0, procs=1):
    """(slowdown, bounded, per-processor) of one job, as Python floats."""
    return tuple(float(column[0]) for column in
                 metrics.job_slowdowns([wait], [run], [procs], tau))


def test_hand_cases():
    # zero wait floors every variant at 1
    assert one_job(0, 50, 10.0, 8) == (1.0, 1.0, 1.0)
    # long wait on a job at the tau boundary
    assert one_job(90, 10, 10.0, 4) == (10.0, 10.0, 2.5)
    # tau shields a 1-second job from slowdown blowup
    assert one_job(5, 1, 10.0)[:2] == (6.0, 1.0)
    # wide job: per-processor variant floors at 1
    assert one_job(100, 10, 10.0, 1024)[2] == 1.0


def test_columns_match_rational_oracle_and_scalar_loop():
    # one call over 50 jobs gives each job's exact value on integers, and
    # the per-job Python formulas' value on fractional floats
    rng = np.random.default_rng(7)
    wait = rng.integers(0, 10**6, 50).tolist()
    run = rng.integers(1, 10**6, 50).tolist()
    procs = rng.integers(1, 4096, 50).tolist()
    plain, bounded, pp = metrics.job_slowdowns(wait, run, procs, 10)
    assert plain.tolist() == [oracle_slowdown(w, r) for w, r in zip(wait, run)]
    assert bounded.tolist() == [oracle_bounded(w, r, 10)
                                for w, r in zip(wait, run)]
    assert pp.tolist() == [oracle_pp(w, r, 10, p)
                           for w, r, p in zip(wait, run, procs)]
    wait = (rng.random(50) * 1e4).tolist()
    run = (rng.random(50) * 30 + 1e-3).tolist()
    tau = 9.7
    plain, bounded, pp = metrics.job_slowdowns(wait, run, procs, tau)
    assert plain.tolist() == [(w + r) / r for w, r in zip(wait, run)]
    assert bounded.tolist() == [max((w + r) / max(r, tau), 1.0)
                                for w, r in zip(wait, run)]
    assert pp.tolist() == [max((w + r) / (p * max(r, tau)), 1.0)
                           for w, r, p in zip(wait, run, procs)]


def test_oracle_agreement_50_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(50):
        wait = int(rng.integers(0, 10**6))
        run = int(rng.integers(1, 10**6))
        procs = int(rng.integers(1, 4096))
        tau = int(rng.integers(1, 100))
        assert one_job(wait, run, tau, procs) == (
            oracle_slowdown(wait, run), oracle_bounded(wait, run, tau),
            oracle_pp(wait, run, tau, procs))


@given(wait=st.integers(0, 10**9), run=st.integers(1, 10**9),
       tau=st.integers(1, 10**4), procs=st.integers(1, 2**16))
@settings(max_examples=200)
def test_invariants(wait, run, tau, procs):
    s, b, p = one_job(wait, run, tau, procs)
    assert s >= 1.0 and b >= 1.0 and p >= 1.0
    assert b <= s          # max(run, tau) >= run
    assert p <= b          # procs >= 1
    # weak monotonicity in wait
    assert one_job(wait + 7, run, tau, procs)[1] >= b


@pytest.mark.parametrize("bad", [
    lambda: one_job(1, 0),                   # run time 0
    lambda: one_job(-1, 10),                 # negative wait
    lambda: one_job(1, 10, tau=0),
    lambda: one_job(1, 10, procs=0),
])
def test_validation(bad):
    with pytest.raises(ValueError):
        bad()


def test_aggregate_known_values():
    # waits 0, 10, 40, 90, 360 over run 10, tau 10
    schedule = make_schedule([(i + 1, 0, w, 10, 2)
                              for i, w in enumerate([0, 10, 40, 90, 360])])
    rep = metrics.aggregate(schedule, tau=10.0, policy="x", total_procs=4)
    expect = np.array([1.0, 2.0, 5.0, 10.0, 37.0])
    waits = np.array([0.0, 10.0, 40.0, 90.0, 360.0])
    slowdowns, bounded, pp = metrics.job_slowdowns(waits, np.full(5, 10.0),
                                                   np.full(5, 2), tau=10.0)
    assert np.array_equal(bounded, expect)
    assert np.array_equal(slowdowns, expect)
    assert np.array_equal(pp, np.maximum(expect / 2, 1.0))
    assert np.array_equal(metrics.bounded_slowdowns(schedule, tau=10.0),
                          expect)
    assert rep.mean_slowdown == float(np.mean(expect))
    assert rep.mean_pp_slowdown == float(np.mean(np.maximum(expect / 2, 1.0)))
    assert rep.mean_bounded_slowdown == float(np.mean(expect))
    assert rep.median_bounded_slowdown == 5.0
    assert rep.p95_bounded_slowdown == float(np.percentile(expect, 95.0))
    assert rep.makespan == 370.0
    assert rep.job_count == 5
    assert rep.policy == "x"


def test_aggregate_makespan_uses_earliest_submit():
    rep = metrics.aggregate(make_schedule([(1, 100, 100, 50),
                                           (2, 120, 160, 10)]))
    assert rep.makespan == 70.0   # 170 - 100


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        metrics.aggregate(make_schedule([]))


def test_report_csv_round_trip(tmp_path):
    schedule = make_schedule([(1, 0, 3, 7, 3), (2, 1, 5, 13)])
    rep = metrics.aggregate(schedule, tau=10.0, policy="fcfs", total_procs=64)
    path = tmp_path / "report.csv"
    metrics.write_report_csv(path, [rep])
    lines = path.read_text().splitlines()
    assert lines[0] == f"# schema: {metrics.REPORT_SCHEMA}"
    header = lines[1].split(",")
    values = lines[2].split(",")
    row = dict(zip(header, values))
    assert row["policy"] == "fcfs"
    assert int(row["job_count"]) == 2
    # repr round-trips floats exactly
    assert float(row["mean_bounded_slowdown"]) == rep.mean_bounded_slowdown
    assert float(row["makespan"]) == rep.makespan
    assert int(row["total_procs"]) == 64
