"""Scoring formulas and the run ordering against an independently written
brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_job, starts
from marsched.errors import ContractError
from marsched.heuristics import (AGING_URGENCY, HEURISTIC_KINDS,
                                 TIME_INVARIANT_KINDS, AgingQueue,
                                 PolicyKind, priority_key, score, sort_key)
from marsched.simulator import new_cluster, run_episode

# -- oracle: same math, written from the formulas, no shared helpers --------

def oracle_score(job, now, kind):
    s, r, n = job.submit_time, job.requested_time, job.requested_procs
    w = now - s if now > s else 0.0
    if kind == "fcfs":
        return s
    if kind == "sjf":
        return r
    if kind == "wfp3":
        return -(w / r) * (w / r) * (w / r) * n
    if kind == "unicef":
        return -w / ((math.log(n, 2) if n > 1 else 1.0) * r)
    l10 = lambda x: math.log10(x) if x > 1.0 else 0.0
    if kind == "f1":
        return l10(r) * n + 870.0 * l10(s)
    if kind == "f2":
        return r ** 0.5 * n + 25600.0 * l10(s)
    if kind == "f3":
        return r * n + 6860000.0 * l10(s)
    if kind == "f4":
        return r * n ** 0.5 + 530000.0 * l10(s)
    raise AssertionError(kind)


def oracle_select(queue, now, kind, free):
    best = queue[0]
    for j in queue[1:]:
        a = (oracle_score(j, now, kind.value), j.submit_time, j.id)
        b = (oracle_score(best, now, kind.value), best.submit_time, best.id)
        if a < b:
            best = j
    return best if best.requested_procs <= free else None


def shared_select(queue, now, kind, free):
    """First job of the run ordering at ``now``; None when it does not fit,
    which is how the heuristic selectors pass."""
    if kind in AGING_URGENCY:
        # an aging cycle's pick: the most urgent job, the first in arrival
        # order among equals; each job is scored by the cycle's batch at
        # the clock from which its wait counts
        queue = sorted(queue, key=lambda j: (j.submit_time, j.id))
        urgency = [AGING_URGENCY[kind](AgingQueue(kind, [j]),
                                       max(now, j.submit_time))[0]
                   for j in queue]
        head = queue[urgency.index(max(urgency))]
    else:
        head = min(queue, key=priority_key(kind, new_cluster(1, queue)))
    return head if head.requested_procs <= free else None


def random_queue(rng, max_jobs=20):
    n = int(rng.integers(1, max_jobs + 1))
    jobs = []
    for i in range(n):
        jobs.append(make_job(
            id=i + 1,
            submit=float(rng.integers(0, 5000)),
            run=float(rng.integers(1, 9000)),
            procs=int(rng.integers(1, 65)),
            req_time=float(rng.integers(1, 12000)),
        ))
    return jobs


def test_oracle_agreement_1000_queues():
    rng = np.random.default_rng(2024)
    for case in range(1000):
        queue = random_queue(rng)
        now = float(rng.integers(0, 8000))
        free = int(rng.integers(1, 80))
        for kind in HEURISTIC_KINDS:
            got = shared_select(queue, now, kind, free)
            want = oracle_select(queue, now, kind, free)
            if want is None:
                assert got is None, (case, kind)
            else:
                assert got is not None and got.id == want.id, (case, kind)


def test_scores_match_oracle_values():
    rng = np.random.default_rng(7)
    for _ in range(200):
        j = random_queue(rng, max_jobs=1)[0]
        now = float(rng.integers(0, 9000))
        for kind in HEURISTIC_KINDS:
            assert score(j, now, kind) == pytest.approx(
                oracle_score(j, now, kind.value), rel=1e-12, abs=1e-12)


def test_fcfs_and_sjf_reduce_to_fields():
    j = make_job(1, submit=42, run=100, req_time=300)
    assert score(j, 1000, PolicyKind.FCFS) == 42
    assert score(j, 1000, PolicyKind.SJF) == 300


@given(st.floats(0, 1e6), st.floats(1, 1e5), st.integers(1, 512),
       st.floats(0, 1e7), st.floats(0, 1e7))
@settings(max_examples=200)
def test_time_invariant_kinds_ignore_now(submit, req, procs, t1, t2):
    # the simulator scores these kinds once per run and reuses the order
    job = make_job(1, submit=submit, run=req, procs=procs)
    for kind in TIME_INVARIANT_KINDS:
        assert score(job, t1, kind) == score(job, t2, kind)
    assert set(HEURISTIC_KINDS) - TIME_INVARIANT_KINDS == \
        {PolicyKind.WFP3, PolicyKind.UNICEF}


def test_wait_clamped_at_zero():
    # a job scored before its own submit time has zero waiting, not negative
    j = make_job(1, submit=100, run=10, req_time=10, procs=4)
    assert score(j, 50, PolicyKind.WFP3) == 0.0
    assert score(j, 50, PolicyKind.UNICEF) == 0.0


def test_unicef_single_core_denominator():
    # log2(1) = 0 must not divide; the denominator factor becomes 1
    j = make_job(1, submit=0, run=10, req_time=10, procs=1)
    assert score(j, 20, PolicyKind.UNICEF) == -2.0


def test_log_arguments_clamped_at_one():
    # submit 0 and requested time < 1 must not produce -inf scores
    j = make_job(1, submit=0, run=0.5, req_time=0.5)
    for kind in (PolicyKind.F1, PolicyKind.F2, PolicyKind.F3, PolicyKind.F4):
        assert math.isfinite(score(j, 10, kind))
    assert score(j, 10, PolicyKind.F1) == 0.0


def test_tie_break_by_submit_then_id():
    a = make_job(5, submit=10, run=100, req_time=100)
    b = make_job(2, submit=10, run=100, req_time=100)
    c = make_job(9, submit=3, run=100, req_time=100)
    for kind in (PolicyKind.SJF, PolicyKind.WFP3):
        pick = shared_select([a, b, c], 50, kind, free=8)
        assert pick.id == 9     # equal scores: earliest submit wins
        pick = shared_select([a, b], 50, kind, free=8)
        assert pick.id == 2     # equal scores and submits: lowest id wins


def test_pass_when_best_does_not_fit():
    first = make_job(1, submit=0, run=100, req_time=100, procs=4)
    big = make_job(2, submit=1, run=10, req_time=10, procs=8)
    small = make_job(3, submit=2, run=10, req_time=10, procs=1)
    # FCFS heads the queue with the 8-proc job; with 4 free it passes
    # rather than skip to the small job, which waits behind it
    result = run_episode([first, big, small], PolicyKind.FCFS,
                         backfill=False, total_procs=8)
    assert starts(result.schedule) == {1: 0.0, 2: 100.0, 3: 110.0}
    assert shared_select([big, small], 5, PolicyKind.FCFS, free=4) is None
    assert shared_select([big, small], 5, PolicyKind.FCFS, free=8).id == 2


def test_rl_has_no_score():
    with pytest.raises(ContractError):
        score(make_job(1), 0, PolicyKind.RL)
    with pytest.raises(ContractError):
        PolicyKind.from_name("nope")


@given(st.integers(0, 10**5), st.integers(1, 10**5), st.integers(1, 512),
       st.integers(0, 10**5), st.integers(1, 10**4))
@settings(max_examples=200)
def test_aging_monotonicity(submit, req, procs, now, extra):
    """More waiting never raises a WFP3 or UNICEF score (aging policies)."""
    j = make_job(1, submit=submit, run=req, procs=procs, req_time=req)
    for kind in (PolicyKind.WFP3, PolicyKind.UNICEF):
        assert score(j, now + extra, kind) <= score(j, now, kind)


@given(st.integers(1, 10**5), st.integers(1, 10**5), st.integers(1, 512))
@settings(max_examples=200)
def test_f_family_monotone_in_demand(submit, req, procs):
    """F1-F4 grow when a job asks for more time or more processors."""
    j = make_job(1, submit=submit, run=req, procs=procs, req_time=req)
    bigger_r = make_job(1, submit=submit, run=req, procs=procs,
                        req_time=req + 10)
    bigger_n = make_job(1, submit=submit, run=req, procs=procs + 1,
                        req_time=req)
    for kind in (PolicyKind.F1, PolicyKind.F2, PolicyKind.F3, PolicyKind.F4):
        assert score(bigger_r, 0, kind) >= score(j, 0, kind)
        assert score(bigger_n, 0, kind) >= score(j, 0, kind)


def tied_queue(rng, n=60):
    """Few distinct values, so scores tie and submit times tie; submit
    times up to 1 all clamp to the same log10 in F1-F4, so their scores tie
    across different submit times."""
    return [make_job(i + 1, submit=float(rng.choice([0.0, 0.5, 1.0, 3.0])),
                     run=10.0, procs=int(rng.choice([1, 2, 4])),
                     req_time=float(rng.choice([1.0, 4.0, 9.0])))
            for i in range(n)]


@pytest.mark.parametrize("kind", sorted(TIME_INVARIANT_KINDS,
                                        key=lambda k: k.value))
def test_run_rank_orders_like_sort_key(kind):
    for seed in range(20):
        state = new_cluster(1, tied_queue(np.random.default_rng(seed)))
        keys = [sort_key(j, state.clock, kind) for j in state.arrivals]
        assert len({k[0] for k in keys}) < len(keys)        # tied scores
        assert len({k[:2] for k in keys}) < len(keys)       # and submits
        rank = priority_key(kind, state)
        want = sorted(state.arrivals, key=lambda j: sort_key(j, 0.0, kind))
        assert sorted(state.arrivals, key=rank) == want, seed


def test_sort_key_orders_full_queue():
    rng = np.random.default_rng(3)
    queue = random_queue(rng)
    now = 4000.0
    for kind in HEURISTIC_KINDS:
        keys = [sort_key(j, now, kind) for j in queue]
        order = [q.id for _, q in sorted(zip(keys, queue),
                                         key=lambda p: p[0])]
        oracle = sorted(queue, key=lambda j: (oracle_score(j, now, kind.value),
                                              j.submit_time, j.id))
        assert order == [j.id for j in oracle]
