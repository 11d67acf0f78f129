"""Size-based routing: branch selection, totality, and plan execution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_job
from marsched.agent import Hyperparameters, MarsAgent
from marsched.decision import (DEFAULT_MAX, DEFAULT_MEDIAN, DEFAULT_MIN,
                               Thresholds, decide, run_plan, split_workload)
from marsched.errors import ConfigError
from marsched.heuristics import PolicyKind
from marsched.workload import SyntheticConfig, generate_synthetic

TH = Thresholds()                     # 256 / 512 / 20000


def jobs_of(n):
    return [make_job(i + 1, submit=i, run=10) for i in range(n)]


def n_jobs(plan):
    return sum(len(c.jobs) for c in plan.chunks)


def test_default_thresholds():
    assert (DEFAULT_MIN, DEFAULT_MEDIAN, DEFAULT_MAX) == (256, 512, 20000)
    assert (TH.min_size, TH.median_size, TH.max_size) == (256, 512, 20000)


def test_threshold_ordering_enforced():
    with pytest.raises(ConfigError):
        Thresholds(min_size=512, median_size=512, max_size=20000).validate()
    with pytest.raises(ConfigError):
        Thresholds(min_size=0, median_size=512, max_size=20000).validate()


def test_branch_small_goes_sjf():
    plan = decide(jobs_of(100), None, TH)
    assert [c.policy for c in plan.chunks] == [PolicyKind.SJF]
    assert n_jobs(plan) == 100


def test_branch_medium_goes_unicef():
    plan = decide(jobs_of(300), None, TH)
    assert [c.policy for c in plan.chunks] == [PolicyKind.UNICEF]


def test_branch_large_goes_rl():
    plan = decide(jobs_of(800), None, TH)
    assert [c.policy for c in plan.chunks] == [PolicyKind.RL]


def test_branch_boundaries():
    assert decide(jobs_of(255), None, TH).chunks[0].policy is PolicyKind.SJF
    assert decide(jobs_of(256), None, TH).chunks[0].policy is PolicyKind.UNICEF
    assert decide(jobs_of(511), None, TH).chunks[0].policy is PolicyKind.UNICEF
    assert decide(jobs_of(512), None, TH).chunks[0].policy is PolicyKind.RL
    assert decide(jobs_of(20000), None, TH).chunks[0].policy is PolicyKind.RL
    assert len(decide(jobs_of(20000), None, TH).chunks) == 1


def test_branch_oversized_splits():
    plan = decide(jobs_of(20001), None, TH)
    assert [len(c.jobs) for c in plan.chunks] == [10001, 10000]
    assert all(c.policy is PolicyKind.RL for c in plan.chunks)


def test_split_sizes_50000():
    plan = decide(jobs_of(50000), None, TH)
    assert [len(c.jobs) for c in plan.chunks] == [12500] * 4


def test_split_examples():
    assert [len(c) for c in split_workload(list(range(50000)), 20000)] == \
        [12500, 12500, 12500, 12500]
    assert [len(c) for c in split_workload(list(range(20001)), 20000)] == \
        [10001, 10000]
    assert split_workload([1, 2, 3], 5) == [[1, 2, 3]]


@given(st.integers(0, 3000), st.integers(1, 500))
@settings(max_examples=200)
def test_split_partition_property(n, max_size):
    jobs = list(range(n))
    chunks = split_workload(jobs, max_size)
    assert [x for c in chunks for x in c] == jobs   # order-preserving partition
    assert all(1 <= len(c) <= max_size for c in chunks) or n == 0
    if n > max_size:
        # every split node exceeded max_size, so no chunk can drop below
        # half of it (the floor half of max_size + 1)
        assert min(len(c) for c in chunks) >= (max_size + 1) // 2


@pytest.mark.parametrize("max_size", [0, -1])
def test_split_rejects_max_size_below_one(max_size):
    with pytest.raises(ConfigError, match="max_size must be >= 1"):
        split_workload([1, 2, 3], max_size)


def test_combine_branch():
    current, nxt = jobs_of(300), jobs_of(400)
    plan = decide(current, nxt, TH)
    # 300 < MEDIAN and 300+400 > MEDIAN: merge for RL
    assert n_jobs(plan) == 700
    assert all(c.policy is PolicyKind.RL for c in plan.chunks)
    assert "combined" in plan.chunks[0].note


def test_combine_does_not_fire_below_threshold_sum():
    plan = decide(jobs_of(300), jobs_of(100), TH)
    assert n_jobs(plan) == 300
    assert plan.chunks[0].policy is PolicyKind.UNICEF


def test_combined_batch_still_respects_max():
    current, nxt = jobs_of(500), jobs_of(20000)
    plan = decide(current, nxt, TH)
    assert n_jobs(plan) == 20500
    assert len(plan.chunks) == 2
    assert all(len(c.jobs) <= TH.max_size for c in plan.chunks)


def test_empty_workload_empty_plan():
    plan = decide([], None, TH)
    assert plan.chunks == []
    assert n_jobs(plan) == 0


@given(st.integers(0, 3000))
@settings(max_examples=80, deadline=None)
def test_totality_small_range(n):
    plan = decide(jobs_of(n), None, Thresholds(8, 16, 64))
    assert n_jobs(plan) == n
    seen = [j.id for c in plan.chunks for j in c.jobs]
    assert seen == [j.id for j in jobs_of(n)]        # partition, in order
    for c in plan.chunks:
        assert c.policy in (PolicyKind.SJF, PolicyKind.UNICEF, PolicyKind.RL)
        assert len(c.jobs) <= 64


def test_totality_spec_sizes():
    for n in (100, 300, 800, 20001, 50000):
        plan = decide(jobs_of(n), None, TH)
        assert n_jobs(plan) == n
        assert all(len(c.jobs) <= TH.max_size for c in plan.chunks)


def test_plan_json():
    plan = decide(jobs_of(100), None, TH)
    d = plan.to_dict()
    assert d["schema"] == "marsched.plan.v1"
    assert d["chunks"][0]["policy"] == "sjf"
    assert d["chunks"][0]["jobs"] == 100
    assert "marsched.plan.v1" in plan.to_json()


# -- execution ----------------------------------------------------------------

def exec_trace(n=40, seed=0):
    cfg = SyntheticConfig(job_count=n, arrival_rate=0.3, runtime_min=5,
                          runtime_max=300, total_procs=16, seed=seed)
    return generate_synthetic(cfg)


def test_run_plan_heuristic_chunk():
    trace = exec_trace()
    plan = decide(trace.jobs, None, Thresholds(100, 200, 400))
    assert plan.chunks[0].policy is PolicyKind.SJF
    results = run_plan(plan, total_procs=trace.total_procs)
    assert len(results) == 1
    assert results[0].policy == "sjf"
    assert results[0].report.policy == "sjf"
    assert results[0].report.job_count == 40


def test_run_plan_rl_needs_model_or_training():
    trace = exec_trace()
    plan = decide(trace.jobs, None, Thresholds(5, 10, 400))
    assert plan.chunks[0].policy is PolicyKind.RL
    with pytest.raises(ConfigError):
        run_plan(plan, total_procs=trace.total_procs)


def test_run_plan_rl_with_agent():
    trace = exec_trace(seed=2)
    plan = decide(trace.jobs, None, Thresholds(5, 10, 400))
    agent = MarsAgent(Hyperparameters(slots=4, hidden=(8,), seed=1))
    results = run_plan(plan, total_procs=trace.total_procs, agent=agent,
                       seed=3)
    assert [r.policy for r in results] == ["rl"]
    assert results[0].report.job_count == 40


def test_run_plan_train_on_demand_deterministic():
    trace = exec_trace(seed=4, n=30)
    plan = decide(trace.jobs, None, Thresholds(5, 10, 400))
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=3, seed=9)
    a = run_plan(plan, total_procs=trace.total_procs, train_on_demand=True,
                 on_demand_hyper=hyper, seed=9)
    b = run_plan(plan, total_procs=trace.total_procs, train_on_demand=True,
                 on_demand_hyper=hyper, seed=9)
    assert [r.report.mean_bounded for r in a] == \
           [r.report.mean_bounded for r in b]
