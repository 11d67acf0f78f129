"""Event-loop semantics, EASY backfilling, and conservation invariants.

The hand cases are small enough to simulate by hand; expected start and end
times in the asserts come from that hand simulation, not from the code.
"""

import numpy as np
import pytest

from helpers import make_job, make_trace
from marsched.agent import make_random_selector
from marsched.errors import ConfigError, ContractError, SchedulingError
from marsched.heuristics import HEURISTIC_KINDS, PolicyKind
from marsched.simulator import (EventKind, Simulation, backfill_easy,
                                compute_reservation, job_csv_rows,
                                new_cluster, ready_jobs, run_episode,
                                schedule_cycle, start_job, write_jobs_csv)
from marsched.workload import JobStatus, SyntheticConfig, generate_synthetic


def by_id(jobs):
    return {j.id: j for j in jobs}


# -- hand-simulated scenarios ------------------------------------------------

def contended_jobs():
    # P=4: job 2 blocks behind job 1, job 3 can slip in front only via backfill
    return [make_job(1, submit=0, run=100, procs=2),
            make_job(2, submit=0, run=50, procs=4),
            make_job(3, submit=10, run=10, procs=1)]


def test_fcfs_no_backfill_hand_case():
    res = run_episode(contended_jobs(), "fcfs", backfill=False, total_procs=4)
    jobs = by_id(res.jobs)
    assert jobs[1].start_time == 0
    assert jobs[2].start_time == 100    # waits for job 1's processors
    assert jobs[3].start_time == 150    # FCFS order holds without backfill
    assert res.stats.backfilled == 0
    assert res.stats.first_blocked_head == 2


def test_fcfs_backfill_hand_case():
    res = run_episode(contended_jobs(), "fcfs", backfill=True, total_procs=4)
    jobs = by_id(res.jobs)
    assert jobs[3].start_time == 10     # fits the 90s window before the shadow
    assert jobs[2].start_time == 100    # head start unchanged by the backfill
    assert res.stats.backfilled == 1
    assert res.stats.first_blocked_head == 2


def test_backfill_extra_procs_rule():
    # candidate outlives the shadow time but fits the spare processors
    jobs = [make_job(1, submit=0, run=100, procs=4),
            make_job(2, submit=0, run=100, procs=6),
            make_job(3, submit=0, run=500, procs=2)]
    res = run_episode(jobs, "fcfs", backfill=True, total_procs=8)
    got = by_id(res.jobs)
    assert got[3].start_time == 0       # 2 <= extra of the (100s, 2 procs) hole
    assert got[2].start_time == 100     # head starts exactly at its shadow
    assert res.stats.backfilled == 1


def test_backfill_rejects_when_both_rules_fail():
    jobs = [make_job(1, submit=0, run=100, procs=4),
            make_job(2, submit=0, run=100, procs=6),
            make_job(3, submit=0, run=500, procs=3)]   # > extra, > window
    res = run_episode(jobs, "fcfs", backfill=True, total_procs=8)
    got = by_id(res.jobs)
    assert got[3].start_time == 200     # waits for the head to finish
    assert res.stats.backfilled == 0


def test_overrun_job_projected_not_killed():
    # job 1 runs past its estimate; the reservation projects release at the
    # clock instead of killing it, and the head starts on actual completion
    jobs = [make_job(1, submit=0, run=100, procs=4, req_time=10),
            make_job(2, submit=20, run=10, procs=4)]
    res = run_episode(jobs, "fcfs", backfill=True, total_procs=4)
    got = by_id(res.jobs)
    assert got[1].end_time == 100       # ran to its true runtime
    assert got[2].start_time == 100


def test_completion_processed_before_same_time_arrival():
    jobs = [make_job(1, submit=0, run=10, procs=2),
            make_job(2, submit=10, run=5, procs=2)]
    seen = []
    res = run_episode(jobs, "fcfs", total_procs=2,
                      on_event=lambda state, ev: seen.append(ev))
    assert by_id(res.jobs)[2].start_time == 10   # freed procs visible at once
    kinds_at_10 = [e.kind for e in seen if e.time == 10]
    assert kinds_at_10 == [EventKind.COMPLETION, EventKind.ARRIVAL]


def test_same_time_completions_tie_break_by_id():
    jobs = [make_job(1, submit=0, run=10, procs=1),
            make_job(2, submit=0, run=10, procs=1)]
    seen = []
    run_episode(jobs, "fcfs", total_procs=2,
                on_event=lambda state, ev: seen.append(ev))
    done = [e.job_id for e in seen if e.kind is EventKind.COMPLETION]
    assert done == [1, 2]


def test_dependency_gates_start():
    jobs = [make_job(1, submit=0, run=100, procs=1),
            make_job(2, submit=0, run=1, procs=1, deps=(1,))]
    # SJF would prefer job 2, but it is not dependency-ready until t=100
    res = run_episode(jobs, "sjf", total_procs=4)
    assert by_id(res.jobs)[2].start_time == 100


def test_sjf_orders_by_requested_time():
    jobs = [make_job(1, submit=0, run=100, procs=4, req_time=100),
            make_job(2, submit=0, run=90, procs=4, req_time=90),
            make_job(3, submit=0, run=10, procs=4, req_time=10)]
    res = run_episode(jobs, "sjf", total_procs=4)
    got = by_id(res.jobs)
    assert got[3].start_time == 0
    assert got[2].start_time == 10
    assert got[1].start_time == 100


# -- the incremental ready set -------------------------------------------------

def ready_probe(log):
    """on_event probe: the ready set equals a full rescan of pending."""
    def probe(state, event):
        reference = [j for j in state.pending.values()
                     if all(d in state.finished_ids for d in j.dependencies)]
        assert ready_jobs(state) == reference
        log.append([j.id for j in reference])
    return probe


def random_dag(seed, n=40, procs=8):
    """Jobs whose ids are unrelated to their submit order; each depends on
    up to three lower ids, so the graph is acyclic, but a dependency may
    arrive after its dependent and dependencies finish out of arrival
    order."""
    rng = np.random.default_rng(seed)
    submits = rng.permutation(n) * 5
    jobs = []
    for i in range(1, n + 1):
        k = int(rng.integers(0, min(i - 1, 3) + 1))
        deps = rng.choice(np.arange(1, i), size=k, replace=False) if k else ()
        jobs.append(make_job(i, submit=int(submits[i - 1]),
                             run=int(rng.integers(5, 300)),
                             procs=int(rng.integers(1, procs + 1)),
                             deps=[int(d) for d in deps]))
    return sorted(jobs, key=lambda j: (j.submit_time, j.id)), procs


def check_dependencies_respected(jobs):
    end = {j.id: j.end_time for j in jobs}
    for j in jobs:
        assert all(j.start_time >= end[d] for d in j.dependencies)


def test_ready_set_keeps_arrival_order_when_deps_finish_out_of_order():
    jobs = [make_job(1, submit=0, run=100, procs=1),
            make_job(2, submit=0, run=10, procs=1),
            make_job(5, submit=0, run=1000, procs=2),
            make_job(3, submit=1, run=10, procs=3, deps=(1,)),
            make_job(4, submit=2, run=10, procs=3, deps=(2,))]
    seen = []
    run_episode(jobs, "fcfs", total_procs=4, on_event=ready_probe(seen))
    # job 4 becomes ready at t=10, job 3 at t=100; neither fits until 1000,
    # and job 3 goes back in front of job 4
    assert [4] in seen
    assert [3, 4] in seen


@pytest.mark.parametrize("backfill", [True, False])
@pytest.mark.parametrize("kind", HEURISTIC_KINDS)
def test_ready_set_matches_rescan_on_dags(kind, backfill):
    for seed in range(5):
        jobs, procs = random_dag(seed)
        seen = []
        res = run_episode(jobs, kind, backfill=backfill, total_procs=procs,
                          on_event=ready_probe(seen))
        assert len(res.jobs) == len(jobs) and seen
        check_dependencies_respected(res.jobs)


def test_ready_set_matches_rescan_under_random_selector():
    for seed in range(5):
        jobs, procs = random_dag(seed)
        seen = []
        selector = make_random_selector(np.random.default_rng(seed), slots=4)
        res = run_episode(jobs, selector, total_procs=procs,
                          on_event=ready_probe(seen))
        assert len(res.jobs) == len(jobs) and seen
        check_dependencies_respected(res.jobs)


# -- primitive contracts ------------------------------------------------------

def test_start_job_rejects_and_raises():
    state = new_cluster(4, [make_job(1, submit=5, run=10, procs=8)])
    state.clock = 5.0
    state.pending[1] = state.arrivals[0]
    state.next_arrival = 1
    assert start_job(state, state.pending[1], 5.0) is False   # does not fit
    with pytest.raises(ContractError):
        start_job(state, state.pending[1], 4.0)               # before submit
    with pytest.raises(ContractError):
        start_job(state, make_job(9, submit=0, run=1), 5.0)   # not pending


def test_schedule_cycle_contract_errors():
    jobs = [make_job(1, submit=0, run=10, procs=8)]
    sim = Simulation([j.fresh_copy() for j in jobs], 4)
    sim.state.clock = 0.0
    sim.state.pending[1] = sim.state.arrivals[0]
    sim.state.next_arrival = 1
    with pytest.raises(ContractError):
        schedule_cycle(sim.state, lambda s: 99)     # unknown id
    with pytest.raises(ContractError):
        schedule_cycle(sim.state, lambda s: 1)      # cannot start (8 > 4)


def test_compute_reservation_never_fits():
    state = new_cluster(4)
    with pytest.raises(SchedulingError):
        compute_reservation(state, make_job(1, procs=8))


def test_oversized_job_is_a_scheduling_error():
    jobs = [make_job(1, submit=0, run=10, procs=16)]
    with pytest.raises(SchedulingError) as err:
        run_episode(jobs, "fcfs", total_procs=8)
    assert "job 1" in str(err.value)


def test_forced_start_breaks_selector_stall():
    jobs = [make_job(1, submit=0, run=10, procs=1),
            make_job(2, submit=0, run=10, procs=1)]
    sim = Simulation([j.fresh_copy() for j in jobs], 4)
    finished = sim.run(lambda state: None)          # policy always passes
    assert len(finished) == 2
    assert sim.stats.forced_starts == 2
    assert all(j.status is JobStatus.FINISHED for j in finished)


def test_stall_without_forced_start_is_an_error():
    jobs = [make_job(1, submit=0, run=10, procs=1)]
    sim = Simulation([j.fresh_copy() for j in jobs], 4,
                     allow_forced_start=False)
    with pytest.raises(SchedulingError):
        sim.run(lambda state: None)


def test_run_episode_bare_list_needs_procs():
    with pytest.raises(ConfigError):
        run_episode([make_job(1)], "fcfs")


def test_rl_policy_name_rejected():
    with pytest.raises(ContractError):
        run_episode([make_job(1)], "rl", total_procs=4)


# -- invariants over random traces -------------------------------------------

def conservation_check(trace, policy, backfill=True):
    """Run and verify resource conservation from the finished records alone."""
    probes = []

    def probe(state, event):
        used = sum(j.requested_procs for j in state.running.values())
        assert state.free_procs == state.total_procs - used
        assert 0 <= state.free_procs <= state.total_procs
        probes.append(event)

    res = run_episode(trace, policy, backfill=backfill, on_event=probe)
    jobs = res.jobs
    assert len(jobs) == len(trace.jobs)
    assert {j.id for j in jobs} == {j.id for j in trace.jobs}
    deltas = []
    for j in jobs:
        assert j.status is JobStatus.FINISHED
        assert j.start_time is not None and j.start_time >= j.submit_time
        assert j.end_time == j.start_time + j.run_time
        deltas.append((j.start_time, 1, j.requested_procs))
        deltas.append((j.end_time, 0, -j.requested_procs))
    # sweep with releases applied before same-time starts
    used = 0
    for _, _, d in sorted(deltas, key=lambda x: (x[0], x[1])):
        used += d
        assert 0 <= used <= trace.total_procs
    assert used == 0
    assert probes, "event hook never fired"
    return res


def test_conservation_random_traces():
    for seed in range(25):
        cfg = SyntheticConfig(job_count=60, arrival_rate=0.2, runtime_min=5,
                              runtime_max=500, total_procs=16, seed=seed)
        trace = generate_synthetic(cfg)
        for policy in ("fcfs", "sjf", "f2"):
            conservation_check(trace, policy)
        conservation_check(trace, "fcfs", backfill=False)


def test_backfill_never_delays_head_with_exact_estimates():
    # with exact runtime estimates both runs are identical up to the first
    # blocking, so the first blocked head is the same job; EASY must not
    # start it later than the plain run does
    checked = 0
    for seed in range(40):
        cfg = SyntheticConfig(job_count=50, arrival_rate=0.3, runtime_min=5,
                              runtime_max=400, total_procs=16,
                              overestimate_min=1.0, overestimate_max=1.0,
                              seed=seed)
        trace = generate_synthetic(cfg)
        off = run_episode(trace, "fcfs", backfill=False)
        on = run_episode(trace, "fcfs", backfill=True)
        head = off.stats.first_blocked_head
        if head is None:
            continue
        assert on.stats.first_blocked_head == head
        assert by_id(on.jobs)[head].start_time <= \
            by_id(off.jobs)[head].start_time
        checked += 1
    assert checked >= 10    # the configs above produce real contention


def test_deterministic_reruns():
    cfg = SyntheticConfig(job_count=80, arrival_rate=0.1, total_procs=32,
                          seed=17)
    trace = generate_synthetic(cfg)
    a = run_episode(trace, "unicef")
    b = run_episode(trace, "unicef")
    assert [(j.id, j.start_time) for j in a.jobs] == \
           [(j.id, j.start_time) for j in b.jobs]
    assert a.report.mean_bounded == b.report.mean_bounded
    # the trace itself is untouched by the runs
    assert all(j.start_time is None for j in trace.jobs)


def test_jobs_csv_output(tmp_path):
    res = run_episode(contended_jobs(), "fcfs", total_procs=4)
    rows = job_csv_rows(res.jobs, "fcfs")
    assert [r[0] for r in rows] == ["1", "2", "3"]   # sorted by id
    path = tmp_path / "jobs.csv"
    write_jobs_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("id,submit_time,start_time")
    assert len(lines) == 4
    assert lines[1].split(",")[-1] == "fcfs"
