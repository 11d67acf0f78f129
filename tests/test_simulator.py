"""Event-loop semantics, EASY backfilling, and conservation invariants.

The hand cases are small enough to simulate by hand; expected start and end
times in the asserts come from that hand simulation, not from the code.
"""

import collections
import math

import numpy as np
import pytest

from helpers import ends, make_job, make_trace, starts
from marsched import heuristics, simulator
from marsched.agent import make_random_selector
from marsched.errors import ConfigError, ContractError, SchedulingError
from marsched.heuristics import HEURISTIC_KINDS, PolicyKind, sort_key
from marsched.simulator import (EventKind, Simulation, backfill_easy,
                                compute_reservation, job_csv_rows,
                                new_cluster, next_event_time, ready_jobs,
                                run_episode, schedule_cycle, start_job,
                                write_jobs_csv)
from marsched.workload import SyntheticConfig, generate_synthetic


# -- hand-simulated scenarios ------------------------------------------------

def contended_jobs():
    # P=4: job 2 blocks behind job 1, job 3 can slip in front only via backfill
    return [make_job(1, submit=0, run=100, procs=2),
            make_job(2, submit=0, run=50, procs=4),
            make_job(3, submit=10, run=10, procs=1)]


def test_fcfs_no_backfill_hand_case():
    res = run_episode(contended_jobs(), "fcfs", backfill=False, total_procs=4)
    start = starts(res.schedule)
    assert start[1] == 0
    assert start[2] == 100              # waits for job 1's processors
    assert start[3] == 150              # FCFS order holds without backfill
    assert res.stats.backfilled == 0
    assert res.stats.first_blocked_head == 2


def test_fcfs_backfill_hand_case():
    res = run_episode(contended_jobs(), "fcfs", backfill=True, total_procs=4)
    start = starts(res.schedule)
    assert start[3] == 10               # fits the 90s window before the shadow
    assert start[2] == 100              # head start unchanged by the backfill
    assert res.stats.backfilled == 1
    assert res.stats.first_blocked_head == 2


@pytest.mark.parametrize("policy", ["fcfs", "wfp3"])
def test_first_blocked_head_on_a_full_cluster(policy):
    # job 2 arrives while job 1 holds all 4 processors: that cycle can start
    # nothing, but it is where job 2 is first blocked
    jobs = [make_job(1, submit=0, run=100, procs=4),
            make_job(2, submit=10, run=10, procs=1)]
    res = run_episode(jobs, policy, backfill=True, total_procs=4)
    assert starts(res.schedule)[2] == 100
    assert res.stats.first_blocked_head == 2


def test_backfill_extra_procs_rule():
    # candidate outlives the shadow time but fits the spare processors
    jobs = [make_job(1, submit=0, run=100, procs=4),
            make_job(2, submit=0, run=100, procs=6),
            make_job(3, submit=0, run=500, procs=2)]
    res = run_episode(jobs, "fcfs", backfill=True, total_procs=8)
    got = starts(res.schedule)
    assert got[3] == 0                  # 2 <= extra of the (100s, 2 procs) hole
    assert got[2] == 100                # head starts exactly at its shadow
    assert res.stats.backfilled == 1


def test_backfill_rejects_when_both_rules_fail():
    jobs = [make_job(1, submit=0, run=100, procs=4),
            make_job(2, submit=0, run=100, procs=6),
            make_job(3, submit=0, run=500, procs=3)]   # > extra, > window
    res = run_episode(jobs, "fcfs", backfill=True, total_procs=8)
    assert starts(res.schedule)[3] == 200   # waits for the head to finish
    assert res.stats.backfilled == 0


@pytest.mark.parametrize("kind", [k for k in HEURISTIC_KINDS
                                  if k in heuristics.TIME_INVARIANT_KINDS],
                         ids=lambda k: k.value)
def test_backfill_shadow_test_is_the_rounded_sum(kind):
    # 0.2 + 128.0 rounds to 128.2, the shadow, although the exact sum of the
    # two doubles exceeds it and 128.0 > 128.2 - 0.2; the pass tests the
    # rounded sum, and the processor index must cut its bucket of 1-proc
    # jobs at the same place: job 3 ends by the shadow, job 4, one ulp
    # longer, does not
    longer = math.nextafter(128.0, math.inf)
    assert 0.2 + 128.0 == 128.2 and 128.0 > 128.2 - 0.2
    assert 0.2 + longer > 128.2
    jobs = [make_job(1, submit=0, run=128.2, procs=2),
            make_job(2, submit=0.2, run=10, procs=4),
            make_job(3, submit=0.2, run=128.0, procs=1),
            make_job(4, submit=0.2, run=longer, procs=1)]
    counts = {"clamped": 0, "backfilled": 0}
    got = run_episode(jobs, kind, total_procs=4, on_event=state_probe([]))
    want = run_episode(jobs, naive_heuristic(kind, True, counts),
                       total_procs=4)
    assert starts(got.schedule) == starts(want.schedule)
    if kind is PolicyKind.FCFS:
        assert starts(got.schedule) == {1: 0.0, 2: 128.2, 3: 0.2, 4: 138.2}
        assert got.stats.backfilled == 1


def test_overrun_job_projected_not_killed():
    # job 1 runs past its estimate; the reservation projects release at the
    # clock instead of killing it, and the head starts on actual completion
    jobs = [make_job(1, submit=0, run=100, procs=4, req_time=10),
            make_job(2, submit=20, run=10, procs=4)]
    res = run_episode(jobs, "fcfs", backfill=True, total_procs=4)
    assert ends(res.schedule)[1] == 100     # ran to its true runtime
    assert starts(res.schedule)[2] == 100


def test_completion_processed_before_same_time_arrival():
    jobs = [make_job(1, submit=0, run=10, procs=2),
            make_job(2, submit=10, run=5, procs=2)]
    seen = []
    res = run_episode(jobs, "fcfs", total_procs=2,
                      on_event=lambda state, ev: seen.append(ev))
    assert starts(res.schedule)[2] == 10    # freed procs visible at once
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


def test_sjf_orders_by_requested_time():
    jobs = [make_job(1, submit=0, run=100, procs=4, req_time=100),
            make_job(2, submit=0, run=90, procs=4, req_time=90),
            make_job(3, submit=0, run=10, procs=4, req_time=10)]
    res = run_episode(jobs, "sjf", total_procs=4)
    assert starts(res.schedule) == {3: 0, 2: 10, 1: 100}


# -- the incremental ready set -------------------------------------------------

def waiting(state):
    """The jobs that have arrived and not started, in arrival order, read
    off the arrivals and the start times alone."""
    return [j for j in state.arrivals[:state.next_arrival]
            if j.id not in state.start]


def ready_probe(log):
    """on_event probe: the ready set equals a full rescan of the arrivals."""
    def probe(state, event):
        reference = waiting(state)
        assert ready_jobs(state) == reference
        log.append([j.id for j in reference])
    return probe


def shuffled_jobs(seed, n=40, procs=8):
    """Jobs whose ids are unrelated to their submit order."""
    rng = np.random.default_rng(seed)
    submits = rng.permutation(n) * 5
    jobs = [make_job(i, submit=int(submits[i - 1]),
                     run=int(rng.integers(5, 300)),
                     procs=int(rng.integers(1, procs + 1)))
            for i in range(1, n + 1)]
    return sorted(jobs, key=lambda j: (j.submit_time, j.id)), procs


@pytest.mark.parametrize("backfill", [True, False])
@pytest.mark.parametrize("kind", HEURISTIC_KINDS)
def test_ready_set_matches_rescan_under_heuristics(kind, backfill):
    for seed in range(5):
        jobs, procs = shuffled_jobs(seed)
        seen = []
        res = run_episode(jobs, kind, backfill=backfill, total_procs=procs,
                          on_event=ready_probe(seen))
        assert len(res.schedule) == len(jobs) and any(seen)


def test_ready_set_matches_rescan_under_random_selector():
    for seed in range(5):
        jobs, procs = shuffled_jobs(seed)
        seen = []
        selector = make_random_selector(np.random.default_rng(seed), slots=4)
        res = run_episode(jobs, selector, total_procs=procs,
                          on_event=ready_probe(seen))
        assert len(res.schedule) == len(jobs) and any(seen)


def test_ready_set_keeps_arrival_order_when_starts_are_out_of_order():
    jobs = [make_job(9, submit=0, run=100, procs=4),
            make_job(3, submit=1, run=50, procs=4),
            make_job(1, submit=2, run=10, procs=1),
            make_job(2, submit=3, run=30, procs=4),
            make_job(4, submit=4, run=20, procs=2)]
    seen = []
    res = run_episode(jobs, "sjf", backfill=False, total_procs=4,
                      on_event=ready_probe(seen))
    # at t=100 SJF starts jobs 1 and 4 ahead of 3 and 2; the two left wait
    # in arrival order, which is neither their SJF order nor their id order
    assert [3, 2] in seen
    assert starts(res.schedule) == {9: 0, 1: 100, 4: 100, 2: 120, 3: 150}


@pytest.mark.parametrize("policy", ["fcfs", "sjf", "wfp3"])
def test_arriving_job_enters_the_ready_set_at_once(policy):
    jobs, procs = shuffled_jobs(7)
    arrived = []

    def probe(state, event):
        if event.kind is EventKind.ARRIVAL:
            assert ready_jobs(state)[-1].id == event.job_id
            assert event.job_id in state.ready
            arrived.append(event.job_id)

    run_episode(jobs, policy, total_procs=procs, on_event=probe)
    assert arrived == [j.id for j in jobs]


# -- differential check against a naive heuristic cycle -----------------------

def naive_reservation(state, head):
    """The head's (shadow, extra), rebuilt from the running set."""
    releases = {}
    for job in state.running.values():
        t = max(state.start[job.id] + job.requested_time, state.clock)
        releases[t] = releases.get(t, 0) + job.requested_procs
    avail = state.free_procs
    for t in sorted(releases):
        avail += releases[t]
        if avail >= head.requested_procs:
            return t, avail - head.requested_procs
    raise AssertionError("head never fits")


def naive_heuristic(kind, backfill, counts):
    """Selector that rescans the arrivals, re-sorts the whole ready queue and
    rebuilds the head's reservation before every start. ``counts`` gets the
    backfills, and the reservations made while a job ran past its
    estimate."""
    def selector(state):
        clock = state.clock
        queue = sorted(waiting(state), key=lambda j: sort_key(j, clock, kind))
        if not queue:
            return None
        head = queue[0]
        if head.requested_procs <= state.free_procs:
            return head.id
        if not backfill:
            return None
        shadow, extra = naive_reservation(state, head)
        if any(state.start[j.id] + j.requested_time < clock
               for j in state.running.values()):
            counts["clamped"] += 1
        for cand in queue[1:]:
            if cand.requested_procs <= state.free_procs and (
                    clock + cand.requested_time <= shadow
                    or cand.requested_procs <= extra):
                counts["backfilled"] += 1
                return cand.id
        return None
    return selector


def tangled_trace(seed, n=40, procs=8):
    """Integer times on a narrow range, so arrivals and completions share
    instants; estimates from half to three times the run time, so some jobs
    overrun."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(1, n + 1):
        run = int(rng.integers(1, 30))
        factor = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        jobs.append(make_job(i, submit=int(rng.integers(0, 60)), run=run,
                             req_time=max(1, int(run * factor)),
                             procs=int(rng.choice([1, 1, 2, 3, 4, 8]))))
    return sorted(jobs, key=lambda j: (j.submit_time, j.id)), procs


def state_probe(events, backfill=True):
    """on_event probe: the release profile, the rank heap and the processor
    index hold what the module docstring says they hold, and a run without
    EASY keeps neither the profile nor the index; every event goes to
    ``events``."""
    def probe(state, event):
        events.append(event)
        if state.rank_heap is not None:
            live = [j.id for _, j in state.rank_heap if j.id in state.ready]
            assert sorted(live) == sorted(state.ready)
        if not backfill:
            assert state.releases is None
            assert state.by_procs is None and state.proc_counts is None
            return
        assert state.releases == sorted(
            (state.start[j.id] + j.requested_time, j.id, j.requested_procs)
            for j in state.running.values())
        if state.rank_key is None:
            assert not state.by_procs and not state.proc_counts
            return
        # every ready job sits in exactly one bucket, the one of its procs,
        # under its rank; buckets are sorted and none is empty
        indexed = [e[-1].id for bucket in state.by_procs.values()
                   for e in bucket]
        assert sorted(indexed) == sorted(state.ready)
        assert state.proc_counts == sorted(state.by_procs)
        for procs, bucket in state.by_procs.items():
            assert bucket and bucket == sorted(bucket)
            assert all(e == (j.requested_time, state.rank_key(j), j)
                       and j.requested_procs == procs
                       for e in bucket for j in [e[-1]])
    return probe


@pytest.mark.parametrize("backfill", [True, False])
@pytest.mark.parametrize("kind", HEURISTIC_KINDS)
def test_heuristic_cycle_matches_naive_reference(kind, backfill):
    counts, shared_instants = {"clamped": 0, "backfilled": 0}, 0
    for seed in range(30):
        jobs, procs = tangled_trace(seed)
        events = []
        got = run_episode(jobs, kind, backfill=backfill, total_procs=procs,
                          on_event=state_probe(events, backfill))
        backfilled = counts["backfilled"]
        want = run_episode(jobs, naive_heuristic(kind, backfill, counts),
                           total_procs=procs)
        assert want.stats.forced_starts == 0
        assert starts(got.schedule) == starts(want.schedule), seed
        assert got.stats.started == len(jobs)
        assert got.stats.backfilled == counts["backfilled"] - backfilled
        kinds_at = {}
        for e in events:
            kinds_at.setdefault(e.time, set()).add(e.kind)
        shared_instants += sum(len(k) == 2 for k in kinds_at.values())
    assert shared_instants          # completions and arrivals at one instant
    # reservations over overrunning jobs, and backfills, were compared
    assert (counts["clamped"] and counts["backfilled"]) or not backfill


def burst_trace(seed, n=40, procs=8):
    """Every job submitted in the first 5 s on a narrow cluster, so the
    cluster fills and later arrivals and completions meet it full."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(1, n + 1):
        run = int(rng.integers(1, 30))
        factor = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        jobs.append(make_job(i, submit=int(rng.integers(0, 6)), run=run,
                             req_time=max(1, int(run * factor)),
                             procs=int(rng.choice([1, 1, 2, 3, 4, 8]))))
    return sorted(jobs, key=lambda j: (j.submit_time, j.id)), procs


def full_cycle_probe(full):
    """on_event probe: counts the instants whose scheduling cycle finds no
    processor free and a ready job waiting."""
    def probe(state, event):
        if (next_event_time(state) != state.clock and not state.free_procs
                and state.ready):
            full.append(state.clock)
    return probe


@pytest.mark.parametrize("backfill", [True, False])
@pytest.mark.parametrize("kind", [PolicyKind.WFP3, PolicyKind.UNICEF])
def test_aging_cycle_on_a_full_cluster_matches_naive_reference(kind,
                                                               backfill):
    # aging kinds skip the cycles that find no processor free; the naive
    # selector runs every one of them
    counts, full = {"clamped": 0, "backfilled": 0}, []
    for seed in range(20):
        jobs, procs = burst_trace(seed)
        got = run_episode(jobs, kind, backfill=backfill, total_procs=procs,
                          on_event=full_cycle_probe(full))
        backfilled = counts["backfilled"]
        want = run_episode(jobs, naive_heuristic(kind, backfill, counts),
                           total_procs=procs)
        assert want.stats.forced_starts == 0
        assert starts(got.schedule) == starts(want.schedule), seed
        assert got.stats.started == len(jobs)
        assert got.stats.backfilled == counts["backfilled"] - backfilled
    assert full                 # cycles with no free processor occurred
    assert counts["backfilled"] or not backfill


def test_aging_cycle_scores_each_ready_job_once(monkeypatch):
    # one cycle runs per distinct clock value; the EASY pass must reuse the
    # cycle's scores instead of scoring its candidates again
    scored = collections.Counter()
    for kind, fn in list(heuristics.AGING_ENTRIES.items()):
        def counting(jobs, now, fn=fn, kind=kind):
            jobs = list(jobs)
            for job in jobs:
                scored[kind, now, job.id] += 1
            return fn(jobs, now)
        monkeypatch.setitem(heuristics.AGING_ENTRIES, kind, counting)
    for kind in (PolicyKind.WFP3, PolicyKind.UNICEF):
        for seed in range(5):
            jobs, procs = burst_trace(seed)
            scored.clear()
            res = run_episode(jobs, kind, total_procs=procs)
            assert res.stats.backfilled and scored
            assert max(scored.values()) == 1, (kind, seed)


@pytest.mark.parametrize("policy, backfill",
                         [(k, b) for k in ("fcfs", "sjf", "wfp3")
                          for b in (True, False)] + [("random", False)])
def test_next_event_time_looked_up_once_per_cycle(monkeypatch, policy,
                                                  backfill):
    # every event at the next instant is applied after one lookup; the
    # tangled traces put completions and arrivals at shared instants
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(simulator, "next_event_time",
                        counted("lookups", simulator.next_event_time))
    for method in ("_schedule_heuristic", "_schedule_selector"):
        monkeypatch.setattr(Simulation, method,
                            counted("cycles", getattr(Simulation, method)))
    for seed in range(10):
        jobs, procs = tangled_trace(seed)
        calls.clear()
        if policy == "random":
            # a selector run keeps no release profile and no processor index
            res = run_episode(
                jobs, make_random_selector(np.random.default_rng(seed), 4),
                total_procs=procs, on_event=state_probe([], backfill=False))
        else:
            res = run_episode(jobs, policy, backfill=backfill,
                              total_procs=procs)
        assert res.stats.events == 2 * len(jobs)
        assert 0 < calls["lookups"] <= calls["cycles"], (seed, calls)


@pytest.mark.parametrize("procs", [0, -2])
def test_bare_list_job_without_processors_rejected(procs):
    jobs = [make_job(1, procs=1), make_job(2, submit=5, procs=procs)]
    with pytest.raises(ContractError, match="job 2"):
        run_episode(jobs, "wfp3", total_procs=4)
    with pytest.raises(ContractError):
        Simulation(jobs, 4)


# -- primitive contracts ------------------------------------------------------

def test_start_job_rejects_and_raises():
    state = new_cluster(4, [make_job(1, submit=5, run=10, procs=8)])
    state.clock = 5.0
    state.ready[1] = state.arrivals[0]
    state.next_arrival = 1
    assert start_job(state, state.ready[1], 5.0) is False     # does not fit
    with pytest.raises(ContractError):
        start_job(state, state.ready[1], 4.0)                 # before submit
    with pytest.raises(ContractError):
        start_job(state, make_job(9, submit=0, run=1), 5.0)   # not ready


def test_schedule_cycle_contract_errors():
    jobs = [make_job(1, submit=0, run=10, procs=8)]
    sim = Simulation(jobs, 4)
    sim.state.clock = 0.0
    sim.state.ready[1] = sim.state.arrivals[0]
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
    sim = Simulation(jobs, 4)
    finished = sim.run(lambda state: None)          # policy always passes
    assert len(finished) == 2
    assert sim.stats.forced_starts == 2
    # each job finished once; the second waits for the first to end
    assert finished.id.tolist() == [1, 2]
    assert starts(finished) == {1: 0.0, 2: 10.0}


def test_forced_start_passes_over_a_job_that_can_never_start():
    jobs = [make_job(1, submit=0, run=10, procs=16),
            make_job(2, submit=0, run=5, procs=1)]
    sim = Simulation(jobs, 8)
    with pytest.raises(SchedulingError, match="job 1 requests 16"):
        sim.run(lambda state: None)                 # policy always passes
    # the older job is too wide, so the stall starts the younger one; once
    # it has finished, the wide job is all that is left
    assert sim.state.start == {2: 0.0}
    assert sim.stats.forced_starts == 1
    assert [j.id for j in sim.state.finished] == [2]


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
    sched = res.schedule
    assert len(sched) == len(trace.jobs)
    assert sorted(sched.id.tolist()) == sorted(j.id for j in trace.jobs)
    inputs = {j.id: j for j in trace.jobs}
    deltas = []
    for jid, submit, start, run, procs in zip(
            sched.id.tolist(), sched.submit.tolist(), sched.start.tolist(),
            sched.run.tolist(), sched.procs.tolist()):
        j = inputs[jid]
        assert (submit, run, procs) == \
            (j.submit_time, j.run_time, j.requested_procs)
        assert math.isfinite(start) and start >= submit
        deltas.append((start, 1, procs))
        deltas.append((start + run, 0, -procs))
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
        assert starts(on.schedule)[head] <= starts(off.schedule)[head]
        checked += 1
    assert checked >= 10    # the configs above produce real contention


def test_deterministic_reruns():
    cfg = SyntheticConfig(job_count=80, arrival_rate=0.1, total_procs=32,
                          seed=17)
    trace = generate_synthetic(cfg)
    a = run_episode(trace, "unicef")
    b = run_episode(trace, "unicef")
    assert a.schedule.id.tolist() == b.schedule.id.tolist()
    assert a.schedule.start.tolist() == b.schedule.start.tolist()
    assert a.report.mean_bounded == b.report.mean_bounded


def test_jobs_csv_output(tmp_path):
    res = run_episode(contended_jobs(), "fcfs", total_procs=4)
    rows = job_csv_rows([res])
    assert [r.split(",")[0] for r in rows] == ["1", "2", "3"]   # sorted by id
    path = tmp_path / "jobs.csv"
    write_jobs_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("id,submit_time,start_time")
    assert len(lines) == 4
    assert lines[1].split(",")[-1] == "fcfs"


def test_jobs_csv_ids_beyond_int64():
    # the line-by-line SWF parser accepts any positive integral id; such an
    # id keeps its exact digits and its place in the id order
    big = 10 ** 19
    jobs = [make_job(big, submit=0, run=10), make_job(3, submit=1, run=5),
            make_job(2 ** 100, submit=2, run=1)]
    res = run_episode(jobs, "fcfs", total_procs=2)
    assert [r.split(",")[0] for r in job_csv_rows([res])] == \
        ["3", str(big), str(2 ** 100)]
    assert starts(res.schedule) == {big: 0.0, 3: 1.0, 2 ** 100: 6.0}

