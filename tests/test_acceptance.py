"""End-to-end acceptance checks, one test per headline requirement.

Every test enforces a stated tolerance and, where one applies, a wall-clock
budget, and prints a single [PASS]/[FAIL] verdict line. Run with ``pytest -s``
to see the verdicts for passing tests; failing tests show them in the
captured output. The fixtures (trace shapes, seeds, learning rates) are
frozen so reruns are bit-for-bit comparable.
"""

import json
import math
import os
import time
from fractions import Fraction

import numpy as np

from helpers import logit_network, make_job, oracle_action, starts
from marsched import cli, metrics, neural
from marsched.agent import (EpisodeTrajectory, Hyperparameters, MarsAgent,
                            ModelVersions, actor_critic_step, new_model,
                            random_baseline, select_action, train)
from marsched.decision import Thresholds, decide, run_plan
from marsched.heuristics import (AGING_ENTRIES, HEURISTIC_KINDS, PolicyKind,
                                 priority_key)
from marsched.neural import (backward, forward, init_network, softmax)
from marsched.simulator import Simulation, new_cluster, run_episode
from marsched.workload import SyntheticConfig, generate_synthetic


def _verdict(capsys, label: str, ok: bool, elapsed: float,
             budget: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    if budget is not None:
        line = f"[{status}] {label} ({elapsed:.2f}s / {budget:.0f}s budget)"
    else:
        line = f"[{status}] {label} ({elapsed:.2f}s)"
    with capsys.disabled():
        print(line)


# -- 1: metric formulas vs exact rational arithmetic -------------------------

def test_c01_metric_formulas_match_rational_oracle(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    tau = 10
    failures = []
    for case in range(50):
        wait = int(rng.integers(0, 10**6))
        run = int(rng.integers(1, 10**6))
        procs = int(rng.integers(1, 4096))
        # integer inputs < 2^53: one float division is correctly rounded,
        # so float(Fraction) must match bit for bit
        want_s = float(Fraction(wait + run, run))
        want_b = float(max(Fraction(wait + run, max(run, tau)), Fraction(1)))
        want_p = float(max(Fraction(wait + run, procs * max(run, tau)),
                           Fraction(1)))
        got = tuple(float(column[0]) for column in metrics.job_slowdowns(
            [wait], [run], [procs], float(tau)))
        if got != (want_s, want_b, want_p):
            failures.append((case, wait, run, procs, got))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 1.0
    _verdict(capsys, "1 metric formulas exact on 50 rational-oracle cases",
             ok, elapsed, 1.0)
    assert not failures, failures[:3]
    assert elapsed < 1.0


# -- 2: heuristic ordering vs brute-force argmin -----------------------------

def _score_oracle(job, now, kind):
    s, r, n = job.submit_time, job.requested_time, job.requested_procs
    w = now - s if now > s else 0.0
    log10 = lambda x: math.log10(x) if x > 1.0 else 0.0
    if kind == "fcfs":
        return s
    if kind == "sjf":
        return r
    if kind == "wfp3":
        return -(w / r) ** 3 * n
    if kind == "unicef":
        return -w / ((math.log2(n) if n > 1 else 1.0) * r)
    if kind == "f1":
        return log10(r) * n + 870.0 * log10(s)
    if kind == "f2":
        return math.sqrt(r) * n + 25600.0 * log10(s)
    if kind == "f3":
        return r * n + 6860000.0 * log10(s)
    if kind == "f4":
        return r * math.sqrt(n) + 530000.0 * log10(s)
    raise AssertionError(kind)


def _select_oracle(queue, now, kind, free):
    best = None
    best_key = None
    for j in queue:
        key = (_score_oracle(j, now, kind.value), j.submit_time, j.id)
        if best_key is None or key < best_key:
            best, best_key = j, key
    if best is not None and best.requested_procs <= free:
        return best
    return None


def _select_shared(queue, now, kind, free):
    """Head of the run ordering the simulator and the heuristic trajectory
    selector share; None (pass) when it does not fit."""
    if kind in AGING_ENTRIES:
        # the batch an aging cycle of the simulator orders by
        head = min(AGING_ENTRIES[kind](queue, now))[3]
    else:
        head = min(queue, key=priority_key(kind, new_cluster(1, queue)))
    return head if head.requested_procs <= free else None


def test_c02_heuristic_selection_matches_oracle_on_1000_queues(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    mismatches = 0
    for case in range(1000):
        n = int(rng.integers(1, 21))
        queue = [make_job(id=i + 1,
                          submit=float(rng.integers(0, 5000)),
                          run=float(rng.integers(1, 9000)),
                          procs=int(rng.integers(1, 65)),
                          req_time=float(rng.integers(1, 12000)))
                 for i in range(n)]
        now = float(rng.integers(0, 8000))
        free = int(rng.integers(1, 80))
        for kind in HEURISTIC_KINDS:
            got = _select_shared(queue, now, kind, free)
            want = _select_oracle(queue, now, kind, free)
            if (got is None) != (want is None) or \
                    (got is not None and got.id != want.id):
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _verdict(capsys, "2 heuristic argmin oracle, 1000 queues x 8 policies",
             ok, elapsed, 10.0)
    assert mismatches == 0
    assert elapsed < 10.0


# -- 3: simulator conservation invariants ------------------------------------

def test_c03_conservation_invariants_on_200_traces(capsys):
    t0 = time.monotonic()
    violations = []
    for i in range(200):
        cfg = SyntheticConfig(job_count=20 + (i * 7) % 181,
                              arrival_rate=0.02 + 0.002 * (i % 9),
                              runtime_min=1, runtime_max=2000,
                              total_procs=int(2 ** (4 + i % 3)),
                              seed=3000 + i)
        trace = generate_synthetic(cfg)
        kind = HEURISTIC_KINDS[i % len(HEURISTIC_KINDS)]
        sim = Simulation(trace.jobs, trace.total_procs,
                         backfill=bool(i % 2))

        def probe(state, event):
            used = sum(j.requested_procs for _, _, j, _ in state.run_heap)
            if not (0 <= state.free_procs <= state.total_procs):
                violations.append((i, "free out of range"))
            if used + state.free_procs != state.total_procs:
                violations.append((i, "processors not conserved"))
            for _, _, j, start in state.run_heap:
                if start < j.submit_time:
                    violations.append((i, f"job {j.id} started early"))

        sim.on_event = probe
        finished = sim.run(kind)
        if len(finished) != len(trace.jobs):
            violations.append((i, "job lost or duplicated"))
        if len(set(finished.id.tolist())) != len(finished):
            violations.append((i, "job ran more than once"))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 30.0
    _verdict(capsys, "3 conservation/no-early-start/run-once on 200 traces",
             ok, elapsed, 30.0)
    assert not violations, violations[:5]
    assert elapsed < 30.0


# -- 4: backfilling never delays the blocked head job ------------------------

def test_c04_backfill_head_start_never_later_on_200_traces(capsys):
    # The guarantee needs exact runtime estimates (requested == actual) and a
    # head whose priority cannot be preempted while it waits. Jobs submitted
    # together keep both orderings static, so it holds for FCFS and SJF alike;
    # under staggered arrivals SJF admits genuine counterexamples (a later
    # short job outranks the head and interacts with backfill occupancy).
    t0 = time.monotonic()
    checked = 0
    violations = []
    for i in range(200):
        rng = np.random.default_rng(4000 + i)
        procs = 16 + 16 * (i % 2)
        n = 30 + (i * 11) % 90
        batch = [make_job(id=k + 1, submit=0.0,
                          run=float(rng.integers(5, 1500)),
                          procs=int(rng.integers(1, procs + 1)))
                 for k in range(n)]
        for kind in (PolicyKind.FCFS, PolicyKind.SJF):
            on = run_episode(batch, kind, backfill=True, total_procs=procs)
            off = run_episode(batch, kind, backfill=False, total_procs=procs)
            head = on.stats.first_blocked_head
            if head is None:
                continue
            start_on = starts(on.schedule)[head]
            start_off = starts(off.schedule)[head]
            checked += 1
            if start_on > start_off:
                violations.append((i, kind.value, head, start_on, start_off))
    elapsed = time.monotonic() - t0
    ok = not violations and checked >= 100 and elapsed < 60.0
    _verdict(capsys,
             f"4 backfill head-start ordering, {checked} contended runs",
             ok, elapsed, 60.0)
    assert not violations, violations[:5]
    assert checked >= 100
    assert elapsed < 60.0


# -- 5: analytic gradients vs central finite differences ---------------------

def test_c05_gradient_check_20_networks(capsys):
    t0 = time.monotonic()
    h = 1e-5
    worst = 0.0
    rng = np.random.default_rng(1005)
    for _ in range(20):
        dims = [int(rng.integers(2, 7))]
        for _ in range(int(rng.integers(1, 3))):
            dims.append(int(rng.integers(3, 9)))
        dims.append(int(rng.integers(2, 6)))
        net = init_network(dims, rng=rng)
        x = rng.normal(size=(int(rng.integers(1, 5)), dims[0]))
        dout_fixed = rng.normal(size=(x.shape[0], dims[-1]))

        out, cache = forward(net, x)
        grads = backward(net, cache, dout_fixed)
        analytic = np.concatenate([g.ravel() for g in grads])

        def loss():
            y, _ = forward(net, x)
            return float((y * dout_fixed).sum())

        numeric = []
        for p in net.parameters():
            flat = p.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + h
                up = loss()
                flat[k] = keep - h
                down = loss()
                flat[k] = keep
                numeric.append((up - down) / (2 * h))
        numeric = np.array(numeric)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(capsys, f"5 gradient check, max rel err {worst:.2e}",
             ok, elapsed, 30.0)
    assert worst < 1e-4
    assert elapsed < 30.0


# -- 6: probability distributions stay normalized ----------------------------

def test_c06_softmax_and_cost_adjustment_validity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(1006)
    worst = 0.0
    identity_ok = argmax_ok = True
    for _ in range(300):
        n = int(rng.integers(2, 40))
        logits = rng.normal(scale=float(rng.uniform(0.1, 50.0)), size=n)
        n_masked = int(rng.integers(0, n - 1))
        if n_masked:
            logits[rng.choice(n, size=n_masked, replace=False)] = -np.inf
        probs = softmax(logits)
        worst = max(worst, abs(float(probs.sum()) - 1.0))

        # the greedy step's cost adjustment picks the argmax of the
        # renormalized adjusted distribution, and weight 0 changes nothing
        factors = rng.uniform(1e-4, 1.0, size=n)
        weight = float(rng.uniform(0.1, 3.0))
        mask = np.isfinite(logits)
        net = logit_network(np.where(mask, logits, 0.0))
        step = lambda **kw: select_action(net, np.ones((1, 1)), mask, rng,
                                          greedy=True, **kw)
        adjusted = probs * factors ** weight
        worst = max(worst, abs(float((adjusted / adjusted.sum()).sum()) - 1.0))
        if step(cost_factors=factors, cost_weight=weight) != oracle_action(
                logits, mask, rng, greedy=True, cost_factors=factors,
                cost_weight=weight):
            argmax_ok = False
        if step(cost_factors=factors, cost_weight=0.0) != step():
            identity_ok = False
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and identity_ok and argmax_ok
    _verdict(capsys, f"6 distribution sums within 1e-9 (worst {worst:.1e}), "
                     "cost-adjusted argmax, weight-0 identity", ok, elapsed)
    assert worst <= 1e-9
    assert argmax_ok
    assert identity_ok


# -- 7: two-armed bandit sanity ----------------------------------------------

def test_c07_bandit_prefers_better_arm(capsys):
    t0 = time.monotonic()
    hyper = Hyperparameters(slots=2, hidden=(8,), actor_lr=0.05,
                            critic_lr=0.1, seed=0)
    model = new_model(hyper)
    state = np.zeros((1, hyper.state_dim))
    mask = np.zeros(hyper.action_dim, dtype=bool)
    mask[:2] = True
    rng = np.random.default_rng(11)
    for _ in range(500):
        traj = EpisodeTrajectory()
        action = select_action(model.actor, state, mask, rng)
        traj.add_step(state, action, mask, np.zeros(hyper.action_dim))
        traj.finalize(-1.0 if action == 0 else -10.0)
        actor_critic_step(model, [traj], hyper)
    logits = neural.predict(model.actor, state)[0]
    p_better = float(softmax(np.where(mask, logits, -np.inf))[0])
    elapsed = time.monotonic() - t0
    ok = p_better > 0.9 and elapsed < 10.0
    _verdict(capsys, f"7 bandit P(better arm) = {p_better:.3f} after 500 "
                     "updates", ok, elapsed, 10.0)
    assert p_better > 0.9
    assert elapsed < 10.0


# -- 8: training beats the random baseline by >= 10% -------------------------

def test_c08_training_improves_on_random_baseline(capsys):
    t0 = time.monotonic()
    cfg = SyntheticConfig(job_count=512, arrival_rate=0.014, runtime_min=5,
                          runtime_max=10000, total_procs=32,
                          overestimate_min=1.0, overestimate_max=1.0,
                          seed=101)
    trace = generate_synthetic(cfg)
    hyper = Hyperparameters(epochs=200, workers=1, seed=3, actor_lr=0.01,
                            critic_lr=0.05, time_norm=3600.0)
    baseline = random_baseline(trace.jobs, trace.total_procs, hyper,
                               episodes=20, seed=3)
    agent, _, _ = train(lambda w, e: (trace.jobs, trace.total_procs), hyper)
    _, trained = agent.evaluate(trace.jobs, trace.total_procs, seed=3)
    # rewards are negative (-mean bounded slowdown); 10% better means
    # at least 10% closer to zero
    improvement = (trained - baseline) / -baseline
    elapsed = time.monotonic() - t0
    ok = trained >= 0.9 * baseline and elapsed < 600.0
    _verdict(capsys, f"8 trained {trained:.2f} vs random {baseline:.2f} "
                     f"({improvement:+.1%}, need >= +10%)", ok, elapsed, 600.0)
    assert trained >= 0.9 * baseline, (trained, baseline)
    assert elapsed < 600.0


# -- 9: size routing is total and partitions exactly -------------------------

def _jobs_of(n):
    return [make_job(id=i + 1, submit=float(i), run=10.0, procs=1)
            for i in range(n)]


def test_c09_decision_branches_and_partition(capsys):
    t0 = time.monotonic()
    th = Thresholds()
    assert (th.min_size, th.median_size, th.max_size) == (256, 512, 20000)

    expected = {
        100: ["sjf"],
        300: ["unicef"],
        800: ["rl"],
        20001: ["rl", "rl"],
        50000: ["rl", "rl", "rl", "rl"],
    }
    problems = []
    for size, policies in expected.items():
        plan = decide(_jobs_of(size), thresholds=th)
        got = [c.policy.value for c in plan.chunks]
        if got != policies:
            problems.append((size, got))
        if any(len(c.jobs) > th.max_size for c in plan.chunks):
            problems.append((size, "chunk over max"))
        ids = sorted(j.id for c in plan.chunks for j in c.jobs)
        if ids != list(range(1, size + 1)):
            problems.append((size, "partition broken"))
    sizes = {s: [len(c.jobs) for c in decide(_jobs_of(s), thresholds=th).chunks]
             for s in (20001, 50000)}
    if sizes[20001] != [10001, 10000] or sizes[50000] != [12500] * 4:
        problems.append(("split sizes", sizes))

    # fifth branch: two undersized batches that together clear MEDIAN merge
    # into one RL chunk
    merged = decide(_jobs_of(400), _jobs_of(400), th)
    if [c.policy.value for c in merged.chunks] != ["rl"] or \
            len(merged.chunks[0].jobs) != 800 or \
            "combined" not in merged.chunks[0].note:
        problems.append(("combine", merged.to_dict()))

    elapsed = time.monotonic() - t0
    ok = not problems
    _verdict(capsys, "9 size routing: all five branches, exact partition",
             ok, elapsed)
    assert not problems, problems


# -- 10: the routed scheduler beats plain FCFS on a big trace ----------------

def test_c10_routed_plan_beats_plain_fcfs(capsys):
    t0 = time.monotonic()
    cfg = SyntheticConfig(job_count=2000, arrival_rate=0.03, runtime_min=5,
                          runtime_max=10000, total_procs=128,
                          overestimate_min=1.0, overestimate_max=1.0,
                          seed=203, name="sp2-scale")
    trace = generate_synthetic(cfg)
    fcfs = run_episode(trace, PolicyKind.FCFS, backfill=False)

    # whole slice as one batch: routed to a single on-demand-trained RL chunk
    hyper = Hyperparameters(epochs=30, seed=9, actor_lr=0.01, critic_lr=0.05,
                            time_norm=3600.0)
    plan = decide(trace.jobs, thresholds=Thresholds())
    routed = metrics.aggregate(
        metrics.Schedule.concat(
            [r.schedule for r in run_plan(
                plan, total_procs=trace.total_procs, tau=10.0,
                backfill=False, train_on_demand=True, on_demand_hyper=hyper,
                seed=9)]),
        tau=10.0, policy="mars", total_procs=trace.total_procs)

    # same slice arriving in sub-threshold batches: heuristic fallback chunks
    finished = []
    for lo in range(0, 2000, 200):
        batch_plan = decide(trace.jobs[lo:lo + 200], thresholds=Thresholds())
        result = run_plan(batch_plan, total_procs=trace.total_procs, tau=10.0,
                          backfill=False, seed=9)
        for chunk in result:
            finished.append(chunk.schedule)
    batched = metrics.aggregate(metrics.Schedule.concat(finished), tau=10.0,
                                policy="mars")

    elapsed = time.monotonic() - t0
    ok = (routed.mean_bounded_slowdown <= fcfs.report.mean_bounded_slowdown
          and batched.mean_bounded_slowdown <= fcfs.report.mean_bounded_slowdown
          and elapsed < 120.0)
    _verdict(capsys, f"10 routed {routed.mean_bounded_slowdown:.1f} / batched "
                     f"{batched.mean_bounded_slowdown:.1f} <= plain FCFS "
                     f"{fcfs.report.mean_bounded_slowdown:.1f}", ok, elapsed, 120.0)
    assert routed.mean_bounded_slowdown <= fcfs.report.mean_bounded_slowdown
    assert batched.mean_bounded_slowdown <= fcfs.report.mean_bounded_slowdown
    assert elapsed < 120.0


# -- 11: rollback restores the previous version bit-exactly ------------------

def test_c11_rollback_restores_previous_version_bits(capsys):
    t0 = time.monotonic()
    hyper = Hyperparameters(slots=4, hidden=(8,), seed=42)
    model = new_model(hyper)
    rng = np.random.default_rng(7)

    def perturb():
        for p in model.actor.parameters():
            p += rng.normal(scale=0.01, size=p.shape)
        for p in model.critic.parameters():
            p += rng.normal(scale=0.01, size=p.shape)
        model.epoch += 1

    versions = ModelVersions(patience=3)
    versions.record(model.snapshot(), 1.0)
    perturb()
    versions.record(model.snapshot(), 0.9)
    perturb()
    previous = model.snapshot()              # this becomes the rollback target
    versions.record(previous, 0.8)
    perturb()
    restored = versions.record(model.snapshot(), 0.7)

    ok = restored is not None and versions.rollbacks == 1
    if ok:
        model.restore(restored)
        for got, want in zip(model.actor.parameters(), previous["actor"]):
            ok = ok and np.array_equal(got, want)
        for got, want in zip(model.critic.parameters(), previous["critic"]):
            ok = ok and np.array_equal(got, want)
        ok = ok and model.epoch == previous["epoch"]
        ok = ok and model.actor_adam.t == previous["actor_adam"].t
    elapsed = time.monotonic() - t0
    _verdict(capsys, "11 rollback after 3 bad validations restores previous "
                     "version bit-exactly", ok, elapsed)
    assert restored is not None
    assert versions.rollbacks == 1
    for got, want in zip(model.actor.parameters(), previous["actor"]):
        assert np.array_equal(got, want)
    for got, want in zip(model.critic.parameters(), previous["critic"]):
        assert np.array_equal(got, want)
    assert model.epoch == previous["epoch"]


# -- 12: every command is byte-deterministic ---------------------------------

def _read_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fp:
                out[os.path.relpath(path, root)] = fp.read()
    return out


def test_c12_every_command_byte_identical_across_runs(capsys, tmp_path,
                                                      monkeypatch):
    monkeypatch.delenv("MARSCHED_CONFIG", raising=False)
    t0 = time.monotonic()
    cfg = tmp_path / "run.ini"
    cfg.write_text("[synthetic]\njob_count = 60\narrival_rate = 0.05\n"
                   "total_procs = 16\nruntime_min = 5\nruntime_max = 500\n"
                   "seed = 12\n\n[agent]\nslots = 4\nhidden = 8\nepochs = 2\n")
    base = ["--config", str(cfg), "--seed", "4"]
    mismatches = []
    inspects = {}

    for rep in ("a", "b"):
        gen_dir = tmp_path / f"gen-{rep}"
        assert cli.main(["gen", *base, "--out", str(gen_dir)]) == 0
        trace = gen_dir / "synthetic.swf"
        sim_dir = tmp_path / f"sim-{rep}"
        assert cli.main(["simulate", *base, "--trace", str(trace),
                         "--policy", "f2", "--out", str(sim_dir)]) == 0
        train_dir = tmp_path / f"train-{rep}"
        assert cli.main(["train", *base, "--synthetic", "60",
                         "--out", str(train_dir)]) == 0
        eval_dir = tmp_path / f"eval-{rep}"
        assert cli.main(["evaluate", *base, "--synthetic", "60",
                         "--model", str(train_dir / "model.json"),
                         "--out", str(eval_dir)]) == 0
        cmp_dir = tmp_path / f"cmp-{rep}"
        assert cli.main(["compare", *base, "--trace", str(trace),
                         "--policies", "fcfs,sjf,unicef",
                         "--out", str(cmp_dir)]) == 0

    # inspect writes to stdout only; rerun it on one fixed pair of inputs
    for rep in ("a", "b"):
        capsys.readouterr()
        assert cli.main(["inspect", "--trace",
                         str(tmp_path / "gen-a" / "synthetic.swf")]) == 0
        assert cli.main(["inspect", "--model",
                         str(tmp_path / "train-a" / "model.json")]) == 0
        inspects[rep] = capsys.readouterr().out

    for cmd in ("gen", "sim", "train", "eval", "cmp"):
        tree_a = _read_tree(tmp_path / f"{cmd}-a")
        tree_b = _read_tree(tmp_path / f"{cmd}-b")
        if tree_a != tree_b:
            mismatches.append(cmd)
    if inspects["a"] != inspects["b"]:
        mismatches.append("inspect")

    elapsed = time.monotonic() - t0
    ok = not mismatches
    _verdict(capsys, "12 all six commands byte-identical across reruns",
             ok, elapsed)
    assert not mismatches, mismatches
