"""Agent state encoding, masked policy, update rules, and version rotation.

The update-rule tests differentiate an explicitly written surrogate loss by
central finite differences and compare against the analytic gradients, so a
sign or masking mistake in either path cannot cancel out.
"""

import math

import numpy as np
import pytest

from helpers import make_job
from marsched import neural
from marsched.agent import (CostAdjustStats, EpisodeTrajectory,
                            Hyperparameters, MarsAgent, ModelVersions,
                            actor_critic_update, apply_cost_adjustment,
                            collect_heuristic_trajectory, compute_advantages,
                            encode_state, episode_gradients, episode_reward,
                            fit_mask, load_model, new_model, ppo_update,
                            random_baseline, save_model, select_action,
                            slot_cost_factors, train)
from marsched.errors import (ConfigError, ContractError, ModelFormatError)
from marsched.heuristics import PolicyKind
from marsched.neural import forward, softmax
from marsched.workload import SyntheticConfig, generate_synthetic

SMALL = Hyperparameters(slots=4, hidden=(8,), epochs=5, seed=1)


def small_trace(seed=0, jobs=30):
    cfg = SyntheticConfig(job_count=jobs, arrival_rate=0.3, runtime_min=5,
                          runtime_max=300, total_procs=16, seed=seed)
    return generate_synthetic(cfg)


# -- encoding ---------------------------------------------------------------

def test_encode_state_layout():
    hyper = Hyperparameters(slots=4, time_norm=100.0, cost_norm=10.0)
    assert hyper.state_dim == 18           # 4 slots x 4 features + 2
    assert hyper.action_dim == 5
    queue = [make_job(1, submit=10, run=50, procs=8, req_time=50, cost=2.0)]
    vec = encode_state(queue, free_procs=16, total_procs=32, now=35,
                       hyper=hyper)
    assert vec.shape == (18,)
    assert vec[0] == 0.25                  # wait 25 / time_norm 100
    assert vec[1] == 0.5                   # requested time 50 / 100
    assert vec[2] == 0.25                  # 8 procs / 32
    assert vec[3] == 0.2                   # cost 2 / 10
    assert np.all(vec[4:16] == 0)          # empty slots stay zero
    assert vec[-2] == 0.5                  # 16 free / 32
    assert vec[-1] == 0.25                 # 1 queued / 4 slots


def test_encode_state_clips_to_unit_interval():
    hyper = Hyperparameters(slots=2, time_norm=10.0, cost_norm=1.0)
    queue = [make_job(i + 1, submit=0, run=10**6, procs=64, req_time=10**6,
                      cost=50.0) for i in range(10)]
    vec = encode_state(queue, free_procs=64, total_procs=64, now=10**9,
                       hyper=hyper)
    assert np.all(vec <= 1.0) and np.all(vec >= 0.0)
    assert vec[-1] == 1.0                  # queue pressure saturates


def test_fit_mask():
    queue = [make_job(1, procs=4), make_job(2, procs=16)]
    mask = fit_mask(queue, free_procs=8, slots=3)
    assert mask.tolist() == [True, False, False, True]   # pass always valid


# -- cost factors -------------------------------------------------------------

def test_slot_cost_factors_oracle():
    queue = [make_job(1, run=100, procs=2, req_time=100, cost=1.0),
             make_job(2, run=100, procs=2, req_time=100, cost=3.0),
             make_job(3, run=100, procs=2, req_time=100, cost=2.0)]
    factors = slot_cost_factors(queue, slots=4)
    costs = [1.0 * 2 * 100, 3.0 * 2 * 100, 2.0 * 2 * 100]
    mu = sum(costs) / 3
    sd = math.sqrt(sum((c - mu) ** 2 for c in costs) / 3)
    for i, c in enumerate(costs):
        expect = 0.5 * math.erfc(((c - mu) / sd) / math.sqrt(2))
        assert factors[i] == pytest.approx(expect, rel=1e-12)
    assert factors[3] == 1.0               # empty slot
    assert factors[4] == 1.0               # pass action
    assert factors[0] > factors[2] > factors[1]   # cheaper is closer to 1


def test_slot_cost_factors_degenerate():
    assert np.all(slot_cost_factors([], slots=3) == 1.0)
    same = [make_job(i + 1, cost=1.0) for i in range(3)]
    factors = slot_cost_factors(same, slots=3)
    assert np.allclose(factors[:3], 0.5)   # all z = 0


def test_apply_cost_adjustment_weight_zero_is_identity():
    probs = np.array([0.2, 0.3, 0.5])
    factors = np.array([0.01, 0.99, 0.5])
    out = apply_cost_adjustment(probs, factors, 0.0)
    assert out is probs                    # untouched, not merely close


def test_apply_cost_adjustment_renormalizes():
    probs = np.array([0.5, 0.5])
    factors = np.array([1.0, 0.25])
    out = apply_cost_adjustment(probs, factors, 1.0)
    assert abs(out.sum() - 1.0) < 1e-9
    assert out[0] == pytest.approx(0.8)
    assert out[1] == pytest.approx(0.2)


def test_apply_cost_adjustment_fallback():
    stats = CostAdjustStats()
    probs = np.array([1.0, 0.0])
    factors = np.array([0.0, 1.0])        # zeroes out all probability mass
    out = apply_cost_adjustment(probs, factors, 2.0, stats)
    assert np.array_equal(out, probs)
    assert stats.fallbacks == 1


# -- action selection --------------------------------------------------------

def test_select_action_respects_mask():
    rng = np.random.default_rng(0)
    hyper = SMALL
    net = new_model(hyper).actor
    state = rng.normal(size=hyper.state_dim)
    mask = np.array([True, False, True, False, True])
    for _ in range(200):
        action, log_prob, probs = select_action(net, state, mask, rng)
        assert mask[action]
        assert probs[~mask].sum() == 0.0
        assert abs(probs.sum() - 1.0) < 1e-9
        assert log_prob == pytest.approx(float(np.log(probs[action])))


def test_select_action_greedy_is_argmax():
    rng = np.random.default_rng(1)
    hyper = SMALL
    net = new_model(hyper).actor
    state = rng.normal(size=hyper.state_dim)
    mask = np.ones(hyper.action_dim, dtype=bool)
    action, _, probs = select_action(net, state, mask, rng, greedy=True)
    assert action == int(np.argmax(probs))


# -- rewards and advantages --------------------------------------------------

def test_episode_reward_is_minus_mean_bounded():
    from helpers import make_finished
    jobs = [make_finished(1, 0, 0, 10),      # bounded slowdown 1
            make_finished(2, 0, 90, 10)]     # bounded slowdown 10
    assert episode_reward(jobs, tau=10.0) == -5.5
    with pytest.raises(ValueError):
        episode_reward([])


def test_compute_advantages_hand_case():
    traj = EpisodeTrajectory()
    s = np.zeros(4)
    m = np.ones(3, dtype=bool)
    c = np.zeros(3)
    traj.add_step(s, 0, -14.0, -0.1, m, c)
    traj.add_step(s, 1, -10.0, -0.2, m, c)
    traj.finalize(-5.0)
    adv, targets = compute_advantages(traj, gamma=1.0)
    # t=0: 0 + v(s1) - v(s0) = -10 + 14 = 4; t=1: -5 + 0 + 10 = 5
    assert targets.tolist() == [-10.0, -5.0]
    assert adv.tolist() == [4.0, 5.0]


def test_compute_advantages_requires_terminal():
    traj = EpisodeTrajectory()
    traj.add_step(np.zeros(2), 0, 0.0, 0.0, np.ones(2, dtype=bool),
                  np.zeros(2))
    with pytest.raises(ContractError):
        compute_advantages(traj, 1.0)


# -- gradient oracles ----------------------------------------------------------

def surrogate_actor_loss(model, traj, hyper):
    """The scalar whose actor gradient episode_gradients claims to return."""
    advantages, _ = compute_advantages(traj, hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    weights = eye * advantages
    total = 0.0
    for t in range(len(traj)):
        logits, _ = forward(model.actor, traj.states[t])
        p = softmax(np.where(traj.masks[t], logits, -np.inf))
        total += -weights[t] * float(np.log(p[traj.actions[t]]))
        if hyper.cost_weight > 0:
            total += hyper.cost_weight * float((p * traj.cost_norms[t]).sum())
    return total


def surrogate_critic_loss(model, traj, hyper):
    _, targets = compute_advantages(traj, hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    total = 0.0
    for t in range(len(traj)):
        v, _ = forward(model.critic, traj.states[t])
        total += 0.5 * eye[t] * (float(v[0]) - targets[t]) ** 2
    return total


def finite_difference(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    den = np.linalg.norm(a) + np.linalg.norm(b)
    return np.linalg.norm(a - b) / den if den > 0 else 0.0


@pytest.mark.parametrize("cost_weight", [0.0, 0.4])
def test_episode_gradients_match_finite_differences(cost_weight):
    hyper = Hyperparameters(slots=3, hidden=(6,), seed=3,
                            cost_weight=cost_weight, gamma=0.97)
    agent = MarsAgent(hyper)
    trace = small_trace(seed=8, jobs=12)
    for j in trace.jobs:
        j.cost_rate = 0.5 + (j.id % 3)
    _, traj, _, _ = agent.run_collect(trace.jobs, trace.total_procs,
                                      rng=np.random.default_rng(2),
                                      record=True)
    assert traj is not None and len(traj) > 0

    actor_grads, critic_grads, _ = episode_gradients(agent.model, traj, hyper)
    fd_actor = finite_difference(
        lambda: surrogate_actor_loss(agent.model, traj, hyper),
        agent.model.actor.parameters())
    fd_critic = finite_difference(
        lambda: surrogate_critic_loss(agent.model, traj, hyper),
        agent.model.critic.parameters())
    for a, n in zip(actor_grads, fd_actor):
        assert rel_err(a, n) < 1e-4
    for a, n in zip(critic_grads, fd_critic):
        assert rel_err(a, n) < 1e-4


def test_episode_gradients_empty_trajectory():
    hyper = SMALL
    model = new_model(hyper)
    traj = EpisodeTrajectory()
    traj.finalize(0.0)
    a, c, diag = episode_gradients(model, traj, hyper)
    assert all(np.all(g == 0) for g in a)
    assert all(np.all(g == 0) for g in c)
    assert diag["steps"] == 0


# -- per-step update: bandit learning and abort ------------------------------

def bandit_episode(model, hyper, state, rng):
    """One-step episode against a two-armed bandit in the agent's shapes."""
    mask = np.zeros(hyper.action_dim, dtype=bool)
    mask[:2] = True
    traj = EpisodeTrajectory()
    action, log_prob, _ = select_action(model.actor, state, mask, rng)
    v, _ = forward(model.critic, state)
    traj.add_step(state, action, float(v[0]), log_prob, mask,
                  np.zeros(hyper.action_dim))
    traj.finalize(-1.0 if action == 0 else -10.0)
    return traj


def test_bandit_prefers_better_arm_after_500_updates():
    hyper = Hyperparameters(slots=2, hidden=(8,), actor_lr=0.05,
                            critic_lr=0.1, seed=0)
    model = new_model(hyper)
    state = np.zeros(hyper.state_dim)
    rng = np.random.default_rng(11)
    for _ in range(500):
        traj = bandit_episode(model, hyper, state, rng)
        diag = actor_critic_update(model, traj, hyper)
        assert not diag["aborted"]
    mask = np.zeros(hyper.action_dim, dtype=bool)
    mask[:2] = True
    _, _, probs = select_action(model.actor, state, mask, rng, greedy=True)
    assert probs[0] > 0.9


def test_actor_critic_update_abort_restores_parameters():
    hyper = Hyperparameters(slots=2, hidden=(4,), seed=5)
    model = new_model(hyper)
    before = model.snapshot()
    good = np.zeros(hyper.state_dim)
    bad = np.full(hyper.state_dim, np.nan)
    mask = np.ones(hyper.action_dim, dtype=bool)
    traj = EpisodeTrajectory()
    traj.add_step(good, 0, 0.0, -0.5, mask, np.zeros(hyper.action_dim))
    traj.add_step(good + 0.1, 1, 0.0, -0.5, mask, np.zeros(hyper.action_dim))
    traj.add_step(bad, 1, 0.0, -0.5, mask, np.zeros(hyper.action_dim))
    traj.finalize(-2.0)
    # delta at step t reads v(s_{t+1}), so the NaN state aborts at t=1,
    # after one full parameter update that the restore must undo
    diag = actor_critic_update(model, traj, hyper)
    assert diag["aborted"] and diag["steps"] == 1
    for a, b in zip(model.actor.parameters(), before["actor"]):
        assert np.array_equal(a, b)
    for a, b in zip(model.critic.parameters(), before["critic"]):
        assert np.array_equal(a, b)
    assert model.actor_adam.t == before["actor_adam"].t


def test_ppo_update_runs_and_reports():
    hyper = Hyperparameters(slots=3, hidden=(6,), ppo=True, seed=2)
    agent = MarsAgent(hyper)
    trace = small_trace(seed=3, jobs=15)
    trajs = []
    for w in range(2):
        _, traj, _, _ = agent.run_collect(trace.jobs, trace.total_procs,
                                          rng=np.random.default_rng(w),
                                          record=True)
        trajs.append(traj)
    before = agent.model.actor.copy_parameters()
    diag = ppo_update(agent.model, trajs, hyper)
    assert diag["steps"] == sum(len(t) for t in trajs)
    assert math.isfinite(diag["entropy"])
    moved = any(not np.array_equal(a, b)
                for a, b in zip(agent.model.actor.parameters(), before))
    assert moved


# -- versioning ----------------------------------------------------------------

def test_model_versions_rollback_semantics():
    versions = ModelVersions(patience=3)
    payloads = [{"tag": i} for i in range(4)]
    assert versions.record(payloads[0], 1.0) is None
    assert versions.record(payloads[1], 0.9) is None    # 1 below previous
    assert versions.record(payloads[2], 0.8) is None    # 2 below previous
    restored = versions.record(payloads[3], 0.7)        # 3rd: roll back
    assert restored is payloads[2]                      # the 0.8 model returns
    assert versions.rollbacks == 1
    assert versions.consecutive_negative == 0
    assert [e.reward for e in versions.entries] == [0.8, 0.9]


def test_model_versions_reset_on_improvement():
    versions = ModelVersions(patience=3)
    versions.record({"a": 1}, 1.0)
    versions.record({"a": 2}, 0.9)
    versions.record({"a": 3}, 0.95)     # above previous 0.9: reset
    assert versions.consecutive_negative == 0
    versions.record({"a": 4}, 0.5)
    versions.record({"a": 5}, 0.4)
    assert versions.record({"a": 6}, 0.3) is not None   # 3 in a row again
    assert versions.rollbacks == 1


def test_model_versions_keeps_three():
    versions = ModelVersions(patience=5)
    for i in range(6):
        versions.record({"i": i}, 1.0)
    assert len(versions.entries) == 3
    assert [e.payload["i"] for e in versions.entries] == [5, 4, 3]


def test_snapshot_restore_bit_exact():
    hyper = SMALL
    model = new_model(hyper)
    snap = model.snapshot()
    grads = [np.ones_like(p) for p in model.actor.parameters()]
    neural.apply_adam(model.actor, grads, model.actor_adam)
    model.epoch = 7
    model.restore(snap)
    fresh = new_model(hyper)
    for a, b in zip(model.actor.parameters(), fresh.actor.parameters()):
        assert np.array_equal(a, b)
    assert model.epoch == 0
    assert model.actor_adam.t == 0


def test_save_load_round_trip(tmp_path):
    hyper = SMALL
    model = new_model(hyper)
    model.epoch = 13
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.epoch == 13
    assert loaded.hyper == hyper
    for a, b in zip(model.actor.parameters(), loaded.actor.parameters()):
        assert np.array_equal(a, b)
    for a, b in zip(model.critic.parameters(), loaded.critic.parameters()):
        assert np.array_equal(a, b)


def test_load_model_rejects_unknown_version(tmp_path):
    import json
    path = tmp_path / "m.json"
    model = new_model(SMALL)
    save_model(path, model)
    payload = json.loads(path.read_text())
    payload["format_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_text("not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


# -- episodes and training -----------------------------------------------------

def test_run_collect_trajectory_shape():
    agent = MarsAgent(SMALL)
    trace = small_trace(seed=4, jobs=20)
    finished, traj, stats, reward = agent.run_collect(
        trace.jobs, trace.total_procs, rng=np.random.default_rng(0),
        record=True)
    assert len(finished) == 20
    assert traj.terminal and len(traj) > 0
    assert traj.rewards[-1] == reward
    assert all(r == 0.0 for r in traj.rewards[:-1])
    for action, mask in zip(traj.actions, traj.masks):
        assert mask[action]              # never an invalid action
    assert reward == episode_reward(finished, SMALL.tau)
    # the input jobs are untouched; the simulation ran on copies
    assert all(j.start_time is None for j in trace.jobs)


def test_greedy_evaluation_deterministic():
    agent = MarsAgent(SMALL)
    trace = small_trace(seed=6, jobs=25)
    a, ra = agent.evaluate(trace.jobs, trace.total_procs, seed=0)
    b, rb = agent.evaluate(trace.jobs, trace.total_procs, seed=99)
    # greedy ignores the rng: identical schedules either way
    assert ra == rb
    assert [(j.id, j.start_time) for j in a] == [(j.id, j.start_time) for j in b]


def test_collect_heuristic_trajectory_imitation_steps():
    agent = MarsAgent(SMALL)
    trace = small_trace(seed=9, jobs=18)
    finished, traj = collect_heuristic_trajectory(
        agent, trace.jobs, trace.total_procs, PolicyKind.SJF)
    assert len(finished) == 18
    assert traj.terminal
    assert len(traj) > 0
    for t in range(len(traj)):
        assert traj.masks[t][traj.actions[t]]
        # recorded log-prob is the agent's own probability of the
        # heuristic's choice, not of the agent's favorite
        logits, _ = forward(agent.model.actor, traj.states[t])
        p = softmax(np.where(traj.masks[t], logits, -np.inf))
        assert traj.log_probs[t] == pytest.approx(
            float(np.log(p[traj.actions[t]])))


def test_random_baseline_deterministic():
    trace = small_trace(seed=12, jobs=25)
    a = random_baseline(trace.jobs, trace.total_procs, SMALL, episodes=5,
                        seed=3)
    b = random_baseline(trace.jobs, trace.total_procs, SMALL, episodes=5,
                        seed=3)
    assert a == b
    assert a < 0


def test_train_smoke_and_determinism():
    trace = small_trace(seed=14, jobs=20)
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=8, seed=21,
                            validate_every=4)
    env = lambda w, e: (trace.jobs, trace.total_procs)

    agent1, versions1, curve1 = train(env, hyper)
    agent2, versions2, curve2 = train(env, hyper)
    assert len(curve1) == 8
    assert agent1.model.epoch == 8
    assert [p.reward for p in curve1] == [p.reward for p in curve2]
    for a, b in zip(agent1.model.actor.parameters(),
                    agent2.model.actor.parameters()):
        assert np.array_equal(a, b)
    assert len(versions1.entries) == 2      # validated at epochs 4 and 8


def test_train_resume_continues_epochs():
    trace = small_trace(seed=15, jobs=15)
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=3, seed=2)
    env = lambda w, e: (trace.jobs, trace.total_procs)
    agent, _, _ = train(env, hyper)
    assert agent.model.epoch == 3
    agent, _, curve = train(env, hyper, agent=agent)
    assert agent.model.epoch == 6
    assert [p.epoch for p in curve] == [4, 5, 6]


def test_train_worker_failure_retried_once():
    trace = small_trace(seed=16, jobs=10)
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=2, seed=0)
    calls = {"n": 0}

    def flaky_env(w, e):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient worker failure")
        return trace.jobs, trace.total_procs

    agent, _, curve = train(flaky_env, hyper)
    assert len(curve) == 2                  # the retry absorbed the failure

    def broken_env(w, e):
        raise RuntimeError("permanent failure")

    with pytest.raises(RuntimeError):
        train(broken_env, hyper)


def test_train_does_not_retry_contract_errors():
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=2, seed=0)
    calls = {"n": 0}

    def buggy_env(w, e):
        calls["n"] += 1
        raise ContractError("program bug")

    with pytest.raises(ContractError):
        train(buggy_env, hyper)
    assert calls["n"] == 1                  # propagated on the first attempt


def test_hyperparameter_validation():
    with pytest.raises(ConfigError):
        Hyperparameters(gamma=0.0).validate()
    with pytest.raises(ConfigError):
        Hyperparameters(slots=0).validate()
    with pytest.raises(ConfigError):
        Hyperparameters(cost_weight=-1).validate()
    with pytest.raises(ConfigError):
        Hyperparameters(hidden=()).validate()
    with pytest.raises(ConfigError):
        Hyperparameters(ppo_clip=1.5).validate()
