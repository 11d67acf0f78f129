"""Agent state encoding, masked policy, update rules, and version rotation.

The update-rule tests differentiate an explicitly written surrogate loss by
central finite differences and compare against the analytic gradients, so a
sign or masking mistake in either path cannot cancel out.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import (logit_network, make_job, oracle_action,
                     oracle_episode_gradients, oracle_selector,
                     random_trajectory)
from marsched import agent as agent_module
from marsched import neural
from marsched.agent import (EpisodeTrajectory, Hyperparameters, MarsAgent,
                            ModelVersions,
                            actor_critic_step, compute_advantages,
                            encode_state, episode_gradients, episode_reward,
                            fit_mask, load_model, new_model,
                            random_baseline, save_model,
                            select_action, slot_cost_factors, train,
                            visible_window)
from marsched.errors import (ConfigError, ContractError, ModelFormatError)
from marsched.neural import forward, softmax
from marsched.simulator import Simulation, new_cluster
from marsched.workload import SyntheticConfig, generate_synthetic
from test_golden import RL_EVAL, RL_MIX

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
    vec = np.full(hyper.state_dim, np.nan)
    encode_state(queue, queued=1, free_procs=16, total_procs=32,
                 now=35, hyper=hyper, static={}, out=vec)
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
    vec = np.empty((1, hyper.state_dim))      # a batch of one row
    encode_state(queue[:2], queued=len(queue), free_procs=64,
                 total_procs=64, now=10**9, hyper=hyper, static={}, out=vec)
    vec = vec[0]
    assert np.all(vec <= 1.0) and np.all(vec >= 0.0)
    assert vec[-1] == 1.0                  # queue pressure saturates


def test_encode_state_static_cache_changes_nothing():
    hyper = Hyperparameters(slots=3, time_norm=100.0, cost_norm=10.0)
    queue = [make_job(i + 1, submit=3 * i, run=7 + i, procs=i + 1,
                      cost=0.3 * i) for i in range(4)]
    static = {}
    fresh, cached = np.empty(hyper.state_dim), np.empty(hyper.state_dim)
    for now in (12.5, 40.0, 1e6):
        encode_state(queue[:3], 4, 5, 16, now, hyper, {}, fresh)
        encode_state(queue[:3], 4, 5, 16, now, hyper, static, cached)
        assert fresh.tobytes() == cached.tobytes()
    assert sorted(static) == [1, 2, 3]
    assert static[2] == (0.08, 2 / 16, 0.03)


def test_fit_mask():
    mask = fit_mask([True, False], slots=3)
    assert mask == [True, False, False, True]   # pass always valid


def test_visible_window_is_the_first_slots_ready_jobs():
    state = new_cluster(16, [make_job(i + 1, procs=p)
                             for i, p in enumerate([8, 2, 16, 1, 1])])
    state.free_procs = 8
    assert visible_window(state, 3) is None        # nothing has arrived
    for job in state.arrivals:
        state.ready[job.id] = job
    window, fits = visible_window(state, 3)
    assert [j.id for j in window] == [1, 2, 3]
    assert fits == [True, True, False]
    state.free_procs = 1
    assert visible_window(state, 3) is None        # job 4 fits, unseen
    window, fits = visible_window(state, 5)
    assert fits == [False, False, False, True, True]


@pytest.mark.parametrize("free, arrived", [(0, True), (16, False)],
                         ids=["no-free-processor", "empty-ready-set"])
def test_selector_without_a_choice_returns_none(free, arrived):
    sim = Simulation([make_job(i + 1, procs=1) for i in range(3)], 16)
    state = sim.state
    if arrived:
        for job in state.arrivals:
            state.ready[job.id] = job
    state.free_procs = free
    rng, traj = np.random.default_rng(0), EpisodeTrajectory()
    before = rng.bit_generator.state
    selector = MarsAgent(SMALL).make_selector(rng, traj=traj)
    assert selector(state) is None
    assert len(traj) == 0
    assert rng.bit_generator.state == before


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


# -- the policy step -----------------------------------------------------------

def test_select_action_respects_mask():
    rng = np.random.default_rng(0)
    hyper = SMALL
    net = new_model(hyper).actor
    state = rng.normal(size=(1, hyper.state_dim))
    mask = [True, False, True, False, True]
    seen = set()
    for _ in range(200):
        action = select_action(net, state, mask, rng)
        assert mask[action]
        seen.add(action)
    assert seen == {0, 2, 4}


def masked_distributions(seed):
    """300 masked logit vectors per seed: mild, sharp and extreme logits
    (at scale 700 every entry but the largest underflows to 0), ties, and
    every seventh with a single valid action."""
    source = np.random.default_rng(1000 + seed)
    for trial in range(300):
        n = int(source.integers(1, 34))
        logits = source.normal(size=n) * (1.0, 30.0, 700.0)[trial % 3]
        if trial % 5 == 0:
            logits = np.round(logits)
        mask = source.random(n) < 0.5
        if trial % 7 == 0:
            mask[:] = False
        mask[source.integers(n)] = True
        yield logits, mask


@pytest.mark.parametrize("mode", ["sampled", "greedy", "greedy-cost"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_select_action_matches_oracle(seed, mode):
    # the step against softmax + Generator.choice (or argmax), sharing the
    # seed, so that every draw and the generator state after it must agree
    greedy = mode != "sampled"
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    costs = np.random.default_rng(2000 + seed)
    for trial, (logits, mask) in enumerate(masked_distributions(seed)):
        factors, weight = None, 0.0
        if mode == "greedy-cost":
            factors = costs.uniform(1e-4, 1.0, size=len(logits))
            weight = float(costs.uniform(0.1, 3.0))
            if trial % 11 == 0:
                factors[mask] = 0.0        # zeroes every valid action
        action = select_action(logit_network(logits), np.ones((1, 1)),
                               mask.tolist(), ours, greedy=greedy,
                               cost_factors=factors, cost_weight=weight)
        assert action == oracle_action(logits, mask, theirs, greedy=greedy,
                                       cost_factors=factors,
                                       cost_weight=weight)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_select_action_cost_weight_zero_ignores_factors():
    rng = np.random.default_rng(4)
    for logits, mask in masked_distributions(0):
        factors = rng.uniform(1e-4, 1.0, size=len(logits))
        net = logit_network(logits)
        plain = select_action(net, np.ones((1, 1)), mask.tolist(), rng,
                              greedy=True)
        assert select_action(net, np.ones((1, 1)), mask.tolist(), rng,
                             greedy=True, cost_factors=factors,
                             cost_weight=0.0) == plain


def test_select_action_rejects_nan_distribution():
    p = np.array([0.5, np.nan, 0.5])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(3, p=p)
    net = new_model(SMALL).actor
    net.layers[0].weights[:] = np.nan
    with pytest.raises(ValueError):
        select_action(net, np.ones((1, SMALL.state_dim)),
                      [True] * SMALL.action_dim, np.random.default_rng(0))


def test_select_action_greedy_is_argmax():
    rng = np.random.default_rng(1)
    hyper = SMALL
    net = new_model(hyper).actor
    state = rng.normal(size=(1, hyper.state_dim))
    mask = [True] * hyper.action_dim
    action = select_action(net, state, mask, rng, greedy=True)
    assert action == int(np.argmax(neural.predict(net, state)[0]))


def c08_trace(seed):
    return generate_synthetic(SyntheticConfig(
        job_count=512, arrival_rate=0.014, seed=seed, **RL_MIX))


@pytest.mark.parametrize("cost_weight", [0.0, 0.1])
@pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
@pytest.mark.parametrize("config", [RL_EVAL, 101, 102, 103],
                         ids=["rl-eval", "c08-101", "c08-102", "c08-103"])
def test_run_collect_matches_oracle_selector(config, greedy, cost_weight):
    # a whole episode of the agent's selector against one that decides by
    # whole-array arithmetic: the same states, masks, actions and schedule
    trace = (c08_trace(config) if isinstance(config, int)
             else generate_synthetic(config))
    agent = MarsAgent(Hyperparameters(seed=7, cost_weight=cost_weight,
                                      time_norm=3600.0))
    schedule, traj, _, _ = agent.run_collect(
        trace.jobs, trace.total_procs, rng=np.random.default_rng(9),
        greedy=greedy, record=True)
    steps = []
    want = Simulation(trace.jobs, trace.total_procs).run(
        oracle_selector(agent, np.random.default_rng(9), steps,
                        greedy=greedy))
    assert len(traj) == len(steps) > 0
    assert np.array_equal(traj.states, np.stack([s for s, _, _ in steps]))
    assert np.array_equal(np.array(traj.masks),
                          np.stack([m for _, m, _ in steps]))
    assert traj.actions == [a for _, _, a in steps]
    for column in ("id", "submit", "start", "run", "procs"):
        assert np.array_equal(getattr(schedule, column),
                              getattr(want, column))


def test_trajectory_rows_grow_and_keep_every_state():
    traj = EpisodeTrajectory()
    rows = np.arange(600 * 3, dtype=float).reshape(600, 3)
    for i, row in enumerate(rows):
        # the selector passes a batch of one row, the tests a row
        traj.add_step(row[None, :] if i % 2 else row, i % 3,
                      [True] * 3, np.zeros(3))
    assert len(traj) == 600
    assert traj.states.shape == (600, 3)
    assert np.array_equal(traj.states, rows)


# -- rewards and advantages --------------------------------------------------

def test_episode_reward_is_minus_mean_bounded():
    from helpers import make_schedule
    schedule = make_schedule([(1, 0, 0, 10),     # bounded slowdown 1
                              (2, 0, 90, 10)])   # bounded slowdown 10
    assert episode_reward(schedule, tau=10.0) == -5.5
    with pytest.raises(ValueError):
        episode_reward(make_schedule([]))


def test_compute_advantages_hand_case():
    traj = EpisodeTrajectory()
    s = np.zeros(4)
    m = np.ones(3, dtype=bool)
    c = np.zeros(3)
    traj.add_step(s, 0, m, c)
    traj.add_step(s, 1, m, c)
    traj.finalize(-5.0)
    adv, targets = compute_advantages(traj, [-14.0, -10.0], gamma=1.0)
    # t=0: 0 + v(s1) - v(s0) = -10 + 14 = 4; t=1: -5 + 0 + 10 = 5
    assert targets.tolist() == [-10.0, -5.0]
    assert adv.tolist() == [4.0, 5.0]


def test_compute_advantages_requires_terminal():
    traj = EpisodeTrajectory()
    traj.add_step(np.zeros(2), 0, np.ones(2, dtype=bool), np.zeros(2))
    with pytest.raises(ContractError):
        compute_advantages(traj, [0.0], 1.0)


# -- gradient oracles ----------------------------------------------------------

def frozen_values(model, traj):
    """Critic values at the current parameters, held fixed while the finite
    differences perturb them (the TD targets are not differentiated)."""
    return [float(forward(model.critic, s[None, :])[0][0, 0])
            for s in traj.states]


def surrogate_actor_loss(model, traj, hyper, values):
    """The scalar whose actor gradient episode_gradients claims to return."""
    advantages, _ = compute_advantages(traj, values, hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    weights = eye * advantages
    total = 0.0
    for t in range(len(traj)):
        logits = forward(model.actor, traj.states[t][None, :])[0][0]
        p = softmax(np.where(traj.masks[t], logits, -np.inf))
        total += -weights[t] * float(np.log(p[traj.actions[t]]))
        if hyper.cost_weight > 0:
            total += hyper.cost_weight * float((p * traj.cost_norms[t]).sum())
    return total


def surrogate_critic_loss(model, traj, hyper, values):
    _, targets = compute_advantages(traj, values, hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    total = 0.0
    for t in range(len(traj)):
        v = forward(model.critic, traj.states[t][None, :])[0][0, 0]
        total += 0.5 * eye[t] * (float(v) - targets[t]) ** 2
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
    values = frozen_values(agent.model, traj)
    fd_actor = finite_difference(
        lambda: surrogate_actor_loss(agent.model, traj, hyper, values),
        agent.model.actor.parameters())
    fd_critic = finite_difference(
        lambda: surrogate_critic_loss(agent.model, traj, hyper, values),
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


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# (hidden, gamma) of the update cases
UPDATE_SHAPES = [((8,), 1.0), ((64, 64), 1.0), ((16, 32, 8), 0.95)]


@pytest.mark.parametrize("steps", [1, 2, 37, 700])
@pytest.mark.parametrize("hidden,gamma", UPDATE_SHAPES)
@pytest.mark.parametrize("cost_weight", [0.0, 0.5])
def test_episode_gradients_equal_out_of_place_oracle(steps, hidden, gamma,
                                                     cost_weight):
    hyper = Hyperparameters(slots=6, hidden=hidden, gamma=gamma,
                            cost_weight=cost_weight, seed=steps)
    model = new_model(hyper)
    traj = random_trajectory(hyper, steps, np.random.default_rng(steps))
    actor, critic, diag = episode_gradients(model, traj, hyper)
    want_actor, want_critic, want_diag = oracle_episode_gradients(
        model, traj, hyper)
    assert_same_bits(actor, want_actor)
    assert_same_bits(critic, want_critic)
    assert diag == want_diag


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cost_weight", [0.0, 0.5])
@pytest.mark.parametrize("steps,hidden", [(50, (8,)), (700, (64, 64)),
                                          (4000, (64, 64))])
def test_actor_critic_step_equals_out_of_place_oracle(monkeypatch, workers,
                                                      cost_weight, steps,
                                                      hidden):
    # two steps, so the second reads the Adam moments of the first; the
    # episodes of one batch differ in length
    hyper = Hyperparameters(hidden=hidden, cost_weight=cost_weight, seed=4,
                            workers=workers)
    rng = np.random.default_rng(steps)
    batches = [[random_trajectory(hyper, steps - 7 * w, rng)
                for w in range(workers)] for _ in range(2)]
    mine, oracle = new_model(hyper), new_model(hyper)
    for trajs in batches:
        assert not actor_critic_step(mine, trajs, hyper)["aborted"]
    monkeypatch.setattr(agent_module, "episode_gradients",
                        oracle_episode_gradients)
    for trajs in batches:
        assert not actor_critic_step(oracle, trajs, hyper)["aborted"]
    for net in ("actor", "critic"):
        assert_same_bits(getattr(mine, net).parameters(),
                         getattr(oracle, net).parameters())
        adam, want = getattr(mine, f"{net}_adam"), getattr(oracle, f"{net}_adam")
        assert adam.t == want.t == 2
        assert_same_bits(adam.m + adam.v, want.m + want.v)


def test_episode_gradients_peak_memory():
    # the critic's activations are consumed before the actor's forward, and
    # backward works in the cached buffers: the out-of-place update peaked
    # at about 8 arrays of steps x hidden floats, this one at about 4
    steps, width = 4000, 64
    hyper = Hyperparameters(hidden=(width, width))
    model = new_model(hyper)
    traj = random_trajectory(hyper, steps, np.random.default_rng(0))
    tracemalloc.start()
    try:
        episode_gradients(model, traj, hyper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * steps * width * 8


# -- the actor-critic step: bandit learning and abort ------------------------

def bandit_episode(model, hyper, state, rng):
    """One-step episode against a two-armed bandit in the agent's shapes."""
    mask = np.zeros(hyper.action_dim, dtype=bool)
    mask[:2] = True
    traj = EpisodeTrajectory()
    action = select_action(model.actor, state, mask, rng)
    traj.add_step(state, action, mask, np.zeros(hyper.action_dim))
    traj.finalize(-1.0 if action == 0 else -10.0)
    return traj


def test_bandit_prefers_better_arm_after_500_updates():
    hyper = Hyperparameters(slots=2, hidden=(8,), actor_lr=0.05,
                            critic_lr=0.1, seed=0)
    model = new_model(hyper)
    state = np.zeros((1, hyper.state_dim))
    rng = np.random.default_rng(11)
    for _ in range(500):
        traj = bandit_episode(model, hyper, state, rng)
        diag = actor_critic_step(model, [traj], hyper)
        assert not diag["aborted"]
    mask = np.zeros(hyper.action_dim, dtype=bool)
    mask[:2] = True
    assert select_action(model.actor, state, mask, rng, greedy=True) == 0
    logits = neural.predict(model.actor, state)[0]
    assert softmax(np.where(mask, logits, -np.inf))[0] > 0.9


def test_actor_critic_update_abort_restores_parameters():
    hyper = Hyperparameters(slots=2, hidden=(4,), seed=5)
    model = new_model(hyper)
    good = np.zeros(hyper.state_dim)
    bad = np.full(hyper.state_dim, np.nan)
    mask = np.ones(hyper.action_dim, dtype=bool)

    def episode(*states):
        traj = EpisodeTrajectory()
        for i, s in enumerate(states):
            traj.add_step(s, i % 2, mask, np.zeros(hyper.action_dim))
        traj.finalize(-2.0)
        return traj

    # one good step first, so the Adam moments are nonzero when the
    # aborted step would have touched them
    assert not actor_critic_step(model, [episode(good)], hyper)["aborted"]
    before = model.snapshot()
    # the NaN state poisons the critic gradient of its own step and the TD
    # error of the step before it; the finite first episode of the batch
    # must not be applied either
    diag = actor_critic_step(
        model, [episode(good), episode(good, good + 0.1, bad)], hyper)
    assert diag["aborted"]
    for a, b in zip(model.actor.parameters(), before["actor"]):
        assert np.array_equal(a, b)
    for a, b in zip(model.critic.parameters(), before["critic"]):
        assert np.array_equal(a, b)
    for adam, kept in ((model.actor_adam, before["actor_adam"]),
                       (model.critic_adam, before["critic_adam"])):
        assert adam.t == kept.t == 1
        for a, b in zip(adam.m + adam.v, kept.m + kept.v):
            assert np.array_equal(a, b)


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


def _model_arrays(model):
    return (model.actor.parameters() + model.critic.parameters()
            + model.actor_adam.m + model.actor_adam.v
            + model.critic_adam.m + model.critic_adam.v)


def test_save_load_round_trip(tmp_path):
    hyper = SMALL
    trace = small_trace(seed=2, jobs=20)
    model = train(lambda w, e: (trace.jobs, trace.total_procs),
                  hyper)[0].model
    # every parameter and Adam moment starts with negative zero, a
    # subnormal and a value near the float limit, as far as its size allows
    for a in _model_arrays(model):
        k = min(3, a.size)
        a.reshape(-1)[:k] = [-0.0, 5e-324, 1e308][:k]
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.format_version == 2
    assert loaded.epoch == hyper.epochs
    assert loaded.hyper == hyper
    assert loaded.actor_adam.t == model.actor_adam.t == hyper.epochs
    pairs = list(zip(_model_arrays(model), _model_arrays(loaded)))
    assert len(pairs) == 24
    for a, b in pairs:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
    for text in ("not json", "[]"):
        path.write_text(text)
        with pytest.raises(ModelFormatError):
            load_model(path)


@pytest.mark.parametrize("problem, edit", [
    ("unknown hyper key(s): bogus", lambda p: p["hyper"].update(bogus=1)),
    ("missing hyper key(s): slots", lambda p: p["hyper"].pop("slots")),
    ("hyper is not a mapping", lambda p: p.update(hyper=[1, 2])),
    ("malformed field", lambda p: p.update(epoch="two")),
    ("bad network payload: unknown activation 'sigmoid'",
     lambda p: p["actor"]["layers"][0].update(activation="sigmoid")),
    ("expected an encoded array (shape and data), got list",
     lambda p: p["critic_adam"]["v"].__setitem__(0, [[0.0]])),
    ("actor parameter holds a value that is not finite",
     lambda p: p["actor"]["layers"][0].update(
         bias=neural.encode_array(np.full(8, np.nan)))),
    ("critic Adam m holds a value that is not finite",
     lambda p: p["critic_adam"]["m"].__setitem__(
         0, neural.encode_array(np.full((SMALL.state_dim, 8), np.inf))))],
    ids=["unknown-key", "missing-key", "not-a-mapping", "malformed",
         "activation", "list-in-format-2", "nan-bias", "inf-adam"])
def test_load_model_rejects_bad_payload(tmp_path, problem, edit):
    import json
    path = tmp_path / "m.json"
    save_model(path, new_model(SMALL))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"{path}: {problem}")):
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


def test_greedy_evaluation_deterministic():
    agent = MarsAgent(SMALL)
    trace = small_trace(seed=6, jobs=25)
    a, ra = agent.evaluate(trace.jobs, trace.total_procs, seed=0)
    b, rb = agent.evaluate(trace.jobs, trace.total_procs, seed=99)
    # greedy ignores the rng: identical schedules either way
    assert ra == rb
    assert a.id.tolist() == b.id.tolist()
    assert a.start.tolist() == b.start.tolist()


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


@pytest.mark.parametrize("error", [RuntimeError, OSError, ContractError])
def test_train_does_not_retry_contract_errors(error):
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=2, seed=0)
    calls = {"n": 0}

    def failing_env(w, e):
        calls["n"] += 1
        raise error("environment failure")

    with pytest.raises(error):
        train(failing_env, hyper)
    assert calls["n"] == 1                  # propagated on the first attempt


def test_hyperparameter_validation():
    with pytest.raises(ConfigError):
        Hyperparameters(gamma=0.0)
    with pytest.raises(ConfigError):
        Hyperparameters(slots=0)
    with pytest.raises(ConfigError):
        Hyperparameters(cost_weight=-1)
    with pytest.raises(ConfigError):
        Hyperparameters(hidden=())
