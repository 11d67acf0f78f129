"""Actor-critic scheduling agent.

State: a fixed window of the dependency-ready queue (slots x 4 job features,
zero-padded) plus two cluster features. Actions: start the job in one visible
slot, or pass. Rewards: 0 every step, minus the average bounded slowdown at
episode end, so maximizing reward minimizes the headline metric.

Cost handling is two-sided: at evaluation time the post-softmax probabilities
are multiplied by Gaussian-survival cost factors raised to the cost weight
(cheap jobs get factors near 1); during training the same weight scales a
penalty gradient on the expected normalized cost of the chosen action. Weight
0 disables both and recovers the plain actor-critic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics, neural
from .errors import ConfigError, ContractError, ModelFormatError
from .metrics import DEFAULT_TAU
from .neural import AdamState, Network, backward, forward, softmax
from .simulator import ClusterState, RunStats, Simulation, ready_jobs
from .workload import Job

FEATURES_PER_JOB = 4      # w_t, r_t, n_t, cost_rate, each normalized
CLUSTER_FEATURES = 2      # free fraction, queue pressure


@dataclass(frozen=True)
class Hyperparameters:
    gamma: float = 1.0            # terminal-only reward; 1.0 keeps it undiscounted
    actor_lr: float = 1e-3
    critic_lr: float = 1e-2
    slots: int = 16
    epochs: int = 200
    workers: int = 1
    cost_weight: float = 0.0
    ppo: bool = False
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    validate_every: int = 50
    rollback_patience: int = 3
    tau: float = DEFAULT_TAU
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    time_norm: float = 86400.0    # one day caps the w_t / r_t features
    cost_norm: float = 10.0

    def validate(self) -> None:
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError("gamma must be in (0, 1]")
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise ConfigError("step sizes must be > 0")
        if self.slots < 1:
            raise ConfigError("slots must be >= 1")
        if self.epochs < 0 or self.workers < 1:
            raise ConfigError("epochs must be >= 0 and workers >= 1")
        if self.cost_weight < 0:
            raise ConfigError("cost_weight must be >= 0")
        if self.validate_every < 1 or self.rollback_patience < 1:
            raise ConfigError("validate_every and rollback_patience must be >= 1")
        if self.tau <= 0 or self.time_norm <= 0 or self.cost_norm <= 0:
            raise ConfigError("tau and normalization constants must be > 0")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden layer sizes must be >= 1")
        if not (0 < self.ppo_clip < 1) or self.ppo_epochs < 1:
            raise ConfigError("ppo_clip must be in (0,1), ppo_epochs >= 1")

    @property
    def state_dim(self) -> int:
        return self.slots * FEATURES_PER_JOB + CLUSTER_FEATURES

    @property
    def action_dim(self) -> int:
        return self.slots + 1     # one per slot plus pass


def encode_state(queue: list[Job], free_procs: int, total_procs: int,
                 now: float, hyper: Hyperparameters) -> np.ndarray:
    """Fixed-length state vector; slots beyond the queue stay zero.

    Job features are clipped to [0, 1]: waiting and requested time by
    time_norm, processors by the machine size, cost rate by cost_norm. Jobs
    past the window are invisible this step (they enter as slots free up);
    the queue-pressure cluster feature is their only trace.
    """
    vec = np.zeros(hyper.state_dim)
    for i, job in enumerate(queue[:hyper.slots]):
        base = i * FEATURES_PER_JOB
        wait = max(now - job.submit_time, 0.0)
        vec[base + 0] = min(wait / hyper.time_norm, 1.0)
        vec[base + 1] = min(job.requested_time / hyper.time_norm, 1.0)
        vec[base + 2] = min(job.requested_procs / total_procs, 1.0)
        vec[base + 3] = min(job.cost_rate / hyper.cost_norm, 1.0)
    vec[-2] = free_procs / total_procs
    vec[-1] = min(len(queue) / hyper.slots, 1.0)
    return vec


def fit_mask(queue: list[Job], free_procs: int, slots: int) -> np.ndarray:
    """Validity mask over slot actions plus the always-valid pass action."""
    mask = np.zeros(slots + 1, dtype=bool)
    for i, job in enumerate(queue[:slots]):
        mask[i] = job.requested_procs <= free_procs
    mask[slots] = True
    return mask


def slot_cost_factors(queue: list[Job], slots: int) -> np.ndarray:
    """Gaussian-survival cost factors per action; cheaper jobs near 1.

    Slot cost is cost_rate * procs * requested_time, z-scored over the
    visible slots and mapped through the standard normal survival function.
    Empty slots and the pass action get the neutral factor 1.
    """
    factors = np.ones(slots + 1)
    visible = queue[:slots]
    if not visible:
        return factors
    costs = np.array([j.cost_rate * j.requested_procs * j.requested_time
                      for j in visible])
    std = float(np.std(costs))
    z = (costs - np.mean(costs)) / std if std > 0 else np.zeros_like(costs)
    for i in range(len(visible)):
        factors[i] = 0.5 * math.erfc(z[i] / math.sqrt(2.0))
    return factors


@dataclass
class CostAdjustStats:
    fallbacks: int = 0


def apply_cost_adjustment(probs: np.ndarray, cost_factors: np.ndarray,
                          weight: float,
                          stats: CostAdjustStats | None = None) -> np.ndarray:
    """Multiply probabilities by cost factors ** weight and renormalize.

    Weight 0 returns the input untouched (exact identity). A degenerate
    all-zero product falls back to the unadjusted distribution and bumps the
    fallback counter.
    """
    if weight == 0:
        return probs
    adjusted = probs * np.power(cost_factors, weight)
    total = adjusted.sum()
    if total <= 0 or not np.isfinite(total):
        if stats is not None:
            stats.fallbacks += 1
        return probs.copy()
    return adjusted / total


def select_action(net: Network, state: np.ndarray, valid_mask: np.ndarray,
                  rng: np.random.Generator, *, greedy: bool = False,
                  cost_factors: np.ndarray | None = None,
                  cost_weight: float = 0.0,
                  cost_stats: CostAdjustStats | None = None
                  ) -> tuple[int, float, np.ndarray]:
    """Sample (or argmax) an action from the masked softmax policy.

    Invalid actions get -inf logits, hence probability exactly 0. Returns
    (action index, log-probability under the sampled distribution, probs).
    """
    logits, _ = forward(net, state)
    masked = np.where(valid_mask, logits, -np.inf)
    probs = softmax(masked)
    if cost_factors is not None and cost_weight > 0:
        probs = apply_cost_adjustment(probs, cost_factors, cost_weight,
                                      cost_stats)
    if greedy:
        action = int(np.argmax(probs))
    else:
        action = int(rng.choice(len(probs), p=probs / probs.sum()))
    return action, float(np.log(probs[action])), probs


@dataclass
class EpisodeTrajectory:
    states: list[np.ndarray] = field(default_factory=list)
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    log_probs: list[float] = field(default_factory=list)
    masks: list[np.ndarray] = field(default_factory=list)
    cost_norms: list[np.ndarray] = field(default_factory=list)
    terminal: bool = False

    def __len__(self) -> int:
        return len(self.states)

    def add_step(self, state: np.ndarray, action: int, value: float,
                 log_prob: float, mask: np.ndarray,
                 cost_norm: np.ndarray) -> None:
        self.states.append(state)
        self.actions.append(action)
        self.values.append(value)
        self.log_probs.append(log_prob)
        self.masks.append(mask)
        self.cost_norms.append(cost_norm)

    def finalize(self, terminal_reward: float) -> None:
        """Intra-episode rewards are 0; the last step carries the -ABS reward."""
        n = len(self.states)
        self.rewards = [0.0] * n
        if n:
            self.rewards[-1] = terminal_reward
        self.terminal = True


def episode_reward(jobs, tau: float = DEFAULT_TAU) -> float:
    """Minus the mean bounded slowdown of the finished jobs."""
    jobs = list(jobs)
    if not jobs:
        raise ValueError("episode reward needs at least one finished job")
    return -float(np.mean(metrics.bounded_slowdowns(jobs, tau)))


def compute_advantages(traj: EpisodeTrajectory,
                       gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """A_t = r_{t+1} + gamma * v(s_{t+1}) - v(s_t), terminal value 0.

    Also returns the critic targets r_{t+1} + gamma * v(s_{t+1}).
    """
    if not traj.terminal:
        raise ContractError("trajectory is incomplete (no terminal reward)")
    n = len(traj)
    values = np.asarray(traj.values, dtype=float)
    rewards = np.asarray(traj.rewards, dtype=float)
    next_values = np.zeros(n)
    if n > 1:
        next_values[:-1] = values[1:]
    targets = rewards + gamma * next_values
    return targets - values, targets


# -- model bundle and versioning ------------------------------------------

MODEL_FORMAT_VERSION = 1


@dataclass
class AgentModel:
    actor: Network
    critic: Network
    actor_adam: AdamState
    critic_adam: AdamState
    hyper: Hyperparameters
    epoch: int = 0

    def snapshot(self) -> dict:
        """In-memory copy of everything rollback must restore."""
        return {
            "actor": self.actor.copy_parameters(),
            "critic": self.critic.copy_parameters(),
            "actor_adam": self.actor_adam.copy(),
            "critic_adam": self.critic_adam.copy(),
            "epoch": self.epoch,
        }

    def restore(self, snap: dict) -> None:
        self.actor.set_parameters(snap["actor"])
        self.critic.set_parameters(snap["critic"])
        self.actor_adam = snap["actor_adam"].copy()
        self.critic_adam = snap["critic_adam"].copy()
        self.epoch = snap["epoch"]


def new_model(hyper: Hyperparameters,
              rng: np.random.Generator | None = None) -> AgentModel:
    hyper.validate()
    rng = rng if rng is not None else np.random.default_rng(hyper.seed)
    dims_a = [hyper.state_dim, *hyper.hidden, hyper.action_dim]
    dims_c = [hyper.state_dim, *hyper.hidden, 1]
    actor = neural.init_network(dims_a, rng=rng)
    critic = neural.init_network(dims_c, rng=rng)
    return AgentModel(
        actor=actor, critic=critic,
        actor_adam=AdamState.for_params(actor.parameters(), alpha=hyper.actor_lr),
        critic_adam=AdamState.for_params(critic.parameters(), alpha=hyper.critic_lr),
        hyper=hyper,
    )


def hyper_to_dict(h: Hyperparameters) -> dict:
    d = dict(h.__dict__)
    d["hidden"] = list(h.hidden)
    return d


def hyper_from_dict(d: dict) -> Hyperparameters:
    d = dict(d)
    d["hidden"] = tuple(d.get("hidden", (64, 64)))
    return Hyperparameters(**d)


def save_model(path, model: AgentModel) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyper": hyper_to_dict(model.hyper),
        "epoch": model.epoch,
        "actor": neural.net_to_dict(model.actor),
        "critic": neural.net_to_dict(model.critic),
        "actor_adam": neural.adam_to_dict(model.actor_adam),
        "critic_adam": neural.adam_to_dict(model.critic_adam),
    }
    with open(path, "w") as fp:
        json.dump(payload, fp, indent=1)
        fp.write("\n")


def load_model(path) -> AgentModel:
    with open(path) as fp:
        try:
            payload = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not a model file ({exc})") from exc
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported model format version {version!r} "
            f"(this build reads version {MODEL_FORMAT_VERSION})")
    try:
        hyper = hyper_from_dict(payload["hyper"])
        model = AgentModel(
            actor=neural.net_from_dict(payload["actor"]),
            critic=neural.net_from_dict(payload["critic"]),
            actor_adam=neural.adam_from_dict(payload["actor_adam"]),
            critic_adam=neural.adam_from_dict(payload["critic_adam"]),
            hyper=hyper,
            epoch=int(payload["epoch"]),
        )
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"{path}: missing field {exc}") from exc
    hyper.validate()
    return model


@dataclass
class VersionEntry:
    payload: dict
    reward: float


class ModelVersions:
    """Retains the current and two prior validated models (G_m, G_m-1, G_m-2).

    record() rotates a new validated model in; after `patience` consecutive
    validations scoring below the then-previous version, it hands back the
    previous version's payload for bit-exact restoration.
    """

    def __init__(self, patience: int = 3):
        if patience < 1:
            raise ConfigError("rollback patience must be >= 1")
        self.patience = patience
        self.entries: list[VersionEntry] = []
        self.consecutive_negative = 0
        self.rollbacks = 0

    def record(self, payload: dict, reward: float) -> dict | None:
        self.entries.insert(0, VersionEntry(payload, reward))
        del self.entries[3:]
        if len(self.entries) < 2:
            self.consecutive_negative = 0
            return None
        previous = self.entries[1]
        if reward < previous.reward:
            self.consecutive_negative += 1
        else:
            self.consecutive_negative = 0
        if self.consecutive_negative >= self.patience:
            self.entries = self.entries[1:]
            self.consecutive_negative = 0
            self.rollbacks += 1
            return self.entries[0].payload
        return None

    @property
    def current(self) -> VersionEntry | None:
        return self.entries[0] if self.entries else None


# -- updates ---------------------------------------------------------------

def _one_hot(actions: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((len(actions), width))
    out[np.arange(len(actions)), actions] = 1.0
    return out


def _masked_probs(net: Network, states: np.ndarray, masks: np.ndarray):
    logits, cache = forward(net, states)
    masked = np.where(masks, logits, -np.inf)
    return softmax(masked), cache


def _entropy(probs: np.ndarray) -> float:
    p = probs[probs > 0]
    return float(-(p * np.log(p)).sum() / len(probs))


def _zero_grads(net: Network) -> list[np.ndarray]:
    return [np.zeros_like(p) for p in net.parameters()]


def actor_critic_update(model: AgentModel, traj: EpisodeTrajectory,
                        hyper: Hyperparameters) -> dict:
    """Per-step TD updates over one episode, each routed through Adam.

    Step order: delta from the current critic, critic ascends I*delta*grad v,
    actor ascends I*delta*grad log pi plus the cost-penalty term, then I is
    discounted. A nonfinite delta aborts the episode and restores the
    parameters and optimizer state from before the episode.
    """
    if not traj.terminal:
        raise ContractError("trajectory is incomplete (no terminal reward)")
    snap = model.snapshot()
    deltas = []
    eye = 1.0
    n = len(traj)
    for t in range(n):
        s = traj.states[t]
        v_s, cache_c = forward(model.critic, s)
        if t + 1 < n:
            v_next, _ = forward(model.critic, traj.states[t + 1])
            v_next = float(v_next[0])
        else:
            v_next = 0.0
        delta = traj.rewards[t] + hyper.gamma * v_next - float(v_s[0])
        if not math.isfinite(delta):
            model.restore(snap)
            return {"aborted": True, "steps": t, "delta_mean": float("nan"),
                    "entropy": float("nan")}
        deltas.append(delta)

        critic_grads = backward(model.critic, cache_c,
                                np.array([-eye * delta]))
        neural.apply_adam(model.critic, critic_grads, model.critic_adam)

        probs, cache_a = _masked_probs(model.actor, s[None, :],
                                       traj.masks[t][None, :])
        one_hot = _one_hot(np.array([traj.actions[t]]), hyper.action_dim)
        dlogits = -eye * delta * (one_hot - probs)
        if hyper.cost_weight > 0:
            c = traj.cost_norms[t][None, :]
            expected = (probs * c).sum(axis=-1, keepdims=True)
            dlogits = dlogits + hyper.cost_weight * probs * (c - expected)
        actor_grads = backward(model.actor, cache_a, dlogits)
        neural.apply_adam(model.actor, actor_grads, model.actor_adam)

        eye *= hyper.gamma
    return {"aborted": False, "steps": n,
            "delta_mean": float(np.mean(deltas)) if deltas else 0.0,
            "entropy": float("nan")}


def episode_gradients(model: AgentModel, traj: EpisodeTrajectory,
                      hyper: Hyperparameters
                      ) -> tuple[list[np.ndarray], list[np.ndarray], dict]:
    """Summed per-step gradients of one episode at frozen parameters.

    This is the synchronous-aggregation path: the TD errors use the critic
    values recorded while the episode ran (parameters are frozen within an
    epoch), so summing step terms and applying one optimizer update is
    equivalent to Algorithm-1 step order under a fixed parameter snapshot.
    Returned gradients are minimization-signed for Adam.
    """
    diag = {"steps": len(traj), "delta_mean": 0.0, "entropy": 0.0, "reward": 0.0}
    if len(traj) == 0:
        return _zero_grads(model.actor), _zero_grads(model.critic), diag
    advantages, targets = compute_advantages(traj, hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    weights = eye * advantages

    states = np.stack(traj.states)
    masks = np.stack(traj.masks)
    actions = np.asarray(traj.actions)

    probs, cache_a = _masked_probs(model.actor, states, masks)
    dlogits = -weights[:, None] * (_one_hot(actions, hyper.action_dim) - probs)
    if hyper.cost_weight > 0:
        c = np.stack(traj.cost_norms)
        expected = (probs * c).sum(axis=-1, keepdims=True)
        dlogits = dlogits + hyper.cost_weight * probs * (c - expected)
    actor_grads = backward(model.actor, cache_a, dlogits)

    values, cache_c = forward(model.critic, states)
    critic_grads = backward(model.critic, cache_c,
                            (eye * (values[:, 0] - targets))[:, None])

    diag["delta_mean"] = float(np.mean(advantages))
    diag["entropy"] = _mean_entropy(probs)
    return actor_grads, critic_grads, diag


def _mean_entropy(probs: np.ndarray) -> float:
    safe = np.where(probs > 0, probs, 1.0)
    return float(np.mean(-(probs * np.log(safe)).sum(axis=-1)))


def ppo_update(model: AgentModel, trajs: list[EpisodeTrajectory],
               hyper: Hyperparameters) -> dict:
    """Clipped-surrogate updates over a batch of trajectories.

    Shares the advantage machinery with the actor-critic path; runs
    ppo_epochs passes of one Adam step each over the whole batch.
    """
    usable = [t for t in trajs if len(t) > 0]
    if not usable:
        return {"steps": 0, "delta_mean": 0.0, "entropy": 0.0}
    adv_list, tgt_list = [], []
    for t in usable:
        adv, tgt = compute_advantages(t, hyper.gamma)
        adv_list.append(adv)
        tgt_list.append(tgt)
    advantages = np.concatenate(adv_list)
    targets = np.concatenate(tgt_list)
    states = np.concatenate([np.stack(t.states) for t in usable])
    masks = np.concatenate([np.stack(t.masks) for t in usable])
    actions = np.concatenate([np.asarray(t.actions) for t in usable])
    old_logp = np.concatenate([np.asarray(t.log_probs) for t in usable])
    costs = np.concatenate([np.stack(t.cost_norms) for t in usable])
    n = len(actions)

    entropy = 0.0
    for _ in range(hyper.ppo_epochs):
        probs, cache_a = _masked_probs(model.actor, states, masks)
        new_logp = np.log(probs[np.arange(n), actions])
        ratio = np.exp(new_logp - old_logp)
        clipped_out = ((advantages >= 0) & (ratio > 1 + hyper.ppo_clip)) | \
                      ((advantages < 0) & (ratio < 1 - hyper.ppo_clip))
        coef = np.where(clipped_out, 0.0, ratio * advantages) / n
        dlogits = -coef[:, None] * (_one_hot(actions, hyper.action_dim) - probs)
        if hyper.cost_weight > 0:
            expected = (probs * costs).sum(axis=-1, keepdims=True)
            dlogits = dlogits + hyper.cost_weight * probs * (costs - expected) / n
        neural.apply_adam(model.actor, backward(model.actor, cache_a, dlogits),
                          model.actor_adam)

        values, cache_c = forward(model.critic, states)
        dv = ((values[:, 0] - targets) / n)[:, None]
        neural.apply_adam(model.critic, backward(model.critic, cache_c, dv),
                          model.critic_adam)
        entropy = _mean_entropy(probs)
    return {"steps": n, "delta_mean": float(np.mean(advantages)),
            "entropy": entropy}


# -- the agent --------------------------------------------------------------

class MarsAgent:
    """Owns the model and exposes selectors for the simulator."""

    label = "rl"

    def __init__(self, hyper: Hyperparameters | None = None,
                 model: AgentModel | None = None):
        if model is not None:
            self.model = model
            self.hyper = model.hyper
        else:
            self.hyper = hyper if hyper is not None else Hyperparameters()
            self.hyper.validate()
            self.model = new_model(self.hyper)
        self.cost_stats = CostAdjustStats()

    def make_selector(self, rng: np.random.Generator, *, greedy: bool = False,
                      traj: EpisodeTrajectory | None = None):
        """Selector callback for schedule_cycle.

        Records a trajectory step only where a real choice exists (at least
        one fitting visible job); empty or fully blocked queues pass silently,
        which keeps the trajectory to actual decision points.
        """
        hyper = self.hyper

        def selector(state: ClusterState) -> int | None:
            queue = ready_jobs(state)
            if not queue:
                return None
            mask = fit_mask(queue, state.free_procs, hyper.slots)
            if not mask[:-1].any():
                return None
            vec = encode_state(queue, state.free_procs, state.total_procs,
                               state.clock, hyper)
            factors = None
            if greedy and hyper.cost_weight > 0:
                factors = slot_cost_factors(queue, hyper.slots)
            action, log_prob, probs = select_action(
                self.model.actor, vec, mask, rng, greedy=greedy,
                cost_factors=factors, cost_weight=hyper.cost_weight,
                cost_stats=self.cost_stats)
            if traj is not None:
                value, _ = forward(self.model.critic, vec)
                cost_norm = np.zeros(hyper.action_dim)
                if hyper.cost_weight > 0:
                    cost_norm = 1.0 - slot_cost_factors(queue, hyper.slots)
                    cost_norm[-1] = 0.0
                traj.add_step(vec, action, float(value[0]), log_prob, mask,
                              cost_norm)
            if action == hyper.slots:
                return None
            return queue[action].id

        return selector

    def run_collect(self, jobs: list[Job], total_procs: int, *,
                    rng: np.random.Generator, greedy: bool = False,
                    record: bool = False
                    ) -> tuple[list[Job], EpisodeTrajectory | None, RunStats, float]:
        sim = Simulation([j.fresh_copy() for j in jobs], total_procs)
        traj = EpisodeTrajectory() if record else None
        finished = sim.run(self.make_selector(rng, greedy=greedy, traj=traj))
        reward = episode_reward(finished, self.hyper.tau)
        if traj is not None:
            traj.finalize(reward)
        return finished, traj, sim.stats, reward

    def evaluate(self, jobs: list[Job], total_procs: int,
                 seed: int = 0) -> tuple[list[Job], float]:
        rng = np.random.default_rng(seed)
        finished, _, _, reward = self.run_collect(jobs, total_procs, rng=rng,
                                                  greedy=True)
        return finished, reward


def collect_heuristic_trajectory(agent: MarsAgent, jobs: list[Job],
                                 total_procs: int, kind
                                 ) -> tuple[list[Job], EpisodeTrajectory]:
    """Run a heuristic policy while recording it in the agent's action space.

    Used by the optional train-from-heuristic mode: the closed-form policy
    drives the simulator (without backfilling, whose simultaneous starts have
    no slot-action equivalent) and every choice that lands in a visible slot
    becomes a trajectory step the agent can learn from. Choices outside the
    window still execute but leave no step.
    """
    from . import heuristics

    hyper = agent.hyper
    traj = EpisodeTrajectory()

    def selector(state: ClusterState) -> int | None:
        queue = ready_jobs(state)
        choice = heuristics.select_next(queue, state.clock, kind,
                                        state.free_procs)
        mask = fit_mask(queue, state.free_procs, hyper.slots)
        if choice is None and not queue:
            return None
        visible_ids = [j.id for j in queue[:hyper.slots]]
        action = hyper.slots if choice is None else (
            visible_ids.index(choice.id) if choice.id in visible_ids else None)
        if action is not None and mask[:-1].any():
            vec = encode_state(queue, state.free_procs, state.total_procs,
                               state.clock, hyper)
            value, _ = forward(agent.model.critic, vec)
            logits, _ = forward(agent.model.actor, vec)
            probs = softmax(np.where(mask, logits, -np.inf))
            cost_norm = 1.0 - slot_cost_factors(queue, hyper.slots)
            cost_norm[-1] = 0.0
            traj.add_step(vec, action, float(value[0]),
                          float(np.log(probs[action])), mask, cost_norm)
        return None if choice is None else choice.id

    sim = Simulation([j.fresh_copy() for j in jobs], total_procs,
                     backfill=False)
    finished = sim.run(selector)
    traj.finalize(episode_reward(finished, hyper.tau))
    return finished, traj


def make_random_selector(rng: np.random.Generator, slots: int):
    """Uniform over fitting visible jobs plus pass; the learning baseline."""

    def selector(state: ClusterState) -> int | None:
        queue = ready_jobs(state)
        if not queue:
            return None
        visible = queue[:slots]
        fitting = [j for j in visible if j.requested_procs <= state.free_procs]
        if not fitting:
            return None
        pick = rng.integers(len(fitting) + 1)
        if pick == len(fitting):
            return None
        return fitting[pick].id

    return selector


def random_baseline(jobs: list[Job], total_procs: int, hyper: Hyperparameters,
                    episodes: int = 20, seed: int = 0) -> float:
    """Mean episode reward of the random policy over seeded episodes."""
    rewards = []
    for i in range(episodes):
        rng = np.random.default_rng([seed, i])
        sim = Simulation([j.fresh_copy() for j in jobs], total_procs)
        finished = sim.run(make_random_selector(rng, hyper.slots))
        rewards.append(episode_reward(finished, hyper.tau))
    return float(np.mean(rewards))


# -- training ---------------------------------------------------------------

@dataclass
class CurvePoint:
    epoch: int
    reward: float
    entropy: float
    delta_mean: float


def train(env_factory, hyper: Hyperparameters,
          versions: ModelVersions | None = None, *,
          agent: MarsAgent | None = None,
          validation_factory=None,
          log=None) -> tuple[MarsAgent, ModelVersions, list[CurvePoint]]:
    """Synchronous multi-worker training loop.

    env_factory(worker, epoch) -> (jobs, total_procs) supplies each rollout;
    validation_factory() -> (jobs, total_procs) supplies the held-out slice
    for the periodic greedy validation that drives version rotation and
    rollback. Single-worker runs are bit-deterministic under a fixed seed.
    """
    hyper.validate()
    agent = agent if agent is not None else MarsAgent(hyper)
    versions = versions if versions is not None else ModelVersions(
        hyper.rollback_patience)
    if validation_factory is None:
        validation_factory = lambda: env_factory(0, 0)
    curve: list[CurvePoint] = []

    start_epoch = agent.model.epoch
    for epoch in range(start_epoch, start_epoch + hyper.epochs):
        trajs, rewards = None, None
        last_error = None
        for attempt in range(2):
            try:
                trajs, rewards = [], []
                for w in range(hyper.workers):
                    jobs, procs = env_factory(w, epoch)
                    rng = np.random.default_rng(
                        [hyper.seed, epoch, w, attempt])
                    _, traj, _, reward = agent.run_collect(
                        jobs, procs, rng=rng, record=True)
                    trajs.append(traj)
                    rewards.append(reward)
                break
            # a failed rollout (I/O, a crashed worker) is retried once; the
            # package's own errors are deterministic, so they propagate
            except (OSError, RuntimeError) as exc:
                last_error = exc
                trajs = None
        if trajs is None:
            raise last_error

        if hyper.ppo:
            diag = ppo_update(agent.model, trajs, hyper)
        else:
            actor_sum = _zero_grads(agent.model.actor)
            critic_sum = _zero_grads(agent.model.critic)
            deltas, entropies = [], []
            for traj in trajs:
                ag, cg, diag_i = episode_gradients(agent.model, traj, hyper)
                actor_sum = [a + g for a, g in zip(actor_sum, ag)]
                critic_sum = [a + g for a, g in zip(critic_sum, cg)]
                deltas.append(diag_i["delta_mean"])
                entropies.append(diag_i["entropy"])
            m = float(hyper.workers)
            neural.apply_adam(agent.model.actor,
                              [g / m for g in actor_sum], agent.model.actor_adam)
            neural.apply_adam(agent.model.critic,
                              [g / m for g in critic_sum], agent.model.critic_adam)
            diag = {"delta_mean": float(np.mean(deltas)),
                    "entropy": float(np.mean(entropies))}

        agent.model.epoch = epoch + 1
        point = CurvePoint(epoch=epoch + 1,
                           reward=float(np.mean(rewards)),
                           entropy=diag["entropy"],
                           delta_mean=diag["delta_mean"])
        curve.append(point)
        if log is not None:
            log(point)

        if (epoch + 1 - start_epoch) % hyper.validate_every == 0:
            v_jobs, v_procs = validation_factory()
            _, v_reward = agent.evaluate(v_jobs, v_procs, seed=hyper.seed)
            restored = versions.record(agent.model.snapshot(), v_reward)
            if restored is not None:
                agent.model.restore(restored)
    return agent, versions, curve
