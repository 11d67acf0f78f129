"""Actor-critic scheduling agent.

State: a fixed window of the ready queue (slots x 4 job features, zero-padded)
plus two cluster features. Actions: start the job in one visible slot, or
pass. Rewards: 0 every step, minus the average bounded slowdown at
episode end, so maximizing reward minimizes the headline metric.

An episode records, at each decision point, the state, the validity mask,
the action and the action costs. The update (``actor_critic_step``) rebuilds
the policy and the critic's values from those records at the current
parameters, so nothing else of the sampling is kept.

A decision uses numpy only for the actor's layers on one state row; the
policy step after the logits (``select_action``) runs on Python floats, so
it agrees with ``neural.softmax``, which the update uses, up to rounding.

Cost handling is two-sided: a greedy step weighs each valid action's
probability by its Gaussian-survival cost factor raised to the cost weight
(cheap jobs get factors near 1); during training the same weight scales a
penalty gradient on the policy's expected normalized action cost. Weight
0 disables both and recovers the plain actor-critic.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import accumulate, compress, islice

import numpy as np

from . import metrics, neural
from .errors import ConfigError, ContractError, ModelFormatError, TrainingDiverged
from .metrics import DEFAULT_TAU, Schedule
from .neural import AdamState, Network, backward, forward, softmax
# ready_jobs is not called here but stays importable: bench/tracing.py
# patches it at every module that imports it
from .simulator import ClusterState, RunStats, Simulation, ready_jobs  # noqa: F401
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
    validate_every: int = 50
    rollback_patience: int = 3
    tau: float = DEFAULT_TAU
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    time_norm: float = 86400.0    # one day caps the w_t / r_t features
    cost_norm: float = 10.0

    def __post_init__(self) -> None:
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

    @property
    def state_dim(self) -> int:
        return self.slots * FEATURES_PER_JOB + CLUSTER_FEATURES

    @property
    def action_dim(self) -> int:
        return self.slots + 1     # one per slot plus pass


def visible_window(state: ClusterState, slots: int
                   ) -> tuple[list[Job], list[bool]] | None:
    """The first ``slots`` ready jobs in arrival order, and whether each fits
    the free processors; None when none of them fits.

    Jobs past the window are invisible this step (they enter as slots free
    up), so a selector's work per call depends on the slot count, not on
    the depth of the queue.
    """
    window = list(islice(state.ready.values(), slots))
    free = state.free_procs
    fits = [job.requested_procs <= free for job in window]
    return (window, fits) if True in fits else None


def encode_state(window: list[Job], queued: int, free_procs: int,
                 total_procs: int, now: float, hyper: Hyperparameters,
                 static: dict[int, tuple[float, float, float]],
                 out: np.ndarray) -> None:
    """Write the fixed-length state of a window of at most ``slots`` jobs
    into ``out``, a row of ``state_dim`` floats (or a batch of one such
    row); slots beyond the window are zero.

    Job features are clipped to [0, 1]: waiting and requested time by
    time_norm, processors by the machine size, cost rate by cost_norm. The
    queue-pressure cluster feature, ``queued`` ready jobs over the slot
    count, is the only trace of the jobs past the window. ``static`` caches
    the three features that do not change while a job waits, by job id; a
    selector keeps one for its episode.
    """
    time_norm = hyper.time_norm
    row: list[float] = []
    # the clips are comparisons that pick what max(x, 0.0) and min(x, 1.0)
    # would, without a builtin call per feature
    for job in window:
        wait = now - job.submit_time
        if 0.0 > wait:
            wait = 0.0
        wait /= time_norm
        row.append(1.0 if 1.0 < wait else wait)
        fixed = static.get(job.id)
        if fixed is None:
            fixed = static[job.id] = (
                min(job.requested_time / time_norm, 1.0),
                min(job.requested_procs / total_procs, 1.0),
                min(job.cost_rate / hyper.cost_norm, 1.0))
        row += fixed
    slots = hyper.slots
    row += [0.0] * (FEATURES_PER_JOB * slots - len(row))
    row.append(free_procs / total_procs)
    pressure = queued / slots
    row.append(1.0 if 1.0 < pressure else pressure)
    out[...] = row


def fit_mask(fits: list[bool], slots: int) -> list[bool]:
    """Validity mask over slot actions plus the always-valid pass action;
    ``fits`` says which visible jobs fit, as ``visible_window`` gives it."""
    return fits + [False] * (slots - len(fits)) + [True]


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


def select_action(net: Network, state: np.ndarray, mask: list[bool],
                  rng: np.random.Generator, *, greedy: bool = False,
                  cost_factors: np.ndarray | None = None,
                  cost_weight: float = 0.0) -> int:
    """One policy step: the action sampled from the masked softmax policy
    at ``state`` (a batch of one row), or with ``greedy`` its most probable
    action.

    The logits are ``forward``'s, by ``neural.predict``; the rest runs on
    Python floats over the valid actions only. A sample exponentiates the
    max-shifted logits and draws by inverse CDF on their running sums with
    the one ``rng.random()`` that ``Generator.choice`` makes; weights that
    are not finite raise ValueError, as ``choice`` does. A greedy choice
    with cost factors and a positive weight takes the largest weight times
    factor ** weight, or the largest logit when every such product is 0;
    sampling ignores the factors.

    This is ``choice`` (or ``argmax``) on ``neural.softmax``'s probabilities
    save for rounding: ``math.exp`` and ``np.exp`` differ in the last bit on
    some doubles, and the sums run in another order. A sampled action can
    differ only when the draw lands within a few ulps of a cumulative
    boundary, a greedy one only when two valid logits (or cost-adjusted
    weights) tie to within an ulp.
    """
    logits = list(compress(neural.predict(net, state)[0].tolist(), mask))
    actions = list(compress(range(len(mask)), mask))
    top = max(logits)
    exp = math.exp
    if greedy:
        best = logits.index(top)
        if cost_factors is not None and cost_weight > 0:
            adjusted = [exp(x - top) * f ** cost_weight for x, f
                        in zip(logits, compress(cost_factors.tolist(), mask))]
            peak = max(adjusted)
            if peak > 0.0:
                best = adjusted.index(peak)
        return actions[best]
    # the largest logit weighs exactly 1, so a finite total is at least 1
    # and the scaled draw stays below it
    cdf = list(accumulate([exp(x - top) for x in logits]))
    total = cdf[-1]
    if not total < math.inf:          # also true for NaN
        raise ValueError("probabilities are not finite")
    return actions[bisect_right(cdf, rng.random() * total)]


@dataclass
class EpisodeTrajectory:
    """One episode's decision points. The state rows go into one matrix
    that doubles when it is full, so a step allocates no array of its own
    and the update reads ``states`` without stacking them."""
    actions: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    masks: list[list[bool]] = field(default_factory=list)
    cost_norms: list[np.ndarray] = field(default_factory=list)
    terminal: bool = False
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def states(self) -> np.ndarray:
        """The steps' states, one row each."""
        return self.rows[:len(self.actions)]

    def add_step(self, state: np.ndarray, action: int, mask: list[bool],
                 cost_norm: np.ndarray) -> None:
        """Record a step; ``state`` is a row, or a batch of one row."""
        n = len(self.actions)
        if n == len(self.rows):
            grown = np.empty((max(2 * n, 256), np.shape(state)[-1]))
            if n:
                grown[:n] = self.rows
            self.rows = grown
        self.rows[n] = state
        self.actions.append(action)
        self.masks.append(mask)
        self.cost_norms.append(cost_norm)

    def finalize(self, terminal_reward: float) -> None:
        """Intra-episode rewards are 0; the last step carries the -ABS reward."""
        n = len(self.actions)
        self.rewards = [0.0] * n
        if n:
            self.rewards[-1] = terminal_reward
        self.terminal = True


def episode_reward(schedule: Schedule, tau: float = DEFAULT_TAU) -> float:
    """Minus the mean bounded slowdown of a schedule's finished jobs."""
    if not len(schedule):
        raise ValueError("episode reward needs at least one finished job")
    return -float(np.mean(metrics.bounded_slowdowns(schedule, tau)))


def compute_advantages(traj: EpisodeTrajectory, values: np.ndarray,
                       gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """A_t = r_{t+1} + gamma * v(s_{t+1}) - v(s_t), terminal value 0.

    ``values`` holds the critic's v(s_t) for every step of the episode. Also
    returns the critic targets r_{t+1} + gamma * v(s_{t+1}).
    """
    if not traj.terminal:
        raise ContractError("trajectory is incomplete (no terminal reward)")
    n = len(traj)
    values = np.asarray(values, dtype=float)
    rewards = np.asarray(traj.rewards, dtype=float)
    next_values = np.zeros(n)
    if n > 1:
        next_values[:-1] = values[1:]
    targets = rewards + gamma * next_values
    return targets - values, targets


# -- model bundle and versioning ------------------------------------------

MODEL_FORMAT_VERSION = 2


def _list_array(value) -> np.ndarray:
    return np.array(value, dtype=float)


# how each readable format stores an array: format 1 as nested lists of
# floats, format 2 as ``neural.encode_array`` gives it
ARRAY_DECODERS = {1: _list_array, 2: neural.decode_array}


@dataclass
class AgentModel:
    actor: Network
    critic: Network
    actor_adam: AdamState
    critic_adam: AdamState
    hyper: Hyperparameters
    epoch: int = 0
    # the format of the file the model was read from; save_model always
    # writes MODEL_FORMAT_VERSION
    format_version: int = MODEL_FORMAT_VERSION

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


def _network_dims(hyper: Hyperparameters) -> tuple[list[int], list[int]]:
    """Layer widths of the actor and of the critic."""
    return ([hyper.state_dim, *hyper.hidden, hyper.action_dim],
            [hyper.state_dim, *hyper.hidden, 1])


def new_model(hyper: Hyperparameters,
              rng: np.random.Generator | None = None) -> AgentModel:
    rng = rng if rng is not None else np.random.default_rng(hyper.seed)
    dims_a, dims_c = _network_dims(hyper)
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


# fields of a removed training mode that format-1 model files carry; loading
# drops them, so such a model evaluates and resumes with actor-critic
RETIRED_HYPER_KEYS = ("ppo", "ppo_clip", "ppo_epochs")


def hyper_from_dict(d: dict) -> Hyperparameters:
    """Hyperparameters from a model file's ``hyper``, less the retired
    keys; any other key must be exactly the fields of ``Hyperparameters``."""
    if not isinstance(d, dict):
        raise ModelFormatError("hyper is not a mapping")
    d = {k: v for k, v in d.items() if k not in RETIRED_HYPER_KEYS}
    names = {f.name for f in fields(Hyperparameters)}
    for problem, keys in (("unknown", d.keys() - names),
                          ("missing", names - d.keys())):
        if keys:
            raise ModelFormatError(
                f"{problem} hyper key(s): {', '.join(sorted(keys))}")
    d["hidden"] = tuple(d["hidden"])
    return Hyperparameters(**d)


def _check_arrays(model: AgentModel) -> None:
    """Every layer's weights and bias, and the Adam moments beside them,
    have the shapes that the hyperparameters give each network and hold
    finite numbers only: the policy step's greedy choice cannot see a NaN
    logit, so a NaN weight would pick actions silently."""
    for name, net, adam, dims in zip(
            ("actor", "critic"), (model.actor, model.critic),
            (model.actor_adam, model.critic_adam), _network_dims(model.hyper)):
        want = [s for i, o in zip(dims, dims[1:]) for s in ((i, o), (o,))]
        for part, arrays in (("parameter", net.parameters()),
                             ("Adam m", adam.m), ("Adam v", adam.v)):
            got = [a.shape for a in arrays]
            if got != want:
                raise ModelFormatError(
                    f"{name} {part} shapes {got} do not match the "
                    f"hyperparameters, which give {want}")
            if not all(np.isfinite(a).all() for a in arrays):
                raise ModelFormatError(f"{name} {part} holds a value that "
                                       "is not finite")


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
    # compact, so that json uses its C encoder
    with open(path, "w") as fp:
        fp.write(json.dumps(payload) + "\n")


def load_model(path) -> AgentModel:
    with open(path, encoding="utf-8") as fp:
        try:
            payload = json.load(fp)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelFormatError(f"{path}: not a model file ({exc})") from exc
    version = (payload.get("format_version") if isinstance(payload, dict)
               else None)
    decode = ARRAY_DECODERS.get(version) if type(version) is int else None
    if decode is None:
        raise ModelFormatError(
            f"{path}: unsupported model format version {version!r} "
            f"(this build reads versions "
            f"{', '.join(map(str, ARRAY_DECODERS))})")
    try:
        hyper = hyper_from_dict(payload["hyper"])
        model = AgentModel(
            actor=neural.net_from_dict(payload["actor"], decode),
            critic=neural.net_from_dict(payload["critic"], decode),
            actor_adam=neural.adam_from_dict(payload["actor_adam"], decode),
            critic_adam=neural.adam_from_dict(payload["critic_adam"], decode),
            hyper=hyper,
            epoch=int(payload["epoch"]),
            format_version=version,
        )
        _check_arrays(model)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed field ({exc})") from exc
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
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


# -- updates ---------------------------------------------------------------

def _one_hot(actions: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((len(actions), width))
    out[np.arange(len(actions)), actions] = 1.0
    return out


def _masked_probs(net: Network, states: np.ndarray, masks: np.ndarray):
    logits, cache = forward(net, states)
    masked = np.where(masks, logits, -np.inf)
    return softmax(masked), cache


def _zero_grads(net: Network) -> list[np.ndarray]:
    return [np.zeros_like(p) for p in net.parameters()]


def episode_gradients(model: AgentModel, traj: EpisodeTrajectory,
                      hyper: Hyperparameters
                      ) -> tuple[list[np.ndarray], list[np.ndarray], dict]:
    """Summed per-step gradients of one episode at frozen parameters.

    The TD errors come from one batched critic forward over the episode's
    states. Parameters are frozen within an epoch, so summing step terms and
    applying one optimizer update is equivalent to Algorithm-1 step order
    under a fixed parameter snapshot. Returned gradients are
    minimization-signed for Adam.

    The critic runs first, forward, advantages and backward, and its
    cache is consumed before the actor's forward, so only one network's
    activations are alive at a time.
    """
    diag = {"steps": len(traj), "delta_mean": 0.0, "entropy": 0.0}
    if len(traj) == 0:
        return _zero_grads(model.actor), _zero_grads(model.critic), diag
    states = traj.states
    values, cache = forward(model.critic, states)
    values = values[:, 0]
    advantages, targets = compute_advantages(traj, values, hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    critic_grads = backward(model.critic, cache,
                            (eye * (values - targets))[:, None])

    weights = eye * advantages
    masks = np.array(traj.masks, dtype=bool)
    actions = np.asarray(traj.actions)
    probs, cache = _masked_probs(model.actor, states, masks)
    dlogits = -weights[:, None] * (_one_hot(actions, hyper.action_dim) - probs)
    if hyper.cost_weight > 0:
        c = np.stack(traj.cost_norms)
        expected = (probs * c).sum(axis=-1, keepdims=True)
        dlogits = dlogits + hyper.cost_weight * probs * (c - expected)
    actor_grads = backward(model.actor, cache, dlogits)

    diag["delta_mean"] = float(np.mean(advantages))
    diag["entropy"] = _mean_entropy(probs)
    return actor_grads, critic_grads, diag


def _mean_entropy(probs: np.ndarray) -> float:
    safe = np.where(probs > 0, probs, 1.0)
    return float(np.mean(-(probs * np.log(safe)).sum(axis=-1)))


def _diverged(model: AgentModel) -> bool:
    """True when some state could drive a unit of either network past the
    float range. State features lie in [0, 1] (``encode_state``), so a
    bound on every unit's magnitude is carried through the layers, |W|^T
    bound + |bias| before the activation and at most 1 after tanh; a bound
    that is not finite means divergence. This also catches a step that
    leaves every parameter finite but near 1e308, as a huge learning rate
    does, after which the next forward pass overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        for net in (model.actor, model.critic):
            bound = np.ones(net.input_dim)
            for layer in net.layers:
                bound = bound @ np.abs(layer.weights) + np.abs(layer.bias)
                if not np.all(np.isfinite(bound)):
                    return True
                if layer.activation == "tanh":
                    bound = np.minimum(bound, 1.0)
    return False


def actor_critic_step(model: AgentModel, trajs: list[EpisodeTrajectory],
                      hyper: Hyperparameters) -> dict:
    """One Adam step for actor and critic from a batch of episodes.

    Sums ``episode_gradients`` over the episodes and divides by their count.
    A nonfinite gradient, or a step after which either network could
    overflow (``_diverged``), aborts the step: neither network nor Adam
    state changes, and the result reports ``aborted``.
    """
    actor_sum = _zero_grads(model.actor)
    critic_sum = _zero_grads(model.critic)
    deltas, entropies = [], []
    for traj in trajs:
        ag, cg, diag = episode_gradients(model, traj, hyper)
        actor_sum = [a + g for a, g in zip(actor_sum, ag)]
        critic_sum = [a + g for a, g in zip(critic_sum, cg)]
        deltas.append(diag["delta_mean"])
        entropies.append(diag["entropy"])
    m = float(len(trajs))
    actor_grads = [g / m for g in actor_sum]
    critic_grads = [g / m for g in critic_sum]
    aborted = not all(np.all(np.isfinite(g)) for g in actor_grads + critic_grads)
    if not aborted:
        before = model.snapshot()
        neural.apply_adam(model.actor, actor_grads, model.actor_adam)
        neural.apply_adam(model.critic, critic_grads, model.critic_adam)
        aborted = _diverged(model)
        if aborted:
            model.restore(before)
    return {"aborted": aborted, "delta_mean": float(np.mean(deltas)),
            "entropy": float(np.mean(entropies))}


# -- the agent --------------------------------------------------------------

class MarsAgent:
    """Owns the model and exposes selectors for the simulator."""

    def __init__(self, hyper: Hyperparameters | None = None,
                 model: AgentModel | None = None):
        self.model = model if model is not None else new_model(
            hyper if hyper is not None else Hyperparameters())

    @property
    def hyper(self) -> Hyperparameters:
        return self.model.hyper

    def make_selector(self, rng: np.random.Generator, *, greedy: bool = False,
                      traj: EpisodeTrajectory | None = None):
        """Selector callback for schedule_cycle, for one episode.

        Records a trajectory step only where a real choice exists (at least
        one fitting visible job); empty or fully blocked windows pass
        silently, which keeps the trajectory to actual decision points.
        """
        hyper = self.hyper
        slots = hyper.slots
        actor = self.model.actor
        cost_weight = hyper.cost_weight
        static: dict[int, tuple[float, float, float]] = {}
        # every decision's state is written to this one row; a recorded
        # step copies it into the trajectory
        row = np.empty((1, hyper.state_dim))
        # without a cost term every step's cost row is zero: one shared,
        # read-only row instead of an allocation per step
        zero_cost = np.zeros(hyper.action_dim)
        zero_cost.flags.writeable = False

        def selector(state: ClusterState) -> int | None:
            free = state.free_procs
            if not free or not state.ready:
                return None
            seen = visible_window(state, slots)
            if seen is None:
                return None
            window, fits = seen
            mask = fit_mask(fits, slots)
            encode_state(window, len(state.ready), free, state.total_procs,
                         state.clock, hyper, static, row)
            factors = None
            if cost_weight > 0:
                factors = slot_cost_factors(window, slots)
            action = select_action(actor, row, mask, rng, greedy=greedy,
                                   cost_factors=factors,
                                   cost_weight=cost_weight)
            if traj is not None:
                cost_norm = zero_cost
                if factors is not None:
                    cost_norm = 1.0 - factors
                    cost_norm[-1] = 0.0
                traj.add_step(row, action, mask, cost_norm)
            if action == slots:
                return None
            return window[action].id

        return selector

    def run_collect(self, jobs: list[Job], total_procs: int, *,
                    rng: np.random.Generator, greedy: bool = False,
                    record: bool = False
                    ) -> tuple[Schedule, EpisodeTrajectory | None, RunStats, float]:
        """One episode over the jobs, which are read and never written."""
        sim = Simulation(jobs, total_procs)
        traj = EpisodeTrajectory() if record else None
        schedule = sim.run(self.make_selector(rng, greedy=greedy, traj=traj))
        stats = sim.stats
        del sim     # the run's state goes before the metrics' arrays come
        reward = episode_reward(schedule, self.hyper.tau)
        if traj is not None:
            traj.finalize(reward)
        return schedule, traj, stats, reward

    def evaluate(self, jobs: list[Job], total_procs: int,
                 seed: int = 0) -> tuple[Schedule, float]:
        rng = np.random.default_rng(seed)
        schedule, _, _, reward = self.run_collect(jobs, total_procs, rng=rng,
                                                  greedy=True)
        return schedule, reward


def make_random_selector(rng: np.random.Generator, slots: int):
    """Uniform over fitting visible jobs plus pass; the learning baseline."""

    def selector(state: ClusterState) -> int | None:
        seen = visible_window(state, slots)
        if seen is None:
            return None
        fitting = [job for job, fit in zip(*seen) if fit]
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
        sim = Simulation(jobs, total_procs)
        schedule = sim.run(make_random_selector(rng, hyper.slots))
        rewards.append(episode_reward(schedule, hyper.tau))
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
    """Training loop. Each epoch runs ``hyper.workers`` episodes one after
    another in this process, each with its own seeded rng, and takes one
    update over all of them.

    env_factory(worker, epoch) -> (jobs, total_procs) supplies each episode;
    validation_factory() -> (jobs, total_procs) supplies the held-out slice
    for the periodic greedy validation that drives version rotation and
    rollback. An error from either factory propagates; nothing is retried.
    Runs are bit-deterministic under a fixed seed.
    """
    agent = agent if agent is not None else MarsAgent(hyper)
    versions = versions if versions is not None else ModelVersions(
        hyper.rollback_patience)
    if validation_factory is None:
        validation_factory = lambda: env_factory(0, 0)
    curve: list[CurvePoint] = []

    start_epoch = agent.model.epoch
    for epoch in range(start_epoch, start_epoch + hyper.epochs):
        trajs, rewards = [], []
        for w in range(hyper.workers):
            jobs, procs = env_factory(w, epoch)
            # the trailing 0 keeps the seeding of every earlier curve
            rng = np.random.default_rng([hyper.seed, epoch, w, 0])
            _, traj, _, reward = agent.run_collect(jobs, procs, rng=rng,
                                                   record=True)
            trajs.append(traj)
            rewards.append(reward)

        diag = actor_critic_step(agent.model, trajs, hyper)
        if diag["aborted"]:
            raise TrainingDiverged(
                f"nonfinite gradient or update in epoch {epoch + 1}")

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
