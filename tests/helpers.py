"""Shared factories, file digests, and oracles for the policy step, the
actor-critic update, synthetic traces, the SWF and jobs.csv text, and the
EASY pass."""

import bisect
import hashlib
import heapq
import math
from operator import itemgetter

import numpy as np

from marsched import neural, simulator, workload
from marsched.agent import (EpisodeTrajectory, compute_advantages,
                            encode_state, fit_mask, slot_cost_factors,
                            visible_window)
from marsched.metrics import Schedule
from marsched.errors import ContractError, TraceFormatError
from marsched.neural import Layer, Network, softmax
from marsched.simulator import JOBS_CSV_COLUMNS
from marsched.workload import (Job, SwfField, WorkloadTrace, _truncated_gauss,
                               format_column)


def sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def make_job(id, submit=0.0, run=100.0, procs=1, req_time=None, cost=0.0):
    return Job(id=id, submit_time=float(submit), run_time=float(run),
               requested_procs=int(procs),
               requested_time=float(req_time if req_time is not None else run),
               cost_rate=float(cost))


def make_schedule(rows):
    """A schedule of (id, submit, start, run[, procs]) rows, in end order;
    procs defaults to 1."""
    rows = [row if len(row) == 5 else (*row, 1) for row in rows]
    ids, submit, start, run, procs = zip(*rows) if rows else [()] * 5
    return Schedule(np.array(ids, dtype=np.int64),
                    np.array(submit, dtype=float),
                    np.array(start, dtype=float), np.array(run, dtype=float),
                    np.array(procs, dtype=np.int64))


def starts(schedule):
    """{job id: start time} of a schedule."""
    return dict(zip(schedule.id.tolist(), schedule.start.tolist()))


def ends(schedule):
    """{job id: end time} of a schedule."""
    return dict(zip(schedule.id.tolist(),
                    (schedule.start + schedule.run).tolist()))


def oracle_check_trace(trace) -> None:
    """Every rule of a valid trace, job by job: positive ids, processor
    counts, run and requested times, non-negative submit times and cost
    rates, distinct ids, submit times that never decrease, and no job wider
    than the machine; raises TraceFormatError for the first job that breaks
    one, with ``parse_swf``'s messages for a repeated id and a wide job."""
    if trace.total_procs < 1:
        raise TraceFormatError(
            f"trace {trace.name!r}: total_procs must be >= 1")
    seen = set()
    prev = -math.inf
    for job in trace.jobs:
        if job.id < 1:
            raise TraceFormatError(f"job id must be positive, got {job.id}")
        if job.requested_procs < 1:
            raise TraceFormatError(
                f"job {job.id}: requested_procs must be >= 1")
        if job.run_time <= 0:
            raise TraceFormatError(f"job {job.id}: run_time must be > 0")
        if job.requested_time <= 0:
            raise TraceFormatError(f"job {job.id}: requested_time must be > 0")
        if job.submit_time < 0:
            raise TraceFormatError(f"job {job.id}: submit_time must be >= 0")
        if job.cost_rate < 0:
            raise TraceFormatError(f"job {job.id}: cost_rate must be >= 0")
        if job.id in seen:
            raise TraceFormatError(
                f"trace {trace.name!r}: duplicate job id {job.id}")
        seen.add(job.id)
        if job.submit_time < prev:
            raise TraceFormatError(f"trace {trace.name!r}: jobs not sorted "
                                   f"by submit_time at id {job.id}")
        prev = job.submit_time
        if job.requested_procs > trace.total_procs:
            raise TraceFormatError(
                f"trace {trace.name!r}: job {job.id} requests "
                f"{job.requested_procs} processors but the system has "
                f"{trace.total_procs}")


def make_trace(jobs, total_procs, name="test"):
    trace = WorkloadTrace(jobs=list(jobs), total_procs=total_procs, name=name)
    oracle_check_trace(trace)
    return trace


def oracle_action(logits, mask, rng, *, greedy=False, cost_factors=None,
                  cost_weight=0.0) -> int:
    """One policy step by whole-array arithmetic: ``neural.softmax`` over
    the masked logits, then ``Generator.choice`` on the renormalized
    probabilities, or ``argmax`` when greedy. A greedy choice with cost
    factors and a positive weight first multiplies the probabilities by
    factor ** weight and renormalizes, keeping them unadjusted when that
    zeroes every one."""
    probs = softmax(np.where(mask, logits, -np.inf))
    if not greedy:
        return int(rng.choice(len(probs), p=probs / probs.sum()))
    if cost_factors is not None and cost_weight > 0:
        adjusted = probs * np.power(cost_factors, cost_weight)
        total = adjusted.sum()
        if total > 0 and np.isfinite(total):
            probs = adjusted / total
    return int(probs.argmax())


def logit_network(logits) -> Network:
    """A one-layer network whose output, for any input of width 1, is
    exactly ``logits``: zero weights and the logits as bias."""
    logits = np.asarray(logits, dtype=float)
    return Network([Layer(np.zeros((1, len(logits))), logits, "identity")])


def oracle_selector(agent, rng, steps, *, greedy=False):
    """A selector that decides as ``agent``'s would, with each step's
    action from ``oracle_action`` on the logits of a freshly encoded state
    row. Appends each step's (state, mask, action) to ``steps``."""
    hyper = agent.hyper
    slots = hyper.slots
    static = {}

    def selector(state):
        seen = visible_window(state, slots)
        if seen is None:
            return None
        window, fits = seen
        mask = np.array(fit_mask(fits, slots))
        vec = np.empty(hyper.state_dim)
        encode_state(window, len(state.ready), state.free_procs,
                     state.total_procs, state.clock, hyper, static, vec)
        logits = neural.predict(agent.model.actor, vec[None, :])[0]
        factors = (slot_cost_factors(window, slots)
                   if hyper.cost_weight > 0 else None)
        action = oracle_action(logits, mask, rng, greedy=greedy,
                               cost_factors=factors,
                               cost_weight=hyper.cost_weight)
        steps.append((vec, mask, action))
        return None if action == slots else window[action].id

    return selector


# -- the out-of-place update that the in-place one must equal bit for bit ---

def oracle_forward(net, x):
    """The network's output and a cache of every layer's input and
    activation, each layer by ``h @ W + b`` and then its activation, all
    out of place."""
    inputs, acts = [], []
    h = np.asarray(x, dtype=float)
    for layer in net.layers:
        inputs.append(h)
        z = h @ layer.weights + layer.bias
        h = np.tanh(z) if layer.activation == "tanh" else z
        acts.append(h)
    return h, (inputs, acts)


def oracle_backward(net, cache, dout):
    """Gradients in ``net.parameters()`` order from an ``oracle_forward``
    cache, which is left as it was: ``delta * (1 - a*a)`` for tanh and
    ``delta * 1`` for identity, in new arrays."""
    inputs, acts = cache
    grads = [None] * (2 * len(net.layers))
    delta = np.asarray(dout, dtype=float)
    for i in range(len(net.layers) - 1, -1, -1):
        layer, a = net.layers[i], acts[i]
        delta = delta * (1.0 - a * a if layer.activation == "tanh"
                         else np.ones_like(a))
        grads[2 * i] = inputs[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ layer.weights.T
    return grads


def oracle_episode_gradients(model, traj, hyper):
    """``agent.episode_gradients`` with both forwards first and the actor's
    backward before the critic's, all out of place."""
    diag = {"steps": len(traj), "delta_mean": 0.0, "entropy": 0.0}
    if len(traj) == 0:
        return ([np.zeros_like(p) for p in model.actor.parameters()],
                [np.zeros_like(p) for p in model.critic.parameters()], diag)
    states = traj.states
    values, cache_c = oracle_forward(model.critic, states)
    advantages, targets = compute_advantages(traj, values[:, 0], hyper.gamma)
    eye = hyper.gamma ** np.arange(len(traj))
    weights = eye * advantages
    masks = np.array(traj.masks, dtype=bool)
    logits, cache_a = oracle_forward(model.actor, states)
    probs = softmax(np.where(masks, logits, -np.inf))
    one_hot = np.zeros((len(traj), hyper.action_dim))
    one_hot[np.arange(len(traj)), traj.actions] = 1.0
    dlogits = -weights[:, None] * (one_hot - probs)
    if hyper.cost_weight > 0:
        c = np.stack(traj.cost_norms)
        expected = (probs * c).sum(axis=-1, keepdims=True)
        dlogits = dlogits + hyper.cost_weight * probs * (c - expected)
    actor_grads = oracle_backward(model.actor, cache_a, dlogits)
    critic_grads = oracle_backward(model.critic, cache_c,
                                   (eye * (values[:, 0] - targets))[:, None])
    safe = np.where(probs > 0, probs, 1.0)
    diag["delta_mean"] = float(np.mean(advantages))
    diag["entropy"] = float(np.mean(-(probs * np.log(safe)).sum(axis=-1)))
    return actor_grads, critic_grads, diag


def oracle_adam_step(params, grads, state, alpha):
    """One Adam update (minimization) of step size ``alpha`` with beta1
    0.9, beta2 0.999 and eps 1e-8, out of place: returns new parameter
    arrays and puts new moment arrays in ``state``."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.t += 1
    t = state.t
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = beta1 * state.m[i] + (1 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1 - beta2) * (g * g)
        m_hat = state.m[i] / (1 - beta1 ** t)
        v_hat = state.v[i] / (1 - beta2 ** t)
        out.append(p - alpha * m_hat / (np.sqrt(v_hat) + eps))
    return out


def oracle_apply_adam(net, grads, state, alpha):
    """``neural.apply_adam`` by ``oracle_adam_step``: the network gets new
    parameter arrays."""
    net.set_parameters(oracle_adam_step(net.parameters(), grads, state, alpha))


def random_trajectory(hyper, steps, rng):
    """A finished episode of ``steps`` random decisions in ``hyper``'s
    shapes: states in [0, 1), masks that keep the last action valid, an
    action among each step's valid ones, cost norms in [0, 1) and a
    negative terminal reward."""
    width = hyper.action_dim
    masks = rng.random((steps, width)) < 0.5
    masks[:, -1] = True
    actions = (rng.random((steps, width)) * masks).argmax(axis=1)
    states = rng.random((steps, hyper.state_dim))
    costs = rng.random((steps, width))
    traj = EpisodeTrajectory()
    for state, action, mask, cost in zip(states, actions.tolist(),
                                         masks.tolist(), costs):
        traj.add_step(state, action, mask, cost)
    traj.finalize(-100.0 * float(rng.random()))
    return traj


def oracle_synthetic(cfg):
    """``generate_synthetic`` job by job: the same column draws, then one
    ``_truncated_gauss`` call per job for its cost rate, and a sort."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.job_count
    if n == 0:
        return WorkloadTrace(jobs=[], total_procs=cfg.total_procs,
                             name=cfg.name)
    gaps = rng.exponential(1.0 / cfg.arrival_rate, size=n)
    submits = np.floor(np.cumsum(gaps) - gaps[0]).astype(int)
    log_lo, log_hi = math.log(cfg.runtime_min), math.log(cfg.runtime_max)
    runtimes = np.exp(rng.uniform(log_lo, log_hi, size=n))
    runtimes = np.maximum(np.round(runtimes), 1.0)
    max_exp = cfg.max_cores_exp
    if max_exp is None:
        max_exp = cfg.total_procs.bit_length() - 1
    weights = np.array([2.0 ** -k for k in range(max_exp + 1)])
    weights /= weights.sum()
    exps = rng.choice(max_exp + 1, size=n, p=weights)
    cores = (2 ** exps).astype(int)
    factors = rng.uniform(cfg.overestimate_min, cfg.overestimate_max, size=n)
    req_times = np.ceil(runtimes * factors)
    jobs = []
    for i in range(n):
        jobs.append(Job(
            id=i + 1,
            submit_time=float(submits[i]),
            run_time=float(runtimes[i]),
            requested_procs=int(cores[i]),
            requested_time=float(req_times[i]),
            cost_rate=_truncated_gauss(rng.normal, cfg.cost_mean,
                                       cfg.cost_std),
        ))
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    return WorkloadTrace(jobs=jobs, total_procs=cfg.total_procs,
                         name=cfg.name)


def per_value_text(x: float) -> str:
    """The SWF and jobs.csv text of one number, value by value."""
    xi = int(x)
    return str(xi) if x == xi else repr(float(x))


def oracle_swf_text(trace) -> str:
    """The SWF text of a trace, one 18-field list per job: -1 in every
    field the trace has no value for, and each number's text by the rule
    of ``format_column``, value by value (``per_value_text``)."""
    lines = [f"; MaxProcs: {trace.total_procs}"]
    for j in trace.jobs:
        fields = ["-1"] * 18
        fields[0] = str(j.id)
        fields[1] = per_value_text(j.submit_time)
        fields[3] = per_value_text(j.run_time)
        fields[4] = str(j.requested_procs)
        fields[7] = str(j.requested_procs)
        fields[8] = per_value_text(j.requested_time)
        fields[10] = "1"
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


B = workload.BLOCK_JOBS
# job counts on and around the block boundaries of the text layers
BLOCK_COUNTS = [0, 1, B - 1, B, B + 1, 3 * B + 7]


def boundary_jobs(n, kind):
    """n jobs in submit order whose ids fall as submit times rise, so the
    id order reverses the file order. ``kind`` "fraction" gives the later
    half non-integral times (the ``repr`` path of ``format_column``);
    "huge" gives every other job an id of 2**63 or more (object columns)
    that a float holds exactly, as an SWF id is read through one."""
    jobs = []
    for k in range(n):
        submit, run = float(k // 3), float(10 + k % 7)
        if kind == "fraction" and k >= n // 2:
            submit, run = submit + 0.25, run / 3
        job_id = 2 ** 63 + 2048 * k if kind == "huge" and k % 2 else n - k
        jobs.append(make_job(job_id, submit, run, procs=1 + k % 4,
                             req_time=2 * run))
    return jobs


# -- the whole-trace text layers that the block-wise ones must equal byte for
# byte: every column formatted, every line held and one string written ------

def oracle_job_csv_rows(results) -> list[str]:
    """The jobs.csv lines of the runs, ordered by id, from whole columns."""
    schedule = Schedule.concat([r.schedule for r in results])
    order = np.argsort(schedule.id, kind="stable")
    submit, start = schedule.submit[order], schedule.start[order]
    policy = np.repeat([r.policy for r in results],
                       [len(r.schedule) for r in results])[order]
    return list(map(",".join, zip(
        map(str, schedule.id[order].tolist()), format_column(submit),
        format_column(start), format_column(start + schedule.run[order]),
        format_column(start - submit),
        map(str, schedule.procs[order].tolist()), policy.tolist())))


def oracle_write_jobs_csv(path, rows) -> None:
    with open(path, "w") as fp:
        fp.write("\n".join([",".join(JOBS_CSV_COLUMNS), *rows]) + "\n")


def oracle_write_swf(path, trace) -> None:
    """The SWF file of a trace, from whole columns in one string."""
    jobs = trace.jobs
    ids = [j.id for j in jobs]
    procs = [j.requested_procs for j in jobs]
    submit, run, requested = (
        format_column(np.array([getattr(j, name) for j in jobs], dtype=float))
        for name in ("submit_time", "run_time", "requested_time"))
    lines = [f"{i} {s} -1 {r} {p} -1 -1 {p} {q} -1 1 -1 -1 -1 -1 -1 -1 -1\n"
             for i, s, r, p, q in zip(ids, submit, run, procs, requested)]
    with open(path, "w") as fp:
        fp.write(f"; MaxProcs: {trace.total_procs}\n")
        fp.write("".join(lines))


_SWF_READ = (SwfField.JOB_ID, SwfField.SUBMIT_TIME, SwfField.RUN_TIME,
             SwfField.ALLOCATED_PROCS, SwfField.REQUESTED_PROCS,
             SwfField.REQUESTED_TIME)


def oracle_parse_swf_lines(lines):
    """Parse line by line, each SWF rule stated per line; (jobs sorted by
    (submit time, id), dropped, line errors, MaxProcs header)."""
    jobs = []
    dropped = 0
    line_errors = []
    max_procs_header = None
    isfinite = math.isfinite

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            try:
                header = workload._max_procs_header(line)
            except (ValueError, OverflowError):
                line_errors.append((lineno, "unreadable MaxProcs header"))
                continue
            if header is not None:
                max_procs_header = header
            continue
        tokens = line.split()
        if len(tokens) < SwfField.REQUESTED_TIME + 1:
            line_errors.append((lineno, f"expected >= 9 fields, got {len(tokens)}"))
            continue
        try:
            values = list(map(float, tokens))
        except ValueError:
            line_errors.append((lineno, "non-numeric field"))
            continue
        job_id, submit, run, alloc, req_procs, req_time = \
            (values[k] for k in _SWF_READ)
        if not (isfinite(job_id) and isfinite(submit) and isfinite(run)
                and isfinite(alloc) and isfinite(req_procs)
                and isfinite(req_time)):
            line_errors.append((lineno, "non-finite field"))
            continue

        job_id = int(job_id)
        procs = int(alloc)
        if procs == -1:
            procs = int(req_procs)
        if req_time == -1:
            req_time = run

        if run <= 0 or procs <= 0:
            dropped += 1
            continue
        if job_id < 1 or submit < 0 or req_time <= 0:
            line_errors.append((lineno, f"job {job_id}: field out of range"))
            continue
        jobs.append(Job(job_id, submit, run, procs, req_time))
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    return jobs, dropped, line_errors, max_procs_header


def _oracle_parse_swf_block(lines):
    """The one-pass parse of a regular body: (jobs in file order, dropped,
    [], MaxProcs header), or None when a line would be a line error, an id
    or processor count is 2**63 or more, or numpy cannot read the body."""
    stripped = list(map(str.strip, lines))
    data = [line for line in stripped if line and line[0] != ";"]
    if not data:
        return None
    max_procs_header = None
    for line in stripped:
        if line[:1] == ";":
            try:
                header = workload._max_procs_header(line)
            except (ValueError, OverflowError):
                return None
            if header is not None:
                max_procs_header = header
    try:
        block = np.loadtxt(data, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape[1] < SwfField.REQUESTED_TIME + 1:
        return None
    columns = block[:, _SWF_READ]
    if not np.isfinite(columns).all():
        return None
    job_id, submit, run, alloc, req_procs, req_time = columns.T
    procs = np.trunc(alloc)
    procs = np.where(procs == -1, np.trunc(req_procs), procs)
    req_time = np.where(req_time == -1, run, req_time)
    kept = (run > 0) & (procs > 0)
    job_id, submit, run, procs, req_time = (
        np.trunc(job_id[kept]), submit[kept], run[kept], procs[kept],
        req_time[kept])
    if (job_id < 1).any() or (submit < 0).any() or (req_time <= 0).any() \
            or (job_id >= 2.0 ** 63).any() or (procs >= 2.0 ** 63).any():
        return None
    jobs = list(map(Job, job_id.astype(np.int64).tolist(), submit.tolist(),
                    run.tolist(), procs.astype(np.int64).tolist(),
                    req_time.tolist()))
    return jobs, len(kept) - len(jobs), [], max_procs_header


def oracle_parse_swf(text, name=""):
    """``parse_swf`` as two parsers that each state SWF's rules: one numpy
    pass over a regular body, else ``oracle_parse_swf_lines``; the text,
    its lines and the whole block are held to the end, and the jobs are
    built from whole columns and then sorted. A last MaxProcs header below
    1 counts as none."""
    lines = text.splitlines()
    parsed = _oracle_parse_swf_block(lines) \
        or oracle_parse_swf_lines(lines)
    jobs, dropped, line_errors, max_procs_header = parsed
    if not jobs:
        raise TraceFormatError(f"trace {name!r}: no valid jobs parsed")
    jobs.sort(key=lambda j: (j.submit_time, j.id))
    total = max_procs_header if max_procs_header and max_procs_header >= 1 \
        else max(j.requested_procs for j in jobs)
    trace = WorkloadTrace(jobs=jobs, total_procs=total, name=name,
                          dropped_jobs=dropped, line_errors=line_errors)
    oracle_check_trace(trace)
    return trace


def oracle_backfill_easy(state, head, stats=None, scores=None):
    """``simulator.backfill_easy`` with the head's reservation recomputed
    after every backfill, and a check that it never moves later. With an
    aging cycle's ``scores`` (the urgencies of ``state.aging``'s jobs, in
    its order), the candidates are taken most urgent first, the first in
    arrival order among equals."""
    if head.id not in state.ready or head.requested_procs <= state.free_procs:
        raise ContractError(f"job {head.id} is not a blocked ready head")
    free = state.free_procs
    if all(j.requested_procs > free for j in state.ready.values()):
        return []
    counts = state.proc_counts
    clock = state.clock
    shadow, extra = simulator.compute_reservation(state, head)
    if scores is None:
        queue = []
        for procs in counts[:bisect.bisect_right(counts, free)]:
            bucket = state.by_procs[procs]
            if clock + bucket[-1][0] <= shadow:
                cut = len(bucket)
            elif clock + bucket[0][0] > shadow:
                cut = 0
            else:
                cut = bisect.bisect_right(bucket, shadow,
                                          key=lambda e: clock + e[0])
            queue += bucket[:cut]
            if procs <= extra and cut < len(bucket):
                queue += heapq.nsmallest(min(extra, free) // procs,
                                         bucket[cut:], key=itemgetter(1))
        queue = [e[-1] for e in sorted(queue, key=itemgetter(1))]
    else:
        jobs = [state.ready[jid] for jid in state.aging.ids]
        order = sorted(range(len(jobs)), key=lambda i: (-scores[i], i))
        queue = [cand for cand in map(jobs.__getitem__, order)
                 if cand.requested_procs <= free
                 and (clock + cand.requested_time <= shadow
                      or cand.requested_procs <= extra)]
    started = []
    for cand in queue:
        if cand.requested_procs > state.free_procs:
            continue
        if not (clock + cand.requested_time <= shadow
                or cand.requested_procs <= extra):
            continue
        simulator.start_job(state, cand, clock)
        started.append(cand.id)
        if stats is not None:
            stats.backfilled += 1
        new_shadow, extra = simulator.compute_reservation(state, head)
        if new_shadow > shadow:
            raise AssertionError(
                f"backfill of job {cand.id} delayed the head reservation "
                f"({shadow} -> {new_shadow})")
        shadow = new_shadow
        if not state.free_procs:
            break
    return started
