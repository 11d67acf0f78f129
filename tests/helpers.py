"""Shared factories, file digests and policy-step oracles for the test
suite."""

import hashlib

import numpy as np

from marsched import neural
from marsched.agent import (encode_state, fit_mask, slot_cost_factors,
                            visible_window)
from marsched.metrics import Schedule
from marsched.neural import Layer, Network, softmax
from marsched.workload import Job, WorkloadTrace


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


def make_trace(jobs, total_procs, name="test"):
    trace = WorkloadTrace(jobs=list(jobs), total_procs=total_procs, name=name)
    trace.validate()
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
