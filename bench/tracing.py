"""Per-layer counters and spans, recorded from outside the program.

The traced run replaces public functions of ``marsched`` with wrappers, at
every name a caller resolves them by: ``agent`` imports ``forward`` and
``ready_jobs`` by name, so ``agent.forward`` and ``agent.ready_jobs`` are
patched as well as ``neural.forward`` and ``simulator.ready_jobs``. Every
wrapper counts calls and sums inclusive and self time (inclusive minus the
wrapped calls made inside it). Coarse calls also record a span (name, start,
end, parent span, op); the hot leaves, such as ``deps_met``, ``sort_key`` and
``forward``, get counters only. The program itself is not changed.
"""

from __future__ import annotations

import time
from collections import defaultdict

import workloads
from marsched import agent, cli, heuristics, metrics, neural, simulator, workload


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, seconds in wrapped children]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []     # (name, start, end, parent span)
        self._frames = [[0.0, None]]     # [child seconds, span id]
        self._patched: list[tuple] = []

    def wrap(self, name, fn, *, span=False, after=None):
        stats, frames, spans = self.stats[name], self._frames, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            frame = [0.0, len(spans) if span else parent[1]]
            if span:
                spans.append(None)
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                parent[0] += t1 - t0
                stats[0] += 1
                stats[1] += t1 - t0
                stats[2] += frame[0]
                if span:
                    spans[frame[1]] = (name, t0, t1, parent[1])
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- the program's layers ------------------------------------------------

    def install(self):
        c = self.counts

        def count_jobs(args, kwargs, trace):
            c["jobs_loaded"] += len(trace.jobs)

        def count_ready(args, kwargs, ready):
            c["ready_len_sum"] += len(ready)

        def count_backfill(args, kwargs, started):
            # the simulator calls backfill_easy only with a blocked head, so
            # every job it starts jumped the head
            c["backfilled"] += len(started)

        def count_rows(args, kwargs, result):
            x = args[1] if len(args) > 1 else kwargs["x"]
            rows = 1 if getattr(x, "ndim", 1) == 1 else x.shape[0]
            c["forward_rows"] += rows
            c["forward_flops"] += rows * sum(
                2 * layer.weights.shape[0] * layer.weights.shape[1]
                for layer in args[0].layers)

        # the benchmark's own ops, so that every span has an op above it
        for op in ("cli_op", "train_op"):
            self.patch(workloads, op, op, span=True)
        # workload: cli imports load_swf and assign_costs by name
        for owner in (cli, workload):
            self.patch(owner, "load_swf", "load_swf", span=True,
                       after=count_jobs)
            self.patch(owner, "assign_costs", "assign_costs", span=True)
        # simulator: event loop, ready queue, EASY, output
        self.patch(simulator.Simulation, "run", "run", span=True)
        self.patch(simulator, "advance_to_next_event", "advance")
        self.patch(simulator, "start_job", "start_job")
        self.patch(simulator, "deps_met", "deps_met")
        for owner in (simulator, agent):
            self.patch(owner, "ready_jobs", "ready_jobs", after=count_ready)
        self.patch(simulator, "backfill_easy", "backfill",
                   after=count_backfill)
        self.patch(simulator, "compute_reservation", "reservation")
        self.patch(cli, "job_csv_rows", "csv", span=True)
        self.patch(cli, "write_jobs_csv", "csv", span=True)
        # heuristics: simulator calls heuristics.sort_key through the module
        self.patch(heuristics, "sort_key", "sort_key")
        # metrics: cli and simulator call through the module
        self.patch(metrics, "aggregate", "aggregate", span=True)
        self.patch(metrics, "write_report_csv", "write_report", span=True)
        # agent
        self.patch(agent, "encode_state", "encode_state")
        self.patch(agent, "fit_mask", "fit_mask")
        self.patch(agent, "select_action", "select_action")
        self.patch(agent, "episode_gradients", "episode_gradients", span=True)
        self._patch_selector()
        self._patch_run_collect()
        # neural: agent imports forward and backward by name
        for owner in (agent, neural):
            self.patch(owner, "forward", "forward", after=count_rows)
            self.patch(owner, "backward", "backward")
        self.patch(neural, "apply_adam", "adam", span=True)

    def _patch_selector(self):
        c = self.counts
        original = agent.MarsAgent.make_selector

        def make_selector(self_, *args, **kwargs):
            inner = original(self_, *args, **kwargs)

            def selector(state):
                choice = inner(state)
                c["selector_calls"] += 1
                c["decisions"] += choice is not None
                return choice
            return selector

        self._patched.append((agent.MarsAgent, "make_selector", original))
        agent.MarsAgent.make_selector = make_selector

    def _patch_run_collect(self):
        """Greedy episodes (evaluation and validation) apart from rollouts."""
        original = agent.MarsAgent.run_collect
        greedy = self.wrap("agent_evaluate", original, span=True)
        rollout = self.wrap("agent_rollout", original, span=True)

        def run_collect(self_, *args, **kwargs):
            fn = greedy if kwargs.get("greedy") else rollout
            return fn(self_, *args, **kwargs)

        self._patched.append((agent.MarsAgent, "run_collect", original))
        agent.MarsAgent.run_collect = run_collect

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round means of every counter and time, with derived ratios."""
        s, c = self.stats, self.counts
        per = 1.0 / rounds
        calls = lambda n: (s[n][0] * per, "count")
        secs = lambda n: (s[n][1] * per, "s")
        ready_calls = s["ready_jobs"][0]
        selector_calls = c["selector_calls"]
        return {
            "workload.load_swf_s": secs("load_swf"),
            "workload.assign_costs_s": secs("assign_costs"),
            "workload.jobs_loaded": (c["jobs_loaded"] * per, "count"),
            "simulator.events": calls("advance"),
            "simulator.advance_s": secs("advance"),
            "simulator.run_self_s": ((s["run"][1] - s["run"][2]) * per, "s"),
            "simulator.start_job_calls": calls("start_job"),
            "simulator.ready_jobs_calls": calls("ready_jobs"),
            "simulator.ready_jobs_s": secs("ready_jobs"),
            "simulator.ready_len_mean": (
                c["ready_len_sum"] / ready_calls if ready_calls else 0.0,
                "jobs"),
            "simulator.deps_met_calls": calls("deps_met"),
            "simulator.backfill_calls": calls("backfill"),
            "simulator.backfill_s": secs("backfill"),
            "simulator.backfilled": (c["backfilled"] * per, "count"),
            "simulator.reservation_calls": calls("reservation"),
            "simulator.reservation_s": secs("reservation"),
            "simulator.csv_s": secs("csv"),
            "heuristics.sort_key_calls": calls("sort_key"),
            "heuristics.sort_key_s": secs("sort_key"),
            "heuristics.sort_keys_per_job": (
                s["sort_key"][0] / c["jobs_loaded"] if c["jobs_loaded"]
                else 0.0,
                "count"),
            "metrics.aggregate_s": secs("aggregate"),
            "metrics.write_report_s": secs("write_report"),
            "agent.selector_calls": (selector_calls * per, "count"),
            "agent.decisions": (c["decisions"] * per, "count"),
            "agent.decision_ratio": (
                c["decisions"] / selector_calls if selector_calls else 0.0,
                "1"),
            "agent.encode_state_s": secs("encode_state"),
            "agent.fit_mask_s": secs("fit_mask"),
            "agent.select_action_s": secs("select_action"),
            "agent.episode_gradients_s": secs("episode_gradients"),
            "agent.rollout_s": secs("agent_rollout"),
            "agent.evaluate_s": secs("agent_evaluate"),
            "neural.forward_calls": calls("forward"),
            "neural.forward_rows": (c["forward_rows"] * per, "count"),
            "neural.forward_s": secs("forward"),
            "neural.backward_s": secs("backward"),
            "neural.adam_s": secs("adam"),
            "neural.forward_flops": (c["forward_flops"] * per,
                                     "flop_computed"),
        }
