"""The benchmark's tracer patches program functions by name, from outside
the program. A renamed or deleted function would crash a traced benchmark
run (``bench/run.py --trace 1``); this test fails first."""

import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_patches_every_name_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()            # getattr raises on a missing name
        patched = list(tracer._patched)
        assert patched
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patched)


def test_tracer_counts_every_layer_of_the_agent_path(monkeypatch):
    # a 1-epoch train and a greedy evaluation under the tracer: each layer
    # of the per-decision path and of the update is reached and counted
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    from marsched.agent import Hyperparameters, train
    from marsched.workload import SyntheticConfig, generate_synthetic
    trace = generate_synthetic(SyntheticConfig(
        job_count=40, arrival_rate=0.3, runtime_min=5, runtime_max=300,
        total_procs=16, seed=3))
    hyper = Hyperparameters(slots=4, hidden=(8,), epochs=1, seed=1)
    tracer.install()
    try:
        trained, _, _ = train(lambda w, e: (trace.jobs, trace.total_procs),
                              hyper)
        trained.evaluate(trace.jobs, trace.total_procs)
    finally:
        tracer.restore()
    calls = {name: tracer.stats[name][0]
             for name in ("encode_state", "fit_mask", "select_action",
                          "forward", "backward", "agent_rollout",
                          "agent_evaluate")}
    assert all(calls.values()), calls
    # one state, one mask and one step per decision
    assert calls["encode_state"] == calls["fit_mask"] \
        == calls["select_action"]
