"""End-to-end command-line behavior: exit codes, files, and byte stability."""

import argparse
import base64
import dataclasses
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import sha256
from marsched import __version__, agent, cli, config, workload

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("MARSCHED_CONFIG", raising=False)


@pytest.fixture
def trace_file(tmp_path):
    out = tmp_path / "gen"
    assert run_cli("gen", "--count", "40", "--seed", "3", "--out",
                   str(out)) == 0
    return str(out / "synthetic.swf")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "conf.ini"
    path.write_text("""
[synthetic]
job_count = 25
arrival_rate = 0.3
runtime_min = 5
runtime_max = 300
total_procs = 16
seed = 2

[agent]
slots = 4
hidden = 8
epochs = 2
""")
    return str(path)


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen", "--count", "30", "--seed", "5", "--out", str(a)) == 0
    assert run_cli("gen", "--count", "30", "--seed", "5", "--out", str(b)) == 0
    assert (a / "synthetic.swf").read_bytes() == \
           (b / "synthetic.swf").read_bytes()


def test_simulate_writes_outputs(tmp_path, trace_file, capsys):
    out = tmp_path / "run"
    assert run_cli("simulate", "--trace", trace_file, "--policy", "fcfs",
                   "--out", str(out)) == 0
    assert (out / "jobs.csv").exists()
    assert (out / "report.csv").exists()
    assert "policy=fcfs" in capsys.readouterr().out
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "# schema: marsched.report.v1"
    assert lines[2].startswith("fcfs,40,")


def test_simulate_byte_identical_reruns(tmp_path, trace_file):
    a, b = tmp_path / "r1", tmp_path / "r2"
    for out in (a, b):
        assert run_cli("simulate", "--trace", trace_file, "--policy",
                       "unicef", "--out", str(out)) == 0
    assert (a / "jobs.csv").read_bytes() == (b / "jobs.csv").read_bytes()
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_simulate_backfill_off(tmp_path, trace_file):
    on, off = tmp_path / "on", tmp_path / "off"
    assert run_cli("simulate", "--trace", trace_file, "--backfill", "on",
                   "--out", str(on)) == 0
    assert run_cli("simulate", "--trace", trace_file, "--backfill", "off",
                   "--out", str(off)) == 0
    # same jobs either way; schedules may differ
    assert (on / "jobs.csv").read_text().count("\n") == \
           (off / "jobs.csv").read_text().count("\n")


def test_usage_errors_exit_2(tmp_path, trace_file):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--trace", trace_file, "--policy", "bogus")
    assert exc.value.code == 2
    # no trace source at all
    assert run_cli("simulate", "--policy", "fcfs", "--out",
                   str(tmp_path / "x")) == 2
    # both trace sources at once
    assert run_cli("simulate", "--trace", trace_file, "--synthetic", "5",
                   "--out", str(tmp_path / "y")) == 2


def test_missing_trace_file_exit_4(tmp_path):
    assert run_cli("simulate", "--trace", str(tmp_path / "nope.swf")) == 4


def test_malformed_trace_exit_2(tmp_path):
    bad = tmp_path / "bad.swf"
    bad.write_text("garbage line\n")
    assert run_cli("simulate", "--trace", str(bad)) == 2


@pytest.mark.parametrize("argv, spoiled", [
    (["simulate", "--trace", "{trace}"], "trace"),
    (["inspect", "--trace", "{trace}"], "trace"),
    (["inspect", "--model", "{model}"], "model"),
    (["evaluate", "--trace", "{trace}", "--model", "{model}"], "model"),
    (["simulate", "--config", "{config}", "--trace", "{trace}"], "config"),
])
def test_undecodable_input_exit_2(tmp_path, trace_file, argv, spoiled,
                                  capsys):
    # a byte that is not UTF-8 at the end of an otherwise good file
    files = {"trace": trace_file, "model": str(tmp_path / "model.json"),
             "config": str(tmp_path / "run.ini")}
    agent.save_model(files["model"], agent.new_model(
        agent.Hyperparameters(slots=4, hidden=(8,))))
    pathlib.Path(files["config"]).write_text("[run]\nseed = 1\n")
    with open(files[spoiled], "ab") as fp:
        fp.write(b"\xff")
    assert run_cli(*[arg.format(**files) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[spoiled]}: ")
    assert "can't decode byte 0xff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [0, 1, 3, 4, 7, 8])
def test_non_finite_trace_field_exit_2(tmp_path, field, bad):
    fields = ["1", "0", "-1", "100", "4", "-1", "-1", "4", "200"] + ["-1"] * 9
    fields[field] = bad
    path = tmp_path / "bad.swf"
    path.write_text(" ".join(fields) + "\n")
    assert run_cli("simulate", "--trace", str(path),
                   "--out", str(tmp_path / "o")) == 2


def test_simulate_peak_memory_per_job(tmp_path):
    # the trace's text, lines and numpy block go before its jobs are built,
    # jobs.csv is formatted a block at a time, and the simulation goes
    # before the metrics: about 420 bytes per job at the peak, of which
    # the jobs themselves hold about 230; whole layers peaked at about 830
    n = 20000
    swf = tmp_path / "t.swf"
    workload.write_swf(swf, workload.generate_synthetic(
        workload.SyntheticConfig(job_count=n, arrival_rate=0.005,
                                 total_procs=128, seed=2)))
    argv = ["simulate", "--trace", str(swf), "--policy", "fcfs",
            "--backfill", "off", "--out", str(tmp_path)]
    assert run_cli(*argv) == 0      # one-time set-up outside the trace
    tracemalloc.start()
    try:
        code = run_cli(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 550 * n


def test_procs_override_validation(tmp_path, trace_file):
    assert run_cli("simulate", "--trace", trace_file, "--procs", "1",
                   "--out", str(tmp_path / "z")) == 2


def test_rl_without_model_exit_2(tmp_path, trace_file):
    assert run_cli("simulate", "--trace", trace_file, "--policy", "rl",
                   "--out", str(tmp_path / "r")) == 2


def test_train_evaluate_cycle(tmp_path, cfg_file, capsys):
    out = tmp_path / "tr"
    assert run_cli("train", "--config", cfg_file, "--out", str(out),
                   "--seed", "4") == 0
    assert (out / "model.json").exists()
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "# schema: marsched.curve.v1"
    assert curve[1] == "epoch,reward,entropy,delta_mean"
    assert len(curve) == 4                     # 2 epochs of data
    capsys.readouterr()

    ev = tmp_path / "ev"
    assert run_cli("evaluate", "--config", cfg_file, "--model",
                   str(out / "model.json"), "--out", str(ev),
                   "--seed", "4") == 0
    assert "episode_reward=" in capsys.readouterr().out
    assert (ev / "report.csv").exists()


def test_evaluate_reward_uses_the_run_tau(tmp_path, cfg_file, capsys):
    """The printed reward is minus report.csv's mean bounded slowdown at
    the run's --tau, also where that is not the tau of the model (10)."""
    out = tmp_path / "tr"
    assert run_cli("train", "--config", cfg_file, "--out", str(out),
                   "--seed", "4") == 0
    printed = []
    for tau in ("10", "300"):
        capsys.readouterr()
        ev = tmp_path / f"ev{tau}"
        assert run_cli("evaluate", "--config", cfg_file, "--model",
                       str(out / "model.json"), "--out", str(ev),
                       "--seed", "4", "--tau", tau) == 0
        reward = re.search(r"episode_reward=(\S+)",
                           capsys.readouterr().out).group(1)
        lines = (ev / "report.csv").read_text().splitlines()
        report = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert reward == f"{-float(report['mean_bounded_slowdown']):.4f}"
        printed.append(reward)
    assert printed[0] != printed[1]


def test_train_byte_identical_reruns(tmp_path, cfg_file):
    a, b = tmp_path / "t1", tmp_path / "t2"
    for out in (a, b):
        assert run_cli("train", "--config", cfg_file, "--out", str(out),
                       "--seed", "8") == 0
    assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()


def test_train_resume_continues(tmp_path, cfg_file):
    out = tmp_path / "tr"
    assert run_cli("train", "--config", cfg_file, "--out", str(out)) == 0
    first = json.loads((out / "model.json").read_text())
    assert first["epoch"] == 2
    out2 = tmp_path / "tr2"
    assert run_cli("train", "--config", cfg_file, "--out", str(out2),
                   "--resume", str(out / "model.json")) == 0
    second = json.loads((out2 / "model.json").read_text())
    assert second["epoch"] == 4


def test_train_divergence_writes_last_good_model(tmp_path, cfg_file,
                                                monkeypatch, capsys):
    # gradients turn NaN from the second epoch on; the first epoch's model
    # is the last good one and must be on disk when train exits 3
    original = agent.episode_gradients

    def diverging(model, traj, hyper):
        actor, critic, diag = original(model, traj, hyper)
        if model.epoch >= 1:
            actor = [np.full_like(g, np.nan) for g in actor]
        return actor, critic, diag

    monkeypatch.setattr(agent, "episode_gradients", diverging)
    out = tmp_path / "tr"
    assert run_cli("train", "--config", cfg_file, "--out", str(out)) == 3
    assert "training diverged" in capsys.readouterr().err
    model = agent.load_model(out / "model.json")
    assert model.epoch == 1
    assert all(np.all(np.isfinite(p)) for p in model.actor.parameters())


def test_huge_learning_rate_exit_3_with_last_good_model(tmp_path, capsys):
    # the first Adam step leaves the actor's parameters finite, near 1e308,
    # and its outputs infinite; the step is undone and train exits 3
    conf = tmp_path / "conf.ini"
    conf.write_text("[agent]\nactor_lr = 1e308\n")
    out = tmp_path / "tr"
    assert run_cli("train", "--synthetic", "20", "--epochs", "2",
                   "--config", str(conf), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "training diverged" in err and "Traceback" not in err
    model = agent.load_model(out / "model.json")
    fresh = agent.new_model(model.hyper)
    assert model.epoch == 0 and model.actor_adam.t == 0
    for a, b in zip(model.actor.parameters(), fresh.actor.parameters()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("argv", [["gen", "--count", "20"],
                                  ["simulate", "--synthetic", "20"]])
def test_unbounded_requested_time_exit_2(tmp_path, argv, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("[synthetic]\noverestimate_max = 1e308\n")
    out = tmp_path / "o"
    assert run_cli(*argv, "--config", str(conf), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "overestimate_max must be finite" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_tiny_arrival_rate_exit_2(tmp_path, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text("[synthetic]\narrival_rate = 1e-300\n")
    out = tmp_path / "o"
    assert run_cli("gen", "--count", "3", "--config", str(conf),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "arrival_rate 1e-300 is too small for 3 jobs" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("section, key, value, argv, message", [
    ("agent", "slots", "0", ["train", "--epochs", "1"], "slots must be >= 1"),
    ("synthetic", "arrival_rate", "0", ["gen", "--count", "20"],
     "arrival_rate must be > 0"),
    ("decision", "min", "512", ["simulate", "--policy", "mars"],
     "0 < MIN < MEDIAN < MAX"),
], ids=["agent", "synthetic", "decision"])
def test_invalid_config_class_value_exit_2(tmp_path, trace_file, section, key,
                                           value, argv, message, capsys):
    conf = tmp_path / "conf.ini"
    conf.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "o"
    trace = [] if argv[0] == "gen" else ["--trace", trace_file]
    assert run_cli(*argv, *trace, "--config", str(conf),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_run_policies_config_key_rejected(tmp_path, trace_file, capsys):
    # compare takes its policies only from --policies
    conf = tmp_path / "conf.ini"
    conf.write_text("[run]\npolicies = fcfs,sjf\n")
    assert run_cli("compare", "--config", str(conf), "--trace", trace_file,
                   "--policies", "fcfs,sjf", "--out", str(tmp_path / "c")) == 2
    assert "unknown key 'policies'" in capsys.readouterr().err


# one non-default value per [agent] key, as the config file spells it and
# as model.json stores it
AGENT_VALUES = {
    "gamma": ("0.9", 0.9), "actor_lr": ("0.002", 0.002),
    "critic_lr": ("0.02", 0.02), "slots": ("5", 5), "epochs": ("7", 7),
    "workers": ("2", 2), "cost_weight": ("0.5", 0.5),
    "validate_every": ("9", 9), "rollback_patience": ("4", 4),
    "hidden": ("6,3", [6, 3]), "time_norm": ("3600", 3600.0),
    "cost_norm": ("5", 5.0),
}


def test_every_agent_key_reaches_model_json(tmp_path, trace_file):
    assert set(AGENT_VALUES) == config.KNOWN_KEYS["agent"]
    defaults = agent.hyper_to_dict(agent.Hyperparameters())
    assert all(stored != defaults[key]
               for key, (_, stored) in AGENT_VALUES.items())
    conf = tmp_path / "conf.ini"
    conf.write_text("[agent]\n" + "".join(
        f"{key} = {text}\n" for key, (text, _) in AGENT_VALUES.items()))
    out = tmp_path / "tr"
    # the flag beats the file's epochs; seed and tau come from the run
    assert run_cli("train", "--config", str(conf), "--trace", trace_file,
                   "--epochs", "0", "--seed", "6", "--tau", "7",
                   "--out", str(out)) == 0
    hyper = json.loads((out / "model.json").read_text())["hyper"]
    expected = {key: stored for key, (_, stored) in AGENT_VALUES.items()}
    assert hyper == dict(expected, epochs=0, seed=6, tau=7.0)


@pytest.mark.parametrize("argv", [
    ["simulate"], ["simulate", "--policy", "mars"],
    ["compare", "--policies", "fcfs,sjf"], ["train"],
    ["evaluate", "--model", "never-read.json"], ["gen"]])
def test_zero_synthetic_jobs_exit_2(tmp_path, argv, capsys):
    flag = "--count" if argv[0] == "gen" else "--synthetic"
    assert run_cli(*argv, flag, "0", "--out", str(tmp_path / "a")) == 2
    conf = tmp_path / "conf.ini"
    conf.write_text("[synthetic]\njob_count = 0\n")
    assert run_cli(*argv, "--config", str(conf),
                   "--out", str(tmp_path / "b")) == 2
    err = capsys.readouterr().err
    assert err.count("synthetic job count must be >= 1, got 0") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--trace", "TRACE"], ["simulate", "--synthetic", "50"],
    ["gen", "--count", "50"]])
def test_negative_seed_exit_2(tmp_path, trace_file, argv, capsys):
    argv = [trace_file if a == "TRACE" else a for a in argv]
    assert run_cli(*argv, "--seed", "-1", "--out", str(tmp_path / "a")) == 2
    conf = tmp_path / "conf.ini"
    conf.write_text("[run]\nseed = -1\n")
    assert run_cli(*argv, "--config", str(conf),
                   "--out", str(tmp_path / "b")) == 2
    err = capsys.readouterr().err
    assert err.count("seed must be >= 0, got -1") == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate"], ["evaluate", "--model", "never-read.json"],
    ["compare", "--policies", "fcfs,sjf"], ["train", "--epochs", "1"]])
@pytest.mark.parametrize("tau", ["0", "-1"])
def test_non_positive_tau_exit_2(tmp_path, trace_file, argv, tau, capsys):
    argv = [*argv, "--trace", trace_file]
    assert run_cli(*argv, f"--tau={tau}", "--out", str(tmp_path / "a")) == 2
    conf = tmp_path / "conf.ini"
    conf.write_text(f"[run]\ntau = {tau}\n")
    assert run_cli(*argv, "--config", str(conf),
                   "--out", str(tmp_path / "b")) == 2
    err = capsys.readouterr().err
    assert err.count(f"tau must be > 0, got {float(tau)}") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "a" / "model.json").exists()


# argv and the config key ("section key", or None) that carry BAD
@pytest.mark.parametrize("argv, key", [
    (["simulate", "--synthetic", "20", "--tau=BAD"], None),
    (["simulate", "--synthetic", "20"], "run tau"),
    (["simulate", "--trace", "TRACE"], "synthetic cost_mean"),
    (["simulate", "--trace", "TRACE", "--policy", "sjf"],
     "synthetic cost_std"),
    (["simulate", "--synthetic", "20"], "synthetic runtime_max"),
    (["simulate", "--synthetic", "20"], "synthetic overestimate_max"),
    (["train", "--synthetic", "20", "--epochs", "1"], "agent actor_lr")],
    ids=["--tau", "[run] tau", "[synthetic] cost_mean",
         "[synthetic] cost_std", "[synthetic] runtime_max",
         "[synthetic] overestimate_max", "[agent] actor_lr"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_number_exit_2(tmp_path, trace_file, argv, key, bad,
                                  capsys):
    argv = [a.replace("BAD", bad).replace("TRACE", trace_file) for a in argv]
    if key is not None:
        section, name = key.split()
        path = tmp_path / "conf.ini"
        path.write_text(f"[{section}]\n{name} = {bad}\n")
        argv += ["--config", str(path)]
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "expected a finite number" in err
    assert "Traceback" not in err
    assert not (out / "model.json").exists()


def test_train_from_heuristic_rejected(tmp_path, trace_file, capsys):
    # the mode is gone: its flag is a usage error, its key an unknown key
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--trace", trace_file, "--train-from-heuristic")
    assert exc.value.code == 2
    conf = tmp_path / "conf.ini"
    conf.write_text("[run]\ntrain_from_heuristic = false\n")
    assert run_cli("simulate", "--config", str(conf), "--trace", trace_file,
                   "--out", str(tmp_path / "o")) == 2
    assert "unknown key 'train_from_heuristic'" in capsys.readouterr().err


def test_ppo_flag_and_keys_rejected(tmp_path, trace_file, capsys):
    # PPO is gone: its flag is a usage error, each of its keys an unknown key
    out = tmp_path / "flag"
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--trace", trace_file, "--ppo", "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()
    for key, value in (("ppo", "on"), ("ppo_clip", "0.2"),
                       ("ppo_epochs", "4")):
        conf = tmp_path / f"{key}.ini"
        conf.write_text(f"[agent]\n{key} = {value}\n")
        out = tmp_path / key
        assert run_cli("train", "--config", str(conf), "--trace", trace_file,
                       "--out", str(out)) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (out / "model.json").exists()


# written by `marsched train --synthetic 20 --epochs 2` with `[agent] slots =
# 3, hidden = 4, ppo = true` before PPO was removed; its hyper carries ppo,
# ppo_clip and ppo_epochs, as every format-1 model file of that time does
PPO_MODEL = ROOT / "tests" / "data" / "model_v1_ppo.json"
# sha256 of jobs.csv and report.csv of `evaluate --synthetic 40 --seed 5`
# with that model, as the program wrote them before PPO was removed. They go
# through numpy matmuls, so they hold for the build named in test_golden.py.
PPO_MODEL_EVALUATE = (
    '7083cf08e52e51013398ff0c1f1719e4a504a31b5e521629e0e6ec1c27ceadf3',
    '55ca541935dcbc57ac330f0eb04ecefaa637c4238e5fe48a69d614e2b8a623a5')


def test_model_written_with_ppo_loads_and_evaluates(tmp_path):
    model = agent.load_model(PPO_MODEL)
    assert model.epoch == 2
    assert model.hyper == agent.Hyperparameters(slots=3, hidden=(4,),
                                                epochs=2)
    out = tmp_path / "ev"
    assert run_cli("evaluate", "--synthetic", "40", "--seed", "5",
                   "--model", str(PPO_MODEL), "--out", str(out)) == 0
    assert (sha256(out / "jobs.csv"),
            sha256(out / "report.csv")) == PPO_MODEL_EVALUATE


def test_model_written_with_ppo_resumes_with_actor_critic(tmp_path):
    # the retired keys change nothing: resuming the file as written and
    # resuming it without them write the same model
    stripped = tmp_path / "stripped.json"
    payload = json.loads(PPO_MODEL.read_text())
    for key in ("ppo", "ppo_clip", "ppo_epochs"):
        del payload["hyper"][key]
    stripped.write_text(json.dumps(payload))
    written = []
    for source, out in ((PPO_MODEL, tmp_path / "a"), (stripped, tmp_path / "b")):
        assert run_cli("train", "--synthetic", "20", "--epochs", "2",
                       "--resume", str(source), "--out", str(out)) == 0
        written.append((out / "model.json").read_bytes())
    assert written[0] == written[1]
    resumed = json.loads(written[0])
    assert resumed["epoch"] == 4
    assert set(resumed["hyper"]) == {
        f.name for f in dataclasses.fields(agent.Hyperparameters)}


def test_model_v1_resumed_is_written_in_format_2(tmp_path):
    # zero epochs keep the parameters: the format-2 file evaluates as the
    # format-1 file it came from
    out = tmp_path / "resumed"
    assert run_cli("train", "--synthetic", "20", "--epochs", "0",
                   "--resume", str(PPO_MODEL), "--out", str(out)) == 0
    written = out / "model.json"
    assert json.loads(written.read_text())["format_version"] == 2
    old, new = agent.load_model(PPO_MODEL), agent.load_model(written)
    assert new.format_version == 2 and new.epoch == old.epoch == 2
    for net in ("actor", "critic"):
        for a, b in zip(getattr(old, net).parameters(),
                        getattr(new, net).parameters()):
            assert a.tobytes() == b.tobytes()
    ev = tmp_path / "ev"
    assert run_cli("evaluate", "--synthetic", "40", "--seed", "5",
                   "--model", str(written), "--out", str(ev)) == 0
    assert (sha256(ev / "jobs.csv"),
            sha256(ev / "report.csv")) == PPO_MODEL_EVALUATE


def _first_weights(payload):
    return payload["actor"]["layers"][0]["weights"]


def _short_data(payload):
    w = _first_weights(payload)
    w["data"] = base64.b64encode(base64.b64decode(w["data"])[:-8]).decode()


@pytest.mark.parametrize("edit, message", [
    (lambda m: _first_weights(m).update(data="@@@@"), "is not base64"),
    (_short_data, "bytes, shape [14, 4] needs"),
    (lambda m: _first_weights(m).update(shape=[14, 5]),
     "bytes, shape [14, 5] needs"),
    (lambda m: _first_weights(m).update(shape=[-14, -4]),
     "is not a list of non-negative ints"),
    (lambda m: _first_weights(m).update(shape=[4, 14]),
     "do not match the hyperparameters")],
    ids=["bad-base64", "short-data", "shape-not-data", "negative-shape",
         "shape-not-hyper"])
def test_bad_format_2_arrays_exit_2(tmp_path, edit, message, capsys):
    source = tmp_path / "v2.json"
    agent.save_model(source, agent.load_model(PPO_MODEL))
    payload = json.loads(source.read_text())
    edit(payload)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("evaluate", "--synthetic", "20", "--model", str(bad),
                   "--out", str(tmp_path / "ev")) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    lambda m: m["hyper"].update(slots=16),
    lambda m: m["hyper"].update(hidden=[5]),
    lambda m: m["critic"]["layers"][-1].update(bias=[0.0, 0.0]),
    lambda m: m["actor_adam"]["m"].pop(),
    lambda m: m["critic_adam"]["v"][0].pop()],
    ids=["slots", "hidden", "critic-bias", "actor-adam-m", "critic-adam-v"])
def test_model_shapes_must_match_hyper_exit_2(tmp_path, edit, capsys):
    payload = json.loads(PPO_MODEL.read_text())
    edit(payload)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    assert run_cli("evaluate", "--synthetic", "20", "--model", str(bad),
                   "--out", str(tmp_path / "ev")) == 2
    err = capsys.readouterr().err
    assert "do not match the hyperparameters" in err
    assert "Traceback" not in err


# sha256 of model.json after `train --synthetic 20 --epochs 2 --resume` of
# the format-1 file, as the program wrote it when each AdamState kept its
# own alpha, betas and eps; numpy matmuls, so for the build of test_golden.py
PPO_MODEL_RESUMED = (
    'cfa81e649e8cf37f6afedd39d5ddd1756917849b3b6d41e411affcf3ed79a14e')
# the same for a format-2 file: sha256 of model.json of `train --synthetic
# 20 --epochs 2` with `[agent] slots = 3, hidden = 4`, of model.json of that
# file resumed as above, and of jobs.csv and report.csv of `evaluate
# --synthetic 40 --seed 5` with it
FRESH_MODEL = (
    '88077e49d8aba612ce0129318236424df8f8a9a4ad89ea0c8f2697dece7dadf1',
    '124ef4c39cc8ebdb50ddf88e742a36352dc35c8987128288720c51c59b02145b',
    '190f7cdf8a1e15053d6a60f02830eb248900f354c0465487ab0152c8de70d05c',
    '8c5baa799214fb22e4da7d926efb2cb99e5a45ca57a6fa9c381c6d023e269423')


def test_model_files_resume_and_evaluate_as_before(tmp_path):
    resumed = tmp_path / "resumed"
    assert run_cli("train", "--synthetic", "20", "--epochs", "2", "--resume",
                   str(PPO_MODEL), "--out", str(resumed)) == 0
    assert sha256(resumed / "model.json") == PPO_MODEL_RESUMED
    cfg = tmp_path / "conf.ini"
    cfg.write_text("[agent]\nslots = 3\nhidden = 4\n")
    fresh, again, ev = tmp_path / "fresh", tmp_path / "again", tmp_path / "ev"
    assert run_cli("train", "--config", str(cfg), "--synthetic", "20",
                   "--epochs", "2", "--out", str(fresh)) == 0
    model = str(fresh / "model.json")
    assert run_cli("train", "--synthetic", "20", "--epochs", "2", "--resume",
                   model, "--out", str(again)) == 0
    assert run_cli("evaluate", "--synthetic", "40", "--seed", "5", "--model",
                   model, "--out", str(ev)) == 0
    assert (sha256(model), sha256(again / "model.json"),
            sha256(ev / "jobs.csv"), sha256(ev / "report.csv")) == FRESH_MODEL


@pytest.mark.parametrize("command", ["train", "evaluate", "inspect"])
@pytest.mark.parametrize("field, value, message", [
    ("alpha", "x", "alpha is 'x', but must be 0.001"),
    ("alpha", 0.002, "alpha is 0.002, but must be 0.001"),
    ("eps", None, "eps is None, but must be 1e-08"),
    ("beta1", 2.0, "beta1 is 2.0, but must be 0.9"),
    ("t", -3, "t is -3, not an int >= 0"),
    ("t", 1.5, "t is 1.5, not an int >= 0")],
    ids=["alpha-text", "alpha-not-lr", "eps-null", "beta1", "t-negative",
         "t-float"])
def test_bad_adam_setting_exit_2(tmp_path, command, field, value, message,
                                 capsys):
    # the Adam block's settings are checked on load, for every command
    # that reads a model
    source = tmp_path / "v2.json"
    agent.save_model(source, agent.load_model(PPO_MODEL))
    payload = json.loads(source.read_text())
    payload["actor_adam"][field] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    argv = {"train": ["train", "--synthetic", "20", "--epochs", "1",
                      "--resume", str(bad)],
            "evaluate": ["evaluate", "--synthetic", "20", "--model",
                         str(bad)],
            "inspect": ["inspect", "--model", str(bad)]}[command]
    out = tmp_path / "out"
    if command != "inspect":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: actor_adam {message}" in err
    assert "Traceback" not in err
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "inspect"])
@pytest.mark.parametrize("value", [-5, 2.7, True],
                         ids=["negative", "float", "bool"])
def test_bad_epoch_exit_2(tmp_path, command, value, capsys):
    # a model file's epoch is checked on load, as Adam's t is: an int >= 0
    payload = json.loads(PPO_MODEL.read_text())
    payload["epoch"] = value
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(payload))
    argv = {"train": ["train", "--synthetic", "20", "--epochs", "1",
                      "--resume", str(bad)],
            "evaluate": ["evaluate", "--synthetic", "20", "--model",
                         str(bad)],
            "inspect": ["inspect", "--model", str(bad)]}[command]
    out = tmp_path / "out"
    if command != "inspect":
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: epoch is {value!r}, not an int >= 0" in err
    assert "Traceback" not in err
    assert not (out / "model.json").exists()


def test_simulate_rl_and_evaluate_write_the_same_files(tmp_path, cfg_file):
    model = tmp_path / "tr" / "model.json"
    assert run_cli("train", "--config", cfg_file, "--out",
                   str(model.parent)) == 0
    sim, ev = tmp_path / "sim", tmp_path / "ev"
    assert run_cli("simulate", "--config", cfg_file, "--policy", "rl",
                   "--model", str(model), "--seed", "4", "--out",
                   str(sim)) == 0
    assert run_cli("evaluate", "--config", cfg_file, "--model", str(model),
                   "--seed", "4", "--out", str(ev)) == 0
    for name in ("jobs.csv", "report.csv"):
        assert (sim / name).read_bytes() == (ev / name).read_bytes()


def test_forced_start_warning(tmp_path, trace_file, cfg_file, monkeypatch,
                              capsys):
    model = tmp_path / "tr" / "model.json"
    assert run_cli("train", "--config", cfg_file, "--epochs", "0", "--out",
                   str(model.parent)) == 0
    assert run_cli("simulate", "--trace", trace_file, "--out",
                   str(tmp_path / "fcfs")) == 0
    assert "warning" not in capsys.readouterr().err
    # a policy that always passes leaves the simulator to start every job
    monkeypatch.setattr(agent.MarsAgent, "make_selector",
                        lambda self, rng, **kw: lambda state: None)
    runs = [tmp_path / "r1", tmp_path / "r2"]
    for out in runs:
        assert run_cli("simulate", "--trace", trace_file, "--policy", "rl",
                       "--model", str(model), "--out", str(out)) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: rl: 40 job(s) force-started after the policy passed "
            "with the cluster idle"]
        assert "warning" not in captured.out
    for name in ("jobs.csv", "report.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_parser_is_built_once_and_parses_afresh(tmp_path, trace_file,
                                               cfg_file, monkeypatch):
    seen = []
    parse = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        namespace = parse(self, *args, **kwargs)
        seen.append(dict(vars(namespace)))
        return namespace

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    model = tmp_path / "tr" / "model.json"
    assert run_cli("train", "--config", cfg_file, "--epochs", "1",
                   "--out", str(model.parent)) == 0
    assert run_cli("simulate", "--trace", trace_file, "--policy", "mars",
                   "--explain", "--backfill", "off", "--out",
                   str(tmp_path / "m")) == 0
    assert run_cli("evaluate", "--config", cfg_file, "--model", str(model),
                   "--out", str(tmp_path / "ev")) == 0
    assert run_cli("simulate", "--trace", trace_file,
                   "--out", str(tmp_path / "s")) == 0
    assert cli.build_parser() is cli.build_parser()
    train, explain, evaluate, plain = seen
    assert explain["explain"] and explain["policy"] == "mars"
    for key in ("explain", "policy", "epochs", "train_on_demand"):
        assert key not in evaluate
    assert evaluate["backfill"] is None and evaluate["trace"] is None
    assert evaluate["config"] == cfg_file
    assert not plain["explain"]
    assert plain["policy"] is None and plain["backfill"] is None


def test_mars_chunks_write_jobs_in_id_order(tmp_path, cfg_file):
    # ids fall as submit times rise, so the chunks that split the trace by
    # position hold interleaved id ranges, last ids first
    gen = workload.generate_synthetic(workload.SyntheticConfig(
        job_count=24, arrival_rate=0.3, runtime_min=5, runtime_max=300,
        total_procs=16, seed=4))
    n = len(gen.jobs)
    swf = tmp_path / "reversed.swf"
    workload.write_swf(swf, dataclasses.replace(gen, jobs=[
        dataclasses.replace(j, id=n - i) for i, j in enumerate(gen.jobs)]))
    conf = tmp_path / "split.ini"
    conf.write_text(open(cfg_file).read()
                    + "\n[decision]\nmin = 2\nmedian = 3\nmax = 10\n")
    out = tmp_path / "mars"
    assert run_cli("simulate", "--config", str(conf), "--trace", str(swf),
                   "--policy", "mars", "--train-on-demand",
                   "--out", str(out)) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert len([r for r in report if r.startswith("rl,")]) == 4
    ids = [int(line.split(",")[0]) for line in
           (out / "jobs.csv").read_text().splitlines()[1:]]
    assert ids == list(range(1, n + 1))


def test_evaluate_rejects_bad_model(tmp_path, cfg_file):
    bad = tmp_path / "model.json"
    bad.write_text('{"format_version": 99}')
    assert run_cli("evaluate", "--config", cfg_file, "--model",
                   str(bad)) == 2


def test_compare_outputs(tmp_path, trace_file, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--trace", trace_file, "--policies",
                   "fcfs,sjf,f1", "--out", str(out)) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert len(lines) == 5                     # schema + header + 3 policies
    assert lines[2].startswith("fcfs,")
    assert lines[3].startswith("sjf,")
    table = capsys.readouterr().out.splitlines()
    assert table[0].split()[:2] == ["policy", "jobs"]
    assert len(table) == 4


def test_compare_needs_two_policies(trace_file):
    assert run_cli("compare", "--trace", trace_file, "--policies",
                   "fcfs") == 2


def test_mars_explain(tmp_path, trace_file, capsys):
    out = tmp_path / "m"
    assert run_cli("simulate", "--trace", trace_file, "--policy", "mars",
                   "--explain", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    plan = json.loads(stdout[:stdout.index("policy=mars")])
    assert plan["schema"] == "marsched.plan.v1"
    assert plan["chunks"][0]["policy"] == "sjf"    # 40 jobs route to SJF
    # the mars aggregate row leads report.csv, chunk rows follow
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[2].startswith("mars,40,")
    assert lines[3].startswith("sjf,")


def test_inspect(tmp_path, trace_file, cfg_file, capsys):
    assert run_cli("inspect", "--trace", trace_file) == 0
    assert "40 jobs" in capsys.readouterr().out
    out = tmp_path / "tr"
    assert run_cli("train", "--config", cfg_file, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("inspect", "--model", str(out / "model.json")) == 0
    assert "format v2, epoch 2" in capsys.readouterr().out
    # the version read from the file, not the one this build writes
    assert run_cli("inspect", "--model", str(PPO_MODEL)) == 0
    assert "format v1, epoch 2" in capsys.readouterr().out
    assert run_cli("inspect") == 2
    assert run_cli("inspect", "--trace", trace_file, "--model", "x") == 2


def test_env_config(tmp_path, cfg_file, monkeypatch):
    monkeypatch.setenv("MARSCHED_CONFIG", cfg_file)
    out = tmp_path / "envrun"
    assert run_cli("simulate", "--policy", "sjf", "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[2].startswith("sjf,25,")      # job_count from the config


def test_run_policy_key_honoured_without_the_flag(tmp_path, trace_file,
                                                  capsys):
    cfg = tmp_path / "policy.ini"
    cfg.write_text("[run]\npolicy = sjf\n")
    out = tmp_path / "p"
    assert run_cli("simulate", "--config", str(cfg), "--trace", trace_file,
                   "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("policy=sjf ")
    # the flag still beats the file
    assert run_cli("simulate", "--config", str(cfg), "--trace", trace_file,
                   "--policy", "wfp3", "--out", str(out)) == 0
    assert capsys.readouterr().out.startswith("policy=wfp3 ")


def test_run_model_key_honoured_by_evaluate(tmp_path, cfg_file, capsys):
    out = tmp_path / "tr"
    assert run_cli("train", "--config", cfg_file, "--out", str(out)) == 0
    cfg = tmp_path / "with_model.ini"
    cfg.write_text(pathlib.Path(cfg_file).read_text()
                   + f"\n[run]\nmodel = {out / 'model.json'}\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("evaluate", "--config", str(cfg), "--out", str(a)) == 0
    assert run_cli("evaluate", "--config", cfg_file, "--model",
                   str(out / "model.json"), "--out", str(b)) == 0
    assert (a / "jobs.csv").read_bytes() == (b / "jobs.csv").read_bytes()
    capsys.readouterr()
    assert run_cli("evaluate", "--config", cfg_file,
                   "--out", str(tmp_path / "c")) == 2
    assert "needs a model" in capsys.readouterr().err


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A model trained for one epoch; the empty config keeps the run off
    $MARSCHED_CONFIG."""
    out = tmp_path_factory.mktemp("model")
    empty = out / "empty.ini"
    empty.write_text("")
    assert run_cli("train", "--config", str(empty), "--synthetic", "20",
                   "--epochs", "1", "--out", str(out)) == 0
    return str(out / "model.json")


def spy_on_cost_draws(monkeypatch):
    """Record (mean, std) of every cli.assign_costs call, then draw."""
    seen = []
    real = cli.assign_costs

    def spy(trace, mean, std, seed):
        seen.append((mean, std))
        return real(trace, mean, std, seed)

    monkeypatch.setattr(cli, "assign_costs", spy)
    return seen


def test_swf_cost_rates_follow_synthetic_config_defaults(
        tmp_path, trace_file, model_file, monkeypatch):
    seen = spy_on_cost_draws(monkeypatch)
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    assert run_cli("evaluate", "--config", str(empty), "--trace", trace_file,
                   "--model", model_file, "--out", str(tmp_path / "a")) == 0
    defaults = {f.name: f.default
                for f in dataclasses.fields(workload.SyntheticConfig)}
    assert seen == [(defaults["cost_mean"], defaults["cost_std"])]
    costs = tmp_path / "costs.ini"
    costs.write_text("[synthetic]\ncost_mean = 2.5\ncost_std = 0.25\n")
    assert run_cli("evaluate", "--config", str(costs), "--trace", trace_file,
                   "--model", model_file, "--out", str(tmp_path / "b")) == 0
    assert seen[1] == (2.5, 0.25)


# only the agent reads a cost rate, so only a command that runs it draws
@pytest.mark.parametrize("argv, draws", [
    *((["simulate", "--policy", name], 0) for name in cli.POLICY_NAMES
      if name not in cli.AGENT_POLICY_NAMES),
    (["compare", "--policies", "fcfs,sjf"], 0),
    (["evaluate", "--model", "MODEL"], 1),
    (["simulate", "--policy", "rl", "--model", "MODEL"], 1),
    (["simulate", "--policy", "mars", "--model", "MODEL"], 1),
    (["compare", "--policies", "fcfs,rl", "--model", "MODEL"], 1),
    (["train", "--epochs", "1"], 1)],
    ids=lambda v: " ".join(v).replace(" MODEL", "") if isinstance(v, list)
    else None)
def test_cost_rates_drawn_only_by_agent_commands(
        tmp_path, trace_file, model_file, monkeypatch, argv, draws):
    seen = spy_on_cost_draws(monkeypatch)
    argv = [model_file if a == "MODEL" else a for a in argv]
    assert run_cli(*argv, "--trace", trace_file,
                   "--out", str(tmp_path / "o")) == 0
    assert len(seen) == draws


@pytest.mark.parametrize("argv", [
    ["simulate", "--policy", "sjf"], ["compare", "--policies", "fcfs,sjf"],
    ["evaluate", "--model", "never-read.json"], ["train", "--epochs", "1"]],
    ids=["simulate sjf", "compare fcfs,sjf", "evaluate", "train"])
@pytest.mark.parametrize("key", ["cost_mean", "cost_std"])
def test_negative_cost_distribution_exit_2(tmp_path, trace_file, argv, key,
                                           capsys):
    # checked whether or not the command draws cost rates
    conf = tmp_path / "conf.ini"
    conf.write_text(f"[synthetic]\n{key} = -1\n")
    out = tmp_path / "o"
    assert run_cli(*argv, "--config", str(conf), "--trace", trace_file,
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "cost distribution parameters must be >= 0" in err
    assert "Traceback" not in err
    assert not (out / "jobs.csv").exists()
    assert not (out / "model.json").exists()


# The wrapper pip's installer (distlib's ScriptMaker) writes for a
# ``module:attr`` entry in ``[project.scripts]``.
CONSOLE_SCRIPT_WRAPPER = """\
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""


def test_console_script_installed(tmp_path):
    """The `marsched` entry point, run through the installer's wrapper."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["marsched"]
    module, attr = spec.split(":")
    script = tmp_path / "marsched"
    script.write_text(CONSOLE_SCRIPT_WRAPPER.format(module=module, attr=attr))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script), "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "marsched" in proc.stdout


@pytest.mark.skipif(shutil.which("marsched") is None,
                    reason="marsched console script not installed on PATH")
def test_console_script_on_path():
    """An installed `marsched` is this checkout's version, not a stale one."""
    proc = subprocess.run([shutil.which("marsched"), "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"marsched {__version__}"
