"""End-to-end command-line behavior: exit codes, files, and byte stability."""

import json
import os

import pytest

from marsched import cli


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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", [0, 1, 3, 4, 7, 8])
def test_non_finite_trace_field_exit_2(tmp_path, field, bad):
    fields = ["1", "0", "-1", "100", "4", "-1", "-1", "4", "200"] + ["-1"] * 9
    fields[field] = bad
    path = tmp_path / "bad.swf"
    path.write_text(" ".join(fields) + "\n")
    assert run_cli("simulate", "--trace", str(path),
                   "--out", str(tmp_path / "o")) == 2


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
    assert "format v1" in capsys.readouterr().out
    assert run_cli("inspect") == 2
    assert run_cli("inspect", "--trace", trace_file, "--model", "x") == 2


def test_env_config(tmp_path, cfg_file, monkeypatch):
    monkeypatch.setenv("MARSCHED_CONFIG", cfg_file)
    out = tmp_path / "envrun"
    assert run_cli("simulate", "--policy", "sjf", "--out", str(out)) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[2].startswith("sjf,25,")      # job_count from the config


def test_console_script_installed():
    import shutil
    import subprocess
    exe = shutil.which("marsched")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "marsched" in proc.stdout
