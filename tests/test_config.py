"""Config file parsing, key validation, and the override precedence chain."""

import dataclasses

import pytest

from marsched.agent import Hyperparameters
from marsched.config import (ENV_CONFIG, KNOWN_KEYS, Settings, as_bool,
                             as_float, as_int, as_int_tuple, load_config)
from marsched.decision import Thresholds
from marsched.errors import ConfigError
from marsched.workload import SyntheticConfig


def write(tmp_path, text):
    path = tmp_path / "conf.ini"
    path.write_text(text)
    return str(path)


def test_load_sections_and_keys(tmp_path):
    path = write(tmp_path, """
[run]
policy = sjf
tau = 5.0

[decision]
min = 10
median = 20
max = 100
""")
    cfg = load_config(path)
    assert cfg["run"]["policy"] == "sjf"
    assert cfg["decision"]["max"] == "100"


def test_unknown_section_rejected(tmp_path):
    path = write(tmp_path, "[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "[run]\nbogus_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/does/not/exist.ini")


def test_no_config_is_empty():
    import os
    saved = os.environ.pop(ENV_CONFIG, None)
    try:
        assert load_config(None) == {}
    finally:
        if saved is not None:
            os.environ[ENV_CONFIG] = saved


def test_env_var_fallback(tmp_path, monkeypatch):
    path = write(tmp_path, "[run]\nseed = 77\n")
    monkeypatch.setenv(ENV_CONFIG, path)
    cfg = load_config(None)
    assert cfg["run"]["seed"] == "77"


def test_precedence_override_beats_file_beats_default(tmp_path):
    settings = Settings(load_config(write(tmp_path, "[run]\nseed = 5\n")))
    assert settings.get("run", "seed", None, 0, as_int) == 5         # file
    assert settings.get("run", "seed", 9, 0, as_int) == 9            # override
    assert settings.get("run", "tau", None, 10.0, as_float) == 10.0  # default


def test_casts():
    assert as_bool("on", "x") is True
    assert as_bool("off", "x") is False
    assert as_bool("true", "x") is True
    assert as_bool(False, "x") is False
    assert as_int(" 42 ", "x") == 42
    assert as_float("2.5", "x") == 2.5
    assert as_int_tuple("64, 64", "x") == (64, 64)
    assert as_int_tuple((3, 4), "x") == (3, 4)
    for bad in (lambda: as_bool("maybe", "x"), lambda: as_int("4.5", "x"),
                lambda: as_float("abc", "x"), lambda: as_int_tuple("a,b", "x")):
        with pytest.raises(ConfigError):
            bad()


def test_cast_error_names_the_key(tmp_path):
    settings = Settings(load_config(write(tmp_path, "[run]\nseed = oops\n")))
    with pytest.raises(ConfigError) as err:
        settings.get("run", "seed", None, 0, as_int)
    assert "seed" in str(err.value)


def test_known_keys_unchanged_by_deriving_them_from_the_fields():
    # the sets as they were spelled out by hand before [synthetic] and
    # [agent] came from SyntheticConfig and Hyperparameters
    assert KNOWN_KEYS == {
        "run": {
            "trace", "policy", "tau", "procs", "seed", "out",
            "backfill", "model", "train_on_demand",
        },
        "synthetic": {
            "job_count", "arrival_rate", "runtime_min", "runtime_max",
            "total_procs", "max_cores_exp", "overestimate_min",
            "overestimate_max", "cost_mean", "cost_std", "seed", "name",
        },
        "agent": {
            "gamma", "actor_lr", "critic_lr", "slots", "epochs", "workers",
            "cost_weight", "validate_every", "rollback_patience", "hidden",
            "time_norm", "cost_norm",
        },
        "decision": {"min", "median", "max"},
    }


@pytest.mark.parametrize("cls, base, bad, message", [
    (Hyperparameters, {}, {"slots": 0}, "slots must be >= 1"),
    (SyntheticConfig, {"job_count": 5}, {"arrival_rate": 0.0},
     "arrival_rate must be > 0"),
    (Thresholds, {}, {"min_size": 512}, "0 < MIN < MEDIAN < MAX"),
], ids=["Hyperparameters", "SyntheticConfig", "Thresholds"])
def test_config_classes_check_themselves(cls, base, bad, message):
    # no instance holds an invalid value, however it is made
    valid = cls(**base)
    with pytest.raises(ConfigError, match=message):
        cls(**base, **bad)
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(valid, **bad)
