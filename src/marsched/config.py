"""Sectioned key-value configuration files with strict key checking.

Precedence everywhere: command-line flag > config file > built-in default.
The default config path comes from $MARSCHED_CONFIG when --config is absent.
The [synthetic] and [agent] keys are the fields of the dataclasses they fill,
``SyntheticConfig`` and ``Hyperparameters``; ``Settings.fill`` builds those.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os

from .agent import Hyperparameters
from .errors import ConfigError
from .workload import SyntheticConfig

ENV_CONFIG = "MARSCHED_CONFIG"

KNOWN_KEYS: dict[str, set[str]] = {
    "run": {
        "trace", "policy", "tau", "procs", "seed", "out",
        "backfill", "model", "train_on_demand",
    },
    "synthetic": {f.name for f in dataclasses.fields(SyntheticConfig)},
    # tau and seed are run settings ([run] and flags) that training copies in
    "agent": {f.name for f in dataclasses.fields(Hyperparameters)}
             - {"tau", "seed"},
    "decision": {"min", "median", "max"},
}

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def load_config(path: str | None = None) -> dict[str, dict[str, str]]:
    """Read and validate a config file; returns {} sections when absent."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown config section [{section}]")
        known = KNOWN_KEYS[section]
        out[section] = {}
        for key, value in parser.items(section):
            if key not in known:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in section [{section}]")
            out[section][key] = value
    return out


def as_bool(value, context: str) -> bool:
    if isinstance(value, bool):
        return value
    word = str(value).strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{context}: expected on/off or true/false, got {value!r}")
    return _BOOL_WORDS[word]


def as_int(value, context: str) -> int:
    try:
        return int(str(value).strip())
    except ValueError:
        raise ConfigError(f"{context}: expected an integer, got {value!r}") from None


def as_float(value, context: str) -> float:
    try:
        number = float(str(value).strip())
    except ValueError:
        raise ConfigError(f"{context}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return number


def as_int_tuple(value, context: str) -> tuple[int, ...]:
    if isinstance(value, tuple):
        return value
    try:
        return tuple(int(x) for x in str(value).split(",") if x.strip())
    except ValueError:
        raise ConfigError(
            f"{context}: expected comma-separated integers, got {value!r}") from None


# one cast per field annotation (a string under postponed evaluation)
CASTS = {"int": as_int, "int | None": as_int, "float": as_float,
         "tuple[int, ...]": as_int_tuple, "str": None}


class Settings:
    """Resolves one value at a time through the precedence chain."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections

    def get(self, section: str, key: str, override=None, default=None,
            cast=None):
        value = override
        if value is None:
            value = self.sections.get(section, {}).get(key)
        if value is None:
            return default
        if cast is None:
            return value
        return cast(value, f"[{section}] {key}")

    def fill(self, cls, section: str, flags: dict, **fixed):
        """An instance of the dataclass ``cls``. Fields in ``fixed`` take the
        given value; every other field resolves its flag in ``flags``, then
        its key in [section], then the field default."""
        values = {f.name: self.get(section, f.name, flags.get(f.name),
                                   f.default, CASTS[f.type])
                  for f in dataclasses.fields(cls) if f.name not in fixed}
        return cls(**values, **fixed)
