"""Flat ``key = value`` configuration files.

One assignment per line, ``#`` starts a comment, blank lines are ignored.
Values stay strings until a typed getter or `read_config` pulls them out.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

# `dataclasses.field` metadata. KEY: the field's config key, when it is not
# `<section>.<field name>`; None when the field is not read from a config.
# RANGE: the rule its value must meet, a key of `_RULES` or a tuple of choices.
KEY = "config_key"
NO_KEY = {KEY: None}
RANGE = "config_range"

# Each numeric rule as the text of its error message; NaN meets none.
_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in (0, 1)": lambda v: 0 < v < 1,
}


class ConfigError(ValueError):
    """Malformed config text or a missing/invalid key."""


class ReadLog(dict):
    """A flat config that records in `read` each key whose value was looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key: str) -> str:
        self.read.add(key)
        return super().__getitem__(key)


def check(key: str, value, rule, shown=None):
    """`value`, when it meets `rule` (see `RANGE`); otherwise a `ConfigError`
    that names `key` and `shown`, by default `value`."""
    if (value in rule) if isinstance(rule, tuple) else _RULES[rule](value):
        return value
    must = f"one of {rule}" if isinstance(rule, tuple) else rule
    raise ConfigError(f"key {key!r} must be {must}, got {value if shown is None else shown!r}")


def check_fields(obj, section: str) -> None:
    """`check` each field of dataclass `obj` that has a `RANGE`, in declaration
    order, under its config key, or its name when it has none."""
    for f in dataclasses.fields(obj):
        if RANGE in f.metadata:
            key = f.metadata.get(KEY, f"{section}.{f.name}") or f.name
            check(key, getattr(obj, f.name), f.metadata[RANGE])


def parse_kv(lines) -> dict[str, str]:
    """Parse an iterable of lines (or an open file) into a key/value dict."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        out[key] = value.strip()
    return out


def load_kv(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_kv(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def get_str(cfg: dict[str, str], key: str, default: Optional[str] = None) -> str:
    if key in cfg:
        return cfg[key]
    if default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


def get_float(cfg: dict[str, str], key: str, default: Optional[float] = None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse float from {cfg[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a finite number")
    return value


def get_int(cfg: dict[str, str], key: str, default: Optional[int] = None) -> int:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse int from {cfg[key]!r}") from None


_GETTERS = {bool: lambda cfg, key: get_int(cfg, key) != 0, int: get_int, float: get_float,
            str: get_str}


def read_config(cls, cfg: dict[str, str], section: str, **overrides):
    """Build dataclass `cls` from `cfg`, then `overrides`; missing keys keep its defaults.

    A field's key is `<section>.<field name>` unless its metadata names
    another (see `KEY`). It is read as the exact type of the field's default,
    a bool as an int that is not 0. The dataclass's own checks raise
    `ConfigError` (see `check_fields`).
    """
    values = {}
    for f in dataclasses.fields(cls):
        key = f.metadata.get(KEY, f"{section}.{f.name}")
        if key is not None and key in cfg:
            values[f.name] = _GETTERS[type(f.default)](cfg, key)
    values.update(overrides)
    return cls(**values)
