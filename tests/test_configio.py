"""Config schema: each settings dataclass reads exactly its pinned keys, with
its own defaults, through the entry points that build it."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from helpers import write_cli_scenario
from vtmigsim import envsim, msrl, trajgen
from vtmigsim.configio import KEY, RANGE, ConfigError, get_float, load_kv, read_config

# Every key each dataclass reads, set to a value that is not its default, and
# the field value it must build. train.ch, channel.gain and gen.count_scale
# are the keys that differ from their field names.
SCHEMA = {
    "train": (msrl.TrainConfig, {
        "train.gamma": ("0.9", "gamma", 0.9),
        "train.lam": ("0.8", "lam", 0.8),
        "train.clip": ("0.3", "clip", 0.3),
        "train.epochs": ("2", "epochs", 2),
        "train.minibatch": ("5", "minibatch", 5),
        "train.lr": ("2e-3", "lr", 2e-3),
        "train.episodes": ("7", "episodes", 7),
        "train.window": ("3", "window", 3),
        "train.hold": ("5", "hold", 5),
        "train.flutter_limit": ("2", "flutter_limit", 2),
        "train.thr0": ("1.5", "thr0", 1.5),
        "train.ch": ("0.01", "change", 0.01),
        "train.shared_critic": ("0", "shared_critic", False),
    }),
    "env": (envsim.EnvConfig, {
        "env.alpha": ("0.25", "alpha", 0.25),
        "env.mu": ("0.75", "mu", 0.75),
        "env.tau": ("1e-7", "tau", 1e-7),
        "env.lambda1": ("2", "lambda1", 2.0),
        "env.lambda2": ("3", "lambda2", 3.0),
        "env.slot_seconds": ("0.5", "slot_seconds", 0.5),
        "env.horizon": ("12", "horizon", 12),
        "env.reward_mode": ("qoe", "reward_mode", "qoe"),
        "env.background_mean": ("0.3", "background_mean", 0.3),
        "env.background_unit": ("1e8", "background_unit", 1e8),
        "env.init_load": ("1e9", "init_load", 1e9),
        "env.warmup_slots": ("4", "warmup_slots", 4),
    }),
    "channel": (envsim.ChannelParams, {
        "channel.gain": ("2", "gain_coeff", 2.0),
        "channel.carrier": ("5.9e9", "carrier", 5.9e9),
        "channel.light_speed": ("2.9e8", "light_speed", 2.9e8),
    }),
    "gen": (trajgen.GenConfig, {
        "gen.delta_t": ("10", "delta_t", 10.0),
        "gen.bandwidth": ("20", "bandwidth", 20.0),
        "gen.count_scale": ("2", "per_hour_count_scale", 2.0),
        "gen.max_speed": ("40", "max_speed", 40.0),
        "gen.gap_split": ("100", "gap_split", 100.0),
    }),
}


def _build(section, kv, tmp_path):
    """The `section` dataclass as its entry point builds it from `kv`."""
    if section == "train":
        return msrl.train_config_from(kv)
    if section == "gen":  # cli.cmd_trajgen's call
        return read_config(trajgen.GenConfig, kv, "gen")
    scenario = load_kv(write_cli_scenario(tmp_path))
    scenario = {k: v for k, v in scenario.items() if not k.startswith(section + ".")}
    env = envsim.build_env({**scenario, **kv})
    return env.cfg if section == "env" else env.channel


@pytest.mark.parametrize("section", sorted(SCHEMA))
def test_each_key_sets_its_field_and_a_missing_key_keeps_the_default(tmp_path, section):
    cls, keys = SCHEMA[section]
    declared = {f.metadata.get(KEY, f"{section}.{f.name}") for f in dataclasses.fields(cls)}
    assert declared - {None} == set(keys)

    built = _build(section, {key: text for key, (text, _, _) in keys.items()}, tmp_path)
    defaults = cls()
    for key, (_, name, value) in keys.items():
        assert getattr(defaults, name) != value, key
        assert getattr(built, name) == value and type(getattr(built, name)) is type(value), key
    assert _build(section, {}, tmp_path) == defaults


def test_seed_mode_and_split_index_are_not_train_keys():
    cfg = {"train.seed": "5", "train.mode": "client", "train.split_index": "3"}
    assert msrl.train_config_from(cfg) == msrl.TrainConfig()
    assert msrl.train_config_from(cfg, seed=5, mode="client").seed == 5


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_get_float_rejects_non_finite_values(text):
    with pytest.raises(ConfigError, match=r"key 'env\.mu'"):
        get_float({"env.mu": text}, "env.mu")


def test_dataclass_check_becomes_config_error():
    with pytest.raises(ConfigError, match=r"^key 'env\.alpha' must be in \[0, 1\), got 1\.0$"):
        read_config(envsim.EnvConfig, {"env.alpha": "1"}, "env")


def _ranged_floats():
    for section, (cls, _) in SCHEMA.items():
        for f in dataclasses.fields(cls):
            if RANGE in f.metadata and isinstance(f.default, float):
                yield cls, f.name, f.metadata.get(KEY, f"{section}.{f.name}")


@pytest.mark.parametrize("cls, name, key", list(_ranged_floats()))
def test_nan_in_code_meets_no_range(cls, name, key):
    with pytest.raises(ConfigError, match=rf"^key '{re.escape(key)}' must be .*, got nan$"):
        cls(**{name: math.nan})


def test_a_setting_with_no_key_is_named_by_its_field():
    with pytest.raises(ConfigError, match=re.escape(
            "key 'mode' must be one of ('split', 'client', 'server'), got 'both'")):
        msrl.TrainConfig(mode="both")


def _readme_settings():
    """The README's settings table as (key, default text, range text) rows."""
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Key | Default | Range | Meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, rule = (cell.strip() for cell in line.strip("|").split("|")[:3])
        rows.append((key.strip("`"), default, rule))
    return rows


def test_readme_settings_table_is_the_declared_keys_defaults_and_ranges():
    declared = []
    for section in ("train", "env", "channel", "gen"):
        for f in dataclasses.fields(SCHEMA[section][0]):
            key = f.metadata.get(KEY, f"{section}.{f.name}")
            if key is None:
                continue
            rule = f.metadata.get(RANGE, "any")
            if isinstance(rule, tuple):
                rule = "one of " + ", ".join(f"`{choice}`" for choice in rule)
            declared.append((key, f.default, rule))
    for section, names in envsim.UNIT_KEYS.items():
        declared += [(f"{section}.{name}", default, rule)
                     for name, (default, rule) in names.items()]
    table = _readme_settings()
    assert [key for key, _, _ in table] == [key for key, _, _ in declared]
    for (key, text, rule), (_, default, want) in zip(table, declared):
        if text == "required":
            value = None
        else:
            value = int(text) != 0 if type(default) is bool else type(default)(text)
        assert (value, rule) == (default, want), key
