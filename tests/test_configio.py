"""Config schema: each settings dataclass reads exactly its pinned keys, with
its own defaults, through the entry points that build it."""

import dataclasses

import pytest

from helpers import write_cli_scenario
from vtmigsim import envsim, msrl, trajgen
from vtmigsim.configio import KEY, ConfigError, get_float, load_kv, read_config

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
    with pytest.raises(ConfigError, match="alpha must be in"):
        read_config(envsim.EnvConfig, {"env.alpha": "1"}, "env")
