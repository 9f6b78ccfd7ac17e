"""CLI contract: exit codes, scenario key fallbacks, and checkpoints that do
not fit the scenario."""

import contextlib
import csv
import dataclasses
import io
import math
import os
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_cli_scenario, write_train_cfg
from vtmigsim import cli, envsim, msrl, neuralcore, trajgen
from vtmigsim.configio import KEY, RANGE, load_kv


def test_commands_that_succeed_exit_0(tmp_path):
    scenario = write_cli_scenario(tmp_path)
    ckpt = str(tmp_path / "t" / "ckpt_final.txt")
    runs = [
        (["train", "--scenario", scenario, "--out", str(tmp_path / "t"), "--episodes", "1"],
         "t/train_report.csv"),
        (["eval", "--scenario", scenario, "--checkpoint", ckpt, "--out", str(tmp_path / "e"),
          "--episodes", "1"], "e/eval_metrics.csv"),
        (["compare", "--scenario", scenario, "--out", str(tmp_path / "c"), "--episodes", "2",
          "--sweep-param", "rsu.max_load", "--sweep-values", "5e10"], "c/compare_results.csv"),
    ]
    for argv, output in runs:
        assert cli.main(argv) == cli.EXIT_OK
        assert (tmp_path / output).exists()


def test_train_writes_the_checkpoint_its_sidecar_and_the_report(tmp_path):
    scenario = write_cli_scenario(tmp_path)
    out = tmp_path / "t"
    assert cli.main(["train", "--scenario", scenario, "--out", str(out), "--episodes", "1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "ckpt_final.txt", "ckpt_final.txt.f8", "train_report.csv"]


@pytest.mark.parametrize("problem", ["missing_scenario", "unknown_policy", "bad_sweep"])
def test_bad_input_exits_2(tmp_path, capsys, problem):
    scenario = write_cli_scenario(tmp_path)
    argv = {
        "missing_scenario": ["eval", "--scenario", str(tmp_path / "none.cfg"),
                             "--policy", "full_migration"],
        "unknown_policy": ["eval", "--scenario", scenario, "--policy", "nearest"],
        "bad_sweep": ["compare", "--scenario", scenario, "--sweep-param", "rsu.max_load",
                      "--sweep-values", "5e10,lots"],
    }[problem]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


def test_training_abort_exits_3(tmp_path, capsys, monkeypatch):
    scenario = write_cli_scenario(tmp_path)
    monkeypatch.setattr(msrl, "compute_qhat", lambda buffer, *args: np.full_like(buffer.rewards, np.nan))
    out = tmp_path / "out"
    argv = ["train", "--scenario", scenario, "--out", str(out), "--episodes", "1"]
    assert cli.main(argv) == cli.EXIT_ABORT
    assert "training aborted: non-finite loss at episode 0" in capsys.readouterr().err
    assert (out / "abort_dump.txt").read_text(encoding="utf-8").startswith(
        "non-finite loss at episode 0\nepisode = 0\ncritic_loss = nan\n")
    assert sorted(p.name for p in out.iterdir()) == ["abort_dump.txt"]


def test_a_key_error_inside_a_command_is_not_a_config_error(tmp_path, monkeypatch):
    """Only a ValueError (ConfigError among them) exits 2: a KeyError is a bug."""
    scenario = write_cli_scenario(tmp_path)

    def broken(*args, **kwargs):
        raise KeyError("critic_loss")

    monkeypatch.setattr(msrl, "train", broken)
    argv = ["train", "--scenario", scenario, "--out", str(tmp_path / "out"), "--episodes", "1"]
    with pytest.raises(KeyError, match="critic_loss"):
        cli.main(argv)


def test_unwritable_output_exits_4(tmp_path, capsys):
    scenario = write_cli_scenario(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = ["eval", "--scenario", scenario, "--policy", "full_migration", "--episodes", "1",
            "--out", str(blocker / "out")]
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_a_table_that_cannot_be_renamed_exits_4_leaving_no_partial(tmp_path, capsys, monkeypatch):
    scenario = write_cli_scenario(tmp_path)
    replace = os.replace

    def refuse_tables(src, dst):
        if str(dst).endswith(".csv"):
            raise OSError(28, "No space left on device", str(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse_tables)
    out = tmp_path / "out"
    argv = ["eval", "--scenario", scenario, "--policy", "full_migration", "--episodes", "1",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert out.is_dir() and not list(out.glob("*.partial"))


def test_build_env_key_fallbacks(tmp_path):
    cfg = load_kv(write_cli_scenario(tmp_path))
    cfg.update({"veh.1.power": "0.5", "backhaul.2.0": "3e8", "backhaul.0.1": "4e8",
                "backhaul.1.0": "6e8"})
    env = envsim.build_env(cfg)
    # veh.<i>.<name> overrides veh.<name> for vehicle i only.
    assert env.tx_power.tolist() == [0.2, 0.5, 0.2]
    # backhaul.j.i stands in for a missing backhaul.i.j; each given direction
    # keeps its own value; unnamed links take backhaul.default; no RSU links
    # to itself.
    assert env.backhaul.tolist() == [[0.0, 4e8, 3e8], [6e8, 0.0, 1e9], [3e8, 1e9, 0.0]]


def test_backhaul_pair_with_no_key_exits_2_before_output(tmp_path, capsys):
    scenario = Path(write_cli_scenario(tmp_path))
    text = scenario.read_text(encoding="utf-8")
    scenario.write_text(text.replace("backhaul.default = 1e9\n", "backhaul.0.1 = 1e9\n"),
                        encoding="utf-8")
    out = tmp_path / "out"
    argv = ["train", "--scenario", str(scenario), "--out", str(out), "--episodes", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: no backhaul bandwidth for RSU pair (0,2): "
        "set one of backhaul.0.2, backhaul.2.0, backhaul.default\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "compare", "resume"])
def test_checkpoint_for_other_vehicle_count_is_a_config_error(tmp_path, capsys, command):
    two = write_cli_scenario(tmp_path, n_vehicles=2)
    three = write_cli_scenario(tmp_path, n_vehicles=3)
    ckpt = str(tmp_path / "t2" / "ckpt_final.txt")
    assert cli.main(["train", "--scenario", two, "--out", str(tmp_path / "t2"),
                     "--episodes", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    out = str(tmp_path / "out")
    argv = {
        "eval": ["eval", "--scenario", three, "--checkpoint", ckpt, "--out", out,
                 "--episodes", "1"],
        "compare": ["compare", "--scenario", three, "--checkpoint", ckpt, "--out", out,
                    "--episodes", "1", "--sweep-param", "rsu.max_load",
                    "--sweep-values", "5e10"],
        "resume": ["train", "--scenario", three, "--resume", ckpt, "--out", out,
                   "--episodes", "1"],
    }[command]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "meta/agents = 2" in err and "needs 3" in err
    assert not (tmp_path / "out" / "train_report.csv").exists()


def test_checkpoint_sizes_are_checked_before_its_bundle_is_allocated(tmp_path, capsys):
    """A checkpoint that claims 1e15 agents is refused by its size, not by the
    allocation of a bundle that large."""
    scenario = write_cli_scenario(tmp_path)
    assert cli.main(["train", "--scenario", scenario, "--out", str(tmp_path / "t"),
                     "--episodes", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    tensors = neuralcore.load_checkpoint(str(tmp_path / "t" / "ckpt_final.txt"))
    tensors["meta/agents"] = np.array([[1e15]])
    ckpt = str(tmp_path / "huge.txt")
    neuralcore.save_checkpoint(ckpt, tensors.items())
    out = tmp_path / "out"
    argv = ["eval", "--scenario", scenario, "--checkpoint", ckpt, "--policy", "split",
            "--episodes", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: checkpoint {ckpt} has meta/agents = 1000000000000000, "
                          "but the scenario needs 3")
    assert not out.exists()


def test_checkpoint_without_a_needed_tensor_is_a_config_error(tmp_path, capsys):
    scenario = write_cli_scenario(tmp_path)
    ckpt = str(tmp_path / "shared" / "ckpt_final.txt")
    assert cli.main(["train", "--scenario", scenario, "--out", str(tmp_path / "shared"),
                     "--episodes", "1"]) == cli.EXIT_OK
    capsys.readouterr()
    per_agent = write_train_cfg(tmp_path, shared_critic=0)
    argv = ["train", "--scenario", scenario, "--train-cfg", per_agent, "--resume", ckpt,
            "--out", str(tmp_path / "out"), "--episodes", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ckpt in err and "critic1/W0" in err
    assert not (tmp_path / "out" / "train_report.csv").exists()


def test_compare_reads_the_checkpoint_once(tmp_path, monkeypatch):
    scenario = write_cli_scenario(tmp_path)
    ckpt = str(tmp_path / "t" / "ckpt_final.txt")
    assert cli.main(["train", "--scenario", scenario, "--out", str(tmp_path / "t"),
                     "--episodes", "1"]) == cli.EXIT_OK
    loads = []
    load = neuralcore.load_checkpoint
    monkeypatch.setattr(neuralcore, "load_checkpoint", lambda path: loads.append(path) or load(path))
    argv = ["compare", "--scenario", scenario, "--checkpoint", ckpt, "--out", str(tmp_path / "c"),
            "--episodes", "1", "--sweep-param", "rsu.max_load", "--sweep-values", "3e10,4e10,5e10"]
    assert cli.main(argv) == cli.EXIT_OK
    assert loads == [ckpt]
    # Heuristics alone do not read it.
    argv[argv.index("--out") + 1] = str(tmp_path / "h")
    assert cli.main(argv + ["--policy", "full_migration,random_migration"]) == cli.EXIT_OK
    assert loads == [ckpt]


def _run_argv(command, scenario, kind, out):
    """`eval` or `compare` of one policy kind for two episodes, without a checkpoint."""
    argv = {
        "eval": ["eval", "--policy", kind, "--episodes", "2"],
        "compare": ["compare", "--policy", kind, "--episodes", "2",
                    "--sweep-param", "rsu.max_load", "--sweep-values", "3e10,5e10"],
    }[command]
    return argv + ["--scenario", scenario, "--out", str(out)]


def _edited_scenario(tmp_path, add=(), drop=None):
    """`write_cli_scenario`'s scenario without the line that sets key `drop`, and
    with the lines `add` appended (a later line sets a key again)."""
    path = Path(write_cli_scenario(tmp_path))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(x for x in lines if x.split(" = ")[0] != drop)
                    + "".join(line + "\n" for line in add), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("kind", ["split", "local_edge", "local", "full_migration",
                                  "random_migration"])
@pytest.mark.parametrize("line, message", [
    ("env.alpha = 5", "key 'env.alpha' must be in [0, 1), got 5.0"),
    ("env.warmup_slots = -3", "key 'env.warmup_slots' must be >= 0, got -3"),
], ids=["alpha_5", "warmup_slots_negative"])
def test_a_policy_override_never_hides_an_invalid_value(tmp_path, capsys, command, kind, line,
                                                         message):
    """full_migration replaces env.alpha, and the heuristics env.warmup_slots, only
    after the scenario's own values passed their checks."""
    out = tmp_path / "out"
    assert cli.main(_run_argv(command, _edited_scenario(tmp_path, [line]), kind, out)) == (
        cli.EXIT_CONFIG)
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("kind", ["full_migration", "random_migration"])
def test_heuristic_outputs_do_not_depend_on_the_warmup(tmp_path, command, kind):
    """The heuristics read no observation, so the latency scale that the warm-up
    sets cannot reach their outputs."""
    outputs = []
    for slots in (0, 4):
        out = tmp_path / f"w{slots}"
        scenario = _edited_scenario(tmp_path, [f"env.warmup_slots = {slots}"])
        assert cli.main(_run_argv(command, scenario, kind, out)) == cli.EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]


def test_only_learned_kinds_calibrate_the_latency_scale(tmp_path, monkeypatch):
    scenario = write_cli_scenario(tmp_path)  # env.warmup_slots = 4
    calls = []
    calibrate = envsim.PremigrationEnv._calibrate_latency_scale
    monkeypatch.setattr(envsim.PremigrationEnv, "_calibrate_latency_scale",
                        lambda env, seed: calls.append(seed) or calibrate(env, seed))
    for command in ("eval", "compare"):
        for kind in ("full_migration", "random_migration"):
            argv = _run_argv(command, scenario, kind, tmp_path / f"{command}_{kind}")
            assert cli.main(argv) == cli.EXIT_OK
    assert calls == []
    # One calibration per episode: 2 in eval, 2 per sweep value in compare.
    assert cli.main(_run_argv("eval", scenario, "split", tmp_path / "e")) == cli.EXIT_OK
    assert calls == [0, 1]
    calls.clear()
    assert cli.main(_run_argv("compare", scenario, "split", tmp_path / "c")) == cli.EXIT_OK
    assert calls == [0, 1, 1000, 1001]


_SWEEP = ["--sweep-param", "rsu.max_load", "--sweep-values"]


@pytest.mark.parametrize("argv, add, drop, message", [
    (["compare", "--policy", "split,nearest", *_SWEEP, "5e10"], [], None,
     "unknown policy kind 'nearest'"),
    # The kind is checked before the scenario is read, so its bad alpha does not hide it.
    (["eval", "--policy", "nearest"], ["env.alpha = 5"], None, "unknown policy kind 'nearest'"),
    (["compare", *_SWEEP, " , "], [], None, "empty sweep value list"),
    (["train", "--policy", "full_migration"], [], None,
     "cannot train policy kind 'full_migration'"),
    (["trajgen"], [], None, "input produced no usable segments"),
    (["train"], ["veh.traj_csv = {tmp}/empty.csv"], None,
     "no trajectories available for vehicles"),
    (["train"], [], "rsu.compute", "missing required key 'rsu.compute'"),
    (["train"], [], "rsu.count", "missing required key 'rsu.count'"),
    (["train"], ["rsu.compute = lots"], None, "key 'rsu.compute': cannot parse float from 'lots'"),
    (["train"], ["veh.count = three"], None, "key 'veh.count': cannot parse int from 'three'"),
    (["train"], ["rsu.compute 1e10"], None,
     "line {last}: expected 'key = value', got 'rsu.compute 1e10'"),
    (["train"], [" = 1e10"], None, "line {last}: empty key"),
], ids=["compare_unknown_kind", "eval_unknown_kind", "compare_empty_sweep", "train_heuristic", "trajgen_no_segments",
        "no_trajectories", "float_missing", "int_missing", "float_unparsable", "int_unparsable",
        "kv_no_equals", "kv_empty_key"])
def test_config_error_exits_2_with_its_message_before_output(tmp_path, capsys, argv, add, drop,
                                                             message):
    """`{last}` in the message is the number of the scenario's last line."""
    (tmp_path / "empty.csv").write_text("vehicle_id,t,x,y\n", encoding="utf-8")
    points = tmp_path / "points.csv"  # two one-point tracks: no segment of two points
    points.write_text("vehicle_id,t,x,y\n0,0,0,0\n1,5,200,0\n", encoding="utf-8")
    if argv == ["trajgen"]:
        argv = argv + ["--gen-cfg",
                       _write_gen_cfg(tmp_path, f"gen.synthetic = 0\ngen.input = {points}\n")]
    else:
        add = [line.format(tmp=tmp_path) for line in add]
        scenario = _edited_scenario(tmp_path, add, drop)
        message = message.format(last=len(Path(scenario).read_text(encoding="utf-8").splitlines()))
        argv = argv + ["--scenario", scenario, "--episodes", "1"]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    ("meta/episode 0 0\n", "checkpoint tensor meta/episode has shape (0, 0), expected (1, 1)"),
    ("x/W0 1 1\n0\n", "checkpoint has no tensor meta/episode"),
    ("meta/episode 1\n", "line 2: not enough values to unpack (expected 3, got 2)"),
    ("meta/episode 1 1\nabc\n", "line 3: could not convert string to float: 'abc'"),
    ("meta/episode -1 1\n", "line 2: negative dimensions are not allowed"),
    ("meta/episode 2 1\n0\n", "line 4: tensor meta/episode: the file ends before row 1 of 2"),
    ("x/W0 1000000000000 1000000\n",
     "line 3: tensor x/W0: the file ends before row 0 of 1000000000000"),
    ("x\u00ff/W0 1 1\n0\n", "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 14"),
    ("meta/episode 1 1\n0\nmeta/episode 1 1\n7\n",
     "line 4: tensor meta/episode repeats the tensor of line 2"),
    *((f"meta/episode 1 1\n0\nmeta/agents 1 1\n{value}\n",
       f"checkpoint tensor meta/agents must be an integer >= 1, got {shown}")
      for value, shown in (("inf", "inf"), ("nan", "nan"), ("-1", "-1.0"), ("2.5", "2.5"))),
], ids=["meta_empty", "meta_missing", "header_short", "row_unparsable", "rows_negative",
        "rows_truncated", "rows_beyond_memory", "not_utf8", "tensor_repeated", "agents_inf",
        "agents_nan", "agents_negative", "agents_fraction"])
def test_malformed_checkpoint_exits_2_naming_it(tmp_path, capsys, body, message):
    scenario = write_cli_scenario(tmp_path)
    ckpt = tmp_path / "ckpt.txt"
    # latin-1 writes each character as one byte, so a body can hold a byte that is not UTF-8
    ckpt.write_text(f"{neuralcore.CKPT_MAGIC}\n{body}", encoding="latin-1")
    out = tmp_path / "out"
    argv = ["eval", "--scenario", scenario, "--checkpoint", str(ckpt), "--policy", "split",
            "--episodes", "1", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ckpt}: ") and message in err
    assert not out.exists()


@pytest.fixture(scope="module")
def split_checkpoint(tmp_path_factory):
    """`write_cli_scenario`'s scenario and the tensors of a one-episode split
    checkpoint trained on it at seed 3."""
    directory = tmp_path_factory.mktemp("split_checkpoint")
    scenario = write_cli_scenario(directory)
    assert cli.main(["train", "--scenario", scenario, "--out", str(directory / "t"),
                     "--seed", "3", "--episodes", "1"]) == cli.EXIT_OK
    return scenario, neuralcore.load_checkpoint(str(directory / "t" / "ckpt_final.txt"))


def _eval_with_value(tmp_path, capsys, split_checkpoint, kind, tensor, value):
    """Evaluate `kind` on the split checkpoint with `value` at [0, 0] of `tensor`;
    returns (exit code, stderr, checkpoint path, whether --out exists)."""
    scenario, tensors = split_checkpoint
    edited = {name: t.copy() for name, t in tensors.items()}
    edited[tensor][0, 0] = value
    ckpt = str(tmp_path / "edited.txt")
    neuralcore.save_checkpoint(ckpt, edited.items())
    capsys.readouterr()
    out = tmp_path / "out"
    code = cli.main(["eval", "--scenario", scenario, "--checkpoint", ckpt, "--policy", kind,
                     "--episodes", "1", "--out", str(out)])
    return code, capsys.readouterr().err, ckpt, out.exists()


@pytest.mark.parametrize("kind", ["split", "local", "local_edge"])
@pytest.mark.parametrize("tensor, value", [
    ("agent0/client_trunk/W0", math.nan), ("agent1/server_head/b0", math.inf),
    ("agent2/server_trunk/W1", -math.inf), ("critic0/b2", math.nan),
])
def test_a_non_finite_parameter_exits_2_naming_its_tensor(tmp_path, capsys, split_checkpoint,
                                                          kind, tensor, value):
    """Every learned kind refuses it, also in a component its path never runs."""
    code, err, ckpt, out_exists = _eval_with_value(tmp_path, capsys, split_checkpoint, kind,
                                                   tensor, value)
    assert code == cli.EXIT_CONFIG
    assert err == f"config error: {ckpt}: checkpoint tensor {tensor} holds a non-finite value\n"
    assert not out_exists


@pytest.mark.parametrize("value, shown", [
    (math.inf, "inf"), (math.nan, "nan"), (-5.0, "-5.0"), (1.5, "1.5"),
])
def test_a_controller_value_that_is_no_count_exits_2_naming_its_tensor(
    tmp_path, capsys, split_checkpoint, value, shown
):
    code, err, ckpt, out_exists = _eval_with_value(tmp_path, capsys, split_checkpoint, "split",
                                                   "agent0/ctrl", value)
    assert code == cli.EXIT_CONFIG
    assert err.startswith(f"config error: {ckpt}: checkpoint tensor agent0/ctrl must hold "
                          f"integers >= 0, got [{shown}, ")
    assert not out_exists


@pytest.mark.parametrize("tensor, value", [
    ("agent0/ctrl", 0.0), ("agent2/client_head/W0", np.finfo(float).max),
])
def test_checkpoint_values_on_the_edge_of_the_rules_load(tmp_path, capsys, split_checkpoint,
                                                         tensor, value):
    """A controller count of 0 and the largest finite weight are accepted."""
    code, err, _, out_exists = _eval_with_value(tmp_path, capsys, split_checkpoint, "split",
                                                tensor, value)
    assert (code, err) == (cli.EXIT_OK, "") and out_exists


@pytest.mark.parametrize("sidecar", ["none", "stale"])
def test_eval_leaves_the_checkpoints_directory_as_it_was(tmp_path, split_checkpoint, sidecar):
    """A checkpoint with no sidecar, or with one of another text, is parsed on
    every eval, and no eval writes next to it: names and bytes stay."""
    scenario, tensors = split_checkpoint
    directory = tmp_path / "ckpt"
    directory.mkdir()
    ckpt = str(directory / "ckpt.txt")
    neuralcore.save_checkpoint(ckpt, tensors.items())
    if sidecar == "none":
        os.remove(ckpt + ".f8")
    else:
        neuralcore.save_checkpoint(str(directory / "other.txt"), [("meta/episode", np.zeros(1))])
        os.replace(directory / "other.txt.f8", ckpt + ".f8")
    before = {path.name: path.read_bytes() for path in directory.iterdir()}
    for run in range(3):
        assert cli.main(["eval", "--scenario", scenario, "--checkpoint", ckpt, "--policy", "split",
                         "--episodes", "1", "--out", str(tmp_path / f"out{run}")]) == cli.EXIT_OK
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before


@pytest.mark.parametrize("scenario_line, train_text, message", [
    ("env.lambda1 = nan", "train.reward_mode = qoe\n", "key 'env.lambda1': 'nan' is not a finite"),
    ("", "train.lr = nan\n", "key 'train.lr': 'nan' is not a finite"),
    ("", "train.thr0 = -inf\n", "key 'train.thr0': '-inf' is not a finite"),
    ("", "train.window = 0\n", "key 'train.window' must be >= 1, got 0"),
    ("", "train.lr = -1\n", "key 'train.lr' must be > 0, got -1.0"),
    ("", "train.hold = -5\n", "key 'train.hold' must be >= 0, got -5"),
    ("", "train.flutter_limit = -1\n", "key 'train.flutter_limit' must be >= 0, got -1"),
    ("env.tau = -1", "", "key 'env.tau' must be >= 0, got -1.0"),
    ("env.background_mean = -0.5", "", "key 'env.background_mean' must be >= 0, got -0.5"),
    ("env.background_unit = -1e8", "", "key 'env.background_unit' must be > 0, got -100000000.0"),
    ("rsu.max_load = 0", "", "key 'rsu.max_load' must be > 0, got '0'"),
    ("rsu.2.max_load = -1e9", "", "key 'rsu.2.max_load' must be > 0, got '-1e9'"),
    ("veh.power = 0", "", "key 'veh.power' must be > 0"),
    ("veh.1.power = -0.2", "", "key 'veh.1.power' must be > 0"),
    ("rsu.bw_up = 0", "", "key 'rsu.bw_up' must be > 0"),
    ("rsu.bw_down = 0", "", "key 'rsu.bw_down' must be > 0"),
    ("rsu.noise = 0", "", "key 'rsu.noise' must be > 0"),
    ("rsu.1.noise = -1e-11", "", "key 'rsu.1.noise' must be > 0"),
    ("env.init_load = -1e10", "", "key 'env.init_load' must be >= 0, got -10000000000.0"),
    ("rsu.compute = 0", "", "key 'rsu.compute' must be > 0"),
    ("rsu.compute = -1e10", "", "key 'rsu.compute' must be > 0"),
    ("rsu.2.compute = 0", "", "key 'rsu.2.compute' must be > 0"),
    ("veh.cycles_per_bit = -100", "", "key 'veh.cycles_per_bit' must be >= 0"),
    ("veh.request_bits = -1e5", "", "key 'veh.request_bits' must be >= 0"),
    ("veh.result_bits = -2e5", "", "key 'veh.result_bits' must be >= 0"),
    ("veh.task_bits = -2e6", "", "key 'veh.task_bits' must be >= 0"),
    ("veh.1.task_bits = -2e6", "", "key 'veh.1.task_bits' must be >= 0"),
    ("channel.gain = 0", "", "key 'channel.gain' must be > 0, got 0.0"),
    ("channel.carrier = -2.4e9", "", "key 'channel.carrier' must be > 0, got -2400000000.0"),
    ("channel.light_speed = 0", "", "key 'channel.light_speed' must be > 0, got 0.0"),
    ("env.slot_seconds = -1", "", "key 'env.slot_seconds' must be > 0, got -1.0"),
    ("env.slot_seconds = 0", "", "key 'env.slot_seconds' must be > 0, got 0.0"),
    ("env.warmup_slots = -3", "", "key 'env.warmup_slots' must be >= 0, got -3"),
    ("backhaul.default = 0", "", "key 'backhaul.default' must be > 0, got '0'"),
    ("backhaul.0.2 = -1e9", "", "key 'backhaul.0.2' must be > 0, got '-1e9'"),
    ("rsu.0.x = 1e200", "", "rounds to 1, so it cannot carry its bits: vehicle 0 and RSU 0"),
    ("env.background_mean = 1e30", "",
     "env.background_mean / env.background_unit must be <= 9.223372006484771e+18, got 2e+21"),
    ("", "train.reward_mode = latncy\n",
     "key 'train.reward_mode' must be one of ('latency', 'qoe'), got 'latncy'"),
    ("env.reward_mode = latncy", "train.reward_mode = qoe\n",
     "key 'env.reward_mode' must be one of ('latency', 'qoe'), got 'latncy'"),
    ("rsu.count = 0", "", "key 'rsu.count' must be >= 1, got 0"),
    ("veh.count = -1", "", "key 'veh.count' must be >= 1, got -1"),
], ids=["lambda1_nan", "lr_nan", "thr0_minus_inf", "window_0", "lr_negative", "hold_negative",
        "flutter_limit_negative", "tau_negative",
        "background_mean_negative", "background_unit_negative", "max_load_0",
        "one_max_load_negative", "power_0", "one_power_negative", "bw_up_0", "bw_down_0",
        "noise_0", "one_noise_negative", "init_load_negative", "compute_0", "compute_negative",
        "one_compute_0", "cycles_per_bit_negative", "request_bits_negative",
        "result_bits_negative", "task_bits_negative", "one_task_bits_negative", "gain_0",
        "carrier_negative", "light_speed_0", "slot_seconds_negative", "slot_seconds_0",
        "warmup_slots_negative", "backhaul_default_0", "one_backhaul_negative",
        "rsu_out_of_reach", "background_beyond_poisson_limit", "train_reward_mode_unknown",
        "env_reward_mode_unknown_under_train_reward_mode",
        "rsu_count_0", "veh_count_negative"])
def test_invalid_setting_exits_2_before_training(tmp_path, capsys, scenario_line, train_text,
                                                 message):
    scenario = write_cli_scenario(tmp_path)
    with open(scenario, "a", encoding="utf-8") as fh:
        fh.write(scenario_line + "\n")
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(train_text, encoding="utf-8")
    out = tmp_path / "out"
    argv = ["train", "--scenario", scenario, "--train-cfg", str(train_cfg), "--out", str(out),
            "--episodes", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()  # nor a train_report.csv.partial in it


@pytest.mark.parametrize("command", ["train", "train_cfg_key", "eval", "compare",
                                     "compare_max_load_0"])
def test_no_episodes_or_zero_max_load_exits_2_before_output(tmp_path, capsys, command):
    scenario = write_cli_scenario(tmp_path)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("train.episodes = -2\n", encoding="utf-8")
    out = tmp_path / "out"
    sweep = ["--sweep-param", "rsu.max_load", "--sweep-values"]
    argv, message = {
        "train": (["train", "--episodes", "0"], "--episodes must be >= 1, got 0"),
        "train_cfg_key": (["train", "--train-cfg", str(train_cfg)],
                          "key 'train.episodes' must be >= 1, got -2"),
        "eval": (["eval", "--policy", "full_migration", "--episodes", "0"],
                 "--episodes must be >= 1, got 0"),
        "compare": (["compare", "--episodes", "0", *sweep, "5e10"],
                    "--episodes must be >= 1, got 0"),
        "compare_max_load_0": (["compare", "--episodes", "1", *sweep, "5e10,0"],
                               "key 'rsu.max_load' must be > 0, got '0'"),
    }[command]
    assert cli.main(argv + ["--scenario", scenario, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["trajgen", "train", "eval", "compare"])
def test_negative_seed_exits_2_naming_the_flag_before_output(tmp_path, capsys, command):
    scenario = ["--scenario", write_cli_scenario(tmp_path), "--episodes", "1"]
    argv = {
        "trajgen": ["trajgen", "--gen-cfg", _write_gen_cfg(tmp_path)],
        "train": ["train", *scenario],
        "eval": ["eval", *scenario, "--policy", "full_migration"],
        "compare": ["compare", *scenario, "--sweep-param", "rsu.max_load",
                    "--sweep-values", "5e10"],
    }[command]
    out = tmp_path / "out"
    assert cli.main(argv + ["--seed", "-1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_eval_and_compare_reward_follows_train_reward_mode(tmp_path):
    scenario = write_cli_scenario(tmp_path)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text("train.reward_mode = qoe\n", encoding="utf-8")
    common = ["--scenario", scenario, "--train-cfg", str(train_cfg)]
    assert cli.main(["train", *common, "--out", str(tmp_path / "t"), "--episodes", "1"]) == 0
    ckpt = str(tmp_path / "t" / "ckpt_final.txt")
    assert cli.main(["eval", *common, "--checkpoint", ckpt, "--out", str(tmp_path / "e"),
                     "--episodes", "1"]) == cli.EXIT_OK
    assert cli.main(["compare", *common, "--checkpoint", ckpt, "--out", str(tmp_path / "c"),
                     "--episodes", "1", "--policy", "split,local",
                     "--sweep-param", "rsu.max_load", "--sweep-values", "5e10"]) == cli.EXIT_OK
    summary = next(csv.DictReader(_lines(tmp_path / "e" / "eval_summary.csv")))
    assert summary["mean_reward"] == summary["mean_qoe"] != "-" + summary["mean_latency"]
    means = {(row["policy"], row["metric"]): row["mean"]
             for row in csv.DictReader(_lines(tmp_path / "c" / "compare_results.csv"))}
    for kind in ("split", "local"):
        assert means[kind, "reward"] == means[kind, "qoe"]


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def _compare(tmp_path, scenario, param, values, out="c"):
    return cli.main(["compare", "--scenario", scenario, "--out", str(tmp_path / out),
                     "--episodes", "1", "--policy", "full_migration",
                     "--sweep-param", param, "--sweep-values", values])


@pytest.mark.parametrize("param", ["env.horizon", "env.warmup_slots"])
def test_sweep_over_an_integer_key(tmp_path, param):
    scenario = write_cli_scenario(tmp_path)
    assert _compare(tmp_path, scenario, param, "6,8") == cli.EXIT_OK
    rows = list(csv.DictReader(_lines(tmp_path / "c" / "compare_results.csv")))
    assert [row["param_value"] for row in rows if row["metric"] == "reward"] == ["6", "8"]


@pytest.mark.parametrize("section", ["veh", "rsu"])
def test_unindexed_sweep_sets_every_unit(tmp_path, section):
    name, override, swept = {
        "veh": ("task_bits", "3e6", "8e6"),
        "rsu": ("max_load", "2e10", "4e10"),
    }[section]
    plain = write_cli_scenario(tmp_path)
    overridden = tmp_path / "overridden.cfg"
    overridden.write_text(
        Path(plain).read_text(encoding="utf-8") + f"{section}.0.{name} = {override}\n",
        encoding="utf-8",
    )
    cfg = envsim.apply_sweep(load_kv(str(overridden)), f"{section}.{name}", swept)
    env = envsim.build_env(cfg)
    column = env.task_bits if section == "veh" else env.max_load
    assert column.shape == ((env.cfg.horizon, env.V) if section == "veh" else (env.E,))
    assert (column == float(swept)).all()
    # Through the CLI, the override leaves no trace in the results.
    for scenario, out in ((plain, "p"), (str(overridden), "o")):
        assert _compare(tmp_path, scenario, f"{section}.{name}", swept, out=out) == cli.EXIT_OK
    assert (tmp_path / "p" / "compare_results.csv").read_bytes() == (
        tmp_path / "o" / "compare_results.csv").read_bytes()


@pytest.mark.parametrize("param", ["channel.gain", "backhaul.0.1", "rsu.1.compute", "veh.2.power"])
def test_sweep_over_an_indexed_or_section_key(tmp_path, param):
    scenario = write_cli_scenario(tmp_path)
    assert _compare(tmp_path, scenario, param, "0.5,2e9") == cli.EXIT_OK


@pytest.mark.parametrize("param", ["train.thr0", "gen.total_count", "env.horizn", "rsu.computee",
                                   "channel.gian", "backhaul.x.y", "rsu.3.compute", "rsu.x"])
def test_sweep_over_a_key_outside_the_scenario_exits_2(tmp_path, capsys, param):
    scenario = write_cli_scenario(tmp_path)
    assert _compare(tmp_path, scenario, param, "0.1,5") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{param!r} is not a scenario key" in err
    assert not (tmp_path / "c").exists()


def test_sweep_reports_the_scenario_error_it_did_not_cause(tmp_path, capsys):
    scenario = Path(write_cli_scenario(tmp_path))
    lines = scenario.read_text(encoding="utf-8").splitlines(keepends=True)
    scenario.write_text("".join(x for x in lines if not x.startswith("veh.traj_csv")),
                        encoding="utf-8")
    assert _compare(tmp_path, str(scenario), "veh.power", "0.1,5") == cli.EXIT_CONFIG
    assert "missing required key 'veh.traj_csv'" in capsys.readouterr().err


def _write_gen_cfg(tmp_path, extra=""):
    """A 4x4 grid road network and a synthetic-profile trajgen config."""
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text("node_id,x,y\n" + "".join(
        f"{4 * i + j},{200.0 * j},{200.0 * i}\n" for i in range(4) for j in range(4)),
        encoding="utf-8")
    links = [(n, n + 1) for n in range(16) if n % 4 < 3] + [(n, n + 4) for n in range(12)]
    edges.write_text("from,to,length_m,speed_mps\n" + "".join(
        f"{a},{b},,13.9\n" for a, b in links), encoding="utf-8")
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"roadnet.nodes = {nodes}\nroadnet.edges = {edges}\n"
                   f"gen.synthetic = 1\ngen.synthetic_count = 10\n{extra}", encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("flags, extra, message", [
    (["--grid-cell", "0"], "", "--grid-cell must be a finite number > 0, got 0.0"),
    (["--grid-cell", "-50"], "", "--grid-cell must be a finite number > 0, got -50.0"),
    (["--grid-cell", "nan"], "", "--grid-cell must be a finite number > 0, got nan"),
    (["--grid-cell", "inf"], "", "--grid-cell must be a finite number > 0, got inf"),
    (["--grid-cell", "1e-320", "--count", "60"], "",
     "--grid-cell 1e-320 gives a non-finite cell index"),
    (["--count", "-1"], "", "trajectory count must be >= 0, got -1"),
    ([], "gen.total_count = -3\n", "trajectory count must be >= 0, got -3"),
], ids=["cell_0", "cell_negative", "cell_nan", "cell_inf", "cell_tiny", "count_flag", "count_key"])
def test_bad_trajgen_flags_exit_2_before_output(tmp_path, capsys, flags, extra, message):
    out = tmp_path / "out"
    argv = ["trajgen", "--gen-cfg", _write_gen_cfg(tmp_path, extra), "--out", str(out), *flags]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ("gen.count_scale = -1\n", "key 'gen.count_scale' must be >= 0, got -1.0"),
    ("gen.max_speed = 0\n", "key 'gen.max_speed' must be > 0, got 0.0"),
    ("gen.max_speed = -5\n", "key 'gen.max_speed' must be > 0, got -5.0"),
    ("gen.gap_split = 0\n", "key 'gen.gap_split' must be > 0, got 0.0"),
    ("gen.gap_split = -30\n", "key 'gen.gap_split' must be > 0, got -30.0"),
    ("gen.synthetic_count = 0\n", "key 'gen.synthetic_count' must be >= 1, got 0"),
    ("gen.synthetic_count = -3\n", "key 'gen.synthetic_count' must be >= 1, got -3"),
    ("gen.delta_t = 1e-320\n", "delta_t must be > 0 and give a finite step count, got 1e-320"),
    ("gen.delta_t = 1e-300\n", "delta_t must be > 0 and give a finite step count, got 1e-300"),
    ("gen.delta_t = 1e-12\n", "delta_t must be > 0 and give a finite step count, got 1e-12"),
], ids=["count_scale_negative", "max_speed_0", "max_speed_negative", "gap_split_0",
        "gap_split_negative", "synthetic_count_0", "synthetic_count_negative", "delta_t_tiny",
        "delta_t_beyond_size_limit", "delta_t_too_many_steps"])
def test_bad_gen_setting_exits_2_before_output(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    argv = ["trajgen", "--gen-cfg", _write_gen_cfg(tmp_path, extra), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_trajgen_with_count_0_writes_empty_tables(tmp_path):
    out = tmp_path / "out"
    argv = ["trajgen", "--gen-cfg", _write_gen_cfg(tmp_path), "--out", str(out), "--count", "0"]
    assert cli.main(argv) == cli.EXIT_OK
    assert _lines(out / "density_grid.csv") == ["cell_x,cell_y,count"]
    assert len(_lines(out / "hourly_histogram.csv")) == 25


@pytest.mark.parametrize("command, value", [("eval", "nan"), ("trajgen", "inf")])
def test_non_finite_trajectory_value_exits_2_with_its_line(tmp_path, capsys, command, value):
    scenario = write_cli_scenario(tmp_path)
    tracks = tmp_path / "vehicles.csv"
    lines = _lines(tracks)
    lines[2] = f"0,10.000000,{value},10.000000"
    tracks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--scenario", scenario, "--policy", "full_migration"],
        "trajgen": ["trajgen", "--gen-cfg",
                    _write_gen_cfg(tmp_path, f"gen.synthetic = 0\ngen.input = {tracks}\n")],
    }[command]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "line 3: non-finite x" in err
    assert not out.exists()


def test_unreadable_trajectory_row_exits_2_with_its_line(tmp_path, capsys):
    """A field past the csv module's size limit is a config error naming its line."""
    scenario = write_cli_scenario(tmp_path)
    tracks = tmp_path / "vehicles.csv"
    lines = _lines(tracks)
    lines.append("0,70.000000," + "1" * (csv.field_size_limit() + 1) + ",10.000000")
    tracks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["eval", "--scenario", scenario, "--policy", "full_migration", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert f"line {len(lines)}: field larger than field limit" in err
    assert not out.exists()


def test_repeated_timestamp_exits_2_naming_the_csv_vehicle_id(tmp_path, capsys):
    scenario = write_cli_scenario(tmp_path)
    tracks = tmp_path / "vehicles.csv"
    rows = [line.split(",") for line in _lines(tracks)]
    seven = [row for row in rows if row[0] == "2"]  # the third vehicle's track, as vehicle_id 7
    for row in seven:
        row[0] = "7"
    seven[1][1] = seven[0][1]
    tracks.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["train", "--scenario", scenario, "--out", str(out), "--episodes", "1"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "vehicle_id 7 " in err and "not strictly" in err
    assert not out.exists()


# Finite values outside each range rule, drawn apart from the rules' own code and
# written as str() gives them: a float's repr, int text for int fields, plain text
# for a tuple of choices. -0.0 meets ">= 0", so it is not below it.
_BELOW_0 = st.floats(max_value=-5e-324, allow_infinity=False)
_FLOAT_OUTSIDE = {
    "> 0": st.floats(max_value=0.0, allow_infinity=False),
    ">= 0": _BELOW_0,
    "in [0, 1)": _BELOW_0 | st.floats(min_value=1.0, allow_infinity=False),
    "in [0, 1]": _BELOW_0 | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "in (0, 1]": st.floats(max_value=0.0, allow_infinity=False)
    | st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    "in (0, 1)": st.floats(max_value=0.0, allow_infinity=False)
    | st.floats(min_value=1.0, allow_infinity=False),
}
_INT_OUTSIDE = {">= 0": st.integers(max_value=-1), ">= 1": st.integers(max_value=0)}
SECTIONS = {"train": msrl.TrainConfig, "env": envsim.EnvConfig,
            "channel": envsim.ChannelParams, "gen": trajgen.GenConfig}


def _ranged_keys():
    """{config key: (field type, rule)} of every field with a key and a RANGE, then
    of every `envsim.UNIT_KEYS` key, unindexed and for unit 1; `TrainConfig.mode`
    has no key, and test_configio checks it in code."""
    out = {}
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            key = f.metadata.get(KEY, f"{section}.{f.name}")
            if key is not None and RANGE in f.metadata:
                out[key] = type(f.default), f.metadata[RANGE]
    for section, names in envsim.UNIT_KEYS.items():
        for name, (_, rule) in names.items():
            out[f"{section}.{name}"] = out[f"{section}.1.{name}"] = float, rule
    return out


RANGED_KEYS = _ranged_keys()


def _outside(kind, rule):
    if isinstance(rule, tuple):
        return st.text(string.ascii_lowercase, min_size=1).filter(lambda text: text not in rule)
    return (_INT_OUTSIDE if kind is int else _FLOAT_OUTSIDE)[rule]


@pytest.mark.parametrize("key", sorted(RANGED_KEYS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_declared_range_refuses_a_value_outside_it_before_output(key, data):
    kind, rule = RANGED_KEYS[key]
    value = data.draw(_outside(kind, rule), label="value")
    section = key.split(".")[0]
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        out = tmp / "out"
        if section == "gen":
            argv = ["trajgen", "--gen-cfg", _write_gen_cfg(tmp, f"{key} = {value}\n")]
        else:
            scenario = write_cli_scenario(tmp)
            train_cfg = tmp / "train.cfg"
            train_cfg.touch()
            with open(train_cfg if section == "train" else scenario, "a", encoding="utf-8") as fh:
                fh.write(f"{key} = {value}\n")
            # --episodes would override train.episodes; every other key fails first.
            episodes = [] if key == "train.episodes" else ["--episodes", "1"]
            argv = ["train", "--scenario", scenario, "--train-cfg", str(train_cfg), *episodes]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
        must = f"one of {rule}" if isinstance(rule, tuple) else rule
        shown = str(value) if section in envsim.UNIT_KEYS else value  # the config text
        assert err.getvalue() == f"config error: key {key!r} must be {must}, got {shown!r}\n"
        assert not out.exists()
