"""CLI contract: exit codes, scenario key fallbacks, and checkpoints that do
not fit the scenario."""

import csv
from pathlib import Path

import numpy as np
import pytest

from helpers import write_cli_scenario, write_train_cfg
from vtmigsim import cli, envsim, msrl, neuralcore
from vtmigsim.configio import load_kv


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
    assert not (out / "train_report.csv").exists()
    assert not (out / "ckpt_final.txt").exists()


def test_unwritable_output_exits_4(tmp_path, capsys):
    scenario = write_cli_scenario(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = ["eval", "--scenario", scenario, "--policy", "full_migration", "--episodes", "1",
            "--out", str(blocker / "out")]
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_build_env_key_fallbacks(tmp_path):
    cfg = load_kv(write_cli_scenario(tmp_path))
    cfg.update({"veh.1.power": "0.5", "backhaul.2.0": "3e8", "backhaul.0.1": "4e8",
                "backhaul.1.0": "6e8"})
    env = envsim.build_env(cfg)
    # veh.<i>.<name> overrides veh.<name> for vehicle i only.
    assert [v.tx_power for v in env.vehicles] == [0.2, 0.5, 0.2]
    # backhaul.j.i stands in for a missing backhaul.i.j; each given direction
    # keeps its own value; unnamed links take backhaul.default.
    assert env.rsus[0].backhaul == {1: 4e8, 2: 3e8}
    assert env.rsus[1].backhaul == {0: 6e8, 2: 1e9}
    assert env.rsus[2].backhaul == {0: 3e8, 1: 1e9}


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


@pytest.mark.parametrize("scenario_line, train_text, message", [
    ("env.lambda1 = nan", "train.reward_mode = qoe\n", "key 'env.lambda1': 'nan' is not a finite"),
    ("", "train.lr = nan\n", "key 'train.lr': 'nan' is not a finite"),
    ("", "train.thr0 = -inf\n", "key 'train.thr0': '-inf' is not a finite"),
    ("", "train.window = 0\n", "window must be >= 1"),
    ("", "train.lr = -1\n", "lr must be positive"),
    ("env.tau = -1", "", "tau and background_mean must be >= 0"),
    ("env.background_mean = -0.5", "", "tau and background_mean must be >= 0"),
    ("env.background_unit = -1e8", "", "background_unit > 0"),
    ("rsu.max_load = 0", "", "rsu max_load must be > 0"),
    ("rsu.2.max_load = -1e9", "", "rsu max_load must be > 0"),
    ("veh.power = 0", "", "key 'veh.power' must be > 0"),
    ("veh.1.power = -0.2", "", "key 'veh.1.power' must be > 0"),
    ("rsu.bw_up = 0", "", "key 'rsu.bw_up' must be > 0"),
    ("rsu.bw_down = 0", "", "key 'rsu.bw_down' must be > 0"),
    ("rsu.noise = 0", "", "key 'rsu.noise' must be > 0"),
    ("rsu.1.noise = -1e-11", "", "key 'rsu.1.noise' must be > 0"),
    ("channel.gain = 0", "", "channel.gain must be > 0"),
    ("channel.carrier = -2.4e9", "", "channel.carrier must be > 0"),
    ("channel.light_speed = 0", "", "channel.light_speed must be > 0"),
], ids=["lambda1_nan", "lr_nan", "thr0_minus_inf", "window_0", "lr_negative", "tau_negative",
        "background_mean_negative", "background_unit_negative", "max_load_0",
        "one_max_load_negative", "power_0", "one_power_negative", "bw_up_0", "bw_down_0",
        "noise_0", "one_noise_negative", "gain_0", "carrier_negative", "light_speed_0"])
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
        "train_cfg_key": (["train", "--train-cfg", str(train_cfg)], "episodes, epochs"),
        "eval": (["eval", "--policy", "full_migration", "--episodes", "0"],
                 "--episodes must be >= 1, got 0"),
        "compare": (["compare", "--episodes", "0", *sweep, "5e10"],
                    "--episodes must be >= 1, got 0"),
        "compare_max_load_0": (["compare", "--episodes", "1", *sweep, "5e10,0"],
                               "rsu max_load must be > 0"),
    }[command]
    assert cli.main(argv + ["--scenario", scenario, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
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
    cfg = cli.apply_sweep(load_kv(str(overridden)), f"{section}.{name}", swept)
    env = envsim.build_env(cfg)
    units = env.vehicles if section == "veh" else env.rsus
    values = [float(u.task_bits[0]) if section == "veh" else u.max_load for u in units]
    assert values == [float(swept)] * len(units)
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
    ("gen.count_scale = -1\n", "gen.count_scale must be >= 0, got -1.0"),
    ("gen.max_speed = 0\n", "gen.max_speed must be > 0, got 0.0"),
    ("gen.max_speed = -5\n", "gen.max_speed must be > 0, got -5.0"),
    ("gen.gap_split = 0\n", "gen.gap_split must be > 0, got 0.0"),
    ("gen.gap_split = -30\n", "gen.gap_split must be > 0, got -30.0"),
], ids=["count_scale_negative", "max_speed_0", "max_speed_negative", "gap_split_0",
        "gap_split_negative"])
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
