"""CLI contract: exit codes, scenario key fallbacks, and checkpoints that do
not fit the scenario."""

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
