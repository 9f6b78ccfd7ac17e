"""CLI behaviour on checkpoints that do not fit the scenario."""

import pytest

from helpers import write_cli_scenario, write_train_cfg
from vtmigsim import cli, neuralcore


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
