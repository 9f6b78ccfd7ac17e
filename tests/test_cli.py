"""CLI behaviour on checkpoints that do not fit the scenario."""

import pytest

from helpers import write_cli_scenario
from vtmigsim import cli


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
