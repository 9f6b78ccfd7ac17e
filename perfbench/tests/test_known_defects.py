"""Reproducers of program defects the benchmark has to work around."""

import os

import pytest

from vtmigsim import cli
from workloads import TINY, write_kv, write_scenario


@pytest.mark.xfail(strict=True, raises=AttributeError,
                   reason="cmd_train saves intermediate checkpoints before the bundle exists")
def test_fresh_train_with_intermediate_checkpoint(tmp_path):
    # Why train_e9v32 runs fewer episodes than train.ckpt_every (default 50).
    scenario = write_scenario(str(tmp_path), 0, TINY["train_e9v32"])
    train_cfg = str(tmp_path / "train.cfg")
    write_kv(train_cfg, {"train.ckpt_every": 1})
    out = tmp_path / "out"
    code = cli.main(["train", "--scenario", scenario, "--train-cfg", train_cfg,
                     "--out", str(out), "--episodes", "2"])
    assert code == 0
    assert sorted(os.listdir(out)) == [
        "ckpt_ep0.txt", "ckpt_ep1.txt", "ckpt_final.txt", "train_report.csv",
    ]
