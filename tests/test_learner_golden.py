"""Golden outputs of a tiny fixed-seed train -> resume -> eval -> compare run.

The digests pin the CLI's byte-identical-output promise for the learner:
any change to rollout, lambda-returns, advantages, the update, checkpoint
save/load or greedy evaluation that alters a single byte of output fails
here. A last compare without a checkpoint covers freshly built networks.
The scenario (three vehicles on straight tracks, three RSUs) is built in
code by `helpers.write_cli_scenario`.
"""

import hashlib

import pytest

from helpers import write_cli_scenario, write_train_cfg
from vtmigsim import cli

# Recorded with the rollout copies of the networks (actors_old/critics_old).
# The four */ckpt_final.txt digests were re-recorded when the counterfactual
# baseline moved to one first-layer pass per critic (msrl.compute_advantage):
# layer 0 now sums in another order, which moves the advantages by rounding
# (~1e-16) and so the trained weights' last digits. The train reports, eval
# and compare outputs did not change.
GOLDEN = {
    "split_shared": {
        "train/train_report.csv":
            "200c36b8746433152f989a1cc5796d908d1632088d080a5d59e95c12b2c772de",
        "train/ckpt_final.txt":
            "da356b20822db1d63b594ba2e5b8a42ac5bcb8d08972397d2273bbc27f9fe0d9",
        "resume/train_report.csv":
            "706227fe1f4a423e8fe800f0437e27eec027ec6b96644ebe56c242a6bbfc9ad7",
        "resume/ckpt_final.txt":
            "b460becd7db2477c5100f0bd492376dcc9c3b16a312489494bfaac48e1d93102",
        "eval/eval_summary.csv":
            "3e777297a1283867dceef2dddf096cdc44ef6179429aa5f591f694747f06e8a4",
        "eval/eval_metrics.csv":
            "e657f8f7e4ff1697301642094deb0992a5bd3b8d94978496158f8401080985f9",
        "compare/compare_results.csv":
            "44ccf9bb2429c9b50887c64dcdfdbeede1882d0c476177d54855927797f9230f",
        "fresh/compare_results.csv":
            "3dfb2cc5919963a569afce0f17a47519832f2362f0e9d7a248dc472e94196a14",
    },
    "local_edge_per_agent": {
        "train/train_report.csv":
            "ad386c7bba6c48fea6310de4ba4b894b28789ed1c6a0cfec6ba41479a7961c01",
        "train/ckpt_final.txt":
            "c469ed25882318666e47d99b3612522098debe91d31557eed16cd6d48abbbde4",
        "resume/train_report.csv":
            "e71d2649db8942b24ad325cc036bd841c01dcc50dc1ede57cacefeca26a69a46",
        "resume/ckpt_final.txt":
            "f7baf9f08d203366a9570e17627a026b196e1138ed4f5432bbebf63004ffe73f",
        "eval/eval_summary.csv":
            "75b4de0b74892f8f6b3be9bfffebe5d9d2fdba7f6202011a75c9be93963476be",
        "eval/eval_metrics.csv":
            "9995c2d4803efae49ed8084c9da98e1ae3d0097234dab6a1ab2ad6648be41a1f",
        "compare/compare_results.csv":
            "2e96a19d64dc8772dec403a2cd26bfdff7f0ca9591b404e937a37c0df78ece27",
    },
}
CASES = {
    "split_shared": ("split", 1),
    "local_edge_per_agent": ("local_edge", 0),
}


def run_pipeline(tmp_path, policy, shared_critic, seed=5):
    scenario = write_cli_scenario(tmp_path)
    train_cfg = write_train_cfg(tmp_path, shared_critic)
    common = ["--scenario", scenario, "--train-cfg", train_cfg, "--seed", str(seed)]
    out = {name: tmp_path / name for name in ("train", "resume", "eval", "compare", "fresh")}
    argvs = [
        ["train", *common, "--policy", policy, "--episodes", "3", "--out", str(out["train"])],
        ["train", *common, "--policy", policy, "--episodes", "2",
         "--resume", str(out["train"] / "ckpt_final.txt"), "--out", str(out["resume"])],
        ["eval", *common, "--policy", policy, "--episodes", "2",
         "--checkpoint", str(out["resume"] / "ckpt_final.txt"), "--out", str(out["eval"])],
        ["compare", *common, "--episodes", "2",
         "--checkpoint", str(out["resume"] / "ckpt_final.txt"),
         "--sweep-param", "rsu.max_load", "--sweep-values", "3e10,5e10",
         "--out", str(out["compare"])],
        # No checkpoint: the learned kinds act with freshly built networks.
        ["compare", *common, "--episodes", "1",
         "--sweep-param", "rsu.max_load", "--sweep-values", "5e10",
         "--out", str(out["fresh"])],
    ]
    for argv in argvs:
        assert cli.main(argv) == cli.EXIT_OK, argv
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_learner_outputs_match_golden(tmp_path, case):
    policy, shared_critic = CASES[case]
    run_pipeline(tmp_path, policy, shared_critic)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[case]
    }
    assert digests == GOLDEN[case]
