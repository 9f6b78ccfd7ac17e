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
    # At minibatch 8, the TrainConfig default, numpy's unrolled 8-way
    # pairwise sums run over a minibatch; below 8 they never do, so a change
    # of reduction order in the update can pass the cases above unseen.
    "split_shared_mb8": {
        "train/train_report.csv":
            "cdc0a3757fd13831187fd5610c01d2fbbe9452cb2f83eb84ec0ad2a3d5aa3e7f",
        "train/ckpt_final.txt":
            "651d769a4892bb59dc44cd82ad0da47b01405edd9e6bae95bcffc36b47eb5fbb",
        "resume/train_report.csv":
            "4194f271d6cd6a9bbbff71f58d619f5c9129a9d54591fa9da9c7e0a88931d26d",
        "resume/ckpt_final.txt":
            "c8750459285438b5a235743c1b6eeb4bb49737a2ead03df3e264aa1b70addda4",
        "eval/eval_summary.csv":
            "dbac403b1c5e96eee839a2348d810ff59705880c11a03cd3c6dedbee7c8b3f6c",
        "eval/eval_metrics.csv":
            "c1f8f064d4ff05cbbaa26b04f5035a9e2eb47853f8cb044c3832a2e02a0f7227",
        "compare/compare_results.csv":
            "23551aa68d3992e0b90b1687833f722316faa59a695ca77f1d9cac8e2a0ab613",
    },
    "split_per_agent_mb8": {
        "train/train_report.csv":
            "a7710d22a7fa7a6202b0d3e615cba151547c8f36d1e35fdce017f095c139f5b9",
        "train/ckpt_final.txt":
            "5fc405e74b21382e1e7a064c5af398d2dc5cc2b40d869abfdbf582f34b682ce9",
        "resume/train_report.csv":
            "21437f40fef5cb570065d82bd6b133f7f946e218e5e99223807e2dd11f0d244a",
        "resume/ckpt_final.txt":
            "64b2012331bc7c9d421e635796bca64349fff5a915b72cb5f50c262c2fbb5cd6",
        "eval/eval_summary.csv":
            "c83bb0e079221c27bc5aa2442a6fe628ba92d9d9c73499c9d404e6263f89aa5b",
        "eval/eval_metrics.csv":
            "2c8865d778386c61d6f7dfcfe117e444b50bc946c91aa76091020fd41e4649cf",
        "compare/compare_results.csv":
            "5f9e3f5f61082f796ec9ccaeba33ca6f9c54cc693b53acc2fde716c1f3f67bc2",
    },
}
CASES = {  # policy, train.shared_critic, train.minibatch
    "split_shared": ("split", 1, 4),
    "local_edge_per_agent": ("local_edge", 0, 4),
    "split_shared_mb8": ("split", 1, 8),
    "split_per_agent_mb8": ("split", 0, 8),
}


def run_pipeline(tmp_path, policy, shared_critic, minibatch=4, seed=5):
    scenario = write_cli_scenario(tmp_path)
    train_cfg = write_train_cfg(tmp_path, shared_critic, minibatch)
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
    run_pipeline(tmp_path, *CASES[case])
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[case]
    }
    assert digests == GOLDEN[case]
