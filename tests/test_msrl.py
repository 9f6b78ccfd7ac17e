"""Learner formulas against brute-force oracles, and checkpoint tensor checks."""

import numpy as np
import pytest

from vtmigsim import msrl
from vtmigsim.neuralcore import load_checkpoint, save_checkpoint

T, V, O, A = 7, 3, 4, 3


def small_config(shared_critic, seed=0):
    return msrl.TrainConfig(
        seed=seed, hidden_dims=(5, 4, 6), split_index=1, critic_dims=(6, 5),
        shared_critic=shared_critic,
    )


def small_bundle(shared_critic, seed=0):
    bundle = msrl.make_bundle(O, A, V, small_config(shared_critic, seed))
    rng = np.random.default_rng([seed, 99])
    for critic in bundle.critics:  # non-zero biases, so every term matters
        for b in critic.net.biases:
            b[...] = rng.normal(scale=0.5, size=b.shape)
    return bundle


def random_buffer(seed=0):
    rng = np.random.default_rng(seed)
    zeros = np.zeros((T, V))
    return msrl.RolloutBuffer(
        obs=rng.normal(size=(T, V, O)),
        actions=rng.integers(0, A, size=(T, V)),
        logp_old=zeros,
        logp_old_client=zeros,
        probs_old=rng.dirichlet(np.ones(A), size=(T, V)),
        entropies=zeros,
        model_used=zeros.astype(int),
        dual=zeros.astype(bool),
        columns=np.concatenate([rng.normal(size=(1, T * V)), np.zeros((4, T * V))]),  # rewards
    )


def q_value(bundle, agent, obs_t, actions_t):
    """Agent's critic on one joint observation and joint action, built by hand."""
    onehots = []
    for a in actions_t:
        onehot = [0.0] * A
        onehot[a] = 1.0
        onehots += onehot
    x = np.array(list(obs_t.reshape(-1)) + onehots)
    critic = bundle.critics[agent * len(bundle.critics) // V]
    return float(critic.value(x[None, :])[0])


@pytest.mark.parametrize("shared_critic", [True, False])
@pytest.mark.parametrize("gamma, lam", [(0.95, 0.95), (1.0, 0.5), (0.7, 1.0)])
def test_qhat_is_q_plus_discounted_sum_of_td_errors(shared_critic, gamma, lam):
    bundle = small_bundle(shared_critic)
    buffer = random_buffer()
    got = msrl.compute_qhat(buffer, bundle, msrl.critic_inputs(buffer, A), gamma, lam)
    for v in range(V):
        q = [q_value(bundle, v, buffer.obs[t], buffer.actions[t]) for t in range(T)] + [0.0]
        delta = [buffer.rewards[t, v] + gamma * q[t + 1] - q[t] for t in range(T)]
        for t in range(T):
            want = q[t] + sum((gamma * lam) ** (k - t) * delta[k] for k in range(t, T))
            assert got[t, v] == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("shared_critic", [True, False])
def test_advantage_subtracts_own_action_expectation(shared_critic):
    bundle = small_bundle(shared_critic, seed=4)
    buffer = random_buffer(seed=4)
    buffer.qhat = np.random.default_rng(5).normal(size=(T, V))
    adv = msrl.compute_advantage(buffer, bundle, msrl.critic_inputs(buffer, A))
    for agent in range(V):
        got = adv[:, agent]
        for t in range(T):
            baseline = 0.0
            for own in range(A):
                actions = buffer.actions[t].copy()
                actions[agent] = own
                baseline += buffer.probs_old[t, agent, own] * q_value(
                    bundle, agent, buffer.obs[t], actions
                )
            want = buffer.qhat[t, agent] - baseline
            assert got[t] == pytest.approx(want, rel=1e-10, abs=1e-12)


def _saved_tensors(tmp_path, bundle):
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(path, msrl.bundle_tensors(bundle, 4))
    return load_checkpoint(path)


@pytest.mark.parametrize("shared_critic", [True, False])
def test_checkpoint_round_trip_restores_every_tensor(tmp_path, shared_critic):
    bundle = small_bundle(shared_critic, seed=2)
    bundle.controllers[1].server_calls = 3
    tensors = _saved_tensors(tmp_path, bundle)
    loaded, episode = msrl.load_bundle(tensors, small_config(shared_critic, seed=7))
    assert episode == 4
    want = msrl.bundle_tensors(bundle, 4)
    got = msrl.bundle_tensors(loaded, 4)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, g), (_, w) in zip(got, want):
        assert np.array_equal(g, w), name


@pytest.mark.parametrize(
    "name, shape, shared_critic",
    [
        ("agent0/client_trunk/b0", (1, 1), True),     # would broadcast over the bias
        ("agent1/server_head/W0", (6, A), True),      # transposed
        ("critic0/W0", (1, V * (O + A)), True),       # would broadcast over the rows
        ("critic0/b1", (1, 1), True),
        ("critic2/b0", (1, 7), False),
    ],
)
def test_load_refuses_a_tensor_of_the_wrong_shape(tmp_path, name, shape, shared_critic):
    tensors = _saved_tensors(tmp_path, small_bundle(shared_critic))
    tensors[name] = np.ones(shape)
    tampered = str(tmp_path / "tampered.txt")
    save_checkpoint(tampered, tensors.items())
    with pytest.raises(ValueError, match=f"checkpoint tensor {name} has shape"):
        msrl.load_bundle(load_checkpoint(tampered), small_config(shared_critic))


def test_threshold_follows_server_calls(tmp_path):
    bundle = small_bundle(True)
    c = bundle.controllers[0]
    for _ in range(3):
        c.select(10.0)  # above thr0: a server pick each
    c.server_calls = 7  # a direct write, as a checkpoint load makes
    tensors = _saved_tensors(tmp_path, bundle)
    loaded, _ = msrl.load_bundle(tensors, small_config(True))
    for controllers in (bundle.controllers, loaded.controllers):
        for got, server_calls in zip(controllers, (7, 0, 0)):
            assert got.server_calls == server_calls
            assert got.thr == got.thr0 + server_calls * got.change
