"""The agent-stacked learner against the per-agent reference, bit for bit.

`reference_learner` keeps the learner as it ran one agent at a time. Both
drive bundles built by `msrl.make_bundle` from the same seed; every
parameter, Adam moment and step count, every rollout field and every loss
must match with ==.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_learner as ref
from reference_policies import agent_actor
from helpers import grad_check, line_trajectory, make_env
from vtmigsim import msrl
from vtmigsim.neuralcore import SplitActor

O, A = 5, 3

# Per agent and minibatch, which rows act through the server (model_used = 1).
PATTERNS = ("all_client", "all_server", "one_server", "one_client", "mixed")


def config(mode, shared_critic, seed=0, **kw):
    return msrl.TrainConfig(
        seed=seed, mode=mode, hidden_dims=(4, 6, 5), split_index=1, critic_dims=(6, 4),
        shared_critic=shared_critic, lr=0.05, **kw,
    )


def pattern_rows(pattern, size, draw):
    if pattern == "mixed":
        return np.array(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    rows = np.full(size, int(pattern in ("all_server", "one_client")))
    if pattern.startswith("one_"):
        pick = draw(st.integers(0, size - 1))
        rows[pick] = 1 - rows[pick]
    return rows


@st.composite
def update_case(draw):
    mode = draw(st.sampled_from(msrl.MODES))
    shared_critic = draw(st.booleans())
    V = draw(st.integers(1, 4))
    minibatch = draw(st.integers(1, 5))
    # The last minibatch may be short.
    T = minibatch * draw(st.integers(1, 4)) - draw(st.integers(0, minibatch - 1))
    model = np.zeros((T, V), dtype=int)
    for start in range(0, T, minibatch):
        size = min(minibatch, T - start)
        for v in range(V):
            model[start : start + size, v] = pattern_rows(draw(st.sampled_from(PATTERNS)), size, draw)
    dual = np.zeros((T, V), dtype=bool)
    if mode == "client":
        model[:] = 0
    elif mode == "server":
        model[:] = 1
    else:
        flags = draw(st.lists(st.booleans(), min_size=T * V, max_size=T * V))
        dual = np.array(flags).reshape(T, V) & (model == 1)
    seed = draw(st.integers(0, 2**16))
    return mode, shared_critic, V, T, minibatch, model, dual, seed


def random_buffer(T, V, model, dual, seed):
    rng = np.random.default_rng(seed)
    buffer = msrl.RolloutBuffer(
        obs=rng.normal(size=(T, V, O)),
        actions=rng.integers(0, A, size=(T, V)),
        # Old log-probs far from the new ones, so that the clip binds often.
        logp_old=np.log(rng.uniform(0.02, 1.0, size=(T, V))),
        logp_old_client=np.log(rng.uniform(0.02, 1.0, size=(T, V))),
        probs_old=rng.dirichlet(np.ones(A), size=(T, V)),
        rewards=rng.normal(size=(T, V)),
        entropies=np.zeros((T, V)),
        model_used=model,
        dual=dual,
        metrics=[],
    )
    buffer.qhat = rng.normal(size=(T, V))
    buffer.adv = rng.normal(size=(T, V))
    return buffer


def assert_same_learner(bundle, opts, ref_bundle, ref_opts):
    for name, net in bundle.actor.components().items():
        ref_net = ref_bundle.actor.components()[name]
        assert np.array_equal(net.flat, ref_net.flat), name
        adam = opts.actor_opts[name]
        for v in range(bundle.n_agents):
            ref_adam = ref_opts.actor_opts[v][name]
            m, s = ref.flat_moments(ref_adam)
            assert adam.steps[v] == ref_adam.steps, (name, v)
            assert np.array_equal(adam.m[v], m) and np.array_equal(adam.v[v], s), (name, v)
    for critic, ref_critic, adam, ref_adam in zip(
        bundle.critics, ref_bundle.critics, opts.critic_opts, ref_opts.critic_opts
    ):
        assert np.array_equal(critic.net.flat, ref_critic.net.flat)
        m, s = ref.flat_moments(ref_adam)
        assert adam.steps == ref_adam.steps
        assert np.array_equal(adam.m, m) and np.array_equal(adam.v, s)


@settings(max_examples=150, deadline=None)
@given(update_case())
def test_stacked_update_matches_per_agent_reference(case):
    mode, shared_critic, V, T, minibatch, model, dual, seed = case
    cfg = config(mode, shared_critic, seed=seed % 7)
    buffer = random_buffer(T, V, model, dual, seed)
    bundle = msrl.make_bundle(O, A, V, cfg)
    ref_bundle = msrl.make_bundle(O, A, V, cfg)
    opts = msrl._Optimizers(bundle, cfg.lr)
    ref_opts = ref.Optimizers(ref_bundle, cfg.lr)
    X = msrl.critic_inputs(buffer, A)
    assert np.array_equal(X, ref.critic_inputs(buffer, A))
    # Two epochs, the second over shuffled rows: up to 16 steps per Adam.
    orders = [np.arange(T), np.random.default_rng(seed).permutation(T)]
    for order in orders:
        for start in range(0, T, minibatch):
            idx = order[start : start + minibatch]
            c_loss = msrl._update_critics(bundle, opts, buffer, X, idx)
            paths = msrl._update_policy(bundle, opts, buffer, idx, cfg)
            ref_c_loss, ref_p_losses = ref.update_minibatch(
                ref_bundle, ref_opts, buffer, X, idx, cfg.clip
            )
            assert c_loss == ref_c_loss
            assert all(np.isfinite(t.sum()) for t, _ in paths)
            assert ref.all_finite(ref_c_loss, ref_p_losses)
            for term, sel in paths:
                assert not term[~sel].any()
            assert_same_learner(bundle, opts, ref_bundle, ref_opts)


def test_update_covers_one_row_gemv_case():
    """Agents with one sample per path next to agents with several: the
    one-row pass must reproduce the per-agent matrix-vector rounding."""
    T, V = 8, 4
    model = np.array([[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 1]] * 2)
    dual = np.zeros((T, V), dtype=bool)
    dual[1, 3] = True
    for seed in range(20):
        cfg = config("split", True, seed=seed)
        buffer = random_buffer(T, V, model, dual, seed)
        bundle, ref_bundle = msrl.make_bundle(O, A, V, cfg), msrl.make_bundle(O, A, V, cfg)
        opts, ref_opts = msrl._Optimizers(bundle, cfg.lr), ref.Optimizers(ref_bundle, cfg.lr)
        X = msrl.critic_inputs(buffer, A)
        for idx in (np.arange(4), np.arange(4, 8), np.array([0, 5]), np.array([7])):
            msrl._update_critics(bundle, opts, buffer, X, idx)
            msrl._update_policy(bundle, opts, buffer, idx, cfg)
            ref.update_minibatch(ref_bundle, ref_opts, buffer, X, idx, cfg.clip)
        assert_same_learner(bundle, opts, ref_bundle, ref_opts)


def episode_env(n_veh=4, horizon=12):
    tracks = [line_trajectory(v, 50.0 + 120.0 * v, 10.0 + 40.0 * v, 9.0, 2.0 * v) for v in range(n_veh)]
    return make_env(
        n_rsu=A, n_veh=n_veh, horizon=horizon, trajectories=tracks, slot_seconds=5.0,
        background_mean=0.3,
    )


def controller_state(bundle):
    return [
        (c.thr, c.calls, c.server_calls, c.hold_remaining, list(c.entropy_window), list(c.switch_log))
        for c in bundle.controllers or []
    ]


@pytest.mark.parametrize("mode", msrl.MODES)
@pytest.mark.parametrize("seed", [0, 3])
def test_collect_episode_matches_reference_field_by_field(mode, seed):
    env = episode_env()
    cfg = config(mode, True, seed=seed, window=4, hold=3, flutter_limit=1, thr0=1.0)
    bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    ref_bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    for episode in range(3):
        got = msrl.collect_episode(env, bundle, mode, np.random.default_rng([seed, 2, episode]), episode)
        want = ref.collect_episode(
            env, ref_bundle, mode, np.random.default_rng([seed, 2, episode]), episode
        )
        for field in ("obs", "actions", "logp_old", "logp_old_client", "probs_old", "rewards",
                      "entropies", "model_used", "dual"):
            g, w = getattr(got, field), getattr(want, field)
            assert g.dtype == w.dtype and np.array_equal(g, w), field
        assert got.metrics == want.metrics
        assert controller_state(bundle) == controller_state(ref_bundle)
    if mode == "split":
        assert 0 < got.model_used.mean() < 1


@pytest.mark.parametrize("mode", msrl.MODES)
@pytest.mark.parametrize("shared_critic", [True, False])
def test_training_matches_reference(mode, shared_critic):
    env = episode_env(n_veh=5)
    cfg = config(
        mode, shared_critic, seed=2, episodes=2, epochs=2, minibatch=3, window=4, hold=3,
        flutter_limit=1, thr0=1.0,
    )
    ref_bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    ref.train(env, ref_bundle, cfg, msrl.compute_advantage)
    _, bundle = msrl.train(env, cfg)
    for name, net in bundle.actor.components().items():
        assert np.array_equal(net.flat, ref_bundle.actor.components()[name].flat), name
    for critic, ref_critic in zip(bundle.critics, ref_bundle.critics):
        assert np.array_equal(critic.net.flat, ref_critic.net.flat)
    assert controller_state(bundle) == controller_state(ref_bundle)


def test_qhat_matches_per_agent_recursion():
    for shared_critic in (True, False):
        bundle = msrl.make_bundle(O, A, 3, config("split", shared_critic, seed=4))
        buffer = random_buffer(9, 3, np.zeros((9, 3), dtype=int), np.zeros((9, 3), bool), 4)
        got = msrl.compute_qhat(buffer, bundle, 0.9, 0.8)
        assert np.array_equal(got, ref.compute_qhat(buffer, bundle, 0.9, 0.8))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_abort_reports_each_agents_policy_loss(monkeypatch):
    env = episode_env()
    cfg = config("split", True, seed=1, minibatch=4, epochs=1, window=4, hold=3,
                 flutter_limit=1, thr0=1.0)
    first = np.random.default_rng([cfg.seed, 3]).permutation(env.cfg.horizon)[:4]

    advantage = msrl.compute_advantage

    def poisoned_advantage(buffer, bundle, agent):
        adv = advantage(buffer, bundle, agent)
        if agent == 1:
            adv[first[2]] = np.inf
        return adv

    ref_bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    buffer = ref.collect_episode(
        env, ref_bundle, cfg.mode, np.random.default_rng([cfg.seed, 2]), cfg.seed * 1_000_003
    )
    buffer.qhat = ref.compute_qhat(buffer, ref_bundle, cfg.gamma, cfg.lam)
    buffer.adv = np.stack([poisoned_advantage(buffer, ref_bundle, v) for v in range(env.V)], axis=1)
    ref_opts = ref.Optimizers(ref_bundle, cfg.lr)
    X = ref.critic_inputs(buffer, env.E)
    c_loss, p_losses = ref.update_minibatch(ref_bundle, ref_opts, buffer, X, first, cfg.clip)
    assert not ref.all_finite(c_loss, p_losses)

    monkeypatch.setattr(msrl, "compute_advantage", poisoned_advantage)
    with pytest.raises(msrl.TrainAbort) as info:
        msrl.train(env, cfg)
    assert info.value.diagnostics["critic_loss"] == c_loss
    assert info.value.diagnostics["policy_losses"] == p_losses
    assert math.isinf(p_losses[1]) and all(map(math.isfinite, p_losses[:1] + p_losses[2:]))


def test_make_bundle_draws_agent_by_agent():
    for shared_critic in (True, False):
        cfg = config("split", shared_critic, seed=9)
        bundle = msrl.make_bundle(O, A, 3, cfg)
        actors, critics = ref.initial_weights(O, A, 3, cfg)
        for v, comps in enumerate(actors):
            for name, weights in comps.items():
                net = bundle.actor.components()[name]
                for w, want in zip(net.weights, weights):
                    assert np.array_equal(w[v], want), (v, name)
                assert not net.agent(v).flat[-net.dims[-1]:].any()  # zero biases
        for critic, weights in zip(bundle.critics, critics):
            assert all(np.array_equal(w, want) for w, want in zip(critic.net.weights, weights))


def test_grad_check_stacked_paths():
    rng = np.random.default_rng(10)
    V = 3
    actor = SplitActor(5, 3, (4, 6, 5), 1, rng, agents=V)
    for net in actor.components().values():
        for b in net.biases:
            b[...] = rng.normal(scale=0.3, size=b.shape)
    x = rng.normal(size=(V, 2, 5))
    r = rng.normal(size=(V, 2, 3))
    for path, comps in (
        ("client", ("client_trunk", "client_head")),
        ("server", ("client_trunk", "server_trunk", "server_head")),
    ):

        def loss_and_grads():
            logits, cache = actor.path_logits(x, path)
            grads = actor.path_backward(cache, r, path)
            return float((logits * r).sum()), [grads[name] for name in comps]

        params = [actor.components()[name].flat for name in comps]
        assert all(p.shape[0] == V for p in params)
        assert grad_check(params, loss_and_grads) < 1e-4


def test_agent_view_shares_memory_with_the_stack():
    actor = SplitActor(5, 3, (4, 6, 5), 1, np.random.default_rng(0), agents=3)
    view = agent_actor(actor, 1)
    for name, net in view.components().items():
        assert np.shares_memory(net.flat, actor.components()[name].flat)
        assert net.weights[0].shape == actor.components()[name].weights[0].shape[1:]
    obs = np.random.default_rng(1).normal(size=(3, 5))
    features, probs = actor.forward_client(obs)
    view_features, view_probs = view.forward_client(obs[1])
    assert np.array_equal(features[1], view_features) and np.array_equal(probs[1], view_probs)
    assert np.array_equal(actor.forward_server(features)[1], view.forward_server(features[1]))
