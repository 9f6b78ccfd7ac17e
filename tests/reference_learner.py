"""Per-agent reference of the learner's rollout and update, kept as an oracle.

This is the learner as it ran one agent at a time: each agent's actor was its
own set of 2-D weight matrices, a rollout slot ran one single-observation
forward per agent, and a minibatch ran each agent's client and server paths
on that agent's compacted rows, merged the two paths' gradients and stepped
one Adam per component and agent. The stacked learner in `vtmigsim.msrl`
must reproduce it bit for bit.

`compute_advantage` is the counterfactual baseline as it ran before the
one-pass first layer: the full critic on a swapped (T·A, D) copy of the
joint input per agent. `msrl.compute_advantage` agrees with it to rounding.

The reference reads and writes the networks of a `PolicyBundle` through
per-agent views (`W[v]`), so a bundle built by `msrl.make_bundle` can be
driven by either implementation.
"""

from __future__ import annotations

import math

import numpy as np

from vtmigsim.msrl import RolloutBuffer
from vtmigsim.neuralcore import CLIENT, PROB_FLOOR, SERVER, entropy_of, softmax

class Net:
    """One agent's view of a DenseNet: 2-D weights, the old forward/backward."""

    def __init__(self, weights, biases, out_tanh):
        self.weights = weights
        self.biases = biases
        self.out_tanh = out_tanh

    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cache = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            use_tanh = i < last or self.out_tanh
            y = np.tanh(z) if use_tanh else z
            cache.append((h, y, use_tanh))
            h = y
        return h, cache

    def backward(self, cache, dy):
        grads = [None] * len(self.weights)
        grad = np.atleast_2d(dy)
        for i in range(len(self.weights) - 1, -1, -1):
            h_in, y_out, used_tanh = cache[i]
            dz = grad * (1.0 - y_out**2) if used_tanh else grad
            grads[i] = (dz.T @ h_in, dz.sum(axis=0))
            grad = dz @ self.weights[i]
        return grads, grad

    def parameters(self):
        return [p for wb in zip(self.weights, self.biases) for p in wb]


def grads_as_params(layer_grads):
    return [g for dw_db in layer_grads for g in dw_db]


def agent_nets(bundle, v):
    """Agent v's four actor components as per-agent views."""
    return {
        name: Net([w[v] for w in net.weights], [b[v] for b in net.biases], net.out_tanh)
        for name, net in bundle.actor.components().items()
    }


def critic_nets(bundle):
    """Each critic's one net (row 0 of its one-agent stack) as a view."""
    return [Net([w[0] for w in c.net.weights], [b[0] for b in c.net.biases], False)
            for c in bundle.critics]


class Distribution:
    """Categorical action distribution."""

    def __init__(self, probs):
        self.probs = probs

    @property
    def entropy(self):
        return float(entropy_of(self.probs))

    def log_prob(self, action):
        return float(np.log(max(float(self.probs[action]), PROB_FLOOR)))

    def sample(self, rng):
        u = rng.random()
        action = int(np.searchsorted(np.cumsum(self.probs), u))
        action = min(action, len(self.probs) - 1)
        return action, self.log_prob(action)


class Actor:
    """One agent's split actor over per-agent views."""

    def __init__(self, nets):
        self.nets = nets

    def forward_client(self, obs):
        features, _ = self.nets["client_trunk"].forward(np.asarray(obs, dtype=float))
        logits, _ = self.nets["client_head"].forward(features)
        return features[0], Distribution(softmax(logits)[0])

    def forward_server(self, features):
        hidden, _ = self.nets["server_trunk"].forward(np.asarray(features, dtype=float))
        logits, _ = self.nets["server_head"].forward(hidden)
        return Distribution(softmax(logits)[0])

    def path_logits(self, obs, path):
        features, c_trunk = self.nets["client_trunk"].forward(obs)
        if path == CLIENT:
            logits, c_head = self.nets["client_head"].forward(features)
            return logits, {"trunk": c_trunk, "head": c_head}
        hidden, c_server = self.nets["server_trunk"].forward(features)
        logits, c_head = self.nets["server_head"].forward(hidden)
        return logits, {"trunk": c_trunk, "server": c_server, "head": c_head}

    def path_backward(self, cache, dlogits, path):
        n = self.nets
        if path == CLIENT:
            head_grads, dfeat = n["client_head"].backward(cache["head"], dlogits)
            trunk_grads, _ = n["client_trunk"].backward(cache["trunk"], dfeat)
            return {
                "client_trunk": grads_as_params(trunk_grads),
                "client_head": grads_as_params(head_grads),
            }
        head_grads, dhidden = n["server_head"].backward(cache["head"], dlogits)
        server_grads, dfeat = n["server_trunk"].backward(cache["server"], dhidden)
        trunk_grads, _ = n["client_trunk"].backward(cache["trunk"], dfeat)
        return {
            "client_trunk": grads_as_params(trunk_grads),
            "server_trunk": grads_as_params(server_grads),
            "server_head": grads_as_params(head_grads),
        }


class Adam:
    """Per-tensor Adam with one step count."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.steps = 0

    def step(self, grads):
        self.steps += 1
        b1c = 1.0 - self.beta1**self.steps
        b2c = 1.0 - self.beta2**self.steps
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class Optimizers:
    """One Adam per agent and component, and one per critic."""

    def __init__(self, bundle, lr):
        self.actors = [Actor(agent_nets(bundle, v)) for v in range(bundle.actor.agents)]
        self.actor_opts = [
            {name: Adam(net.parameters(), lr=lr) for name, net in actor.nets.items()}
            for actor in self.actors
        ]
        self.critics = critic_nets(bundle)
        self.critic_opts = [Adam(c.parameters(), lr=lr) for c in self.critics]


def collect_episode(env, bundle, mode, action_rng, env_seed):
    actors = [Actor(agent_nets(bundle, v)) for v in range(bundle.actor.agents)]
    obs_list = env.reset(env_seed)
    V = bundle.actor.agents
    store = {k: [] for k in (
        "obs", "actions", "logp", "logp_client", "probs", "entropy", "model", "dual",
        "reward", "qoe", "t_total", "err_rate", "active",
    )}
    done = False
    while not done:
        slot_obs = np.array(obs_list)
        actions = np.zeros(V, dtype=int)
        logp = np.zeros(V)
        logp_client = np.zeros(V)
        probs = np.zeros((V, bundle.actor.n_actions))
        entropy = np.zeros(V)
        model = np.zeros(V, dtype=int)
        dual = np.zeros(V, dtype=bool)
        active = np.zeros(V)
        for v in range(V):
            features, cdist = actors[v].forward_client(slot_obs[v])
            entropy[v] = cdist.entropy
            if mode == "client":
                choice, dual_v = CLIENT, False
            elif mode == "server":
                choice, dual_v = SERVER, False
            else:
                choice, dual_v = bundle.controllers[v].select(entropy[v])
            dist = actors[v].forward_server(features) if choice == SERVER else cdist
            a, lp = dist.sample(action_rng)
            actions[v] = a
            logp[v] = lp
            logp_client[v] = cdist.log_prob(a)
            probs[v] = dist.probs
            model[v] = 1 if choice == SERVER else 0
            dual[v] = dual_v
            active[v] = bundle.actor.path_params[model[v]]
        result = env.step(list(actions))
        store["obs"].append(slot_obs)
        store["actions"].append(actions)
        store["logp"].append(logp)
        store["logp_client"].append(logp_client)
        store["probs"].append(probs)
        store["entropy"].append(entropy)
        store["model"].append(model)
        store["dual"].append(dual)
        for name in ("reward", "qoe", "t_total", "err_rate"):
            store[name].append(result.metrics[name].copy())
        store["active"].append(active)
        obs_list = result.observations
        done = result.done
    return RolloutBuffer(
        obs=np.array(store["obs"]),
        actions=np.array(store["actions"]),
        logp_old=np.array(store["logp"]),
        logp_old_client=np.array(store["logp_client"]),
        probs_old=np.array(store["probs"]),
        entropies=np.array(store["entropy"]),
        model_used=np.array(store["model"]),
        dual=np.array(store["dual"]),
        # Per slot, every vehicle's value in id order.
        columns=np.array([
            np.concatenate(store[name])
            for name in ("reward", "qoe", "t_total", "err_rate", "active")
        ]),
    )


def clipped_surrogate(new_logp, old_logp, adv, clip, denom):
    beta = np.exp(new_logp - old_logp)
    term = np.minimum(beta * adv, np.clip(beta, 1.0 - clip, 1.0 + clip) * adv)
    clipped_out = ((adv >= 0) & (beta > 1.0 + clip)) | ((adv < 0) & (beta < 1.0 - clip))
    loss = -float(term.sum()) / denom
    dlogp = -(adv * beta * (~clipped_out)) / denom
    return loss, dlogp


def surrogate_losses(actor, obs, actions, old_logp, adv, clip, path, denom):
    logits, cache = actor.path_logits(obs, path)
    probs = softmax(logits)
    rows = np.arange(len(actions))
    new_logp = np.log(np.maximum(probs[rows, actions], PROB_FLOOR))
    loss, dlogp = clipped_surrogate(new_logp, old_logp, adv, clip, denom)
    dlogits = dlogp[:, None] * (-probs)
    dlogits[rows, actions] += dlogp
    return loss, actor.path_backward(cache, dlogits, path)


def merge_grads(into, grads):
    for name, glist in grads.items():
        if name not in into:
            into[name] = [g.copy() for g in glist]
        else:
            for dst, g in zip(into[name], glist):
                dst += g


def update_policy(opts, buffer, idx, agent, clip):
    """One agent's policy step on minibatch rows idx; returns its loss."""
    obs = buffer.obs[idx, agent]
    actions = buffer.actions[idx, agent]
    adv = buffer.adv[idx, agent]
    model = buffer.model_used[idx, agent]
    dual = buffer.dual[idx, agent]
    actor = opts.actors[agent]
    denom = len(idx)
    accum = {}
    total_loss = 0.0
    client_sel = (model == 0) | dual
    server_sel = model == 1
    for path, sel, old in (
        (CLIENT, client_sel, buffer.logp_old_client[idx, agent]),
        (SERVER, server_sel, buffer.logp_old[idx, agent]),
    ):
        if not sel.any():
            continue
        loss, grads = surrogate_losses(
            actor, obs[sel], actions[sel], old[sel], adv[sel], clip, path, denom
        )
        total_loss += loss
        merge_grads(accum, grads)
    for name, glist in accum.items():
        opts.actor_opts[agent][name].step(glist)
    return total_loss


def update_critics(bundle, opts, buffer, X, idx):
    targets = buffer.qhat[idx]
    B = len(idx)
    if len(bundle.critics) == 1:
        critic = opts.critics[0]
        values, cache = critic.forward(X[idx])
        values = values[:, 0]
        err = values[:, None] - targets
        loss = float((err**2).mean())
        dvalue = 2.0 * err.mean(axis=1) / B
        grads, _ = critic.backward(cache, dvalue.reshape(-1, 1))
        opts.critic_opts[0].step(grads_as_params(grads))
        return loss
    losses = []
    for v, critic in enumerate(opts.critics):
        values, cache = critic.forward(X[idx])
        err = values[:, 0] - targets[:, v]
        losses.append(float((err**2).mean()))
        grads, _ = critic.backward(cache, (2.0 * err / B).reshape(-1, 1))
        opts.critic_opts[v].step(grads_as_params(grads))
    return float(np.mean(losses))


def update_minibatch(bundle, opts, buffer, X, idx, clip):
    """Critic step, then every agent's policy step; returns (critic, policy losses)."""
    c_loss = update_critics(bundle, opts, buffer, X, idx)
    p_losses = [update_policy(opts, buffer, idx, v, clip) for v in range(bundle.actor.agents)]
    return c_loss, p_losses


def flat_moments(opt):
    """A per-tensor Adam's first and second moments, flattened in parameter order."""
    return (
        np.concatenate([m.reshape(-1) for m in opt.m]),
        np.concatenate([v.reshape(-1) for v in opt.v]),
    )


def all_finite(c_loss, p_losses):
    return math.isfinite(c_loss) and all(math.isfinite(p) for p in p_losses)


def initial_weights(obs_dim, n_actions, n_agents, cfg):
    """The weights make_bundle drew one actor at a time: per agent, per
    component, per layer, then each critic, from one generator."""
    rng = np.random.default_rng([cfg.seed, 1])
    hidden = list(cfg.hidden_dims)
    client = [obs_dim] + hidden[: cfg.split_index]
    server = [client[-1]] + hidden[cfg.split_index :]
    comp_dims = {
        "client_trunk": client,
        "client_head": [client[-1], n_actions],
        "server_trunk": server,
        "server_head": [server[-1], n_actions],
    }

    def draw(dims):
        out = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            out.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        return out

    actors = [{name: draw(dims) for name, dims in comp_dims.items()} for _ in range(n_agents)]
    critic_dims = [n_agents * (obs_dim + n_actions)] + list(cfg.critic_dims) + [1]
    critics = [draw(critic_dims) for _ in range(1 if cfg.shared_critic else n_agents)]
    return actors, critics


def critic_inputs(buffer, n_actions):
    T, V, O = buffer.obs.shape
    joint_obs = buffer.obs.reshape(T, V * O)
    onehot = np.zeros((T, V, n_actions))
    rows = np.repeat(np.arange(T), V)
    cols = np.tile(np.arange(V), T)
    onehot[rows, cols, buffer.actions.reshape(-1)] = 1.0
    return np.concatenate([joint_obs, onehot.reshape(T, V * n_actions)], axis=1)


def compute_qhat(buffer, bundle, gamma, lam):
    """Lambda-returns, one agent at a time."""
    T, V = buffer.rewards.shape
    X = critic_inputs(buffer, bundle.actor.n_actions)
    critics = critic_nets(bundle)
    qhat = np.zeros((T, V))
    q = None
    for v in range(V):
        if q is None or len(critics) > 1:
            q = critics[v * len(critics) // V].forward(X)[0][:, 0]
        q_next = np.append(q[1:], 0.0)
        delta = buffer.rewards[:, v] + gamma * q_next - q
        acc = 0.0
        for t in range(T - 1, -1, -1):
            acc = delta[t] + gamma * lam * acc
            qhat[t, v] = q[t] + acc
    return qhat


def compute_advantage(buffer, bundle, agent):
    """One agent's counterfactual advantage, the critic run on a swapped copy
    of the joint input: X repeated A times per slot, with the agent's one-hot
    action set to each alternative in turn."""
    T, V, O = buffer.obs.shape
    A = bundle.actor.n_actions
    X = critic_inputs(buffer, A)
    base = V * O + agent * A
    swapped = np.repeat(X, A, axis=0)            # (T*A, D)
    swapped[:, base : base + A] = 0.0
    rows = np.arange(T * A)
    swapped[rows, base + np.tile(np.arange(A), T)] = 1.0
    q_swap = bundle.critics[agent * len(bundle.critics) // V].value(swapped).reshape(T, A)
    baseline = (buffer.probs_old[:, agent, :] * q_swap).sum(axis=1)
    return buffer.qhat[:, agent] - baseline


def train(env, bundle, cfg, compute_advantage):
    """cfg.episodes training episodes as msrl.train ran them, with advantages
    from compute_advantage(buffer, bundle, X) -> (T, V); returns the optimizers."""
    opts = Optimizers(bundle, cfg.lr)
    action_rng = np.random.default_rng([cfg.seed, 2])
    shuffle_rng = np.random.default_rng([cfg.seed, 3])
    for episode in range(cfg.episodes):
        buffer = collect_episode(env, bundle, cfg.mode, action_rng, cfg.seed * 1_000_003 + episode)
        buffer.qhat = compute_qhat(buffer, bundle, cfg.gamma, cfg.lam)
        X = critic_inputs(buffer, bundle.actor.n_actions)
        buffer.adv = compute_advantage(buffer, bundle, X)
        T = len(buffer.obs)
        for _ in range(cfg.epochs):
            perm = shuffle_rng.permutation(T)
            for start in range(0, T, cfg.minibatch):
                update_minibatch(bundle, opts, buffer, X, perm[start : start + cfg.minibatch], cfg.clip)
    return opts
