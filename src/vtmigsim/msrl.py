"""Multi-agent trainer with entropy-gated client/server policy switching.

Each agent owns a split actor. During rollout the client stack always runs;
a controller watches the windowed mean entropy of the client's action
distribution and activates the server stack when the policy looks too
uncertain, with a drifting threshold and a hysteresis hold that pins the
server path (training both stacks) when selection flutters. Updates follow
the clipped-ratio surrogate on each sample's recorded path, a centralized
action-value network regressed on lambda-return targets, and counterfactual
advantages that marginalize one agent's own action under its policy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .configio import KEY, NO_KEY, RANGE, check_fields, read_config
from .neuralcore import (
    CLIENT,
    SERVER,
    Adam,
    Critic,
    DenseNet,
    SplitActor,
    entropy_of,
    log_prob,
    sample_actions,
    softmax,
)

MODES = ("split", "client", "server")


class TrainAbort(RuntimeError):
    """A loss went non-finite; carries a diagnostic state snapshot."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class SwitchController:
    """Entropy gate between the client and server policy paths.

    The threshold follows thr = thr0 + server_calls * change, i.e. it moves by
    `change` after every server activation. When the choice alternates more
    than flutter_limit times within the window, the controller enters a hold
    of hold_len slots that pins the server path with dual training. It counts
    alternations among the last window - 1 recorded choices (the one at window
    1) and the new one, from `last`, the last recorded choice, and `flags`:
    whether each of the last window - 2 differed from the one before it.
    """

    thr0: float
    change: float
    window: int
    hold_len: int
    flutter_limit: int
    calls: int = field(init=False)
    server_calls: int = field(init=False)
    hold_remaining: int = field(init=False)
    entropy_window: deque = field(init=False)
    last: Optional[str] = field(init=False)
    flags: deque = field(init=False)

    def __post_init__(self) -> None:
        self.calls = self.server_calls = self.hold_remaining = 0
        self.entropy_window = deque(maxlen=self.window)
        self.last = None
        self.flags = deque(maxlen=max(self.window - 2, 0))

    def select(self, latest_entropy: float) -> tuple[str, bool]:
        """Pick the path for this call; returns (choice, dual_training)."""
        if not math.isfinite(latest_entropy):
            raise ValueError("entropy must be finite")
        self.entropy_window.append(float(latest_entropy))
        self.calls += 1
        if self.hold_remaining > 0:
            self.hold_remaining -= 1
            choice, dual = SERVER, True
        else:
            mean_entropy = sum(self.entropy_window) / len(self.entropy_window)
            choice = SERVER if mean_entropy > self.thr else CLIENT
            dual = False
            alternations = sum(self.flags) + (self.last is not None and self.last != choice)
            if alternations > self.flutter_limit:
                self.hold_remaining = self.hold_len
                choice, dual = SERVER, True
        if self.last is not None:
            self.flags.append(self.last != choice)
        self.last = choice
        if choice == SERVER:
            self.server_calls += 1
        return choice, dual

    def copy(self) -> SwitchController:
        """An independent copy: the same settings, counters and windows."""
        twin = SwitchController.__new__(SwitchController)
        twin.__dict__.update(vars(self), entropy_window=self.entropy_window.copy(),
                             flags=self.flags.copy())
        return twin

    @property
    def thr(self) -> float:
        return self.thr0 + self.server_calls * self.change


@dataclass
class TrainConfig:
    gamma: float = field(default=0.95, metadata={RANGE: "in (0, 1]"})
    lam: float = field(default=0.95, metadata={RANGE: "in (0, 1]"})
    clip: float = field(default=0.2, metadata={RANGE: "in (0, 1)"})
    epochs: int = field(default=4, metadata={RANGE: ">= 1"})
    minibatch: int = field(default=8, metadata={RANGE: ">= 1"})
    lr: float = field(default=1e-3, metadata={RANGE: "> 0"})
    episodes: int = field(default=100, metadata={RANGE: ">= 1"})
    window: int = field(default=16, metadata={RANGE: ">= 1"})
    hold: int = field(default=32, metadata={RANGE: ">= 0"})
    flutter_limit: int = field(default=4, metadata={RANGE: ">= 0"})
    thr0: float = 0.7
    change: float = field(default=0.005, metadata={KEY: "train.ch"})
    seed: int = field(default=0, metadata=NO_KEY)
    mode: str = field(default="split", metadata={**NO_KEY, RANGE: MODES})
    hidden_dims: tuple = field(default=(8, 16, 16, 32, 16), metadata=NO_KEY)
    split_index: int = field(default=2, metadata=NO_KEY)
    critic_dims: tuple = field(default=(32, 32), metadata=NO_KEY)
    shared_critic: bool = True

    def __post_init__(self) -> None:
        check_fields(self, "train")


def train_config_from(cfg: dict[str, str], **overrides) -> TrainConfig:
    """Build a TrainConfig from flat `train.*` keys plus keyword overrides."""
    return read_config(TrainConfig, cfg, "train", **overrides)


@dataclass
class PolicyBundle:
    """Trained state: every agent's actor stacked in one, critic(s), controllers.

    The actor holds the bundle's shape: `agents`, `obs_dim` and `n_actions`."""

    actor: SplitActor
    critics: list[Critic]
    controllers: Optional[list[SwitchController]]


def make_bundle(obs_dim: int, n_actions: int, n_agents: int, cfg: TrainConfig,
                draw: bool = True) -> PolicyBundle:
    """A fresh bundle; its weights drawn from `cfg.seed`, or zeros without `draw`."""
    rng = np.random.default_rng([cfg.seed, 1]) if draw else None
    actor = SplitActor(obs_dim, n_actions, cfg.hidden_dims, cfg.split_index, rng, n_agents)
    critic_in = n_agents * obs_dim + n_agents * n_actions
    n_critics = 1 if cfg.shared_critic else n_agents
    critics = [Critic(critic_in, cfg.critic_dims, rng) for _ in range(n_critics)]
    controllers = None
    if cfg.mode == "split":
        controllers = [
            SwitchController(cfg.thr0, cfg.change, cfg.window, cfg.hold, cfg.flutter_limit)
            for _ in range(n_agents)
        ]
    return PolicyBundle(actor, critics, controllers)


@dataclass
class RolloutBuffer:
    """One episode of per-slot, per-agent experience."""

    obs: np.ndarray               # (T, V, O)
    actions: np.ndarray           # (T, V) int
    logp_old: np.ndarray          # (T, V) log-prob under the acting path
    logp_old_client: np.ndarray   # (T, V) log-prob under the client path
    probs_old: np.ndarray         # (T, V, A) acting distribution
    entropies: np.ndarray         # (T, V) client-path entropies
    model_used: np.ndarray        # (T, V) 0 client / 1 server
    dual: np.ndarray              # (T, V) bool
    columns: np.ndarray           # (5, T·V) the episode's run_episodes columns
    qhat: Optional[np.ndarray] = None
    adv: Optional[np.ndarray] = None

    @property
    def rewards(self) -> np.ndarray:
        """Row 0 of `columns` as a read-only (T, V) view."""
        view = self.columns[0].reshape(self.actions.shape)
        view.flags.writeable = False
        return view


def critic_inputs(buffer: RolloutBuffer, n_actions: int) -> np.ndarray:
    """Joint observation concatenated with one-hot joint action, (T, D)."""
    T, V, O = buffer.obs.shape
    onehot = np.eye(n_actions)[buffer.actions].reshape(T, V * n_actions)
    return np.concatenate([buffer.obs.reshape(T, V * O), onehot], axis=1)


def compute_qhat(
    buffer: RolloutBuffer, bundle: PolicyBundle, X: np.ndarray, gamma: float, lam: float
) -> np.ndarray:
    """Lambda-return targets Q(o,a) + sum_k (gamma*lam)^(k-t) * delta_k, on
    the episode's joint critic input X = critic_inputs(buffer).

    delta_t = r_t + gamma * Q(o_{t+1}, a_{t+1}) - Q(o_t, a_t) with a zero
    bootstrap past the final slot; the tail sum runs as a backward recursion.
    Runs before the update, so Q is the critic as it stood during collection.
    """
    values = np.stack([c.value(X) for c in bundle.critics], axis=1)
    q = np.broadcast_to(values, buffer.rewards.shape)
    q_next = np.append(q[1:], np.zeros_like(q[:1]), axis=0)
    delta = buffer.rewards + gamma * q_next - q
    qhat = np.zeros_like(q)
    acc = np.zeros(q.shape[1])
    for t in range(len(q) - 1, -1, -1):
        acc = delta[t] + gamma * lam * acc
        qhat[t] = q[t] + acc
    return qhat


def compute_advantage(buffer: RolloutBuffer, bundle: PolicyBundle, X: np.ndarray) -> np.ndarray:
    """Counterfactual advantages (T, V): qhat minus the own-action expectation of Q.

    Agent v's baseline swaps v's one-hot action in X = critic_inputs(buffer)
    through all A alternatives, keeps the other agents' fixed, and weights Q,
    critic v·C // V of the C critics, by v's acting probabilities. With
    z0 = X·W₀ᵀ + b₀ computed at each critic's first agent (v·C % V == 0) and
    c(a) = V·O + v·A + a, alternative a's first layer is z0 − W₀[:, c(a_v)] + W₀[:, c(a)];
    layers 1 and up run on those (1, T·A, H) rows, one agent at a time. This sums
    layer 0 in another order than the critic on a swapped copy of X, so the
    two agree to rounding, not bit for bit.
    """
    T, V, O = buffer.obs.shape
    A, C = bundle.actor.n_actions, len(bundle.critics)
    adv = np.empty((T, V))
    for v in range(V):
        net = bundle.critics[v * C // V].net
        w0 = net.weights[0][0]                                              # (H, D)
        if v * C % V == 0:
            z0 = X @ w0.T + net.biases[0][0]
        block = w0[:, V * O + v * A : V * O + (v + 1) * A].T                # (A, H)
        z = (z0 - block[buffer.actions[:, v]])[:, None, :] + block          # (T, A, H)
        q_swap, _ = net.forward(None, z.reshape(1, T * A, -1))
        baseline = (buffer.probs_old[:, v, :] * q_swap.reshape(T, A)).sum(axis=1)
        adv[:, v] = buffer.qhat[:, v] - baseline
    return adv


def clipped_surrogate(
    new_logp: np.ndarray, old_logp: np.ndarray, adv: np.ndarray, clip: float, denom: int
) -> tuple[np.ndarray, np.ndarray]:
    """Clipped-ratio objective per sample. Returns (terms, dloss/dnew_logp).

    Per sample the objective term is min(beta * A, clip(beta, 1-eps, 1+eps) * A)
    with beta = exp(new_logp - old_logp); the loss is minus the terms' sum over
    denom. The gradient coefficient zeroes out exactly where the clip
    saturates the min.
    """
    beta = np.exp(new_logp - old_logp)
    term = np.minimum(beta * adv, np.clip(beta, 1.0 - clip, 1.0 + clip) * adv)
    clipped_out = ((adv >= 0) & (beta > 1.0 + clip)) | ((adv < 0) & (beta < 1.0 - clip))
    dlogp = -(adv * beta * (~clipped_out)) / denom
    return term, dlogp


def surrogate_losses(
    actor: SplitActor, path: str, batch: tuple, sel: np.ndarray, clip: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Surrogate terms (V, B) and flat gradients (V, P) per component through
    one path of the stacked actor, for batch = (obs, actions, old_logp, adv)
    over (V, B) samples of which `sel` marks each agent's on this path.

    An agent with exactly one such sample runs it as a one-row batch, as it
    would alone: numpy evaluates a one-row product as a matrix-vector
    product, which rounds differently from a row of a matrix product.
    """
    V, B = sel.shape
    n = sel.sum(axis=1)
    row = sel.argmax(axis=1)
    passes = [(batch, sel & (n > 1)[:, None])]
    if (n == 1).any():
        passes.append((tuple(a[np.arange(V), row][:, None] for a in batch), (n == 1)[:, None]))
    terms, grads = [], {}
    for (obs, actions, old_logp, adv), mask in passes:
        logits, cache = actor.path_logits(obs, path)
        probs = softmax(logits)
        term, dlogp = clipped_surrogate(log_prob(probs, actions), old_logp, adv, clip, B)
        terms.append(np.where(mask, term, 0.0))
        dlogp = np.where(mask, dlogp, 0.0)
        dlogits = dlogp[..., None] * (-probs)
        at = actions[..., None]
        np.put_along_axis(dlogits, at, np.take_along_axis(dlogits, at, -1) + dlogp[..., None], -1)
        for name, g in actor.path_backward(cache, dlogits, path).items():
            grads[name] = grads[name] + g if name in grads else g
    if len(terms) > 1:
        terms[0][n == 1, row[n == 1]] = terms[1][n == 1, 0]
    return terms[0], grads


# --- rollout collection ---

def slot_policy(
    actor: SplitActor, controllers: Optional[list[SwitchController]], mode: str, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every agent's acting distribution for one slot of observations (V, O).

    One client forward for all agents; in split mode each agent's controller
    picks its path in agent order; one server forward if any agent needs it.
    Returns (client probs, client entropy, acting probs, model 0 client /
    1 server, dual), each with a leading agent axis.
    """
    features, client_probs = actor.forward_client(obs)
    entropy = entropy_of(client_probs)
    if mode == "split":
        model, dual = np.empty(len(obs), int), np.empty(len(obs), bool)
        for v, (c, e) in enumerate(zip(controllers, entropy.tolist())):
            choice, dual[v] = c.select(e)
            model[v] = choice == SERVER
    else:
        model = np.full(len(obs), int(mode == "server"))
        dual = np.zeros(len(obs), dtype=bool)
    probs = client_probs
    if model.any():
        server = actor.forward_server(features)
        probs = np.where(model[:, None] == 1, server, client_probs)
    return client_probs, entropy, probs, model, dual


def collect_episode(env, bundle: PolicyBundle, mode: str, action_rng: np.random.Generator,
                    env_seed: int) -> RolloutBuffer:
    """One episode played through `run_episodes` with actions sampled from `slot_policy`'s
    acting distributions: per slot one client and at most one server forward for all agents,
    and one record in RolloutBuffer field order, each field stacked at the end."""
    params, records = bundle.actor.path_params, []

    def act(obs: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
        client_probs, entropy, probs, model, dual = slot_policy(bundle.actor, bundle.controllers,
                                                                mode, obs)
        actions = sample_actions(probs, action_rng.random(len(obs)))
        records.append((obs, actions, log_prob(probs, actions), log_prob(client_probs, actions),
                        probs, entropy, model, dual))
        return actions, params[model]

    columns = run_episodes(env, act, 1, env_seed)
    return RolloutBuffer(*map(np.array, zip(*records)), columns.reshape(5, -1))


# --- update phase ---

class _Optimizers:
    """One Adam per actor component over all agents, one per critic."""

    def __init__(self, bundle: PolicyBundle, lr: float):
        self.actor_opts = {
            name: Adam(net.flat, lr=lr) for name, net in bundle.actor.components().items()
        }
        self.critic_opts = [Adam(c.net.flat, lr=lr) for c in bundle.critics]


def _update_policy(
    bundle: PolicyBundle, opts: _Optimizers, buffer: RolloutBuffer, idx: np.ndarray,
    cfg: TrainConfig,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every agent's policy step on minibatch rows idx; returns (terms, sel),
    both (V, B), of each path that ran. An agent's Adam moves in a component
    only if one of its samples ran through it."""
    actor, obs = bundle.actor, buffer.obs[idx].swapaxes(0, 1)
    actions, adv, model, dual = (
        a[idx].T for a in (buffer.actions, buffer.adv, buffer.model_used, buffer.dual)
    )
    grads: dict[str, np.ndarray] = {}
    active: dict[str, np.ndarray] = {}
    paths = []
    # Gradients flow only through each sample's recorded path; dual samples
    # additionally train the client path on its own recomputed log-probs.
    for path, sel, old in (
        (CLIENT, (model == 0) | dual, buffer.logp_old_client[idx].T),
        (SERVER, model == 1, buffer.logp_old[idx].T),
    ):
        if not sel.any():
            continue
        term, path_grads = surrogate_losses(actor, path, (obs, actions, old, adv), sel, cfg.clip)
        paths.append((term, sel))
        for name, g in path_grads.items():
            grads[name] = grads[name] + g if name in grads else g
            active[name] = active.get(name, False) | sel.any(axis=1)
    for name, g in grads.items():
        opts.actor_opts[name].step(g, active[name])
    return paths


def _update_critics(bundle: PolicyBundle, opts: _Optimizers, buffer: RolloutBuffer,
                    X: np.ndarray, idx: np.ndarray) -> float:
    """One step of each critic on minibatch rows idx; returns their mean loss.

    Critic j of C serves the contiguous block of agents v with v·C // V = j:
    one shared critic (C = 1) all V, a per-agent critic (C = V) agent j alone.
    It regresses on its block's targets, dvalue = 2·err.mean(axis=1) / B."""
    B = len(idx)
    targets = buffer.qhat[idx].reshape(B, len(bundle.critics), -1)
    losses = []
    for j, critic in enumerate(bundle.critics):
        values, cache = critic.forward(X[idx])
        err = values[:, None] - targets[:, j]               # (B, V // C)
        losses.append(float((err**2).mean()))
        opts.critic_opts[j].step(critic.backward(cache, 2.0 * err.mean(axis=1) / B))
    return float(np.mean(losses))


@dataclass
class EpisodeStats:
    episode: int
    mean_reward: float
    mean_qoe: float
    mean_latency: float
    mean_err: float
    active_params: float
    server_ratio: float
    switches: int
    threshold: float
    mean_entropy: float


# The train report: one row per episode, the EpisodeStats fields it names.
REPORT_HEADER = [
    "episode", "mean_reward", "mean_qoe", "mean_latency", "mean_err",
    "active_params", "server_ratio", "switches", "threshold",
]
REPORT_ROW = "%d," + ",".join(["%.9g"] * 6) + ",%d,%.9g\n"


def report_row(s: EpisodeStats) -> tuple:
    return tuple(getattr(s, name) for name in REPORT_HEADER)


def _episode_stats(episode: int, buffer: RolloutBuffer, bundle: PolicyBundle) -> EpisodeStats:
    """The episode's statistics; its five means are those `cli.cmd_eval` takes of the columns."""
    switches = int(np.count_nonzero(buffer.model_used[1:] != buffer.model_used[:-1]))
    thr = float(np.mean([c.thr for c in bundle.controllers])) if bundle.controllers else 0.0
    return EpisodeStats(episode, *buffer.columns.mean(axis=1).tolist(),
                        float(buffer.model_used.mean()), switches, thr,
                        float(buffer.entropies.mean()))


def train_episode(env, bundle: PolicyBundle, cfg: TrainConfig, opts: _Optimizers,
                  action_rng: np.random.Generator, shuffle_rng: np.random.Generator,
                  env_seed: int, episode: int) -> EpisodeStats:
    buffer = collect_episode(env, bundle, cfg.mode, action_rng, env_seed)
    X = critic_inputs(buffer, bundle.actor.n_actions)
    buffer.qhat = compute_qhat(buffer, bundle, X, cfg.gamma, cfg.lam)
    buffer.adv = compute_advantage(buffer, bundle, X)
    T = len(buffer.obs)
    for _ in range(cfg.epochs):
        perm = shuffle_rng.permutation(T)
        for start in range(0, T, cfg.minibatch):
            idx = perm[start : start + cfg.minibatch]
            c_loss = _update_critics(bundle, opts, buffer, X, idx)
            paths = _update_policy(bundle, opts, buffer, idx, cfg)
            if not math.isfinite(c_loss) or not all(np.isfinite(t.sum()) for t, _ in paths):
                # Each agent's loss: its own samples' terms, summed path by path.
                p_losses = [
                    sum((-float(t[v][s[v]].sum()) / len(idx) for t, s in paths if s[v].any()), 0.0)
                    for v in range(bundle.actor.agents)
                ]
                raise TrainAbort(
                    f"non-finite loss at episode {episode}",
                    {
                        "episode": episode,
                        "critic_loss": c_loss,
                        "policy_losses": p_losses,
                        "qhat_range": [float(buffer.qhat.min()), float(buffer.qhat.max())],
                        "adv_range": [float(buffer.adv.min()), float(buffer.adv.max())],
                        "reward_range": [float(buffer.rewards.min()), float(buffer.rewards.max())],
                    },
                )
    return _episode_stats(episode, buffer, bundle)


def train(
    env,
    cfg: TrainConfig,
    bundle: Optional[PolicyBundle] = None,
    start_episode: int = 0,
    on_episode: Optional[Callable[[EpisodeStats], None]] = None,
) -> tuple[list[EpisodeStats], PolicyBundle]:
    """Run cfg.episodes training episodes; deterministic under a fixed seed."""
    if bundle is None:
        bundle = make_bundle(env.obs_dim, env.E, env.V, cfg)
    opts = _Optimizers(bundle, cfg.lr)
    action_rng = np.random.default_rng([cfg.seed, 2])
    shuffle_rng = np.random.default_rng([cfg.seed, 3])
    stats: list[EpisodeStats] = []
    for episode in range(start_episode, start_episode + cfg.episodes):
        env_seed = cfg.seed * 1_000_003 + episode
        s = train_episode(env, bundle, cfg, opts, action_rng, shuffle_rng, env_seed, episode)
        stats.append(s)
        if on_episode is not None:
            on_episode(s)
    return stats, bundle


# --- evaluation ---

def run_episodes(
    env,
    act_fn: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]],
    episodes: int,
    seed_base: int,
    on_slot: Optional[Callable] = None,
) -> np.ndarray:
    """Rollouts at seeds seed_base + ep, as one float64 array (5, episodes, slots * V) of each
    slot's reward, qoe, t_total, err_rate and active params, slots in order, vehicles in id
    order: `eval` and `compare` play greedy or heuristic act functions through it, and
    `collect_episode` the learner's sampling one. Once per slot, act_fn(obs (V, O), slot)
    returns every vehicle's (actions (V,) int, active params (V,)), and on_slot(episode, slot,
    metrics) receives the slot's (V,) metrics records. act_fn's state (split controller copies,
    an RNG) carries across episodes, so N episodes equal N one-episode calls on one act_fn."""
    columns = []  # per slot (reward, qoe, t_total, err_rate, active params), (V,) each
    for ep in range(episodes):
        obs = env.reset(seed_base + ep)
        done = False
        slot = 0
        while not done:
            actions, n_active = act_fn(obs, slot)
            result = env.step(actions)
            m = result.metrics
            columns.append((m.reward, m.qoe, m.t_total, m.err_rate, n_active))
            if on_slot is not None:
                on_slot(ep, slot, m)
            obs, done = result.observations, result.done
            slot += 1
    return np.array([np.concatenate(c) for c in zip(*columns)]).reshape(5, episodes, -1)


def greedy_act_fn(
    bundle: PolicyBundle, kind: str
) -> Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]:
    """Greedy action function over a trained bundle, for all agents per slot.

    kind 'client' uses only the client path, 'server' always runs the full
    path, 'split' applies the switching controllers (on copies, so evaluation
    does not disturb training state).
    """
    controllers = None
    if kind == "split":
        if bundle.controllers is None:
            raise ValueError("bundle has no controllers; was it trained in split mode?")
        controllers = [c.copy() for c in bundle.controllers]
    params = bundle.actor.path_params

    def act(obs: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
        _, _, probs, model, _ = slot_policy(bundle.actor, controllers, kind, obs)
        return probs.argmax(axis=1), params[model]

    return act


# --- checkpoint persistence ---

def _net_tensors(prefix: str, net: DenseNet, agent: int) -> list[tuple[str, np.ndarray]]:
    """Views of agent `agent`'s parameters of one net (0 for a critic):
    prefix/W<i> and prefix/b<i> as a row."""
    tensors = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        tensors += [(f"{prefix}/W{i}", w[agent]), (f"{prefix}/b{i}", b[agent].reshape(1, -1))]
    return tensors


def bundle_tensors(bundle: PolicyBundle, episode: int) -> list[tuple[str, np.ndarray]]:
    """The checkpoint layout of a bundle, in file order, as (name, tensor) pairs.

    meta/episode, meta/agents, meta/obs_dim and meta/actions (1, 1); then per
    agent v each actor component's agent<v>/<component>/W<i> and /b<i> and, in
    split mode, agent<v>/ctrl = [[server_calls, hold_remaining, calls]]; then
    each critic's critic<j>/W<i> and /b<i>. Every W and b is a view of the
    bundle's parameters, so `load_bundle` restores a bundle by writing into them.
    """
    actor = bundle.actor
    tensors: list[tuple[str, np.ndarray]] = [
        ("meta/episode", np.array([[float(episode)]])),
        ("meta/agents", np.array([[float(actor.agents)]])),
        ("meta/obs_dim", np.array([[float(actor.obs_dim)]])),
        ("meta/actions", np.array([[float(actor.n_actions)]])),
    ]
    for v in range(actor.agents):
        for comp, net in actor.components().items():
            tensors += _net_tensors(f"agent{v}/{comp}", net, v)
        if bundle.controllers is not None:
            c = bundle.controllers[v]
            tensors.append(
                (
                    f"agent{v}/ctrl",
                    np.array([[float(c.server_calls), float(c.hold_remaining), float(c.calls)]]),
                )
            )
    for j, critic in enumerate(bundle.critics):
        tensors += _net_tensors(f"critic{j}", critic.net, 0)
    return tensors


def _saved(tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """Checkpoint tensor `name`, refused when missing or of another shape."""
    saved = tensors.get(name)
    if saved is None:
        raise ValueError(f"checkpoint has no tensor {name}")
    if saved.shape != shape:
        raise ValueError(f"checkpoint tensor {name} has shape {saved.shape}, expected {shape}")
    return saved


def checkpoint_meta(tensors: dict[str, np.ndarray]) -> dict[str, int]:
    """The checkpoint's `episode`, `agents`, `obs_dim` and `actions`: integers,
    the episode >= 0 and the sizes >= 1, or a ValueError naming the tensor."""
    meta = {}
    for key, least in (("episode", 0), ("agents", 1), ("obs_dim", 1), ("actions", 1)):
        value = float(_saved(tensors, f"meta/{key}", (1, 1))[0, 0])
        if not (value >= least and value.is_integer()):
            raise ValueError(f"checkpoint tensor meta/{key} must be an integer >= {least}, "
                             f"got {value!r}")
        meta[key] = int(value)
    return meta


def load_bundle(
    tensors: dict[str, np.ndarray], cfg: TrainConfig
) -> tuple[PolicyBundle, int]:
    """Rebuild a bundle from checkpoint tensors; returns (bundle, episode).

    Builds a fresh bundle of the size `checkpoint_meta` reads, and writes
    every tensor `bundle_tensors` lists for it, refusing a missing one or any
    shape but its own, a non-finite parameter, or a controller value that is
    not an integer >= 0. A controller row may be missing (the checkpoint was
    trained outside split mode): that controller starts fresh.
    """
    meta = checkpoint_meta(tensors)
    episode = meta["episode"]
    bundle = make_bundle(meta["obs_dim"], meta["actions"], meta["agents"], cfg, draw=False)
    layout = bundle_tensors(bundle, episode)
    for name, param in layout:
        if name in tensors or not name.endswith("/ctrl"):
            param[...] = _saved(tensors, name, param.shape)
    nets = [*bundle.actor.components().values(), *(c.net for c in bundle.critics)]
    if not all(np.isfinite(net.flat).all() for net in nets):
        name = next(name for name, param in layout if not np.isfinite(param).all())
        raise ValueError(f"checkpoint tensor {name} holds a non-finite value")
    rows = ((name, row[0].tolist()) for name, row in layout if name.endswith("/ctrl"))
    for c, (name, row) in zip(bundle.controllers or [], rows):
        if not all(x >= 0 and x.is_integer() for x in row):
            raise ValueError(f"checkpoint tensor {name} must hold integers >= 0, got {row}")
        c.server_calls, c.hold_remaining, c.calls = map(int, row)
    return bundle, episode
