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

import copy
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .configio import get_float, get_int, get_str
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
    of hold_len slots that pins the server path with dual training.
    """

    thr0: float = 0.7
    change: float = 0.005
    window: int = 16
    hold_len: int = 32
    flutter_limit: int = 4
    thr: float = field(init=False)
    calls: int = 0
    server_calls: int = 0
    hold_remaining: int = 0
    entropy_window: deque = field(init=False)
    switch_log: deque = field(init=False)

    def __post_init__(self) -> None:
        self.thr = self.thr0
        self.entropy_window = deque(maxlen=self.window)
        self.switch_log = deque(maxlen=self.window)

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
            choice = SERVER if self._mean_entropy() > self.thr else CLIENT
            dual = False
            recent = list(self.switch_log)[-(self.window - 1):] + [choice]
            alternations = sum(1 for a, b in zip(recent, recent[1:]) if a != b)
            if alternations > self.flutter_limit:
                self.hold_remaining = self.hold_len
                choice, dual = SERVER, True
        self.switch_log.append(choice)
        if choice == SERVER:
            self.server_calls += 1
            self.thr = self.thr0 + self.server_calls * self.change
        return choice, dual

    def _mean_entropy(self) -> float:
        return sum(self.entropy_window) / len(self.entropy_window)


@dataclass
class TrainConfig:
    gamma: float = 0.95
    lam: float = 0.95
    clip: float = 0.2
    epochs: int = 4
    minibatch: int = 8
    lr: float = 1e-3
    episodes: int = 100
    window: int = 16
    hold: int = 32
    flutter_limit: int = 4
    thr0: float = 0.7
    change: float = 0.005
    seed: int = 0
    mode: str = "split"
    hidden_dims: tuple = (8, 16, 16, 32, 16)
    split_index: int = 2
    critic_dims: tuple = (32, 32)
    shared_critic: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= 1.0) or not (0.0 < self.lam <= 1.0):
            raise ValueError("gamma and lam must be in (0, 1]")
        if not (0.0 < self.clip < 1.0):
            raise ValueError("clip must be in (0, 1)")
        if self.epochs < 1 or self.minibatch < 1:
            raise ValueError("epochs and minibatch must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def train_config_from(cfg: dict[str, str], **overrides) -> TrainConfig:
    """Build a TrainConfig from flat `train.*` keys plus keyword overrides."""
    values = dict(
        gamma=get_float(cfg, "train.gamma", 0.95),
        lam=get_float(cfg, "train.lam", 0.95),
        clip=get_float(cfg, "train.clip", 0.2),
        epochs=get_int(cfg, "train.epochs", 4),
        minibatch=get_int(cfg, "train.minibatch", 8),
        lr=get_float(cfg, "train.lr", 1e-3),
        episodes=get_int(cfg, "train.episodes", 100),
        window=get_int(cfg, "train.window", 16),
        hold=get_int(cfg, "train.hold", 32),
        flutter_limit=get_int(cfg, "train.flutter_limit", 4),
        thr0=get_float(cfg, "train.thr0", 0.7),
        change=get_float(cfg, "train.ch", 0.005),
        seed=get_int(cfg, "train.seed", 0),
        mode=get_str(cfg, "train.mode", "split"),
        shared_critic=get_int(cfg, "train.shared_critic", 1) != 0,
    )
    values.update(overrides)
    return TrainConfig(**values)


@dataclass
class PolicyBundle:
    """Trained state: every agent's actor stacked in one, critic(s), controllers."""

    actor: SplitActor
    critics: list[Critic]
    controllers: Optional[list[SwitchController]]
    obs_dim: int
    n_actions: int
    n_agents: int
    shared_critic: bool

    def critic_for(self, v: int) -> Critic:
        """Agent v's critic: the one shared critic, or v's own."""
        return self.critics[0] if self.shared_critic else self.critics[v]

    def client_params(self) -> int:
        return self.actor.param_count(CLIENT)

    def full_params(self) -> int:
        return self.actor.param_count("client+server")


def make_bundle(obs_dim: int, n_actions: int, n_agents: int, cfg: TrainConfig) -> PolicyBundle:
    rng = np.random.default_rng([cfg.seed, 1])
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
    return PolicyBundle(
        actor=actor,
        critics=critics,
        controllers=controllers,
        obs_dim=obs_dim,
        n_actions=n_actions,
        n_agents=n_agents,
        shared_critic=cfg.shared_critic,
    )


@dataclass
class RolloutBuffer:
    """One episode of per-slot, per-agent experience."""

    obs: np.ndarray               # (T, V, O)
    actions: np.ndarray           # (T, V) int
    logp_old: np.ndarray          # (T, V) log-prob under the acting path
    logp_old_client: np.ndarray   # (T, V) log-prob under the client path
    probs_old: np.ndarray         # (T, V, A) acting distribution
    rewards: np.ndarray           # (T, V)
    entropies: np.ndarray         # (T, V) client-path entropies
    model_used: np.ndarray        # (T, V) 0 client / 1 server
    dual: np.ndarray              # (T, V) bool
    metrics: list                 # per-slot list of per-agent SlotMetrics
    qhat: Optional[np.ndarray] = None
    adv: Optional[np.ndarray] = None


def critic_inputs(buffer: RolloutBuffer, n_actions: int) -> np.ndarray:
    """Joint observation concatenated with one-hot joint action, (T, D)."""
    T, V, O = buffer.obs.shape
    onehot = np.eye(n_actions)[buffer.actions].reshape(T, V * n_actions)
    return np.concatenate([buffer.obs.reshape(T, V * O), onehot], axis=1)


def compute_qhat(buffer: RolloutBuffer, bundle: PolicyBundle, gamma: float, lam: float) -> np.ndarray:
    """Lambda-return targets Q(o,a) + sum_k (gamma*lam)^(k-t) * delta_k.

    delta_t = r_t + gamma * Q(o_{t+1}, a_{t+1}) - Q(o_t, a_t) with a zero
    bootstrap past the final slot; the tail sum runs as a backward recursion.
    Runs before the update, so Q is the critic as it stood during collection.
    """
    X = critic_inputs(buffer, bundle.n_actions)
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


def compute_advantage(buffer: RolloutBuffer, bundle: PolicyBundle, agent: int) -> np.ndarray:
    """Counterfactual advantage: qhat minus the own-action expectation of Q.

    The baseline swaps agent `agent`'s one-hot action through all
    alternatives, keeps the other agents' actions fixed, and weights the
    critic values by the agent's acting probabilities.
    """
    assert buffer.qhat is not None
    T, V, O = buffer.obs.shape
    A = bundle.n_actions
    X = critic_inputs(buffer, A)
    base = V * O + agent * A
    swapped = np.repeat(X, A, axis=0)            # (T*A, D)
    swapped[:, base : base + A] = 0.0
    rows = np.arange(T * A)
    swapped[rows, base + np.tile(np.arange(A), T)] = 1.0
    q_swap = bundle.critic_for(agent).value(swapped).reshape(T, A)
    baseline = (buffer.probs_old[:, agent, :] * q_swap).sum(axis=1)
    return buffer.qhat[:, agent] - baseline


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
        picks = [c.select(e) for c, e in zip(controllers, entropy)]
        model = np.array([choice == SERVER for choice, _ in picks], dtype=int)
        dual = np.array([d for _, d in picks], dtype=bool)
    else:
        model = np.full(len(obs), int(mode == "server"))
        dual = np.zeros(len(obs), dtype=bool)
    probs = client_probs
    if model.any():
        server = actor.forward_server(features)
        probs = np.where(model[:, None] == 1, server, client_probs)
    return client_probs, entropy, probs, model, dual


def collect_episode(
    env,
    bundle: PolicyBundle,
    mode: str,
    action_rng: np.random.Generator,
    env_seed: int,
) -> RolloutBuffer:
    """One episode; per slot one client and at most one server forward for all agents."""
    obs_list = env.reset(env_seed)
    store = {k: [] for k in (
        "obs", "actions", "logp", "logp_client", "probs", "rewards",
        "entropy", "model", "dual", "metrics",
    )}
    done = False
    while not done:
        slot_obs = np.array(obs_list)
        client_probs, entropy, probs, model, dual = slot_policy(
            bundle.actor, bundle.controllers, mode, slot_obs
        )
        actions = sample_actions(probs, action_rng.random(bundle.n_agents))
        result = env.step(list(actions))
        store["obs"].append(slot_obs)
        store["actions"].append(actions)
        store["logp"].append(log_prob(probs, actions))
        store["logp_client"].append(log_prob(client_probs, actions))
        store["probs"].append(probs)
        store["rewards"].append(result.rewards.copy())
        store["entropy"].append(entropy)
        store["model"].append(model)
        store["dual"].append(dual)
        store["metrics"].append(result.metrics)
        obs_list = result.observations
        done = result.done
    return RolloutBuffer(
        obs=np.array(store["obs"]),
        actions=np.array(store["actions"]),
        logp_old=np.array(store["logp"]),
        logp_old_client=np.array(store["logp_client"]),
        probs_old=np.array(store["probs"]),
        rewards=np.array(store["rewards"]),
        entropies=np.array(store["entropy"]),
        model_used=np.array(store["model"]),
        dual=np.array(store["dual"]),
        metrics=store["metrics"],
    )


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


def _update_critics(
    bundle: PolicyBundle,
    opts: _Optimizers,
    buffer: RolloutBuffer,
    X: np.ndarray,
    idx: np.ndarray,
) -> float:
    targets = buffer.qhat[idx]
    B = len(idx)
    if bundle.shared_critic:
        critic = bundle.critics[0]
        values, cache = critic.forward(X[idx])
        err = values[:, None] - targets               # (B, V)
        loss = float((err**2).mean())
        dvalue = 2.0 * err.mean(axis=1) / B
        opts.critic_opts[0].step(critic.backward(cache, dvalue))
        return loss
    losses = []
    for v, critic in enumerate(bundle.critics):
        values, cache = critic.forward(X[idx])
        err = values - targets[:, v]
        losses.append(float((err**2).mean()))
        opts.critic_opts[v].step(critic.backward(cache, 2.0 * err / B))
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


REPORT_HEADER = [
    "episode", "mean_reward", "mean_qoe", "mean_latency", "mean_err",
    "active_params", "server_ratio", "switches", "threshold",
]


def report_row(s: EpisodeStats) -> list:
    return [
        s.episode, f"{s.mean_reward:.9g}", f"{s.mean_qoe:.9g}", f"{s.mean_latency:.9g}",
        f"{s.mean_err:.9g}", f"{s.active_params:.9g}", f"{s.server_ratio:.9g}",
        s.switches, f"{s.threshold:.9g}",
    ]


def _episode_stats(episode: int, buffer: RolloutBuffer, bundle: PolicyBundle) -> EpisodeStats:
    flat = [m for slot in buffer.metrics for m in slot]
    client_n = bundle.client_params()
    full_n = bundle.full_params()
    active = np.where(buffer.model_used == 1, full_n, client_n)
    switches = int(np.count_nonzero(buffer.model_used[1:] != buffer.model_used[:-1]))
    thr = (
        float(np.mean([c.thr for c in bundle.controllers]))
        if bundle.controllers
        else 0.0
    )
    return EpisodeStats(
        episode=episode,
        mean_reward=float(buffer.rewards.mean()),
        mean_qoe=float(np.mean([m.qoe for m in flat])),
        mean_latency=float(np.mean([m.t_total for m in flat])),
        mean_err=float(np.mean([m.err_rate for m in flat])),
        active_params=float(active.mean()),
        server_ratio=float(buffer.model_used.mean()),
        switches=switches,
        threshold=thr,
        mean_entropy=float(buffer.entropies.mean()),
    )


def train_episode(
    env,
    bundle: PolicyBundle,
    cfg: TrainConfig,
    opts: _Optimizers,
    action_rng: np.random.Generator,
    shuffle_rng: np.random.Generator,
    env_seed: int,
    episode: int,
) -> EpisodeStats:
    buffer = collect_episode(env, bundle, cfg.mode, action_rng, env_seed)
    buffer.qhat = compute_qhat(buffer, bundle, cfg.gamma, cfg.lam)
    buffer.adv = np.stack(
        [compute_advantage(buffer, bundle, v) for v in range(bundle.n_agents)], axis=1
    )
    X = critic_inputs(buffer, bundle.n_actions)
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
                    for v in range(bundle.n_agents)
                ]
                raise TrainAbort(
                    f"non-finite loss at episode {episode}",
                    {
                        "episode": episode,
                        "critic_loss": c_loss,
                        "policy_losses": p_losses,
                        "qhat_range": [float(buffer.qhat.min()), float(buffer.qhat.max())],
                        "adv_range": [float(buffer.adv.min()), float(buffer.adv.max())],
                        "reward_range": [
                            float(buffer.rewards.min()),
                            float(buffer.rewards.max()),
                        ],
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
    obs_dim = env.obs_dim
    n_actions = env.E
    if bundle is None:
        bundle = make_bundle(obs_dim, n_actions, env.V, cfg)
    opts = _Optimizers(bundle, cfg.lr)
    action_rng = np.random.default_rng([cfg.seed, 2])
    shuffle_rng = np.random.default_rng([cfg.seed, 3])
    stats: list[EpisodeStats] = []
    for episode in range(start_episode, start_episode + cfg.episodes):
        env_seed = cfg.seed * 1_000_003 + episode
        s = train_episode(
            env, bundle, cfg, opts, action_rng, shuffle_rng, env_seed, episode
        )
        stats.append(s)
        if on_episode is not None:
            on_episode(s)
    return stats, bundle


# --- evaluation ---

@dataclass
class EvalSummary:
    mean_reward: float
    mean_qoe: float
    mean_latency: float
    mean_err: float
    mean_active_params: float
    episodes: int


def run_episodes(
    env,
    act_fn: Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]],
    episodes: int,
    seed_base: int,
    on_slot: Optional[Callable] = None,
) -> EvalSummary:
    """Greedy/no-learning rollouts. Once per slot, act_fn(obs (V, O), slot)
    returns every vehicle's (actions (V,) int, active params (V,));
    on_slot(episode, slot, vehicle, metrics) runs per vehicle in id order."""
    rewards, qoes, lats, errs, active = [], [], [], [], []
    for ep in range(episodes):
        obs_list = env.reset(seed_base + ep)
        done = False
        slot = 0
        while not done:
            actions, n_active = act_fn(np.array(obs_list), slot)
            active.append(n_active)
            result = env.step(actions.tolist())
            rewards.extend(result.rewards.tolist())
            for v, m in enumerate(result.metrics):
                qoes.append(m.qoe)
                lats.append(m.t_total)
                errs.append(m.err_rate)
                if on_slot is not None:
                    on_slot(ep, slot, v, m)
            obs_list = result.observations
            done = result.done
            slot += 1
    return EvalSummary(
        mean_reward=float(np.mean(rewards)),
        mean_qoe=float(np.mean(qoes)),
        mean_latency=float(np.mean(lats)),
        mean_err=float(np.mean(errs)),
        mean_active_params=float(np.mean(np.concatenate(active))),
        episodes=episodes,
    )


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
        controllers = copy.deepcopy(bundle.controllers)
    params = np.array([bundle.client_params(), bundle.full_params()])

    def act(obs: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
        _, _, probs, model, _ = slot_policy(bundle.actor, controllers, kind, obs)
        return probs.argmax(axis=1), params[model]

    return act


# --- checkpoint persistence ---

def _net_tensors(prefix: str, net: DenseNet) -> list[tuple[str, np.ndarray]]:
    """Named views of a net's parameters: prefix/W<i> and prefix/b<i> as a row."""
    tensors = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        tensors += [(f"{prefix}/W{i}", w), (f"{prefix}/b{i}", b.reshape(1, -1))]
    return tensors


def _restore_net(tensors: dict[str, np.ndarray], prefix: str, net: DenseNet) -> None:
    """Copy checkpoint tensors into a net, refusing a missing one or any shape but its own."""
    for name, param in _net_tensors(prefix, net):
        if name not in tensors:
            raise ValueError(f"checkpoint has no tensor {name}")
        saved = tensors[name]
        if saved.shape != param.shape:
            raise ValueError(
                f"checkpoint tensor {name} has shape {saved.shape}, expected {param.shape}"
            )
        param[...] = saved


def bundle_tensors(bundle: PolicyBundle, episode: int) -> list[tuple[str, np.ndarray]]:
    tensors: list[tuple[str, np.ndarray]] = [
        ("meta/episode", np.array([[float(episode)]])),
        ("meta/agents", np.array([[float(bundle.n_agents)]])),
        ("meta/obs_dim", np.array([[float(bundle.obs_dim)]])),
        ("meta/actions", np.array([[float(bundle.n_actions)]])),
    ]
    for v in range(bundle.n_agents):
        for comp, net in bundle.actor.components().items():
            tensors += _net_tensors(f"agent{v}/{comp}", net.agent(v))
        if bundle.controllers is not None:
            c = bundle.controllers[v]
            tensors.append(
                (
                    f"agent{v}/ctrl",
                    np.array([[float(c.server_calls), float(c.hold_remaining), float(c.calls)]]),
                )
            )
    for j, critic in enumerate(bundle.critics):
        tensors += _net_tensors(f"critic{j}", critic.net)
    return tensors


def load_bundle(
    tensors: dict[str, np.ndarray], cfg: TrainConfig
) -> tuple[PolicyBundle, int]:
    """Rebuild a bundle from checkpoint tensors; returns (bundle, episode)."""
    episode = int(tensors["meta/episode"][0, 0])
    n_agents = int(tensors["meta/agents"][0, 0])
    obs_dim = int(tensors["meta/obs_dim"][0, 0])
    n_actions = int(tensors["meta/actions"][0, 0])
    bundle = make_bundle(obs_dim, n_actions, n_agents, cfg)
    for v in range(n_agents):
        for comp, net in bundle.actor.components().items():
            _restore_net(tensors, f"agent{v}/{comp}", net.agent(v))
        key = f"agent{v}/ctrl"
        if bundle.controllers is not None and key in tensors:
            c = bundle.controllers[v]
            c.server_calls = int(tensors[key][0, 0])
            c.hold_remaining = int(tensors[key][0, 1])
            c.calls = int(tensors[key][0, 2])
            c.thr = c.thr0 + c.server_calls * c.change
    for j, critic in enumerate(bundle.critics):
        _restore_net(tensors, f"critic{j}", critic.net)
    return bundle, episode
