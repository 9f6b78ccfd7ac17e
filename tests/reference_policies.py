"""Per-agent reference of the evaluation action functions and of the switch
controller, kept as oracles.

This is greedy evaluation and the heuristics as they ran one vehicle at a
time: act(agent, obs (O,), slot) -> (action, active params), with one
single-observation forward per agent through a one-agent view of the
stacked actor, and one scalar RNG draw per vehicle for random migration.
The per-slot action functions of `vtmigsim.policies` must reproduce it bit
for bit. `per_slot` adapts a reference function to the per-slot contract so
that both run through `msrl.run_episodes`. `SwitchController` is the entropy
gate as it counted alternations over a log of its recorded choices.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from vtmigsim.msrl import PolicyBundle
from vtmigsim.neuralcore import CLIENT, SERVER, DenseNet, SplitActor, entropy_of
from vtmigsim.policies import FULL_MIGRATION, LEARNED_KINDS, RANDOM_MIGRATION, nearby_radius


@dataclass
class SwitchController:
    """`msrl.SwitchController` with a log of the last `window` recorded choices:
    the alternations are counted over the last window - 1 of them (the whole
    log, at window 1) followed by the new choice."""

    thr0: float
    change: float
    window: int
    hold_len: int
    flutter_limit: int
    calls: int = field(init=False)
    server_calls: int = field(init=False)
    hold_remaining: int = field(init=False)
    entropy_window: deque = field(init=False)
    switch_log: deque = field(init=False)

    def __post_init__(self) -> None:
        self.calls = self.server_calls = self.hold_remaining = 0
        self.entropy_window = deque(maxlen=self.window)
        self.switch_log = deque(maxlen=self.window)

    def select(self, latest_entropy: float) -> tuple[str, bool]:
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
            recent = list(self.switch_log)[-(self.window - 1):] + [choice]
            alternations = sum(1 for a, b in zip(recent, recent[1:]) if a != b)
            if alternations > self.flutter_limit:
                self.hold_remaining = self.hold_len
                choice, dual = SERVER, True
        self.switch_log.append(choice)
        if choice == SERVER:
            self.server_calls += 1
        return choice, dual

    @property
    def thr(self) -> float:
        return self.thr0 + self.server_calls * self.change


def agent_net(net: DenseNet, v: int) -> DenseNet:
    """Agent v of a stacked net, as a one-agent net sharing its memory."""
    view = copy.copy(net)
    view.flat = net.flat[v : v + 1]
    view.weights = [w[v : v + 1] for w in net.weights]
    view.biases = [b[v : v + 1] for b in net.biases]
    return view


def agent_actor(actor: SplitActor, v: int) -> SplitActor:
    """Agent v of a stacked actor, as a one-agent actor sharing its memory."""
    view = copy.copy(actor)
    view.agents = 1
    for name, net in actor.components().items():
        setattr(view, name, agent_net(net, v))
    return view


def greedy_act_fn(bundle: PolicyBundle, kind: str):
    """Greedy per-agent selector; kind is 'client', 'server' or 'split'."""
    controllers = None
    if kind == "split":
        controllers = [copy.deepcopy(c) for c in bundle.controllers]
    client_n, full_n = bundle.actor.path_params
    actors = [agent_actor(bundle.actor, v) for v in range(bundle.actor.agents)]

    def act(v, obs, slot):
        features, probs = actors[v].forward_client(np.asarray(obs)[None])
        if kind == "client":
            return int(np.argmax(probs[0])), client_n
        if kind == "server":
            return int(np.argmax(actors[v].forward_server(features)[0])), full_n
        choice, _ = controllers[v].select(float(entropy_of(probs[0])))
        if choice == SERVER:
            return int(np.argmax(actors[v].forward_server(features)[0])), full_n
        return int(np.argmax(probs[0])), client_n

    act.controllers = controllers
    return act


def make_act_fn(kind, env, bundle=None, rng=None):
    """The per-agent action function of one policy kind."""
    if kind in LEARNED_KINDS:
        return greedy_act_fn(bundle, LEARNED_KINDS[kind])
    if kind == FULL_MIGRATION:
        return lambda v, obs, slot: (int(env.serving[slot, v]), 0.0)
    assert kind == RANDOM_MIGRATION
    radius = nearby_radius(env)
    rsu_xy = env.rsu_xy
    nearby = np.array([
        np.hypot(rsu_xy[:, 0] - xy[:, :1], rsu_xy[:, 1] - xy[:, 1:]) <= radius
        for xy in env.xy
    ])

    def act_random(v, obs, slot):
        candidates = np.flatnonzero(nearby[slot, v])
        if candidates.size == 0:
            candidates = np.arange(env.E)
        return int(candidates[rng.integers(0, candidates.size)]), 0.0

    return act_random


def per_slot(act):
    """A per-agent action function as act(obs (V, O), slot) -> (actions, params)."""

    def act_slot(obs, slot):
        picks = [act(v, row, slot) for v, row in enumerate(obs)]
        return np.array([a for a, _ in picks]), np.array([n for _, n in picks])

    return act_slot
