"""Per-agent reference of the evaluation action functions, kept as an oracle.

This is greedy evaluation and the heuristics as they ran one vehicle at a
time: act(agent, obs (O,), slot) -> (action, active params), with one
single-observation forward per agent through an unstacked view of the
stacked actor, and one scalar RNG draw per vehicle for random migration.
The per-slot action functions of `vtmigsim.policies` must reproduce it bit
for bit. `per_slot` adapts a reference function to the per-slot contract so
that both run through `msrl.run_episodes`.
"""

from __future__ import annotations

import copy

import numpy as np

from vtmigsim.msrl import PolicyBundle
from vtmigsim.neuralcore import SERVER, SplitActor, entropy_of
from vtmigsim.policies import FULL_MIGRATION, LEARNED_KINDS, RANDOM_MIGRATION, nearby_radius


def agent_actor(actor: SplitActor, v: int) -> SplitActor:
    """Agent v of a stacked actor, as an unstacked actor sharing its memory."""
    view = copy.copy(actor)
    view.agents = None
    for name, net in actor.components().items():
        setattr(view, name, net.agent(v))
    return view


def greedy_act_fn(bundle: PolicyBundle, kind: str):
    """Greedy per-agent selector; kind is 'client', 'server' or 'split'."""
    controllers = None
    if kind == "split":
        controllers = [copy.deepcopy(c) for c in bundle.controllers]
    client_n = bundle.client_params()
    full_n = bundle.full_params()
    actors = [agent_actor(bundle.actor, v) for v in range(bundle.n_agents)]

    def act(v, obs, slot):
        features, probs = actors[v].forward_client(obs)
        if kind == "client":
            return int(np.argmax(probs)), client_n
        if kind == "server":
            return int(np.argmax(actors[v].forward_server(features))), full_n
        choice, _ = controllers[v].select(float(entropy_of(probs)))
        if choice == SERVER:
            return int(np.argmax(actors[v].forward_server(features))), full_n
        return int(np.argmax(probs)), client_n

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
    rsu_xy = np.array([[r.pos.x, r.pos.y] for r in env.rsus])
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
