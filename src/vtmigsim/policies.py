"""Baseline controllers sharing the learned policy's action interface.

Five kinds: the switching policy itself, the always-full-path and
client-only variants, nearest-RSU full migration, and random migration to a
nearby RSU. Each exposes act(agent, obs, slot) -> (action, active params) so
evaluation and comparison code treats them uniformly.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .envsim import PremigrationEnv
from .msrl import PolicyBundle, greedy_act_fn

SPLIT = "split"
LOCAL_EDGE = "local_edge"
LOCAL = "local"
FULL_MIGRATION = "full_migration"
RANDOM_MIGRATION = "random_migration"

KINDS = (SPLIT, LOCAL_EDGE, LOCAL, FULL_MIGRATION, RANDOM_MIGRATION)

LEARNED_KINDS = {SPLIT: "split", LOCAL_EDGE: "server", LOCAL: "client"}

# Full migration pushes "everything", but the migrated fraction must stay
# below 1; 0.99 is the documented stand-in.
FULL_MIGRATION_ALPHA = 0.99


def env_overrides(kind: str) -> dict[str, str]:
    """Scenario-config overrides a policy requires for its episodes."""
    if kind == FULL_MIGRATION:
        return {"env.alpha": str(FULL_MIGRATION_ALPHA)}
    return {}


def nearby_radius(env: PremigrationEnv) -> float:
    """Twice the mean nearest-neighbour spacing between RSUs."""
    xy = np.array([[r.pos.x, r.pos.y] for r in env.rsus])
    if len(xy) < 2:
        return float("inf")
    spacings = []
    for i in range(len(xy)):
        d = np.hypot(xy[:, 0] - xy[i, 0], xy[:, 1] - xy[i, 1])
        d[i] = np.inf
        spacings.append(d.min())
    return 2.0 * float(np.mean(spacings))


def make_act_fn(
    kind: str,
    env: PremigrationEnv,
    bundle: Optional[PolicyBundle] = None,
    rng: Optional[np.random.Generator] = None,
) -> Callable[[int, np.ndarray, int], tuple[int, float]]:
    """Build the per-agent action function for one policy kind."""
    if kind in LEARNED_KINDS:
        if bundle is None:
            raise ValueError(f"policy {kind!r} needs a trained bundle")
        return greedy_act_fn(bundle, LEARNED_KINDS[kind])

    if kind == FULL_MIGRATION:

        def act_full(v: int, obs: np.ndarray, slot: int) -> tuple[int, float]:
            return int(env.serving[slot, v]), 0.0

        return act_full

    if kind == RANDOM_MIGRATION:
        if rng is None:
            raise ValueError("random migration needs an RNG")
        radius = nearby_radius(env)
        rsu_xy = np.array([[r.pos.x, r.pos.y] for r in env.rsus])
        # (horizon, V, E): the RSUs within the radius of each vehicle per slot.
        nearby = np.array([
            np.hypot(rsu_xy[:, 0] - xy[:, :1], rsu_xy[:, 1] - xy[:, 1:]) <= radius
            for xy in env.xy
        ])

        def act_random(v: int, obs: np.ndarray, slot: int) -> tuple[int, float]:
            candidates = np.flatnonzero(nearby[slot, v])
            if candidates.size == 0:
                candidates = np.arange(env.E)
            return int(candidates[rng.integers(0, candidates.size)]), 0.0

        return act_random

    raise ValueError(f"unknown policy kind {kind!r}; expected one of {KINDS}")
