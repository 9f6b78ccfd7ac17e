"""Baseline controllers sharing the learned policy's action interface.

Five kinds: the switching policy itself, the always-full-path and
client-only variants, nearest-RSU full migration, and random migration to a
nearby RSU. Each exposes act(obs (V, O), slot) -> (actions (V,) int, active
params (V,)), called once per slot for all vehicles, so evaluation and
comparison code treats them uniformly.
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


def env_overrides(kind: str) -> dict[str, object]:
    """`EnvConfig` field values that a policy's episodes use instead of the
    scenario's, which `envsim.build_env` has checked first. The heuristics read
    no observation, so they skip the warm-up that sets the latency scale."""
    if kind == FULL_MIGRATION:
        return {"warmup_slots": 0, "alpha": FULL_MIGRATION_ALPHA}
    if kind == RANDOM_MIGRATION:
        return {"warmup_slots": 0}
    return {}


def nearby_radius(env: PremigrationEnv) -> float:
    """Twice the mean nearest-neighbour spacing between RSUs."""
    if env.E < 2:
        return float("inf")
    d = env.rsu_distances(env.rsu_xy)  # d[i, j]: RSU i to RSU j
    np.fill_diagonal(d, np.inf)
    return 2.0 * float(np.mean(d.min(axis=1)))


def make_act_fn(
    kind: str,
    env: PremigrationEnv,
    bundle: Optional[PolicyBundle] = None,
    rng: Optional[np.random.Generator] = None,
) -> Callable[[np.ndarray, int], tuple[np.ndarray, np.ndarray]]:
    """Build the action function of one policy kind: act(obs (V, O), slot)
    -> (actions (V,) int, active params (V,)) for every vehicle of a slot."""
    if kind in LEARNED_KINDS:
        if bundle is None:
            raise ValueError(f"policy {kind!r} needs a trained bundle")
        return greedy_act_fn(bundle, LEARNED_KINDS[kind])

    no_params = np.zeros(env.V)
    if kind == FULL_MIGRATION:

        def act_full(obs: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
            return env.serving[slot], no_params

        return act_full

    if kind == RANDOM_MIGRATION:
        if rng is None:
            raise ValueError("random migration needs an RNG")
        # (horizon, V, E): the RSUs within the radius of each vehicle per slot.
        nearby = env.rsu_distances(env.xy) <= nearby_radius(env)
        # A vehicle with no RSU nearby draws among all of them.
        pool = nearby | ~nearby.any(axis=2, keepdims=True)
        counts = pool.sum(axis=2)
        rank = pool.cumsum(axis=2)

        def act_random(obs: np.ndarray, slot: int) -> tuple[np.ndarray, np.ndarray]:
            # One bounded draw per vehicle in id order, the same stream as one
            # scalar draw each; the k-th pooled RSU (from 0) is at the index
            # that counts the RSUs of pooled rank <= k.
            k = rng.integers(0, counts[slot])
            return (rank[slot] <= k[:, None]).sum(axis=1), no_params

        return act_random

    raise ValueError(f"unknown policy kind {kind!r}; expected one of {KINDS}")
