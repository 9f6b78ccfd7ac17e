"""Per-vehicle reference of the evaluation and training means, kept as an oracle.

These are eval's means of the `msrl.run_episodes` columns, `msrl._episode_stats`
and the eval metrics row writer as they ran on one `SlotMetrics` object per
vehicle and slot: every mean over one flat list of Python floats, slots in
order and vehicles in id order within a slot. The column means of
`vtmigsim.msrl` and the rows that `envsim.METRICS_ROW` formats must reproduce
them exactly.
"""

from __future__ import annotations

import numpy as np
from scalar_env import SlotMetrics

from vtmigsim.envsim import PremigrationEnv
from vtmigsim.msrl import EpisodeStats


def slot_objects(metrics) -> list[SlotMetrics]:
    """One slot's metrics records as per-vehicle objects."""
    return [SlotMetrics(*row) for row in metrics.tolist()]


def record_slots(monkeypatch, env) -> list[list[SlotMetrics]]:
    """Patch `PremigrationEnv.step` to append each step of `env` (not of its
    warm-up copies) to the returned list, as per-vehicle objects."""
    slots = []
    step = PremigrationEnv.step

    def recording(self, actions):
        result = step(self, actions)
        if self is env:
            slots.append(slot_objects(result.metrics))
        return result

    monkeypatch.setattr(PremigrationEnv, "step", recording)
    return slots


def metrics_row(episode: int, slot: int, vehicle: int, m: SlotMetrics) -> list:
    return [
        episode, slot, vehicle, m.action, m.serving,
        f"{m.t_up:.9g}", f"{m.t_mig:.9g}", f"{m.t_proc:.9g}", f"{m.t_down:.9g}",
        f"{m.t_total:.9g}", f"{m.err_rate:.9g}", f"{m.qoe:.9g}", f"{m.reward:.9g}",
        int(m.remapped),
    ]


def run_episodes(env, act_fn, episodes, seed_base, on_slot=None) -> tuple[float, ...]:
    """The means of reward, qoe, t_total, err_rate and active params;
    on_slot(episode, slot, vehicle, metrics) runs per vehicle in id order."""
    rewards, qoes, lats, errs, active = [], [], [], [], []
    for ep in range(episodes):
        obs = env.reset(seed_base + ep)
        done = False
        slot = 0
        while not done:
            actions, n_active = act_fn(obs, slot)
            active.append(n_active)
            result = env.step(actions)
            for v, m in enumerate(slot_objects(result.metrics)):
                rewards.append(m.reward)
                qoes.append(m.qoe)
                lats.append(m.t_total)
                errs.append(m.err_rate)
                if on_slot is not None:
                    on_slot(ep, slot, v, m)
            obs, done = result.observations, result.done
            slot += 1
    return (
        float(np.mean(rewards)),
        float(np.mean(qoes)),
        float(np.mean(lats)),
        float(np.mean(errs)),
        float(np.mean(np.concatenate(active))),
    )


def episode_stats(episode, buffer, bundle, metrics: list[list[SlotMetrics]]) -> EpisodeStats:
    """Statistics of one collected episode; `metrics` holds its slots' objects."""
    flat = [m for slot in metrics for m in slot]
    active = bundle.actor.path_params[buffer.model_used]
    switches = int(np.count_nonzero(buffer.model_used[1:] != buffer.model_used[:-1]))
    thr = (
        float(np.mean([c.thr for c in bundle.controllers]))
        if bundle.controllers
        else 0.0
    )
    return EpisodeStats(
        episode=episode,
        mean_reward=float(np.mean([m.reward for m in flat])),
        mean_qoe=float(np.mean([m.qoe for m in flat])),
        mean_latency=float(np.mean([m.t_total for m in flat])),
        mean_err=float(np.mean([m.err_rate for m in flat])),
        active_params=float(active.mean()),
        server_ratio=float(buffer.model_used.mean()),
        switches=switches,
        threshold=thr,
        mean_entropy=float(buffer.entropies.mean()),
    )
