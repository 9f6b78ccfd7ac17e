"""Scalar reference of the pre-migration environment step.

This is the per-vehicle, per-slot implementation that `PremigrationEnv.step`
replaced with per-slot tables and array expressions. It is kept, unchanged in
its arithmetic, as the oracle the array-native env must match bit for bit:
same operations on the same doubles in the same order, with Python's `math`
kernels for every transcendental. It takes one `RsuSpec` per RSU and one
`VehicleSpec` per vehicle, where the env takes columns; `env_columns` turns
the specs into the env's keywords. Its step returns a `StepResult` whose
metrics are a list of per-vehicle `SlotMetrics` objects, where the env's are
one record array.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from reference_roadnet import GeoPoint
from vtmigsim.envsim import OBS_EXTRA, StepResult
from vtmigsim.trajgen import Trajectory


@dataclass(frozen=True)
class RsuSpec:
    pos: GeoPoint
    compute: float                 # C_e, cycles/s
    max_load: float                # cap on queued cycles
    bw_up: float                   # Hz
    bw_down: float                 # Hz
    noise_power: float             # receiver noise, W
    backhaul: dict[int, float] = field(default_factory=dict)  # peer id -> bits/s


@dataclass(frozen=True)
class VehicleSpec:
    tx_power: float                            # W
    cycles_per_bit: float                      # f_v
    task_bits: np.ndarray                      # per-slot schedule (cycled), bits
    request_bits: float                        # uplink request size, bits
    result_bits: np.ndarray                    # per-RSU result size, bits
    trajectory: Trajectory


def env_columns(rsus, vehicles, channel, cfg):
    """`PremigrationEnv`'s keywords for the scenario that `ScalarEnv(rsus,
    vehicles, channel, cfg)` runs: one column per spec field, a missing
    backhaul link as 0, and each task schedule cycled over the horizon."""
    slots = np.arange(cfg.horizon)
    return dict(
        rsu_xy=[(r.pos.x, r.pos.y) for r in rsus],
        compute=[r.compute for r in rsus],
        max_load=[r.max_load for r in rsus],
        bw_up=[r.bw_up for r in rsus],
        bw_down=[r.bw_down for r in rsus],
        noise=[r.noise_power for r in rsus],
        backhaul=[[r.backhaul.get(j, 0.0) for j in range(len(rsus))] for r in rsus],
        tx_power=[v.tx_power for v in vehicles],
        cycles_per_bit=[v.cycles_per_bit for v in vehicles],
        request_bits=[v.request_bits for v in vehicles],
        task_bits=[[v.task_bits[t % len(v.task_bits)] for v in vehicles] for t in slots],
        result_bits=[v.result_bits for v in vehicles],
        track_id=[v.trajectory.vehicle_id for v in vehicles],
        track_t=np.concatenate([v.trajectory.t for v in vehicles]),
        track_xy=np.concatenate([v.trajectory.xy for v in vehicles]),
        track_offsets=np.cumsum([0, *(len(v.trajectory.t) for v in vehicles)]),
        channel=channel,
        cfg=cfg,
    )


def position_loop(tracks, slots, slot_seconds):
    """(len(slots), V, 2) positions of V `Trajectory` tracks at the start of
    each slot: the per-vehicle loop that `PremigrationEnv.position` replaced."""
    out = np.empty((len(slots), len(tracks), 2))
    for v, track in enumerate(tracks):
        ts, xy = track.t, track.xy
        t = ts[0] + slots * slot_seconds
        out[:, v] = np.where(t[:, None] <= ts[0], xy[0], xy[-1])
        inside = (t > ts[0]) & (t < ts[-1])
        i = np.searchsorted(ts, t[inside], side="right") - 1
        u = (t[inside] - ts[i]) / (ts[i + 1] - ts[i])
        out[inside, v] = xy[i] + u[:, None] * (xy[i + 1] - xy[i])
    return out


def commit_loop(loads, max_load, serving, requested, cycles_per_bit, xi_local, xi_mig_req,
                xi_mig_serv):
    """`PremigrationEnv.commit_work` as the step ran it on every slot: the
    sequential commit in plain floats, with the remap sizes given up front."""
    f_v = cycles_per_bit
    local_cycles = (xi_local * f_v).tolist()
    req_cycles = (xi_mig_req * f_v).tolist()
    serv_cycles = (xi_mig_serv * f_v).tolist()
    max_load = max_load.tolist()
    pending = loads.tolist()
    final = requested.tolist()
    remapped = [False] * len(final)
    for v, s in enumerate(serving.tolist()):
        a = final[v]
        incoming = req_cycles[v]
        if a != s and pending[a] + incoming > max_load[a]:
            a = final[v] = s
            remapped[v] = True
            incoming = serv_cycles[v]
        pending[s] += local_cycles[v]
        pending[a] += incoming
    remapped = np.array(remapped)
    return (np.array(pending), np.array(final), remapped,
            np.where(remapped, xi_mig_serv, xi_mig_req))


@dataclass
class SlotMetrics:
    """Per-vehicle outcome of one slot, in `envsim.SLOT_METRICS` field order."""

    action: int
    serving: int
    t_up: float
    t_mig: float
    t_proc: float
    t_down: float
    t_total: float
    err_rate: float
    qoe: float
    reward: float
    remapped: bool
    stability: float               # 1.0 when the target RSU was kept
    contention: float              # 1.0 when another vehicle shares the target
    t_proc_serving: float = 0.0    # processing branch at the serving RSU
    t_proc_target: float = 0.0     # processing branch at the pre-migration RSU


class ScalarEnv:
    def __init__(self, rsus, vehicles, channel, cfg):
        self.rsus = list(rsus)
        self.vehicles = list(vehicles)
        self.channel = channel
        self.cfg = cfg
        self.E = len(self.rsus)
        self.V = len(self.vehicles)
        self.obs_dim = self.E + OBS_EXTRA
        self._rsu_xy = np.array([[r.pos.x, r.pos.y] for r in self.rsus])
        self._max_load = np.array([r.max_load for r in self.rsus])
        self._compute = np.array([r.compute for r in self.rsus])
        self._traj_t = [v.trajectory.t for v in self.vehicles]
        self._traj_xy = [v.trajectory.xy for v in self.vehicles]
        self._action_scale = float(max(self.E - 1, 1))
        self._latency_scale = 1.0
        self._rng = None

    def task_bits_at(self, v, t):
        bits = self.vehicles[v].task_bits
        return float(bits[t % len(bits)])

    def position(self, v, slot):
        ts = self._traj_t[v]
        xy = self._traj_xy[v]
        t = ts[0] + slot * self.cfg.slot_seconds
        if t <= ts[0]:
            return float(xy[0, 0]), float(xy[0, 1])
        if t >= ts[-1]:
            return float(xy[-1, 0]), float(xy[-1, 1])
        i = int(np.searchsorted(ts, t, side="right")) - 1
        u = (t - ts[i]) / (ts[i + 1] - ts[i])
        p = xy[i] + u * (xy[i + 1] - xy[i])
        return float(p[0]), float(p[1])

    def rate(self, v, e, slot, bw):
        x, y = self.position(v, slot)
        r = self.rsus[e].pos
        d = max(1.0, math.hypot(x - r.x, y - r.y))
        c = self.channel
        h = c.gain_coeff * (c.light_speed / (4.0 * math.pi * c.carrier * d)) ** 2
        snr = self.vehicles[v].tx_power * h / self.rsus[e].noise_power
        return bw * math.log2(1.0 + snr)

    def nearest_rsu(self, v, slot):
        x, y = self.position(v, slot)
        d = np.hypot(self._rsu_xy[:, 0] - x, self._rsu_xy[:, 1] - y)
        return int(np.argmin(d))

    def transmission_latencies(self, v, serving, target, slot):
        spec = self.vehicles[v]
        t_up = (
            spec.request_bits / self.rate(v, serving, slot, self.rsus[serving].bw_up)
            if spec.request_bits
            else 0.0
        )
        t_down = 0.0
        for e in {serving, target}:
            bits = float(spec.result_bits[e])
            if bits:
                t_down += bits / self.rate(v, e, slot, self.rsus[e].bw_down)
        return t_up, t_down

    def migration_latency(self, v, slot, from_e, to_e):
        if from_e == to_e:
            return 0.0
        d_mig = self.cfg.alpha * self.task_bits_at(v, slot)
        if d_mig == 0.0:
            return 0.0
        bw = self.rsus[from_e].backhaul.get(to_e)
        if bw is None or bw <= 0:
            raise ValueError(f"no backhaul bandwidth configured for pair ({from_e},{to_e})")
        return d_mig / bw

    @staticmethod
    def rendering_sizes(d_task, alpha, mu, same_serving, same_target, prev_local, prev_mig):
        d_mig = alpha * d_task
        d_local = d_task - d_mig
        xi_local = d_local - (mu * prev_local if same_serving else 0.0)
        xi_mig = d_mig - (mu * prev_mig if same_target else 0.0)
        return max(0.0, xi_local), max(0.0, xi_mig), d_local

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)
        self.t = 0
        self.loads = np.full(self.E, min(self.cfg.init_load, float(self._max_load.min())))
        self.loads = np.minimum(self.loads, self._max_load).astype(float)
        self.prev_action = np.full(self.V, -1, dtype=int)
        self.prev_serving = np.full(self.V, -1, dtype=int)
        self.prev_local_bits = np.zeros(self.V)
        self.prev_mig_bits = np.zeros(self.V)
        self.last_metrics = [None] * self.V
        self._latency_scale = 1.0
        if self.cfg.warmup_slots > 0:
            snapshot = (
                self.t, self.loads.copy(), self.prev_action.copy(), self.prev_serving.copy(),
                self.prev_local_bits.copy(), self.prev_mig_bits.copy(), list(self.last_metrics),
                copy.deepcopy(self._rng.bit_generator.state),
            )
            warm_rng = np.random.default_rng([seed, 0xCA11])
            samples = []
            for _ in range(self.cfg.warmup_slots):
                result = self.step(list(warm_rng.integers(0, self.E, size=self.V)))
                samples.extend(m.t_total for m in result.metrics)
                if result.done:
                    break
            (self.t, self.loads, self.prev_action, self.prev_serving, self.prev_local_bits,
             self.prev_mig_bits, self.last_metrics, rng_state) = snapshot
            self._rng.bit_generator.state = rng_state
            scale = float(np.percentile(samples, 99.0)) if samples else 1.0
            self._latency_scale = scale if scale > 0 else 1.0
        return [self._observation(v) for v in range(self.V)]

    @property
    def latency_scale(self):
        return self._latency_scale

    def _observation(self, v):
        m = self.last_metrics[v]
        obs = np.zeros(self.obs_dim)
        obs[1 : 1 + self.E] = self.loads / self._max_load
        if m is not None:
            obs[0] = m.action / self._action_scale
            obs[1 + self.E] = m.err_rate
            obs[2 + self.E] = m.stability
            obs[3 + self.E] = m.contention
            obs[4 + self.E] = m.t_total / self._latency_scale
        return obs

    def step(self, joint_actions):
        t = self.t
        first_slot = t == 0
        serving = np.array([self.nearest_rsu(v, t) for v in range(self.V)])
        d_task = np.array([self.task_bits_at(v, t) for v in range(self.V)])

        final_action = np.zeros(self.V, dtype=int)
        remapped = np.zeros(self.V, dtype=bool)
        xi_local = np.zeros(self.V)
        xi_mig = np.zeros(self.V)
        d_local = np.zeros(self.V)
        stability = np.zeros(self.V)
        pending = self.loads.copy()
        for v in range(self.V):
            a = int(joint_actions[v])
            f_v = self.vehicles[v].cycles_per_bit
            same_serving = (not first_slot) and serving[v] == self.prev_serving[v]

            def sizes(target):
                same_target = (not first_slot) and target == self.prev_action[v]
                xl, xm, dl = self.rendering_sizes(
                    d_task[v], self.cfg.alpha, self.cfg.mu, same_serving, same_target,
                    self.prev_local_bits[v], self.prev_mig_bits[v],
                )
                return xl, xm, dl, same_target

            xl, xm, dl, same_target = sizes(a)
            incoming = xm * f_v
            if a != serving[v] and pending[a] + incoming > self._max_load[a]:
                a = int(serving[v])
                remapped[v] = True
                xl, xm, dl, same_target = sizes(a)
                incoming = xm * f_v
            final_action[v] = a
            xi_local[v], xi_mig[v], d_local[v] = xl, xm, dl
            stability[v] = 1.0 if same_target else 0.0
            pending[serving[v]] += xi_local[v] * f_v
            pending[a] += incoming

        mig_bits = self.cfg.alpha * d_task
        err = np.zeros(self.V)
        contention = np.zeros(self.V)
        for v in range(self.V):
            others = [
                mig_bits[w] for w in range(self.V)
                if w != v and final_action[w] == final_action[v]
            ]
            contention[v] = 1.0 if others else 0.0
            err[v] = 1.0 - math.exp(-self.cfg.tau * float(sum(others)))

        metrics = []
        for v in range(self.V):
            e_s, e_t = int(serving[v]), int(final_action[v])
            f_v = self.vehicles[v].cycles_per_bit
            t_up, t_down = self.transmission_latencies(v, e_s, e_t, t)
            t_mig = self.migration_latency(v, t, e_s, e_t)
            t_proc_s = (self.loads[e_s] + xi_local[v] * f_v) / self.rsus[e_s].compute
            t_proc_t = (self.loads[e_t] + xi_mig[v] * f_v) / self.rsus[e_t].compute
            t_proc = max(t_proc_s, t_proc_t + t_mig)
            t_total = t_up + t_proc + t_down
            q = -self.cfg.lambda1 * err[v] - self.cfg.lambda2 * t_total
            reward = q if self.cfg.reward_mode == "qoe" else -t_total
            metrics.append(SlotMetrics(
                action=e_t, serving=e_s, t_up=t_up, t_mig=t_mig, t_proc=t_proc,
                t_down=t_down, t_total=t_total, err_rate=err[v], qoe=q, reward=reward,
                remapped=bool(remapped[v]), stability=stability[v], contention=contention[v],
                t_proc_serving=t_proc_s, t_proc_target=t_proc_t,
            ))

        assigned = pending - self.loads
        drained = np.maximum(0.0, self.loads + assigned - self._compute * self.cfg.slot_seconds)
        if self.cfg.background_mean > 0:
            lam = self.cfg.background_mean / self.cfg.background_unit
            arrivals = self._rng.poisson(lam, size=self.E) * self.cfg.background_unit
            drained = drained + arrivals
        self.loads = np.minimum(drained, self._max_load)

        self.prev_action = final_action
        self.prev_serving = serving
        self.prev_local_bits = d_local
        self.prev_mig_bits = mig_bits
        self.last_metrics = metrics
        self.t = t + 1
        done = self.t >= self.cfg.horizon
        observations = [self._observation(v) for v in range(self.V)]
        return StepResult(observations, metrics, done)
