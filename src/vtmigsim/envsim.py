"""Multi-RSU task pre-migration environment.

Vehicles follow trajectories across a field of roadside units (RSUs). Each
slot every vehicle picks one RSU to receive a pre-migrated share (fraction
alpha) of its twin task; the rest is processed at the serving RSU (nearest by
Euclidean distance). The environment computes uplink/downlink transmission
latencies from a deterministic distance-law channel, backhaul migration
latency, queue-dependent processing latencies with a cache-reuse discount for
stable choices, a contention-driven bit error rate, and the resulting QoE.

All units are SI: meters, seconds, Hz, watts, bits, CPU cycles.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .configio import KEY, RANGE, ConfigError, check, check_fields, get_float, get_int
from .configio import get_str, read_config
from .roadnet import elementwise, first_fault, hypot
from .trajgen import read_trajectories_csv


class ActionError(ValueError):
    """An action was outside 0..E-1."""


_pow, _log2, _exp = (elementwise(f, n) for f, n in ((math.pow, 2), (math.log2, 1), (math.exp, 1)))


@dataclass(frozen=True)
class ChannelParams:
    """Deterministic distance-law channel: h = A * (c / (4 pi f d))^2."""

    gain_coeff: float = field(default=1.0, metadata={KEY: "channel.gain", RANGE: "> 0"})  # A
    carrier: float = field(default=2.4e9, metadata={RANGE: "> 0"})  # f, Hz
    light_speed: float = field(default=3.0e8, metadata={RANGE: "> 0"})  # c, m/s

    def __post_init__(self) -> None:
        check_fields(self, "channel")


REWARD_MODES = ("latency", "qoe")  # reward = -T_total, or the QoE
# numpy's largest Poisson mean: a larger one raises "lam value too large".
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class EnvConfig:
    alpha: float = field(default=0.5, metadata={RANGE: "in [0, 1)"})  # pre-migrated task fraction
    mu: float = field(default=0.5, metadata={RANGE: "in [0, 1]"})  # rendering reuse coefficient
    tau: float = field(default=5e-8, metadata={RANGE: ">= 0"})  # error per pre-migrated bit
    lambda1: float = field(default=1.0, metadata={RANGE: ">= 0"})  # QoE weight on error rate
    lambda2: float = field(default=1.0, metadata={RANGE: ">= 0"})  # QoE weight on latency
    slot_seconds: float = field(default=1.0, metadata={RANGE: "> 0"})
    horizon: int = field(default=100, metadata={RANGE: ">= 1"})
    reward_mode: str = field(default="latency", metadata={RANGE: REWARD_MODES})
    background_mean: float = field(default=0.0, metadata={RANGE: ">= 0"})  # cycles/RSU/slot
    background_unit: float = field(default=5e8, metadata={RANGE: "> 0"})  # cycles per arrival
    init_load: float = field(default=0.0, metadata={RANGE: ">= 0"})  # queued cycles at reset
    warmup_slots: int = field(default=32, metadata={RANGE: ">= 0"})  # latency-scale slots

    def __post_init__(self) -> None:
        check_fields(self, "env")
        lam = self.background_mean / self.background_unit
        if not lam <= _POISSON_LAM_MAX:
            raise ConfigError(f"env.background_mean / env.background_unit must be <= "
                              f"{_POISSON_LAM_MAX!r}, got {lam!r}")


# Observation layout per vehicle: [prev action, E RSU loads, error rate,
# stability flag, contention flag, total latency], all scaled to ~[0, 1].
OBS_EXTRA = 5


# Per-vehicle outcome of one slot: one record per vehicle, one field per column.
SLOT_METRICS = np.dtype([
    ("action", int),
    ("serving", int),
    ("t_up", float),
    ("t_mig", float),
    ("t_proc", float),
    ("t_down", float),
    ("t_total", float),
    ("err_rate", float),
    ("qoe", float),
    ("reward", float),
    ("remapped", bool),
    ("stability", float),          # 1.0 when the target RSU was kept
    ("contention", float),         # 1.0 when another vehicle shares the target
    ("t_proc_serving", float),     # processing branch at the serving RSU
    ("t_proc_target", float),      # processing branch at the pre-migration RSU
])


@dataclass
class StepResult:
    """One slot's outcome. The metrics' fields read as (V,) columns
    (`metrics.t_total`), their elements as per-vehicle records (`metrics[v].t_total`)."""

    observations: np.ndarray       # (V, obs_dim), one row per vehicle
    metrics: np.recarray           # (V,) SLOT_METRICS records, one per vehicle
    done: bool


class PremigrationEnv:
    """Single-writer environment; create one instance per concurrent rollout.

    The inputs are columns, each kept under its keyword's name. Per RSU:
    `rsu_xy` (E, 2), m; `compute` (E,), cycles/s; `max_load` (E,), the cap on
    queued cycles; `bw_up` and `bw_down` (E,), Hz; `noise` (E,), receiver
    noise, W; and `backhaul` (E, E), bits/s from row RSU to column RSU, 0
    where there is no link. Per vehicle: `tx_power` (V,), W; `cycles_per_bit`
    (V,), >= 0; `request_bits` (V,), the uplink request size; `result_bits` (V, E),
    the result size from each RSU; and `task_bits` (horizon, V), the task size
    of each slot. The V tracks are one column of points: vehicle v follows
    rows `track_offsets[v]` to `track_offsets[v + 1]` of `track_t` (N,), s,
    and `track_xy` (N, 2), m, with the track's `vehicle_id` in `track_id` (V,).

    Trajectories are fixed for the life of an env, so everything else that
    depends only on (slot, vehicle) is tabulated at construction for slots
    0..horizon-1, each table of shape (horizon, V): `xy` (positions, with a
    trailing x/y axis), `serving` (nearest RSU), `t_up` (uplink request
    latency) and `t_down_serving` (downlink result latency from the serving
    RSU). `step` reads them and evaluates only what depends on the actions.
    The episode state is `t`, `loads`, `prev_action`, `latency_scale` and the
    RNG; last slot's serving RSU and task sizes are read from the tables.
    The channel helpers and `transmission_latencies` broadcast their
    arguments, one link per element. Their hypot, pow, log2 and the error
    rate's exp apply Python's scalar `math` kernels element-wise, because
    numpy's own round differently on some inputs, and the outputs are kept
    identical to the bit to the scalar model in tests/scalar_env.py.
    """

    def __init__(
        self,
        *,
        rsu_xy,
        compute,
        max_load,
        bw_up,
        bw_down,
        noise,
        backhaul,
        tx_power,
        cycles_per_bit,
        request_bits,
        task_bits,
        result_bits,
        track_id,
        track_t,
        track_xy,
        track_offsets,
        channel: ChannelParams,
        cfg: EnvConfig,
    ):
        if not len(rsu_xy):
            raise ValueError("need at least one RSU")
        if not len(track_id):
            raise ValueError("need at least one vehicle")
        self.rsu_xy = np.array(rsu_xy, dtype=float)
        self.compute = np.array(compute, dtype=float)
        self.max_load = np.array(max_load, dtype=float)
        self.bw_up = np.array(bw_up, dtype=float)
        self.bw_down = np.array(bw_down, dtype=float)
        self.noise = np.array(noise, dtype=float)
        self.backhaul = np.array(backhaul, dtype=float)
        self.tx_power = np.array(tx_power, dtype=float)
        self.cycles_per_bit = np.array(cycles_per_bit, dtype=float)
        self.request_bits = np.array(request_bits, dtype=float)
        self.task_bits = np.array(task_bits, dtype=float)
        self.result_bits = np.array(result_bits, dtype=float)
        self.track_id = np.array(track_id)
        self.track_t = np.array(track_t, dtype=float)
        self.track_xy = np.array(track_xy, dtype=float).reshape(-1, 2)
        self.track_offsets = np.array(track_offsets, dtype=np.intp)
        self.channel = channel
        self.cfg = cfg
        self.E = len(self.rsu_xy)
        self.V = len(self.track_id)
        self.obs_dim = self.E + OBS_EXTRA
        start, end = self.track_offsets[:-1], self.track_offsets[1:]
        falls = np.concatenate(([0], np.cumsum(~(np.diff(self.track_t) > 0))))  # before each row
        fault = first_fault(end == start, falls[np.maximum(end - 1, start)] > falls[start])
        if fault:
            v, check = fault
            raise ValueError(f"trajectory of vehicle_id {self.track_id[v]} " + (
                "is empty", "has timestamps that are not strictly increasing")[check])
        self._action_scale = float(max(self.E - 1, 1))
        self.latency_scale = 1.0
        self._rng: Optional[np.random.Generator] = None

        slots = np.arange(cfg.horizon)
        self.xy = self.position(slots)
        self.serving = self.nearest_rsu(self.xy)
        # Every link that `transmission_latencies` may be asked for must carry
        # its bits. The rate falls with distance, so check each at its
        # vehicle's farthest slot from the RSU.
        v, e = np.nonzero((self.request_bits[:, None] != 0) | (self.result_bits != 0))
        far = self.rsu_distances(self.xy).argmax(axis=0)[v, e]
        dead = self.spectral_efficiency(v, e, *self.xy[far, v].T) == 0
        if dead.any():
            k = dead.argmax()
            raise ValueError(f"a link's 1 + SNR rounds to 1, so it cannot carry its bits: "
                             f"vehicle {v[k]} and RSU {e[k]} at slot {far[k]}")
        self.t_up, self.t_down_serving = self.transmission_latencies(
            slots[:, None], np.arange(self.V), self.serving
        )

    # --- position / channel ---

    def position(self, slots: np.ndarray) -> np.ndarray:
        """(len(slots), V, 2) vehicle positions at the start of each slot.

        Linear interpolation along each trajectory, held constant off its ends.
        """
        ts, xy = self.track_t, self.track_xy
        first, last = self.track_offsets[:-1], self.track_offsets[1:] - 1
        t = ts[first] + (slots * self.cfg.slot_seconds)[:, None]  # (len(slots), V)
        out = np.where((t <= ts[first])[..., None], xy[first], xy[last])
        inside = (t > ts[first]) & (t < ts[last])
        v = inside.nonzero()[1]
        # Bisect each time q's track for its last row lo with ts[lo] <= q.
        q, lo, hi = t[inside], first[v], last[v]
        for _ in range(int((last - first).max()).bit_length()):
            mid = (lo + hi) // 2
            below = ts[mid] <= q
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        u = (q - ts[lo]) / (ts[lo + 1] - ts[lo])
        out[inside] = xy[lo] + u[:, None] * (xy[lo + 1] - xy[lo])
        return out

    def rsu_distances(self, xy: np.ndarray) -> np.ndarray:
        """(..., E) distances from each (x, y) on the last axis of `xy` to every RSU."""
        return np.hypot(self.rsu_xy[:, 0] - xy[..., :1], self.rsu_xy[:, 1] - xy[..., 1:])

    def nearest_rsu(self, xy: np.ndarray) -> np.ndarray:
        """Nearest RSU to each (x, y) on the last axis of `xy`; ties resolve to the lowest id."""
        return np.argmin(self.rsu_distances(xy), axis=-1)

    def distance(self, e, x, y) -> np.ndarray:
        """Distance from (x, y) to RSU e, clamped to 1 m for co-located pairs."""
        return np.maximum(1.0, hypot(x - self.rsu_xy[e, 0], y - self.rsu_xy[e, 1]))

    def channel_gain(self, e, x, y) -> np.ndarray:
        """Distance-law gain h = A * (c / (4 pi f d))^2."""
        d = self.distance(e, x, y)
        c = self.channel
        return c.gain_coeff * _pow(c.light_speed / (4.0 * math.pi * c.carrier * d), 2.0)

    def spectral_efficiency(self, v, e, x, y) -> np.ndarray:
        """log2(1 + SNR) of vehicle v at (x, y) on a link with RSU e, bits/s/Hz.

        A link's Shannon-form rate is its bandwidth times this.
        """
        return _log2(1.0 + self.tx_power[v] * self.channel_gain(e, x, y) / self.noise[e])

    # --- latency model pieces (exposed for direct testing) ---

    def transmission_latencies(self, slot, vs, es) -> tuple[np.ndarray, np.ndarray]:
        """(uplink request latency, downlink result latency) of each link (slot, vs, es).

        The request goes to the serving RSU; results come back from each RSU
        that processed a share, so a vehicle's downlink latency is the sum
        over its distinct serving and target RSUs. Zero-size transfers take
        no time; a link that carries bits at a rate that rounds to 0 is a ValueError.
        """
        xy = self.xy[slot, vs]
        se = self.spectral_efficiency(vs, es, xy[..., 0], xy[..., 1])
        request, result = self.request_bits[vs], self.result_bits[vs, es]
        if np.any((se == 0) & ((request != 0) | (result != 0))):
            raise ValueError("a link's 1 + SNR rounds to 1, so it cannot carry its bits")
        t_up = np.divide(request, self.bw_up[es] * se, out=np.zeros(se.shape), where=request != 0)
        t_down = np.divide(result, self.bw_down[es] * se, out=np.zeros(se.shape), where=result != 0)
        return t_up, t_down

    def migration_latency(self, mig_bits, from_e, to_e) -> np.ndarray:
        """Backhaul transfer time of each pre-migrated share of `mig_bits`; zero on self or zero size.

        Raises ValueError naming the first (from, to) pair in use that has no
        positive backhaul bandwidth.
        """
        d_mig, from_e, to_e = np.broadcast_arrays(mig_bits, from_e, to_e)
        used = (from_e != to_e) & (d_mig != 0.0)
        bw = self.backhaul[from_e, to_e]
        missing = used & (bw <= 0)
        if missing.any():
            pair = f"({from_e[missing][0]},{to_e[missing][0]})"
            raise ValueError(f"no backhaul bandwidth configured for pair {pair}")
        return np.divide(d_mig, bw, out=np.zeros(d_mig.shape), where=used)

    @staticmethod
    def commit_work(loads, max_load, serving, requested, cycles_per_bit, xi_local, xi_mig_req,
                    remap_bits):
        """(pending loads, final targets, remapped, migrated bits) once each
        vehicle, in id order, adds its local cycles to its serving RSU, then its
        migrated cycles to its target, or to the serving RSU with the bits
        `remap_bits()` gives if they would take another target past max_load.
        Every addend is >= 0, so each load compared is at most the final one:
        the loop is skipped when every RSU ends within its max_load with the
        requested targets. np.add.at adds in index order, to the loop's bits.
        """
        local_cycles, req_cycles = xi_local * cycles_per_bit, xi_mig_req * cycles_per_bit
        pending = loads.copy()
        np.add.at(pending, np.column_stack((serving, requested)).ravel(),
                  np.column_stack((local_cycles, req_cycles)).ravel())
        if (pending <= max_load).all():
            return pending, requested, np.zeros(len(requested), dtype=bool), xi_mig_req
        xi_mig_serv = remap_bits()
        local, req, serv, cap, pending, final = (x.tolist() for x in (
            local_cycles, req_cycles, xi_mig_serv * cycles_per_bit, max_load, loads, requested))
        remapped = [False] * len(final)
        for v, s in enumerate(serving.tolist()):  # plain floats: sequential by definition
            a = final[v]
            incoming = req[v]
            if a != s and pending[a] + incoming > cap[a]:
                a = final[v] = s
                remapped[v] = True
                incoming = serv[v]
            pending[s] += local[v]
            pending[a] += incoming
        remapped = np.array(remapped)
        return (np.array(pending), np.array(final), remapped,
                np.where(remapped, xi_mig_serv, xi_mig_req))

    @staticmethod
    def rendering_sizes(d_local, d_mig, mu: float, same_serving, same_target, prev_local_bits,
                        prev_mig_bits):
        """Rendering bit volumes (local share, migrated share) of a task split
        into `d_local` bits kept at the serving RSU and `d_mig` pre-migrated.

        A stable serving RSU reuses mu of last slot's local share; a stable
        pre-migration target reuses mu of last slot's migrated share. Sizes
        clamp at zero. Scalars or per-vehicle arrays.
        """
        xi_local = d_local - np.where(same_serving, mu * prev_local_bits, 0.0)
        xi_mig = d_mig - np.where(same_target, mu * prev_mig_bits, 0.0)
        return np.maximum(0.0, xi_local), np.maximum(0.0, xi_mig)

    def processing_latencies(self, v, serving, target, xi_local, xi_mig, t_mig, loads):
        """(serving-side, target-side, combined parallel) processing latency."""
        f_v = self.cycles_per_bit[v]
        t_serv = (loads[serving] + xi_local * f_v) / self.compute[serving]
        t_targ = (loads[target] + xi_mig * f_v) / self.compute[target]
        return t_serv, t_targ, np.maximum(t_serv, t_targ + t_mig)

    @staticmethod
    def error_rate(contending_mig_bits, tau: float):
        """1 - exp(-tau * D), D the migrated bits summed over axis 0 (co-targeting vehicles)."""
        return 1.0 - _exp(-tau * np.sum(contending_mig_bits, axis=0))

    def qoe(self, err, t_total):
        return -self.cfg.lambda1 * err - self.cfg.lambda2 * t_total

    # --- episode control ---

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        self.t = 0
        self.loads = np.full(self.E, min(self.cfg.init_load, float(self.max_load.min())), dtype=float)
        self.prev_action = np.full(self.V, -1, dtype=int)
        self.latency_scale = 1.0
        if self.cfg.warmup_slots > 0:
            self.latency_scale = self._calibrate_latency_scale(seed)
        return self._observations(None)

    def _calibrate_latency_scale(self, seed: int) -> float:
        """99th-percentile total latency under random actions, on a copy of the env.

        `step` rebinds the episode state rather than writing into it, so a
        shallow copy with its own generator leaves this env as it was.
        """
        warm = copy.copy(self)
        warm._rng = copy.deepcopy(self._rng)
        warm_rng = np.random.default_rng([seed, 0xCA11])
        samples = []
        for _ in range(self.cfg.warmup_slots):
            result = warm.step(warm_rng.integers(0, self.E, size=self.V))
            samples.append(result.metrics.t_total)
            if result.done:
                break
        scale = float(np.percentile(np.concatenate(samples), 99.0))
        return scale if scale > 0 else 1.0

    def _observations(self, last: Optional[tuple]) -> np.ndarray:
        """Observations (V, obs_dim); `last` is the previous slot's (action,
        err_rate, stability, contention, t_total) arrays, None after reset."""
        obs = np.zeros((self.V, self.obs_dim))
        obs[:, 1 : 1 + self.E] = self.loads / self.max_load
        if last is not None:
            action, err, stability, contention, t_total = last
            obs[:, 0] = action / self._action_scale
            obs[:, 1 + self.E] = err
            obs[:, 2 + self.E] = stability
            obs[:, 3 + self.E] = contention
            obs[:, 4 + self.E] = t_total / self.latency_scale
        return obs

    def step(self, joint_actions: Sequence[int]) -> StepResult:
        """Advance one slot under the given per-vehicle RSU choices."""
        if self._rng is None:
            raise RuntimeError("call reset() before step()")
        if self.t >= self.cfg.horizon:
            raise RuntimeError("episode finished; call reset()")
        if len(joint_actions) != self.V:
            raise ActionError(f"expected {self.V} actions, got {len(joint_actions)}")
        requested = np.asarray(joint_actions).astype(int)
        bad = (requested < 0) | (requested >= self.E)
        if bad.any():
            raise ActionError(f"action {joint_actions[bad.argmax()]} outside 0..{self.E - 1}")

        t = self.t
        cfg = self.cfg
        serving = self.serving[t]
        d_task = self.task_bits[t]
        mig_bits = cfg.alpha * d_task
        # Rendering sizes for the requested target and for a remap to the
        # serving RSU; the local share does not depend on the target. Last
        # slot's serving RSU and shares come from the tables; slot 0 reuses none.
        last = self.task_bits[t - 1]
        last_mig = cfg.alpha * last
        same_serving = serving == self.serving[t - 1] if t else np.zeros(self.V, dtype=bool)
        sizes = partial(self.rendering_sizes, d_task - mig_bits, mig_bits, cfg.mu, same_serving,
                        prev_local_bits=last - last_mig, prev_mig_bits=last_mig)
        xi_local, xi_mig_req = sizes(requested == self.prev_action)
        pending, final_action, remapped, xi_mig = self.commit_work(
            self.loads, self.max_load, serving, requested, self.cycles_per_bit, xi_local,
            xi_mig_req, lambda: sizes(serving == self.prev_action)[1],
        )
        stability = (final_action == self.prev_action).astype(float)

        # Contention: vehicles sharing a pre-migration target this slot.
        # shared[w, v] marks w as a co-targeter of v; the column sums run in
        # vehicle order.
        shared = final_action[:, None] == final_action
        np.fill_diagonal(shared, False)
        contention = shared.any(axis=0).astype(float)
        err = self.error_rate(np.where(shared, mig_bits[:, None], 0.0), cfg.tau)

        every = np.arange(self.V)
        moved = np.flatnonzero(final_action != serving)
        t_down = self.t_down_serving[t].copy()
        if len(moved):
            t_down[moved] += self.transmission_latencies(t, moved, final_action[moved])[1]
        t_mig = self.migration_latency(mig_bits, serving, final_action)
        t_proc_s, t_proc_t, t_proc = self.processing_latencies(
            every, serving, final_action, xi_local, xi_mig, t_mig, self.loads
        )
        t_up = self.t_up[t]
        t_total = t_up + t_proc + t_down
        q = self.qoe(err, t_total)
        rewards = q if cfg.reward_mode == "qoe" else -t_total
        columns = (
            final_action, serving, t_up, t_mig, t_proc, t_down, t_total, err, q, rewards,
            remapped, stability, contention, t_proc_s, t_proc_t,
        )  # SLOT_METRICS field order
        metrics = np.empty(self.V, SLOT_METRICS)
        for name, column in zip(SLOT_METRICS.names, columns):
            metrics[name] = column

        # Queue dynamics: drain at capacity, add this slot's work and random
        # background arrivals, clamp into [0, max_load].
        assigned = pending - self.loads
        drained = np.maximum(0.0, self.loads + assigned - self.compute * cfg.slot_seconds)
        if cfg.background_mean > 0:
            lam = cfg.background_mean / cfg.background_unit
            arrivals = self._rng.poisson(lam, size=self.E) * cfg.background_unit
            drained = drained + arrivals
        self.loads = np.minimum(drained, self.max_load)

        self.prev_action = final_action
        self.t = t + 1
        done = self.t >= cfg.horizon
        observations = self._observations((final_action, err, stability, contention, t_total))
        return StepResult(observations, metrics.view(np.recarray), done)


# The eval metrics table: one row per vehicle and slot, (episode, slot,
# vehicle, *record) with a record of the METRICS_FIELDS of its SLOT_METRICS.
METRICS_HEADER = [
    "episode", "slot", "vehicle", "action", "serving",
    "T_u", "T_m", "T_p", "T_d", "T_total", "err_rate", "qoe", "reward", "remapped",
]
METRICS_FIELDS = list(SLOT_METRICS.names[:SLOT_METRICS.names.index("remapped") + 1])
METRICS_ROW = "%d,%d,%d,%d,%d," + ",".join(["%.9g"] * 8) + ",%d\n"


# --- scenario config interface ---

# The per-unit scenario keys, in read order: {section: {name: (default, rule)}},
# default None when the key is required, rule a `configio.RANGE` rule. Unit i
# reads <section>.<i>.<name>, else <section>.<name>, else the default.
UNIT_KEYS = {
    "rsu": {name: (None, "> 0") for name in ("compute", "max_load", "bw_up", "bw_down", "noise")},
    "veh": {"result_bits": (0.0, ">= 0"), "power": (None, "> 0"),
            "cycles_per_bit": (None, ">= 0"), "task_bits": (None, ">= 0"),
            "request_bits": (0.0, ">= 0")},
}


def _unit_columns(cfg, section: str, n: int) -> dict[str, np.ndarray]:
    """{name: (n,) column} of `section`'s `UNIT_KEYS`, read unit by unit; a value
    outside its rule is a `ConfigError` that shows the key's config text."""
    columns = {name: np.empty(n) for name in UNIT_KEYS[section]}
    for i in range(n):
        for name, (default, rule) in UNIT_KEYS[section].items():
            key = f"{section}.{i}.{name}"
            if key not in cfg:
                key = f"{section}.{name}"
            columns[name][i] = check(key, get_float(cfg, key, default), rule, cfg.get(key))
    return columns


def apply_sweep(scenario: dict[str, str], param: str, value: str) -> dict[str, str]:
    """Set scenario key `param` to the text `value`, as it was given.

    An unindexed `UNIT_KEYS` key <section>.<name> sets every unit: it drops each
    indexed <section>.<i>.<name> override.
    """
    out = dict(scenario)
    section, _, name = param.partition(".")
    if name in UNIT_KEYS.get(section, ()):
        for key in list(out):
            if key.count(".") == 2 and key.split(".")[::2] == [section, name]:
                del out[key]
    out[param] = value
    return out


def build_env(cfg: dict[str, str], **overrides) -> PremigrationEnv:
    """Assemble an environment from a flat scenario config.

    Reads the RSU keys (backhaul pairs, positions, `UNIT_KEYS["rsu"]`), then the
    CSV named by `veh.traj_csv` (vehicle i takes its i-th trajectory in file
    order, cycling when fewer are available), then `UNIT_KEYS["veh"]`, then the
    `EnvConfig` keys. `overrides` replace `EnvConfig` fields only after the
    scenario's values passed their checks, so no override hides a bad value.
    """
    n_rsu = check("rsu.count", get_int(cfg, "rsu.count"), ">= 1")
    n_veh = check("veh.count", get_int(cfg, "veh.count"), ">= 1")

    backhaul = np.zeros((n_rsu, n_rsu))
    for i, j in itertools.permutations(range(n_rsu), 2):
        keys = (f"backhaul.{i}.{j}", f"backhaul.{j}.{i}", "backhaul.default")
        key = next((k for k in keys if k in cfg), None)  # first set, in this order
        if key is None:
            raise ConfigError(f"no backhaul bandwidth for RSU pair ({i},{j}): "
                              f"set one of {', '.join(keys)}")
        backhaul[i, j] = check(key, get_float(cfg, key), "> 0", cfg.get(key))
    rsu_xy = [(get_float(cfg, f"rsu.{i}.x"), get_float(cfg, f"rsu.{i}.y")) for i in range(n_rsu)]
    rsu = _unit_columns(cfg, "rsu", n_rsu)

    with open(get_str(cfg, "veh.traj_csv"), "r", encoding="utf-8") as fh:
        trajectories = read_trajectories_csv(fh)
    if not trajectories:
        raise ConfigError("no trajectories available for vehicles")
    veh = _unit_columns(cfg, "veh", n_veh)
    tracks = [trajectories[i % len(trajectories)] for i in range(n_veh)]

    channel = read_config(ChannelParams, cfg, "channel")
    env_cfg = replace(read_config(EnvConfig, cfg, "env"), **overrides)
    return PremigrationEnv(
        rsu_xy=rsu_xy, **rsu, backhaul=backhaul, tx_power=veh["power"],
        cycles_per_bit=veh["cycles_per_bit"], request_bits=veh["request_bits"],
        task_bits=np.broadcast_to(veh["task_bits"], (env_cfg.horizon, n_veh)),
        result_bits=np.broadcast_to(veh["result_bits"][:, None], (n_veh, n_rsu)),
        track_id=[traj.vehicle_id for traj in tracks],
        track_t=np.concatenate([traj.t for traj in tracks]),
        track_xy=np.concatenate([traj.xy for traj in tracks]),
        track_offsets=np.cumsum([0, *(len(traj.t) for traj in tracks)]),
        channel=channel, cfg=env_cfg,
    )
