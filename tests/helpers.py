"""Shared builders for environment and scenario tests, and a gradient checker."""

import inspect
from typing import Callable, Optional

import numpy as np

from reference_roadnet import GeoPoint
from scalar_env import RsuSpec, VehicleSpec, env_columns
from vtmigsim.configio import load_kv
from vtmigsim.envsim import ChannelParams, EnvConfig, PremigrationEnv, build_env
from vtmigsim.trajgen import Trajectory

RSU_POSITIONS = [(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0)]


def line_trajectory(vid, x0, y0, vx, vy, duration=600.0, dt=10.0, t0=0.0):
    ts, xy = [], []
    t = t0
    while t <= t0 + duration:
        ts.append(t)
        xy.append((x0 + vx * (t - t0), y0 + vy * (t - t0)))
        t += dt
    return Trajectory(vid, ts, xy)


def make_env(
    n_rsu=2,
    n_veh=1,
    compute=1e9,
    max_load=1e10,
    bw=1e6,
    noise=1e-9,
    backhaul=1e8,
    tx_power=0.1,
    cycles_per_bit=100.0,
    task_bits=1e6,
    request_bits=0.0,
    result_bits=0.0,
    trajectories=None,
    channel=None,
    **cfg_overrides,
):
    rsus = []
    for i in range(n_rsu):
        x, y = RSU_POSITIONS[i]
        rsus.append(
            RsuSpec(
                pos=GeoPoint(x, y),
                compute=compute,
                max_load=max_load,
                bw_up=bw,
                bw_down=bw,
                noise_power=noise,
                backhaul={j: backhaul for j in range(n_rsu) if j != i},
            )
        )
    if trajectories is None:
        trajectories = [
            line_trajectory(v, 50.0 + 30.0 * v, 10.0, 1.0, 0.0) for v in range(n_veh)
        ]
    vehicles = [
        VehicleSpec(
            tx_power=tx_power,
            cycles_per_bit=cycles_per_bit,
            task_bits=np.array([task_bits]),
            request_bits=request_bits,
            result_bits=np.full(n_rsu, result_bits),
            trajectory=trajectories[v],
        )
        for v in range(n_veh)
    ]
    defaults = dict(horizon=10, warmup_slots=0, slot_seconds=1.0)
    defaults.update(cfg_overrides)
    cfg = EnvConfig(**defaults)
    return PremigrationEnv(**env_columns(rsus, vehicles, channel or ChannelParams(), cfg))


def with_columns(env, **columns):
    """A new env on `env`'s inputs, with the named keyword columns replaced."""
    keywords = inspect.signature(PremigrationEnv).parameters
    return PremigrationEnv(**{**{k: getattr(env, k) for k in keywords}, **columns})


def denormalize_observation(env, obs):
    """Invert one vehicle's observation scaling back to raw metric values."""
    E = env.E
    return {
        "action": obs[0] * env._action_scale,
        "loads": obs[1 : 1 + E] * env.max_load,
        "err_rate": obs[1 + E],
        "stability": obs[2 + E],
        "contention": obs[3 + E],
        "t_total": obs[4 + E] * env.latency_scale,
    }


CLI_RSU_XY = [(0.0, 0.0), (600.0, 0.0), (300.0, 500.0)]
CLI_TRACKS = [  # (x0, y0, vx, vy) in m and m/s
    (20.0, 10.0, 12.0, 0.0),
    (580.0, 40.0, -9.0, 6.0),
    (300.0, 480.0, 2.0, -11.0),
]


def write_cli_scenario(directory, n_vehicles=len(CLI_TRACKS)):
    """Scenario config for the CLI: straight tracks, three RSUs, horizon 12."""
    traj = directory / "vehicles.csv"
    lines = ["vehicle_id,t,x,y"]
    for vid, (x0, y0, vx, vy) in enumerate(CLI_TRACKS):
        for k in range(7):
            t = 10.0 * k
            lines.append(f"{vid},{t:.6f},{x0 + vx * t:.6f},{y0 + vy * t:.6f}")
    traj.write_text("\n".join(lines) + "\n", encoding="utf-8")
    items = {
        "rsu.count": len(CLI_RSU_XY),
        "veh.count": n_vehicles,
        "veh.traj_csv": traj,
        "env.horizon": 12,
        "env.warmup_slots": 4,
        "env.background_mean": 0.3,
        "rsu.compute": "1e10",
        "rsu.max_load": "5e10",
        "rsu.bw_up": "2e7",
        "rsu.bw_down": "2e7",
        "rsu.noise": "1e-11",
        "backhaul.default": "1e9",
        "veh.power": "0.2",
        "veh.cycles_per_bit": "100",
        "veh.task_bits": "2e6",
        "veh.request_bits": "1e5",
        "veh.result_bits": "2e5",
    }
    for k, (x, y) in enumerate(CLI_RSU_XY):
        items[f"rsu.{k}.x"] = x
        items[f"rsu.{k}.y"] = y
    path = directory / f"scenario_v{n_vehicles}.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()), encoding="utf-8")
    return str(path)


def corner_env():
    """Four RSUs on a 1 km square (nearby radius 2 km) and four vehicles with
    4, 1, 0 and 2 RSUs nearby at the start; the one with none picks among all."""
    tracks = [
        line_trajectory(0, 400.0, 300.0, 3.0, 2.0),
        line_trajectory(1, -1200.0, -1200.0, 0.5, 0.0),
        line_trajectory(2, 5000.0, 5000.0, 1.0, 1.0),
        line_trajectory(3, -1000.0, 500.0, 0.0, 1.0),
    ]
    return make_env(n_rsu=4, n_veh=4, horizon=20, trajectories=tracks, max_load=2e9,
                    warmup_slots=3, background_mean=0.3)


def cli_env(tmp_path):
    """The CLI scenario of `write_cli_scenario`, built in place."""
    return build_env(load_kv(write_cli_scenario(tmp_path)))


def write_train_cfg(directory, shared_critic, minibatch=4):
    """Short training: small minibatches and a controller that switches often."""
    path = directory / "train.cfg"
    path.write_text(
        "train.epochs = 2\n"
        f"train.minibatch = {minibatch}\n"
        "train.window = 4\n"
        "train.hold = 3\n"
        "train.flutter_limit = 1\n"
        "train.thr0 = 0.9\n"
        f"train.shared_critic = {shared_critic}\n",
        encoding="utf-8",
    )
    return str(path)


def grad_check(
    params: list[np.ndarray],
    loss_and_grads: Callable[[], tuple[float, list[np.ndarray]]],
    step: float = 1e-5,
    max_entries: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_and_grads must evaluate the loss at the current parameters and return
    analytic gradients aligned with `params`. When max_entries is given, only
    a random subset of coordinates per tensor is probed.
    """
    _, grads = loss_and_grads()
    worst = 0.0
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        idx = np.arange(flat_p.size)
        if max_entries is not None and flat_p.size > max_entries:
            assert rng is not None
            idx = rng.choice(flat_p.size, size=max_entries, replace=False)
        for i in idx:
            orig = flat_p[i]
            flat_p[i] = orig + step
            up, _ = loss_and_grads()
            flat_p[i] = orig - step
            down, _ = loss_and_grads()
            flat_p[i] = orig
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(numeric) + abs(flat_g[i]), 1e-8)
            worst = max(worst, abs(numeric - flat_g[i]) / denom)
    return worst
