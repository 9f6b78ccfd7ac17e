"""Scenario builders, CLI invocations and output checks of the three workloads.

Every input is made in code from the workload seed: grid road networks written
as node/edge CSVs, vehicle tracks from ``trajgen.synthetic_truth``, RSUs on an
even grid, flat scenario configs and, for compare, a checkpoint saved from an
untrained policy bundle. No data files and no downloads.

A workload's *op* is its unit of work: one trajgen CLI run, one training
episode, or one compare cell (one policy at one sweep value, one episode).
One timed call of ``cli.main`` performs ``ops_per_run`` ops. A workload has
one or more *cells*, the distinct CLI invocations a run cycles through. Each
call is kept short (about a second or two) so that a run holds many timed
calls of every cell.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from vtmigsim import cli, configio, envsim, msrl, neuralcore, roadnet, trajgen

GRID_SPACING_M = 200.0
ROAD_SPEED_MPS = 13.9
TRAJGEN_CELLS = 8
COMPARE_POLICIES = ("split", "full_migration", "random_migration")
# max_load = 1e9 forces frequent remaps to the serving RSU; 5e10 never binds.
COMPARE_MAX_LOADS = ("1e9", "5e10")

# Radio, compute and task sizes shared by the train and compare scenarios.
SCENARIO_CONSTANTS = {
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


class GateError(Exception):
    """An op's outputs failed the correctness gate."""


@dataclass(frozen=True)
class Sizes:
    grid: int            # nodes per side of the square road grid
    raw_tracks: int      # synthetic tracks feeding the trajgen profile
    generated: int       # trajgen --count
    rsu_side: int        # RSUs per side of the even RSU grid
    vehicles: int
    horizon: int
    episodes: int        # training episodes per train CLI run


FULL = {
    "trajgen_grid40": Sizes(40, 100, 100, 0, 0, 0, 0),
    "train_e9v32": Sizes(20, 0, 0, 3, 32, 100, 1),
    "compare_e16v128": Sizes(20, 0, 0, 4, 128, 50, 0),
}
# Smoke-test sizes: every layer still runs, in well under a second per op.
TINY = {
    "trajgen_grid40": Sizes(6, 20, 10, 0, 0, 0, 0),
    "train_e9v32": Sizes(6, 0, 0, 2, 2, 8, 1),
    "compare_e16v128": Sizes(6, 0, 0, 2, 2, 8, 0),
}


@dataclass
class Prepared:
    """Inputs of one workload, ready for timed CLI runs."""

    cells: list[list[str]]               # cli.main arguments except --out, run in turn
    ops_per_run: int
    work_per_run: Callable[[dict], int]  # from check()'s stats
    check: Callable[[str], dict]         # out dir -> stats; raises GateError
    input_files: list[str]
    # True when the cells are draws of one op (the same call with different
    # CLI seeds): the timings then pool all calls. Otherwise each cell is a
    # different part of the work and its median counts once.
    draws: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    op: str              # what one op is
    work: str            # what work_per_s counts
    prepare: Callable[[str, int, Sizes], Prepared]


# --- input generation ---

def write_grid(directory: str, n: int) -> tuple[str, str]:
    """n x n grid of nodes GRID_SPACING_M apart, 4-neighbour segments."""
    nodes = os.path.join(directory, "nodes.csv")
    edges = os.path.join(directory, "edges.csv")
    with open(nodes, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["node_id", "x", "y"])
        for i in range(n):
            for j in range(n):
                w.writerow([i * n + j, j * GRID_SPACING_M, i * GRID_SPACING_M])
    with open(edges, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["from", "to", "length_m", "speed_mps"])
        for i in range(n):
            for j in range(n):
                u = i * n + j
                if j + 1 < n:
                    w.writerow([u, u + 1, "", ROAD_SPEED_MPS])
                if i + 1 < n:
                    w.writerow([u, u + n, "", ROAD_SPEED_MPS])
    return nodes, edges


def write_kv(path: str, items: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {value}\n")


def write_scenario(directory: str, seed: int, sizes: Sizes) -> str:
    """Grid network, synthetic vehicle tracks and an even RSU grid."""
    nodes, edges = write_grid(directory, sizes.grid)
    with open(nodes, encoding="utf-8") as nf, open(edges, encoding="utf-8") as ef:
        net = roadnet.load_network(nf, ef)
    tracks = trajgen.synthetic_truth(net, sizes.vehicles, np.random.default_rng([seed, 1]))
    traj_csv = os.path.join(directory, "vehicles.csv")
    with open(traj_csv, "w", encoding="utf-8", newline="") as fh:
        trajgen.write_trajectories_csv(tracks, fh)

    side = sizes.rsu_side
    cell = (sizes.grid - 1) * GRID_SPACING_M / side
    items: dict[str, object] = {
        "rsu.count": side * side,
        "veh.count": sizes.vehicles,
        "veh.traj_csv": traj_csv,
        "env.horizon": sizes.horizon,
    }
    for k in range(side * side):
        items[f"rsu.{k}.x"] = (k % side + 0.5) * cell
        items[f"rsu.{k}.y"] = (k // side + 0.5) * cell
    items.update(SCENARIO_CONSTANTS)
    path = os.path.join(directory, "scenario.cfg")
    write_kv(path, items)
    return path


# --- output checks (the correctness gate) ---

def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_digests(out_dir: str) -> dict[str, str]:
    return {
        name: sha256_file(os.path.join(out_dir, name))
        for name in sorted(os.listdir(out_dir))
    }


def input_digests(paths: list[str], directory: str) -> dict[str, str]:
    """SHA-256 of each input, with its own directory masked out of config paths."""
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read().replace(directory.encode(), b"<inputs>")
        out[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
    return out


def _rows(path: str, header: list[str]) -> list[list[str]]:
    if not os.path.isfile(path):
        raise GateError(f"missing output {os.path.basename(path)}")
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise GateError(f"{os.path.basename(path)}: header {rows[:1]} != {header}")
    return rows[1:]


def _floats(rows: list[list[str]], col: int, what: str) -> np.ndarray:
    values = np.array([float(r[col]) for r in rows])
    if not np.all(np.isfinite(values)):
        raise GateError(f"non-finite {what}")
    return values


def _check_common(out_dir: str, expected: set[str]) -> None:
    partial = glob.glob(os.path.join(out_dir, "*.partial"))
    if partial:
        raise GateError(f"left behind {sorted(map(os.path.basename, partial))}")
    missing = expected - set(os.listdir(out_dir))
    if missing:
        raise GateError(f"missing outputs {sorted(missing)}")


def _check_latency_err(latency: np.ndarray, err: np.ndarray) -> None:
    if np.any(latency < 0):
        raise GateError("negative T_total")
    if np.any((err < 0) | (err >= 1)):
        raise GateError("err_rate outside [0, 1)")


def check_trajgen(out_dir: str) -> dict:
    _check_common(out_dir, {"trajectories.csv", "density_grid.csv", "hourly_histogram.csv"})
    pts = _rows(os.path.join(out_dir, "trajectories.csv"), ["vehicle_id", "t", "x", "y"])
    if not pts:
        raise GateError("no trajectory points")
    ids = np.array([int(r[0]) for r in pts])
    t = _floats(pts, 1, "t")
    _floats(pts, 2, "x")
    _floats(pts, 3, "y")
    same = ids[1:] == ids[:-1]
    if np.any(t[1:][same] <= t[:-1][same]):
        raise GateError("trajectory timestamps not strictly increasing")
    vehicles = len(np.unique(ids))
    grid = _rows(os.path.join(out_dir, "density_grid.csv"), ["cell_x", "cell_y", "count"])
    if sum(int(r[2]) for r in grid) != len(pts):
        raise GateError("density grid does not count every point")
    hist = _rows(os.path.join(out_dir, "hourly_histogram.csv"), ["hour", "count", "profile_weight"])
    if len(hist) != trajgen.HOURS or sum(int(r[1]) for r in hist) != vehicles:
        raise GateError("hourly histogram does not count every trajectory")
    weights = _floats(hist, 2, "profile_weight")
    if abs(weights.sum() - 1.0) > 1e-6:
        raise GateError("profile weights do not sum to 1")
    return {"traj_points": len(pts), "trajectories": vehicles}


def check_train(out_dir: str, episodes: int) -> dict:
    _check_common(out_dir, {"train_report.csv", "ckpt_final.txt"})
    rows = _rows(os.path.join(out_dir, "train_report.csv"), msrl.REPORT_HEADER)
    if len(rows) != episodes or [int(r[0]) for r in rows] != list(range(episodes)):
        raise GateError(f"train report has {len(rows)} rows, expected {episodes}")
    cols = {name: _floats(rows, i, name) for i, name in enumerate(msrl.REPORT_HEADER)}
    _check_latency_err(cols["mean_latency"], cols["mean_err"])
    with open(os.path.join(out_dir, "ckpt_final.txt"), encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != neuralcore.CKPT_MAGIC:
            raise GateError("checkpoint magic missing")
        while header := fh.readline():
            name, n_rows, n_cols = header.split()
            for _ in range(int(n_rows)):
                values = [float(x) for x in fh.readline().split()]
                if len(values) != int(n_cols) or not all(map(math.isfinite, values)):
                    raise GateError(f"checkpoint tensor {name}: bad or non-finite row")
    return {
        "sim_mean_latency_s": float(cols["mean_latency"].mean()),
        "sim_mean_qoe": float(cols["mean_qoe"].mean()),
    }


def check_compare(out_dir: str, cells: int) -> dict:
    _check_common(out_dir, {"compare_results.csv"})
    rows = _rows(os.path.join(out_dir, "compare_results.csv"), cli.COMPARE_HEADER)
    if len(rows) != cells * len(cli.COMPARE_METRICS):
        raise GateError(f"compare has {len(rows)} rows, expected {cells * len(cli.COMPARE_METRICS)}")
    means = _floats(rows, 3, "mean")
    _floats(rows, 4, "stderr")
    metric = np.array([r[2] for r in rows])
    _check_latency_err(means[metric == "latency"], means[metric == "err_rate"])
    return {
        "sim_mean_latency_s": float(means[metric == "latency"].mean()),
        "sim_mean_qoe": float(means[metric == "qoe"].mean()),
    }


# --- workloads ---

def prepare_trajgen(directory: str, seed: int, sizes: Sizes) -> Prepared:
    nodes, edges = write_grid(directory, sizes.grid)
    gen_cfg = os.path.join(directory, "gen.cfg")
    write_kv(gen_cfg, {
        "roadnet.nodes": nodes,
        "roadnet.edges": edges,
        "gen.synthetic_count": sizes.raw_tracks,
    })
    # The two anchor regions of synthetic_truth, and with them the route
    # lengths, depend on the CLI seed; cycling through several seeds and
    # taking the median over all calls keeps the cost of a run from hanging
    # on one draw. Output size is heavy-tailed over seeds: most draws give
    # about 2,000 points, a few over 10,000.
    return Prepared(
        cells=[
            ["trajgen", "--gen-cfg", gen_cfg, "--seed", str(TRAJGEN_CELLS * seed + i),
             "--count", str(sizes.generated), "--synthetic-profile"]
            for i in range(TRAJGEN_CELLS)
        ],
        ops_per_run=1,
        work_per_run=lambda stats: stats["traj_points"],
        check=check_trajgen,
        input_files=[nodes, edges, gen_cfg],
        draws=True,
    )


def prepare_train(directory: str, seed: int, sizes: Sizes) -> Prepared:
    scenario = write_scenario(directory, seed, sizes)
    # Built here so a broken scenario fails in setup; the CLI builds its own.
    envsim.build_env(configio.load_kv(scenario))
    # No train config: the default TrainConfig. Its ckpt_every of 50 stays
    # above the episodes per run, so only the final checkpoint is written
    # (an intermediate checkpoint of a fresh run crashes the CLI).
    return Prepared(
        cells=[["train", "--scenario", scenario, "--seed", str(seed),
                "--episodes", str(sizes.episodes)]],
        ops_per_run=sizes.episodes,
        work_per_run=lambda stats: sizes.episodes * sizes.horizon * sizes.vehicles,
        check=lambda out: check_train(out, sizes.episodes),
        input_files=[scenario, os.path.join(directory, "vehicles.csv")],
    )


def prepare_compare(directory: str, seed: int, sizes: Sizes) -> Prepared:
    scenario = write_scenario(directory, seed, sizes)
    env = envsim.build_env(configio.load_kv(scenario))
    cfg = msrl.train_config_from({}, seed=seed, mode="split")
    bundle = msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)
    ckpt = os.path.join(directory, "untrained.ckpt")
    neuralcore.save_checkpoint(ckpt, msrl.bundle_tensors(bundle, 0))
    msrl.load_bundle(neuralcore.load_checkpoint(ckpt), cfg)
    # One policy at one sweep value per call: six short cells instead of one
    # long call, so a run times every cell several times.
    return Prepared(
        cells=[["compare", "--scenario", scenario, "--checkpoint", ckpt, "--seed", str(seed),
                "--episodes", "1", "--policy", policy,
                "--sweep-param", "rsu.max_load", "--sweep-values", max_load]
               for policy in COMPARE_POLICIES for max_load in COMPARE_MAX_LOADS],
        ops_per_run=1,
        work_per_run=lambda stats: sizes.horizon * sizes.vehicles,
        check=lambda out: check_compare(out, 1),
        input_files=[scenario, os.path.join(directory, "vehicles.csv"), ckpt],
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trajgen_grid40", "trajgen CLI run", "generated trajectory points", prepare_trajgen),
        Workload("train_e9v32", "training episode", "vehicle-slots", prepare_train),
        Workload("compare_e16v128", "compare cell", "vehicle-slots", prepare_compare),
    )
}
