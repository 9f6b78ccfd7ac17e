"""Command-line experiment runner.

Subcommands: `trajgen` (synthesize trajectories and density/histogram data),
`train` (run the switching trainer, emit per-episode report and checkpoints),
`eval` (greedy evaluation of a checkpoint or heuristic), and `compare`
(parameter sweeps across policies, long-format CSV output).

All primary outputs are written atomically (a `.partial` file renamed on
completion) and are byte-identical across runs with the same seed, inputs and
commit.
Exit codes: 0 success, 2 config error, 3 training abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import envsim, msrl, neuralcore, policies, trajgen
from .configio import ConfigError, ReadLog, get_int, get_str, load_kv, read_config
from .roadnet import load_network

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_IO = 4


def _atomic_path(path: str) -> str:
    return path + ".partial"


def atomic_write(path: str, write_fn: Callable) -> None:
    """Write through a .partial file and rename into place on success."""
    tmp = _atomic_path(path)
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        write_fn(fh)
    os.replace(tmp, path)


def write_table(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table, the header row and then `rows`, through `atomic_write`."""

    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    atomic_write(path, write)


# --- trajgen ---

def cmd_trajgen(args) -> int:
    cfg = load_kv(args.gen_cfg)
    total = args.count if args.count is not None else get_int(cfg, "gen.total_count", 100)
    if total < 0:
        raise ConfigError(f"trajectory count must be >= 0, got {total}")
    if not 0 < args.grid_cell < math.inf:
        raise ConfigError(f"--grid-cell must be a finite number > 0, got {args.grid_cell}")
    nodes_path = get_str(cfg, "roadnet.nodes")
    edges_path = get_str(cfg, "roadnet.edges")
    with open(nodes_path, "r", encoding="utf-8") as nf, open(
        edges_path, "r", encoding="utf-8"
    ) as ef:
        net = load_network(nf, ef)

    gen_cfg = read_config(trajgen.GenConfig, cfg, "gen")
    rng = np.random.default_rng(args.seed)

    synthetic = args.synthetic_profile or get_int(cfg, "gen.synthetic", 0) != 0
    if synthetic:
        raw = trajgen.synthetic_truth(net, get_int(cfg, "gen.synthetic_count", 200), rng)
    else:
        input_path = get_str(cfg, "gen.input")
        with open(input_path, "r", encoding="utf-8") as fh:
            raw = trajgen.read_trajectories_csv(fh)

    segments = []
    for traj in raw:
        segments.extend(trajgen.clean_and_segment(traj, gen_cfg))
    if not segments:
        raise ConfigError("input produced no usable segments")
    matched = trajgen.map_to_roads(segments, net)
    profile = trajgen.build_profile(matched, gen_cfg)
    generated, skipped = trajgen.generate_dataset(profile, net, gen_cfg, total, rng)
    try:
        with np.errstate(over="ignore"):  # a coordinate / cell of inf fails in math.floor
            grid = trajgen.density_grid(generated, args.grid_cell)
    except OverflowError:
        raise ConfigError(f"--grid-cell {args.grid_cell} gives a non-finite cell index") from None

    os.makedirs(args.out, exist_ok=True)
    traj_path = os.path.join(args.out, "trajectories.csv")
    atomic_write(traj_path, lambda fh: trajgen.write_trajectories_csv(generated, fh))
    write_table(
        os.path.join(args.out, "density_grid.csv"), ["cell_x", "cell_y", "count"],
        ([cx, cy, count] for (cx, cy), count in sorted(grid.items())),
    )

    hours = np.zeros(trajgen.HOURS, dtype=int)
    for traj in generated:
        hours[traj.start_hour()] += 1
    write_table(
        os.path.join(args.out, "hourly_histogram.csv"), ["hour", "count", "profile_weight"],
        ([h, int(hours[h]), f"{profile.hour_histogram[h]:.9g}"] for h in range(trajgen.HOURS)),
    )

    print(
        f"trajgen: {len(generated)} trajectories "
        f"({sum(len(t.points) for t in generated)} points), {skipped} skipped"
    )
    return EXIT_OK


# --- shared env/bundle assembly ---

def _build_env(
    scenario: dict[str, str], kind: str, train_kv: dict[str, str],
    sweep: Optional[tuple[str, str]] = None,
) -> envsim.PremigrationEnv:
    """The env of `kind`'s episodes; `train.reward_mode` overrides `env.reward_mode`.

    `sweep` = (key, value) goes through `apply_sweep`. A swept key that `build_env` does not
    read is a config error, also when the sweep left the env short of a key."""
    cfg = ReadLog(scenario if sweep is None else apply_sweep(scenario, *sweep))
    if "train.reward_mode" in train_kv:
        cfg["env.reward_mode"] = train_kv["train.reward_mode"]
    cfg.update(policies.env_overrides(kind))
    try:
        env = envsim.build_env(cfg)
    except ConfigError:
        if sweep is None or sweep[0] in cfg.read:
            raise
        _build_env(scenario, kind, train_kv)  # raises the scenario's own error, if any
    if sweep is not None and sweep[0] not in cfg.read:
        raise ConfigError(f"--sweep-param {sweep[0]!r} is not a scenario key that the env reads")
    return env


def _checkpoint_bundle(
    path: str, tensors: dict, cfg: msrl.TrainConfig, env: envsim.PremigrationEnv
) -> tuple[msrl.PolicyBundle, int]:
    """The bundle and episode of checkpoint `path`, read as `tensors`, sized as the env."""
    try:
        bundle, episode = msrl.load_bundle(tensors, cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for what, saved, want in (
        ("agents", bundle.actor.agents, env.V),
        ("obs_dim", bundle.actor.obs_dim, env.obs_dim),
        ("actions", bundle.actor.n_actions, env.E),
    ):
        if saved != want:
            raise ConfigError(
                f"checkpoint {path} has meta/{what} = {saved}, but the scenario needs {want}"
            )
    return bundle, episode


def cmd_train(args) -> int:
    scenario = load_kv(args.scenario)
    train_kv = load_kv(args.train_cfg) if args.train_cfg else {}
    kind = args.policy or get_str(train_kv, "train.policy", policies.SPLIT)
    if kind not in policies.LEARNED_KINDS:
        raise ConfigError(f"cannot train policy kind {kind!r}")
    episodes = {} if args.episodes is None else {"episodes": args.episodes}
    cfg = msrl.train_config_from(
        train_kv, seed=args.seed, mode=policies.LEARNED_KINDS[kind], **episodes
    )
    env = _build_env(scenario, kind, train_kv)

    bundle = None
    start_episode = 0
    if args.resume:
        tensors = neuralcore.load_checkpoint(args.resume)
        bundle, last_episode = _checkpoint_bundle(args.resume, tensors, cfg, env)
        start_episode = last_episode + 1

    os.makedirs(args.out, exist_ok=True)
    ckpt_every = get_int(train_kv, "train.ckpt_every", 50)
    report_path = os.path.join(args.out, "train_report.csv")
    tmp_path = _atomic_path(report_path)

    def save_ckpt(name: str, bundle_now, episode: int) -> None:
        path = os.path.join(args.out, name)
        tmp = _atomic_path(path)
        neuralcore.save_checkpoint(tmp, msrl.bundle_tensors(bundle_now, episode))
        os.replace(tmp, path)

    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(msrl.REPORT_HEADER)
            fh.flush()

            def on_episode(stats: msrl.EpisodeStats) -> None:
                writer.writerow(msrl.report_row(stats))
                fh.flush()
                if ckpt_every > 0 and (stats.episode + 1) % ckpt_every == 0:
                    # Known defect: on a fresh run `bundle` stays None until
                    # msrl.train returns, so this save fails.
                    save_ckpt(f"ckpt_ep{stats.episode}.txt", bundle, stats.episode)

            stats_list, bundle = msrl.train(
                env, cfg, bundle=bundle, start_episode=start_episode, on_episode=on_episode
            )
        os.replace(tmp_path, report_path)
    except msrl.TrainAbort as exc:
        dump_path = os.path.join(args.out, "abort_dump.txt")
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write(f"{exc}\n")
            for key, value in exc.diagnostics.items():
                fh.write(f"{key} = {value}\n")
        print(f"training aborted: {exc} (diagnostics: {dump_path})", file=sys.stderr)
        return EXIT_ABORT

    save_ckpt("ckpt_final.txt", bundle, start_episode + cfg.episodes - 1)
    print(f"train: {len(stats_list)} episodes, final mean_reward={stats_list[-1].mean_reward:.6g}")
    return EXIT_OK


# --- eval ---

# The msrl.EvalSummary means, in column order.
EVAL_MEANS = ["mean_reward", "mean_qoe", "mean_latency", "mean_err", "mean_active_params"]
EVAL_HEADER = ["policy", "episodes", *EVAL_MEANS]


def _read_checkpoint(args, kinds: Sequence[str]) -> Optional[dict]:
    """The `--checkpoint` tensors, read once per run if a learned kind needs them."""
    if args.checkpoint and any(kind in policies.LEARNED_KINDS for kind in kinds):
        return neuralcore.load_checkpoint(args.checkpoint)
    return None


def _load_bundle_for(
    kind: str, args, train_kv: dict[str, str], env: envsim.PremigrationEnv, tensors
) -> Optional[msrl.PolicyBundle]:
    """The `--checkpoint` bundle, a fresh one without it, None for heuristics."""
    if kind not in policies.LEARNED_KINDS:
        return None
    cfg = msrl.train_config_from(train_kv, seed=args.seed, mode=policies.LEARNED_KINDS[kind])
    if args.checkpoint:
        return _checkpoint_bundle(args.checkpoint, tensors, cfg, env)[0]
    return msrl.make_bundle(env.obs_dim, env.E, env.V, cfg)


def cmd_eval(args) -> int:
    scenario = load_kv(args.scenario)
    train_kv = load_kv(args.train_cfg) if args.train_cfg else {}
    kind = args.policy
    env = _build_env(scenario, kind, train_kv)
    bundle = _load_bundle_for(kind, args, train_kv, env, _read_checkpoint(args, [kind]))
    rng = np.random.default_rng([args.seed, 11])
    act = policies.make_act_fn(kind, env, bundle=bundle, rng=rng)

    rows: list[list] = []

    def on_slot(ep, slot, v, m):
        rows.append(envsim.metrics_row(ep, slot, v, m))

    summary = msrl.run_episodes(env, act, args.episodes, args.seed * 1000, on_slot=on_slot)

    os.makedirs(args.out, exist_ok=True)
    write_table(
        os.path.join(args.out, "eval_summary.csv"), EVAL_HEADER,
        [[kind, args.episodes, *(f"{getattr(summary, m):.9g}" for m in EVAL_MEANS)]],
    )
    write_table(os.path.join(args.out, "eval_metrics.csv"), envsim.METRICS_HEADER, rows)
    print(
        f"eval: policy={kind} episodes={args.episodes} "
        f"mean_reward={summary.mean_reward:.6g} mean_latency={summary.mean_latency:.6g}"
    )
    return EXIT_OK


# --- compare ---

COMPARE_HEADER = ["policy", "param_value", "metric", "mean", "stderr"]
COMPARE_METRICS = ("reward", "qoe", "latency", "err_rate", "active_params")  # EVAL_MEANS


def apply_sweep(scenario: dict[str, str], param: str, value: str) -> dict[str, str]:
    """Set scenario key `param` to the text `value`, as it was given.

    An unindexed rsu.<name> or veh.<name> sets every unit: it drops each
    indexed rsu.<i>.<name> or veh.<i>.<name> override.
    """
    out = dict(scenario)
    parts = param.split(".")
    if parts[0] in ("rsu", "veh") and len(parts) == 2:
        for key in list(out):
            kp = key.split(".")
            if len(kp) == 3 and kp[0] == parts[0] and kp[2] == parts[1]:
                del out[key]
    out[param] = value
    return out


def cmd_compare(args) -> int:
    scenario = load_kv(args.scenario)
    train_kv = load_kv(args.train_cfg) if args.train_cfg else {}
    kinds = [k.strip() for k in args.policy.split(",")] if args.policy else list(policies.KINDS)
    for kind in kinds:
        if kind not in policies.KINDS:
            raise ConfigError(f"unknown policy kind {kind!r}")
    texts = [v.strip() for v in args.sweep_values.split(",") if v.strip()]
    try:
        values = [float(v) for v in texts]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {args.sweep_values!r}") from None
    if not values:
        raise ConfigError("empty sweep value list")

    results: list[list] = []
    tensors = _read_checkpoint(args, kinds)
    for vi, (text, value) in enumerate(zip(texts, values)):
        for kind in kinds:
            env = _build_env(scenario, kind, train_kv, (args.sweep_param, text))
            bundle = _load_bundle_for(kind, args, train_kv, env, tensors)
            rng = np.random.default_rng([args.seed, 13, vi])
            act = policies.make_act_fn(kind, env, bundle=bundle, rng=rng)
            # Episode seeds are paired across policies at each sweep point.
            seed_base = args.seed * 100_000 + vi * 1_000
            runs = [msrl.run_episodes(env, act, 1, seed_base + ep) for ep in range(args.episodes)]
            for metric, mean in zip(COMPARE_METRICS, EVAL_MEANS):
                arr = np.array([getattr(s, mean) for s in runs])
                stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
                results.append(
                    [kind, f"{value:.9g}", metric, f"{arr.mean():.9g}", f"{stderr:.9g}"]
                )

    os.makedirs(args.out, exist_ok=True)
    write_table(os.path.join(args.out, "compare_results.csv"), COMPARE_HEADER, results)
    print(f"compare: {len(kinds)} policies x {len(values)} values -> {len(results)} rows")
    return EXIT_OK


# --- entry point ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vtmigsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trajgen", help="generate synthetic trajectories")
    p.add_argument("--gen-cfg", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--grid-cell", type=float, default=250.0)
    p.add_argument("--synthetic-profile", action="store_true")
    p.set_defaults(fn=cmd_trajgen)

    p = sub.add_parser("train", help="train a policy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--train-cfg", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default=None)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--resume", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="greedy evaluation")
    p.add_argument("--scenario", required=True)
    p.add_argument("--train-cfg", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--policy", default=policies.SPLIT)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("compare", help="sweep a parameter across policies")
    p.add_argument("--scenario", required=True)
    p.add_argument("--train-cfg", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--sweep-param", required=True)
    p.add_argument("--sweep-values", required=True)
    p.add_argument("--episodes", type=int, default=5)
    p.add_argument("--policy", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "episodes", None) is not None and args.episodes < 1:
            raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
        return args.fn(args)
    except (ValueError, KeyError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except msrl.TrainAbort as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
