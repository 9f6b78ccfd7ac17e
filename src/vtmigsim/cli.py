"""Command-line experiment runner.

Subcommands: `trajgen` (synthesize trajectories and density/histogram data),
`train` (run the switching trainer, emit per-episode report and checkpoints),
`eval` (greedy evaluation of a checkpoint or heuristic), and `compare`
(parameter sweeps across policies, long-format CSV output).

All primary outputs are written atomically (a `.partial` file renamed on
completion) and are byte-identical across runs with the same seed and inputs.
Exit codes: 0 success, 2 config error, 3 training abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import envsim, msrl, neuralcore, policies, trajgen
from .configio import ConfigError, get_float, get_int, get_str, load_kv
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


def _ensure_out(path: str) -> None:
    os.makedirs(path, exist_ok=True)


# --- trajgen ---

def cmd_trajgen(args) -> int:
    cfg = load_kv(args.gen_cfg)
    nodes_path = get_str(cfg, "roadnet.nodes")
    edges_path = get_str(cfg, "roadnet.edges")
    with open(nodes_path, "r", encoding="utf-8") as nf, open(
        edges_path, "r", encoding="utf-8"
    ) as ef:
        net = load_network(nf, ef)

    gen_cfg = trajgen.GenConfig(
        delta_t=get_float(cfg, "gen.delta_t", 30.0),
        bandwidth=get_float(cfg, "gen.bandwidth", 50.0),
        per_hour_count_scale=get_float(cfg, "gen.count_scale", 1.0),
        max_speed=get_float(cfg, "gen.max_speed", 60.0),
        gap_split=get_float(cfg, "gen.gap_split", 300.0),
        seed=args.seed,
    )
    total = args.count if args.count is not None else get_int(cfg, "gen.total_count", 100)
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
    matched = [trajgen.map_to_roads(seg, net) for seg in segments]
    if not matched:
        raise ConfigError("input produced no usable segments")
    profile = trajgen.build_profile(matched, gen_cfg)
    generated, skipped = trajgen.generate_dataset(profile, net, gen_cfg, total, rng)

    _ensure_out(args.out)
    traj_path = os.path.join(args.out, "trajectories.csv")
    atomic_write(traj_path, lambda fh: trajgen.write_trajectories_csv(generated, fh))

    grid = trajgen.density_grid(generated, args.grid_cell)

    def write_grid(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell_x", "cell_y", "count"])
        for (cx, cy), count in sorted(grid.items()):
            writer.writerow([cx, cy, count])

    atomic_write(os.path.join(args.out, "density_grid.csv"), write_grid)

    hours = np.zeros(trajgen.HOURS, dtype=int)
    for traj in generated:
        hours[traj.start_hour()] += 1

    def write_hist(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hour", "count", "profile_weight"])
        for h in range(trajgen.HOURS):
            writer.writerow([h, int(hours[h]), f"{profile.hour_histogram[h]:.9g}"])

    atomic_write(os.path.join(args.out, "hourly_histogram.csv"), write_hist)

    print(
        f"trajgen: {len(generated)} trajectories "
        f"({sum(len(t.points) for t in generated)} points), {skipped} skipped"
    )
    return EXIT_OK


# --- shared env/bundle assembly ---

def _build_env(scenario: dict[str, str], kind: Optional[str] = None) -> envsim.PremigrationEnv:
    cfg = dict(scenario)
    if kind:
        cfg.update(policies.env_overrides(kind))
    return envsim.build_env(cfg)


def _scenario_with_reward_mode(scenario: dict[str, str], train_cfg_kv: dict[str, str]) -> dict[str, str]:
    out = dict(scenario)
    if "train.reward_mode" in train_cfg_kv:
        out["env.reward_mode"] = train_cfg_kv["train.reward_mode"]
    return out


def _checkpoint_bundle(
    path: str, tensors: dict, cfg: msrl.TrainConfig, env: envsim.PremigrationEnv
) -> tuple[msrl.PolicyBundle, int]:
    """The bundle and episode of checkpoint `path`, read as `tensors`, sized as the env."""
    try:
        bundle, episode = msrl.load_bundle(tensors, cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for what, saved, want in (
        ("agents", bundle.n_agents, env.V),
        ("obs_dim", bundle.obs_dim, env.obs_dim),
        ("actions", bundle.n_actions, env.E),
    ):
        if saved != want:
            raise ConfigError(
                f"checkpoint {path} has meta/{what} = {saved}, but the scenario needs {want}"
            )
    return bundle, episode


def cmd_train(args) -> int:
    scenario = load_kv(args.scenario)
    train_kv = load_kv(args.train_cfg) if args.train_cfg else {}
    scenario = _scenario_with_reward_mode(scenario, train_kv)
    kind = args.policy or get_str(train_kv, "train.policy", policies.SPLIT)
    if kind not in policies.LEARNED_KINDS:
        raise ConfigError(f"cannot train policy kind {kind!r}")
    episodes = {} if args.episodes is None else {"episodes": args.episodes}
    cfg = msrl.train_config_from(
        train_kv, seed=args.seed, mode=policies.LEARNED_KINDS[kind], **episodes
    )
    env = _build_env(scenario, kind)

    bundle = None
    start_episode = 0
    if args.resume:
        tensors = neuralcore.load_checkpoint(args.resume)
        bundle, last_episode = _checkpoint_bundle(args.resume, tensors, cfg, env)
        start_episode = last_episode + 1

    _ensure_out(args.out)
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
    last = stats_list[-1] if stats_list else None
    print(
        f"train: {len(stats_list)} episodes, "
        f"final mean_reward={last.mean_reward:.6g}" if last else "train: 0 episodes"
    )
    return EXIT_OK


# --- eval ---

EVAL_HEADER = [
    "policy", "episodes", "mean_reward", "mean_qoe", "mean_latency",
    "mean_err", "mean_active_params",
]


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
    env = _build_env(scenario, kind)
    bundle = _load_bundle_for(kind, args, train_kv, env, _read_checkpoint(args, [kind]))
    rng = np.random.default_rng([args.seed, 11])
    act = policies.make_act_fn(kind, env, bundle=bundle, rng=rng)

    rows: list[list] = []

    def on_slot(ep, slot, v, m):
        rows.append(envsim.metrics_row(ep, slot, v, m))

    summary = msrl.run_episodes(env, act, args.episodes, args.seed * 1000, on_slot=on_slot)

    _ensure_out(args.out)

    def write_summary(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EVAL_HEADER)
        writer.writerow(
            [
                kind, summary.episodes, f"{summary.mean_reward:.9g}",
                f"{summary.mean_qoe:.9g}", f"{summary.mean_latency:.9g}",
                f"{summary.mean_err:.9g}", f"{summary.mean_active_params:.9g}",
            ]
        )

    atomic_write(os.path.join(args.out, "eval_summary.csv"), write_summary)

    def write_metrics(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(envsim.METRICS_HEADER)
        writer.writerows(rows)

    atomic_write(os.path.join(args.out, "eval_metrics.csv"), write_metrics)
    print(
        f"eval: policy={kind} episodes={summary.episodes} "
        f"mean_reward={summary.mean_reward:.6g} mean_latency={summary.mean_latency:.6g}"
    )
    return EXIT_OK


# --- compare ---

COMPARE_HEADER = ["policy", "param_value", "metric", "mean", "stderr"]
COMPARE_METRICS = ("reward", "qoe", "latency", "err_rate", "active_params")


def apply_sweep(scenario: dict[str, str], param: str, value: float) -> dict[str, str]:
    """Override one scenario parameter; unindexed rsu.<name> broadcasts."""
    out = dict(scenario)
    parts = param.split(".")
    if parts[0] == "rsu" and len(parts) == 2:
        name = parts[1]
        for key in list(out):
            kp = key.split(".")
            if len(kp) == 3 and kp[0] == "rsu" and kp[2] == name:
                del out[key]
    out[param] = repr(value)
    return out


def cmd_compare(args) -> int:
    scenario = load_kv(args.scenario)
    train_kv = load_kv(args.train_cfg) if args.train_cfg else {}
    kinds = [k.strip() for k in args.policy.split(",")] if args.policy else list(policies.KINDS)
    for kind in kinds:
        if kind not in policies.KINDS:
            raise ConfigError(f"unknown policy kind {kind!r}")
    try:
        values = [float(v) for v in args.sweep_values.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {args.sweep_values!r}") from None
    if not values:
        raise ConfigError("empty sweep value list")

    results: list[list] = []
    tensors = _read_checkpoint(args, kinds)
    for vi, value in enumerate(values):
        swept = apply_sweep(scenario, args.sweep_param, value)
        for kind in kinds:
            env = _build_env(swept, kind)
            bundle = _load_bundle_for(kind, args, train_kv, env, tensors)
            rng = np.random.default_rng([args.seed, 13, vi])
            act = policies.make_act_fn(kind, env, bundle=bundle, rng=rng)
            # Episode seeds are paired across policies at each sweep point.
            seed_base = args.seed * 100_000 + vi * 1_000
            per_episode = {m: [] for m in COMPARE_METRICS}
            for ep in range(args.episodes):
                s = msrl.run_episodes(env, act, 1, seed_base + ep)
                per_episode["reward"].append(s.mean_reward)
                per_episode["qoe"].append(s.mean_qoe)
                per_episode["latency"].append(s.mean_latency)
                per_episode["err_rate"].append(s.mean_err)
                per_episode["active_params"].append(s.mean_active_params)
            for metric in COMPARE_METRICS:
                arr = np.array(per_episode[metric])
                stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
                results.append(
                    [kind, f"{value:.9g}", metric, f"{arr.mean():.9g}", f"{stderr:.9g}"]
                )

    _ensure_out(args.out)

    def write_results(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMPARE_HEADER)
        writer.writerows(results)

    atomic_write(os.path.join(args.out, "compare_results.csv"), write_results)
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
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as exc:
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
