"""Command-line experiment runner.

Subcommands: `trajgen` (synthesize trajectories and density/histogram data),
`train` (run the switching trainer, emit per-episode report and checkpoints),
`eval` (greedy evaluation of a checkpoint or heuristic), and `compare`
(parameter sweeps across policies, long-format CSV output).

All primary outputs are written atomically (a `<name>.<pid>.partial` file
renamed on completion, removed on any failure) and are byte-identical across
runs with the same seed, inputs and commit. Learner outputs are byte-identical
only within one CPU class: one OpenBLAS kernel and one set of numpy SIMD targets.
Exit codes: 0 success, 2 config error, 3 training abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import envsim, msrl, neuralcore, policies, trajgen
from .configio import ConfigError, ReadLog, check, get_int, get_str, load_kv, read_config
from .roadnet import load_network

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_IO = 4


def atomic_write(path: str, write_fn: Callable):
    """Write `path` through `neuralcore.partial_file`, so a failure, a training
    abort among them, leaves no `.partial` file; returns what `write_fn(fh)` returns."""
    with neuralcore.partial_file(path, "w", encoding="utf-8", newline="") as fh:
        return write_fn(fh)


def write_table(path: str, header: Sequence[str], row_format: str, rows: Iterable[tuple]) -> None:
    """Write a CSV table through `atomic_write`: the header line, then
    `row_format % row` for each row tuple."""
    atomic_write(path, lambda fh: fh.write(
        "".join([",".join(header) + "\n", *(row_format % row for row in rows)])))


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
        count = check("gen.synthetic_count", get_int(cfg, "gen.synthetic_count", 200), ">= 1")
        raw = trajgen.synthetic_truth(net, count, rng)
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
    points = atomic_write(os.path.join(args.out, "trajectories.csv"),
                          lambda fh: trajgen.write_trajectories_csv(generated, fh))
    write_table(
        os.path.join(args.out, "density_grid.csv"), ["cell_x", "cell_y", "count"], "%d,%d,%d\n",
        ((cx, cy, count) for (cx, cy), count in sorted(grid.items())),
    )

    starts = [traj.t[0] for traj in generated]
    hours = np.bincount(trajgen.hour_of(starts), minlength=trajgen.HOURS)
    write_table(
        os.path.join(args.out, "hourly_histogram.csv"), ["hour", "count", "profile_weight"],
        "%d,%d,%.9g\n", zip(range(trajgen.HOURS), hours.tolist(), profile.hour_histogram.tolist()),
    )

    print(f"trajgen: {len(generated)} trajectories ({points} points), {skipped} skipped")
    return EXIT_OK


# --- shared env/bundle assembly ---

def _build_env(
    scenario: dict[str, str], kind: str, train_kv: dict[str, str],
    sweep: Optional[tuple[str, str]] = None,
) -> envsim.PremigrationEnv:
    """The env of `kind`'s episodes: the scenario as written, checked by `build_env`,
    then `policies.env_overrides(kind)` and `train.reward_mode` in place of `env.reward_mode`.

    `sweep` = (key, value) goes through `envsim.apply_sweep`. A swept key that `build_env`
    does not read is a config error."""
    cfg = ReadLog(scenario if sweep is None else envsim.apply_sweep(scenario, *sweep))
    overrides = policies.env_overrides(kind)
    if "train.reward_mode" in train_kv:
        overrides["reward_mode"] = check("train.reward_mode", train_kv["train.reward_mode"],
                                         envsim.REWARD_MODES)
    env = envsim.build_env(cfg, **overrides)
    if sweep is not None and sweep[0] not in cfg.read:
        raise ConfigError(f"--sweep-param {sweep[0]!r} is not a scenario key that the env reads")
    return env


def _checkpoint_bundle(
    path: str, tensors: dict, cfg: msrl.TrainConfig, env: envsim.PremigrationEnv
) -> tuple[msrl.PolicyBundle, int]:
    """The bundle and episode of checkpoint `path`, read as `tensors`, sized as
    the env: its sizes are checked before a bundle of them is allocated."""
    try:
        meta = msrl.checkpoint_meta(tensors)
        for what, want in (("agents", env.V), ("obs_dim", env.obs_dim), ("actions", env.E)):
            if meta[what] != want:
                raise ConfigError(f"checkpoint {path} has meta/{what} = {meta[what]}, "
                                  f"but the scenario needs {want}")
        return msrl.load_bundle(tensors, cfg)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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

    def save_ckpt(name: str, bundle_now, episode: int) -> None:
        neuralcore.save_checkpoint(os.path.join(args.out, name),
                                   msrl.bundle_tensors(bundle_now, episode))

    def train_reporting(fh):
        """msrl.train, streaming one report row per episode to `fh`."""
        fh.write(",".join(msrl.REPORT_HEADER) + "\n")
        fh.flush()

        def on_episode(stats: msrl.EpisodeStats) -> None:
            fh.write(msrl.REPORT_ROW % msrl.report_row(stats))
            fh.flush()
            if ckpt_every > 0 and (stats.episode + 1) % ckpt_every == 0:
                # Known defect: on a fresh run `bundle` stays None until
                # msrl.train returns, so this save fails.
                save_ckpt(f"ckpt_ep{stats.episode}.txt", bundle, stats.episode)

        return msrl.train(env, cfg, bundle=bundle, start_episode=start_episode,
                          on_episode=on_episode)

    try:
        stats_list, bundle = atomic_write(os.path.join(args.out, "train_report.csv"),
                                          train_reporting)
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


# --- eval and compare ---

# The means of run_episodes' five columns, in order.
EVAL_MEANS = ["mean_reward", "mean_qoe", "mean_latency", "mean_err", "mean_active_params"]
EVAL_HEADER = ["policy", "episodes", *EVAL_MEANS]
EVAL_ROW = "%s,%d," + ",".join(["%.9g"] * len(EVAL_MEANS)) + "\n"


def _policy_runner(args, kinds: Sequence[str]) -> Callable[..., np.ndarray]:
    """The one evaluation path of `eval` and `compare`. It checks `kinds`, reads the
    scenario, the train config and, if a learned kind needs it, `--checkpoint` once, then
    returns run(kind, sweep, rng, seed_base, on_slot=None): the `msrl.run_episodes` columns
    of `--episodes` episodes of `kind` on the env of `sweep`, a (key, value) or None, with
    the `--checkpoint` bundle, a fresh one without it, or none for a heuristic."""
    for kind in kinds:
        if kind not in policies.KINDS:
            raise ConfigError(f"unknown policy kind {kind!r}")
    scenario = load_kv(args.scenario)
    train_kv = load_kv(args.train_cfg) if args.train_cfg else {}
    needed = args.checkpoint and any(kind in policies.LEARNED_KINDS for kind in kinds)
    tensors = neuralcore.load_checkpoint(args.checkpoint) if needed else None

    def run(kind, sweep, rng, seed_base, on_slot=None) -> np.ndarray:
        env = _build_env(scenario, kind, train_kv, sweep)
        bundle, mode = None, policies.LEARNED_KINDS.get(kind)
        if mode is not None:
            cfg = msrl.train_config_from(train_kv, seed=args.seed, mode=mode)
            bundle = (msrl.make_bundle(env.obs_dim, env.E, env.V, cfg) if tensors is None
                      else _checkpoint_bundle(args.checkpoint, tensors, cfg, env)[0])
        act = policies.make_act_fn(kind, env, bundle=bundle, rng=rng)
        return msrl.run_episodes(env, act, args.episodes, seed_base, on_slot)

    return run


def cmd_eval(args) -> int:
    kind = args.policy
    run = _policy_runner(args, [kind])
    rows: list[tuple] = []

    def on_slot(ep, slot, metrics):
        records = metrics[envsim.METRICS_FIELDS].tolist()
        rows.extend((ep, slot, v, *record) for v, record in enumerate(records))

    columns = run(kind, None, np.random.default_rng([args.seed, 11]), args.seed * 1000, on_slot)
    means = columns.reshape(5, -1).mean(axis=1).tolist()

    os.makedirs(args.out, exist_ok=True)
    write_table(os.path.join(args.out, "eval_summary.csv"), EVAL_HEADER, EVAL_ROW,
                [(kind, args.episodes, *means)])
    write_table(os.path.join(args.out, "eval_metrics.csv"), envsim.METRICS_HEADER,
                envsim.METRICS_ROW, rows)
    print(f"eval: policy={kind} episodes={args.episodes} "
          f"mean_reward={means[0]:.6g} mean_latency={means[2]:.6g}")
    return EXIT_OK


COMPARE_HEADER = ["policy", "param_value", "metric", "mean", "stderr"]
COMPARE_ROW = "%s,%.9g,%s,%.9g,%.9g\n"
COMPARE_METRICS = ("reward", "qoe", "latency", "err_rate", "active_params")  # EVAL_MEANS


def cmd_compare(args) -> int:
    kinds = [k.strip() for k in args.policy.split(",")] if args.policy else list(policies.KINDS)
    texts = [v.strip() for v in args.sweep_values.split(",") if v.strip()]
    try:
        values = [float(v) for v in texts]
    except ValueError:
        raise ConfigError(f"cannot parse sweep values {args.sweep_values!r}") from None
    if not values:
        raise ConfigError("empty sweep value list")
    run = _policy_runner(args, kinds)

    results: list[tuple] = []
    for vi, (text, value) in enumerate(zip(texts, values)):
        for kind in kinds:
            # Episode seeds are paired across policies at each sweep point.
            rng = np.random.default_rng([args.seed, 13, vi])
            columns = run(kind, (args.sweep_param, text), rng, args.seed * 100_000 + vi * 1_000)
            for metric, arr in zip(COMPARE_METRICS, columns.mean(axis=2)):  # episode means
                stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
                results.append((kind, value, metric, arr.mean(), stderr))

    os.makedirs(args.out, exist_ok=True)
    write_table(os.path.join(args.out, "compare_results.csv"), COMPARE_HEADER, COMPARE_ROW,
                results)
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
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
