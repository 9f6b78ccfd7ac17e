"""Span tracing of vtmigsim from outside, and the per-layer metrics.

The tracer replaces a module attribute or class method with a wrapper that
records a span (name, parent, start, end) in flat in-memory arrays. Each name
is patched where its caller looks it up: ``trajgen`` imports ``map_match`` and
``shortest_path`` by name, and ``cli`` imports ``load_kv`` and
``load_network`` by name. The scalar env helpers run hundreds of thousands of
times per compare run, so they only count calls, keyed by the span open
around them. ``restore()`` puts every original back.

A span's self time is its duration minus the part of its interval covered by
its child spans.
"""

from __future__ import annotations

import os
import time
from array import array
from typing import Callable, Optional

import numpy as np

from vtmigsim import cli, envsim, msrl, neuralcore, policies, trajgen

# (owner, attribute, span name). Spans without a per-layer metric of their own
# (generate_route, density_grid, msrl.train, ...) are there so that the named
# spans explain at least 90% of the traced wall time.
SPANS = [
    (cli, "cmd_trajgen", "cli.command"),
    (cli, "cmd_train", "cli.command"),
    (cli, "cmd_compare", "cli.command"),
    (cli, "atomic_write", "cli.atomic_write"),
    (cli, "load_kv", "configio.load_kv"),
    (cli, "load_network", "roadnet.load_network"),
    (trajgen, "map_match", "roadnet.map_match"),
    (trajgen, "shortest_path", "roadnet.shortest_path"),
    (trajgen, "synthetic_truth", "trajgen.synthetic_truth"),
    (trajgen, "clean_and_segment", "trajgen.clean_and_segment"),
    (trajgen, "map_to_roads", "trajgen.map_to_roads"),
    (trajgen, "build_profile", "trajgen.build_profile"),
    (trajgen, "generate_dataset", "trajgen.generate_dataset"),
    (trajgen, "generate_route", "trajgen.generate_route"),
    (trajgen, "assign_times", "trajgen.assign_times"),
    (trajgen, "interpolate", "trajgen.interpolate"),
    (trajgen, "density_grid", "trajgen.density_grid"),
    (trajgen.KdeModel, "sample", "trajgen.KdeModel.sample"),
    (envsim, "build_env", "envsim.build_env"),
    (envsim.PremigrationEnv, "reset", "envsim.reset"),
    (envsim.PremigrationEnv, "step", "envsim.step"),
    (neuralcore.SplitActor, "forward_client", "neuralcore.SplitActor.forward_client"),
    (neuralcore.SplitActor, "forward_server", "neuralcore.SplitActor.forward_server"),
    (neuralcore.SplitActor, "path_logits", "neuralcore.SplitActor.path_logits"),
    (neuralcore.SplitActor, "path_backward", "neuralcore.SplitActor.path_backward"),
    (neuralcore.Critic, "value", "neuralcore.Critic.value"),
    (neuralcore.Critic, "forward", "neuralcore.Critic.forward"),
    (neuralcore.Critic, "backward", "neuralcore.Critic.backward"),
    (neuralcore.Adam, "step", "neuralcore.Adam.step"),
    (neuralcore, "save_checkpoint", "neuralcore.save_checkpoint"),
    (neuralcore, "load_checkpoint", "neuralcore.load_checkpoint"),
    (msrl, "train", "msrl.train"),
    (msrl, "make_bundle", "msrl.make_bundle"),
    (msrl, "load_bundle", "msrl.load_bundle"),
    (msrl, "train_episode", "msrl.train_episode"),
    (msrl, "collect_episode", "msrl.collect_episode"),
    (msrl, "compute_qhat", "msrl.compute_qhat"),
    (msrl, "compute_advantage", "msrl.compute_advantage"),
    (msrl, "run_episodes", "msrl.run_episodes"),
    (msrl.SwitchController, "select", "msrl.SwitchController.select"),
]
COUNTERS = [
    (envsim.PremigrationEnv, "position", "envsim.position"),
    (envsim.PremigrationEnv, "nearest_rsu", "envsim.nearest_rsu"),
    (envsim.PremigrationEnv, "transmission_latencies", "envsim.transmission_latencies"),
]
# policies.act wraps the closures make_act_fn returns.
ACT_SPAN = "policies.act"
ROOT_SPAN = "cli.command"

_COMMON = {ROOT_SPAN, "configio.load_kv"}
_ENV = {"envsim.build_env", "envsim.reset", "envsim.step", "envsim.position",
        "envsim.nearest_rsu", "envsim.transmission_latencies", "msrl.make_bundle",
        "msrl.SwitchController.select", "neuralcore.SplitActor.forward_client",
        "neuralcore.SplitActor.forward_server"}
# Spans and counters that must fire in a traced run of each workload; one that
# does not means a patch sits on a name its caller no longer uses.
EXPECTED = {
    "trajgen_grid40": _COMMON | {
        "cli.atomic_write", "roadnet.load_network", "roadnet.map_match",
        "roadnet.shortest_path", "trajgen.synthetic_truth", "trajgen.clean_and_segment",
        "trajgen.map_to_roads", "trajgen.build_profile", "trajgen.generate_dataset",
        "trajgen.generate_route", "trajgen.assign_times", "trajgen.interpolate",
        "trajgen.density_grid", "trajgen.KdeModel.sample",
    },
    "train_e9v32": _COMMON | _ENV | {
        "msrl.train", "msrl.train_episode", "msrl.collect_episode", "msrl.compute_qhat",
        "msrl.compute_advantage", "neuralcore.SplitActor.path_logits",
        "neuralcore.SplitActor.path_backward", "neuralcore.Critic.value",
        "neuralcore.Critic.forward", "neuralcore.Critic.backward", "neuralcore.Adam.step",
        "neuralcore.save_checkpoint",
    },
    "compare_e16v128": _COMMON | _ENV | {
        "cli.atomic_write", "neuralcore.load_checkpoint", "msrl.load_bundle",
        "msrl.run_episodes", ACT_SPAN,
    },
}

# Per-layer metrics in output order, with units. Values are per traced CLI
# run (".calls", ".self_s", ".s") or per call (percentiles, ".bytes").
PER_LAYER = {
    "roadnet.shortest_path.calls": "count",
    "roadnet.shortest_path.self_s": "s",
    "roadnet.shortest_path.ms_p50": "ms",
    "roadnet.map_match.calls": "count",
    "roadnet.map_match.self_s": "s",
    "roadnet.map_match.us_p50": "us",
    "roadnet.load_network.self_s": "s",
    "trajgen.synthetic_truth.self_s": "s",
    "trajgen.clean_and_segment.self_s": "s",
    "trajgen.map_to_roads.self_s": "s",
    "trajgen.build_profile.self_s": "s",
    "trajgen.generate_dataset.self_s": "s",
    "trajgen.assign_times.self_s": "s",
    "trajgen.KdeModel.sample.self_s": "s",
    "trajgen.interpolate.calls": "count",
    "trajgen.interpolate.self_s": "s",
    "trajgen.route_attempts_per_traj": "ratio",
    "trajgen.skip_ratio": "ratio",
    "envsim.build_env.self_s": "s",
    "envsim.step.calls": "count",
    "envsim.step.self_s": "s",
    "envsim.step.ms_p50": "ms",
    "envsim.step.ms_p99": "ms",
    "envsim.reset.self_s": "s",
    "envsim.warmup_step.share": "ratio",
    "envsim.position.calls_per_step": "count/step",
    "envsim.nearest_rsu.calls_per_step": "count/step",
    "envsim.transmission_latencies.calls_per_step": "count/step",
    "envsim.remap_ratio": "ratio",
    "envsim.contention_ratio": "ratio",
    "neuralcore.SplitActor.forward_client.calls": "count",
    "neuralcore.SplitActor.forward_client.self_s": "s",
    "neuralcore.SplitActor.forward_server.calls": "count",
    "neuralcore.SplitActor.forward_server.self_s": "s",
    "neuralcore.SplitActor.path_logits.self_s": "s",
    "neuralcore.SplitActor.path_backward.self_s": "s",
    "neuralcore.Critic.value.self_s": "s",
    "neuralcore.Critic.forward.self_s": "s",
    "neuralcore.Critic.backward.self_s": "s",
    "neuralcore.Adam.step.calls": "count",
    "neuralcore.Adam.step.self_s": "s",
    "neuralcore.save_checkpoint.s": "s",
    "neuralcore.save_checkpoint.bytes": "B",
    "neuralcore.load_checkpoint.calls": "count",
    "neuralcore.load_checkpoint.s": "s",
    "msrl.collect_episode.self_s": "s",
    "msrl.compute_qhat.self_s": "s",
    "msrl.compute_advantage.self_s": "s",
    "msrl.train_episode.self_s": "s",
    "msrl.run_episodes.self_s": "s",
    "msrl.load_bundle.self_s": "s",
    "msrl.SwitchController.select.calls": "count",
    "msrl.SwitchController.select.self_s": "s",
    "msrl.server_ratio": "ratio",
    "policies.act.calls": "count",
    "policies.act.self_s": "s",
    "cli.command.self_s": "s",
    "cli.atomic_write.self_s": "s",
    "configio.load_kv.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    parent[i] is the index of span i's parent, or -1. Child intervals are
    clipped to the parent's interval and merged where they overlap.
    """
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    order = np.lexsort((start, parent))
    current, lo, hi, p_start, p_end = -1, 0.0, 0.0, 0.0, 0.0
    for i in order[parent[order] >= 0]:
        p = parent[i]
        if p != current:
            if current >= 0:
                out[current] -= hi - lo
            current, p_start, p_end = p, start[p], end[p]
            lo = hi = p_start
        s, e = max(start[i], p_start), min(end[i], p_end)
        if e <= s:
            continue
        if s > hi:
            out[p] -= hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if current >= 0:
        out[current] -= hi - lo
    return out


class Tracer:
    """Records spans and counts while installed; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[tuple[int, int], int] = {}
        self.tally: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key: str, amount: float) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + amount

    def wrap_span(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        nid = self.name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, self.clock

        def span(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return span

    def wrap_counter(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)
        counts, names, stack = self.counts, self.span_name, self._stack

        def counter(*args, **kwargs):
            key = (nid, names[stack[-1]] if stack else -1)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counter

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        observers = {
            "envsim.step": self._observe_step,
            "msrl.SwitchController.select": self._observe_select,
            "trajgen.generate_dataset": self._observe_dataset,
            "neuralcore.save_checkpoint": self._observe_save,
        }
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._replace(owner, attr, self.wrap_span(name, fn, observers.get(name)))
        for owner, attr, name in COUNTERS:
            self._replace(owner, attr, self.wrap_counter(name, owner.__dict__[attr]))
        make_act_fn = policies.make_act_fn

        def traced_make_act_fn(*args, **kwargs):
            return self.wrap_span(ACT_SPAN, make_act_fn(*args, **kwargs))

        self._replace(policies, "make_act_fn", traced_make_act_fn)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- observers: ratios measured where the work happens ---

    def _observe_step(self, idx: int, args: tuple, result) -> None:
        parent = self.span_parent[idx]
        if parent >= 0 and self.names[self.span_name[parent]] == "envsim.reset":
            return  # warm-up calibration slot
        metrics = result.metrics
        self.add("vehicle_slots", len(metrics))
        self.add("remapped", sum(m.remapped for m in metrics))
        self.add("contended", sum(m.contention for m in metrics))
        self.add("range_violations", sum(
            not (m.t_total >= 0 and 0 <= m.err_rate < 1) for m in metrics))

    def _observe_select(self, idx: int, args: tuple, result) -> None:
        self.add("server_choices", result[0] == neuralcore.SERVER)

    def _observe_dataset(self, idx: int, args: tuple, result) -> None:
        generated, skipped = result
        self.add("dataset_jobs", len(generated) + skipped)
        self.add("dataset_skipped", skipped)

    def _observe_save(self, idx: int, args: tuple, result) -> None:
        self.add("checkpoint_bytes", os.path.getsize(args[0]))

    # --- results ---

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def fired(self) -> set[str]:
        ids = set(self.span_name) | {nid for nid, _ in self.counts}
        return {self.names[i] for i in ids}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, runs: int, traced_wall: float, untraced_op_s: float,
                      traced_op_s: float) -> dict[str, float]:
        """Every PER_LAYER value; layers that did no work read 0."""
        a = self.arrays()
        selfs = self_times(a["parent"], a["start"], a["end"])
        durations = a["end"] - a["start"]
        by_name = {name: a["name"] == nid for name, nid in self._ids.items()}

        def sel(name: str) -> np.ndarray:
            return by_name.get(name, np.zeros(len(selfs), dtype=bool))

        def pct(name: str, q: float, scale: float) -> float:
            d = durations[sel(name)]
            return float(np.percentile(d, q)) * scale if d.size else 0.0

        def count_in(counter: str, span: str) -> int:
            key = (self._ids.get(counter, -1), self._ids.get(span, -2))
            return self.counts.get(key, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        step = sel("envsim.step")
        parent = a["parent"]
        under_reset = np.zeros(len(selfs), dtype=bool)
        under_reset[parent >= 0] = a["name"][parent[parent >= 0]] == self._ids.get("envsim.reset", -2)
        t = self.tally.get
        special = {
            "roadnet.shortest_path.ms_p50": pct("roadnet.shortest_path", 50, 1e3),
            "roadnet.map_match.us_p50": pct("roadnet.map_match", 50, 1e6),
            "envsim.step.ms_p50": pct("envsim.step", 50, 1e3),
            "envsim.step.ms_p99": pct("envsim.step", 99, 1e3),
            "envsim.warmup_step.share": ratio(durations[step & under_reset].sum(), durations[step].sum()),
            "envsim.remap_ratio": ratio(t("remapped", 0), t("vehicle_slots", 0)),
            "envsim.contention_ratio": ratio(t("contended", 0), t("vehicle_slots", 0)),
            "trajgen.route_attempts_per_traj": ratio(sel("trajgen.generate_route").sum(), t("dataset_jobs", 0)),
            "trajgen.skip_ratio": ratio(t("dataset_skipped", 0), t("dataset_jobs", 0)),
            "neuralcore.save_checkpoint.bytes": ratio(
                t("checkpoint_bytes", 0), sel("neuralcore.save_checkpoint").sum()),
            "msrl.server_ratio": ratio(t("server_choices", 0), sel("msrl.SwitchController.select").sum()),
            "trace.overhead_ratio": ratio(traced_op_s, untraced_op_s),
            "trace.coverage": ratio(selfs[a["name"] != self._ids.get(ROOT_SPAN, -2)].sum(), traced_wall),
        }
        out = {}
        for metric in PER_LAYER:
            if metric in special:
                out[metric] = float(special[metric])
                continue
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = float(sel(span).sum()) / runs
            elif kind == "self_s":
                out[metric] = float(selfs[sel(span)].sum()) / runs
            elif kind == "s":
                out[metric] = float(durations[sel(span)].sum()) / runs
            elif kind == "calls_per_step":
                out[metric] = ratio(count_in(span, "envsim.step"), step.sum())
            else:
                raise KeyError(f"no rule for per-layer metric {metric}")
        return out
