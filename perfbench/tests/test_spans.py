"""The tracer's arithmetic and its agreement with BENCHMARK.json."""

import json
import os

import numpy as np
import pytest

import spans
from spans import PER_LAYER, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_times_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [8, 12], which runs past the root's end; a has a child d [2, 3].
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    got = self_times(parent, start, end)
    # root: 10 - |[1, 6] u [8, 10]| = 3; a: 3 - 1; b, c, d have no children.
    assert got.tolist() == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_self_times_of_recorded_nesting_sum_to_root():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap_span("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    root = tracer.wrap_span("root", lambda: (tracer.wrap_span("middle", middle)(), leaf()))
    root()
    a = tracer.arrays()
    selfs = self_times(a["parent"], a["start"], a["end"])
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["root", "middle", "leaf", "leaf", "leaf"]
    # root 0..9, middle 1..6, leaves 2..3, 4..5 and 7..8.
    assert selfs.tolist() == [9.0 - 5.0 - 1.0, 5.0 - 2.0, 1.0, 1.0, 1.0]
    assert selfs.sum() == a["end"][0] - a["start"][0]


def test_install_restore_leaves_program_untouched():
    targets = spans.SPANS + spans.COUNTERS + [(spans.policies, "make_act_fn", None)]
    before = [o.__dict__[a] if isinstance(o, type) else getattr(o, a) for o, a, _ in targets]
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    after = [o.__dict__[a] if isinstance(o, type) else getattr(o, a) for o, a, _ in targets]
    assert all(x is y for x, y in zip(before, after))


def test_expected_spans_cover_every_patch():
    patched = {name for _, _, name in spans.SPANS + spans.COUNTERS} | {spans.ACT_SPAN}
    assert set().union(*spans.EXPECTED.values()) == patched


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", "op_ref_s_p50", "work_per_ref_s"]


@pytest.mark.parametrize("metric", sorted(PER_LAYER))
def test_every_per_layer_metric_has_a_rule(metric):
    tracer = Tracer()
    values = tracer.layer_metrics(runs=1, traced_wall=1.0, untraced_op_s=1.0, traced_op_s=1.0)
    assert np.isfinite(values[metric])
