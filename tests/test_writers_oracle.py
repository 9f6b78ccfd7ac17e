"""Every CSV row format against the `csv.writer` rows it replaced, byte for byte.

The goldens pin a few tiny runs; these draw the values no golden reaches:
±0.0, subnormals, magnitudes from 1e-300 to 1e300, ±inf and nan, numpy
float64 means, bools, and ids and episodes past int64.
"""

import io
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_writers as ref
from vtmigsim import cli, envsim, msrl, policies, trajgen

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300,
               1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 2.5, 1e16]
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.tuples(st.floats(-10, 10), st.integers(-300, 300)).map(lambda p: p[0] * 10.0 ** p[1]),
)
NUMBERS = st.one_of(FLOATS, FLOATS.map(np.float64))  # compare's means are numpy floats
INTS = st.one_of(st.integers(-2**80, 2**80), st.integers(-2**63, 2**63 - 1).map(np.int64))
COUNTS = st.integers(0, 2**80)


def table_text(header, row_format, rows) -> str:
    """The bytes `cli.write_table` writes for these rows, as text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        cli.write_table(path, header, row_format, rows)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 4), episode=COUNTS, slot=COUNTS)
def test_eval_metrics_rows_match_the_csv_writer(data, n, episode, slot):
    metrics = np.zeros(n, envsim.SLOT_METRICS).view(np.recarray)
    for name in envsim.SLOT_METRICS.names:
        kind = envsim.SLOT_METRICS[name].kind
        values = {"b": st.booleans(), "i": st.integers(-2**63, 2**63 - 1)}.get(kind, FLOATS)
        metrics[name] = data.draw(st.lists(values, min_size=n, max_size=n), label=name)
    records = metrics[envsim.METRICS_FIELDS].tolist()
    got = table_text(envsim.METRICS_HEADER, envsim.METRICS_ROW,
                     [(episode, slot, v, *r) for v, r in enumerate(records)])
    want = ref.csv_text([envsim.METRICS_HEADER, *ref.metrics_rows(episode, slot, metrics)])
    assert got == want


@settings(max_examples=200, deadline=None)
@given(episode=st.integers(0, 2**80), floats=st.lists(FLOATS, min_size=8, max_size=8),
       switches=COUNTS)
def test_train_report_row_matches_the_csv_writer(episode, floats, switches):
    stats = msrl.EpisodeStats(episode, *floats[:6], switches, *floats[6:])
    got = msrl.REPORT_ROW % msrl.report_row(stats)
    assert got == ref.csv_text([ref.report_row(stats)])


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(policies.KINDS), episodes=st.integers(1, 2**80),
       means=st.lists(NUMBERS, min_size=len(cli.EVAL_MEANS), max_size=len(cli.EVAL_MEANS)))
def test_eval_summary_row_matches_the_csv_writer(kind, episodes, means):
    got = table_text(cli.EVAL_HEADER, cli.EVAL_ROW, [(kind, episodes, *means)])
    assert got == ref.csv_text([cli.EVAL_HEADER, ref.eval_summary_row(kind, episodes, means)])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(policies.KINDS), FLOATS,
                               st.sampled_from(cli.COMPARE_METRICS), NUMBERS, FLOATS)))
def test_compare_rows_match_the_csv_writer(rows):
    got = table_text(cli.COMPARE_HEADER, cli.COMPARE_ROW, rows)
    assert got == ref.csv_text([cli.COMPARE_HEADER, *(ref.compare_row(*row) for row in rows)])


@settings(max_examples=200, deadline=None)
@given(tracks=st.lists(st.tuples(INTS, st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=4)),
                       max_size=4))
def test_trajectory_rows_match_the_csv_writer(tracks):
    trajs = [trajgen.Trajectory(vid, [p[0] for p in points], [p[1:] for p in points])
             for vid, points in tracks]
    got, want = io.StringIO(), io.StringIO()
    assert trajgen.write_trajectories_csv(trajs, got) == ref.write_trajectories_csv(trajs, want)
    assert got.getvalue() == want.getvalue()
