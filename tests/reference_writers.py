"""The CSV row writers as they were before the row-format strings, kept as an oracle.

Each one turns its numbers into text with one f-string per value and writes
the rows through `csv.writer`. The format strings of `envsim`, `msrl`,
`trajgen` and `cli` must reproduce their bytes exactly.
"""

from __future__ import annotations

import csv
import io


def csv_text(rows) -> str:
    """`rows` as `csv.writer` writes them, one line each."""
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows(rows)
    return fh.getvalue()


def metrics_rows(episode, slot, metrics) -> list[list]:
    """A slot's eval metrics rows, one per vehicle in id order: the metrics
    fields from `action` to `remapped`."""
    return [
        [episode, slot, v, action, serving, *(f"{x:.9g}" for x in floats), int(remapped)]
        for v, (action, serving, *floats, remapped, _, _, _, _) in enumerate(metrics.tolist())
    ]


def report_row(s) -> list:
    return [
        s.episode, f"{s.mean_reward:.9g}", f"{s.mean_qoe:.9g}", f"{s.mean_latency:.9g}",
        f"{s.mean_err:.9g}", f"{s.active_params:.9g}", f"{s.server_ratio:.9g}",
        s.switches, f"{s.threshold:.9g}",
    ]


def eval_summary_row(kind, episodes, means) -> list:
    return [kind, episodes, *(f"{m:.9g}" for m in means)]


def compare_row(kind, value, metric, mean, stderr) -> list:
    return [kind, f"{value:.9g}", metric, f"{mean:.9g}", f"{stderr:.9g}"]


def write_trajectories_csv(trajs, fh) -> int:
    """Write trajectories; returns the number of point rows written."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["vehicle_id", "t", "x", "y"])
    rows = 0
    for traj in trajs:
        vid = traj.vehicle_id
        writer.writerows([vid, f"{t:.6f}", f"{x:.6f}", f"{y:.6f}"]
                         for t, (x, y) in zip(traj.t.tolist(), traj.xy.tolist()))
        rows += len(traj.t)
    return rows
