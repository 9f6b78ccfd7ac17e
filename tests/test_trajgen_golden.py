"""Golden outputs of tiny fixed-seed `vtmigsim trajgen` runs.

The digests pin the CLI's byte-identical-output promise for trajectory
synthesis: any change to routing, map matching, sampling or CSV formatting
that alters a single byte of output fails here. One run learns from synthetic
tracks; the other reads a `gen.input` CSV whose points lie between roads and
beyond the network's bounding box, so the full-scan fall-back of map matching
is pinned end to end too.
"""

import hashlib
from unittest import mock

import pytest

from vtmigsim import cli, trajgen

GRID = 7           # nodes per side
SPACING_M = 180.0

# Recorded with the dict-based Dijkstra and full-scan map_match.
GOLDEN = {
    3: {
        "trajectories.csv": "9e508f1f0c296317429be796ad39cb404bfa33da34f91011af407b028fe4e33c",
        "density_grid.csv": "851cc52f0265f9a39874de2a120a1d5b222c35d421c69b7a38c758d18f05f214",
        "hourly_histogram.csv": "6dfa8e73f5b2cef8931e1e9b6e46228956aeb542fb2befa59cd20ab874f2ab7f",
    },
    11: {
        "trajectories.csv": "e7fba3ed6bdbb08cc7b4c1c5c85f1ae408f29b3bf80a82538b9a4c6e3a2862f6",
        "density_grid.csv": "ed13087c6b8dd252050977669b63cc0c61b33430c944f4c4344ee34e520e58f2",
        "hourly_histogram.csv": "ca40ba33e1884b040dacbd83087fc530c4b509b5224a3a51613c2e6a0c990b5f",
    },
}


def _write_inputs(tmp_path):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    lines = ["node_id,x,y"]
    for i in range(GRID):
        for j in range(GRID):
            lines.append(f"{i * GRID + j},{j * SPACING_M},{i * SPACING_M}")
    nodes.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["from,to,length_m,speed_mps"]
    for i in range(GRID):
        for j in range(GRID):
            n = i * GRID + j
            if j + 1 < GRID:
                lines.append(f"{n},{n + 1},,13.9")
            if i + 1 < GRID:
                # every third vertical segment is a slower, longer detour
                length = f"{SPACING_M * 1.5}" if (i + j) % 3 == 0 else ""
                lines.append(f"{n},{n + GRID},{length},13.9")
    edges.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(
        f"roadnet.nodes = {nodes}\n"
        f"roadnet.edges = {edges}\n"
        "gen.synthetic_count = 25\n",
        encoding="utf-8",
    )
    return cfg


def _digests(tmp_path, seed):
    cfg = _write_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["trajgen", "--gen-cfg", str(cfg), "--out", str(out), "--seed", str(seed),
            "--count", "15", "--grid-cell", "200", "--synthetic-profile"]
    assert cli.main(argv) == cli.EXIT_OK
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN[seed]
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_trajgen_outputs_match_golden(tmp_path, seed):
    assert _digests(tmp_path, seed) == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_trajgen_searches_each_distinct_pair_once(tmp_path, seed):
    """synthetic_truth and generate_route ask for some pairs again; the run's
    searches are its distinct pairs, one each, and its outputs stay golden."""
    requested, searched = [], []
    route, search = trajgen._route, trajgen.shortest_path

    def counted_route(net, src, dst):
        requested.append((src, dst))
        return route(net, src, dst)

    def counted_search(net, src, dst):
        searched.append((src, dst))
        return search(net, src, dst)

    with mock.patch.object(trajgen, "_route", counted_route), \
            mock.patch.object(trajgen, "shortest_path", counted_search):
        assert _digests(tmp_path, seed) == GOLDEN[seed]
    assert sorted(searched) == sorted(set(requested))
    assert len(requested) > len(searched)


# Recorded with the per-point bucket-indexed map_match.
INPUT_GOLDEN = {
    "trajectories.csv": "36f0f2222cb2d6d321d8a0791bd2b3366a3159a04dd819ea4c98102d3cf94bc9",
    "density_grid.csv": "7d425316a22b54112949f6ab7828647a22144a864732f0b79663c91609fa05fe",
    "hourly_histogram.csv": "75951a53a2c057f9d9a313aedb7755522d4dbfc4aa6458425a048af48a8a986f",
}


def _write_tracks(tmp_path):
    """Raw tracks sweeping west to east across the grid, from 300 m before it
    to 300 m past it. Even vehicles run along block middles (90 m from the
    nearest horizontal road), odd ones near a road; a few rows repeat a point
    or run south of the grid."""
    lines = ["vehicle_id,t,x,y"]
    for v in range(8):
        t = (3 * v + 6) * 3600.0 + 17.5 * v
        y = 180.0 * (v % 6) + (90.0 if v % 2 == 0 else 4.0 * v)
        for k in range(14):
            x = -300.0 + 130.0 * k + 7.0 * v
            yk = -260.0 if v == 3 and k > 10 else y + (35.0 if k % 3 == 0 else 0.0)
            lines.append(f"{v},{t:.3f},{x:.3f},{yk:.3f}")
            if k == 5:
                lines.append(f"{v},{t + 20.0:.3f},{x:.3f},{yk:.3f}")
                t += 20.0
            t += 40.0
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tracks


def test_trajgen_from_off_road_input_matches_golden(tmp_path):
    cfg = _write_inputs(tmp_path)
    tracks = _write_tracks(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(
        "gen.synthetic_count = 25\n", f"gen.input = {tracks}\n"), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["trajgen", "--gen-cfg", str(cfg), "--out", str(out), "--seed", "5",
            "--count", "20", "--grid-cell", "150"]
    assert cli.main(argv) == cli.EXIT_OK
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in INPUT_GOLDEN
    }
    assert digests == INPUT_GOLDEN
