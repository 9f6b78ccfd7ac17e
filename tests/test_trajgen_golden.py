"""Golden outputs of a tiny fixed-seed `vtmigsim trajgen` run.

The digests pin the CLI's byte-identical-output promise for trajectory
synthesis: any change to routing, map matching, sampling or CSV formatting
that alters a single byte of output fails here.
"""

import hashlib

import pytest

from vtmigsim import cli

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
