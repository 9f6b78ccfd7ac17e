"""The column CSV reader against the per-field reader it replaced.

`roadnet.read_columns` parses each column of a file at once and reads the rows
one by one only to name the first bad one; `reference_roadnet.read_fields`
parses every field in turn. Both must give the same values (floats by their
bits, ids as Python ints, ids past int64 included) or raise the same
exception with the same message. Generated files mix valid and bad fields,
blank and whitespace rows, rows of another width, CRLF and bare CR line
ends, padding, quoted fields (with commas inside), NUL bytes and wrong
headers. `load_network` and `read_trajectories_csv` are compared whole with
their per-field versions on files of the same kind.
"""

import csv

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_roadnet as ref_roadnet
import reference_trajgen as ref_trajgen

from vtmigsim.roadnet import RoadNetworkError, load_network, read_columns
from vtmigsim.trajgen import read_trajectories_csv

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
WHOLE = settings(SETTINGS, max_examples=150)  # each example builds a network or tracks
KINDS = [int, float, None]
BAD = ["", " ", "x", "1.5", "2e3", "1_0", "0x1", "nan", "-inf", "1e999", "Infinity", "1__0",
       "abc def", "٣", "+.5", "\x00"]


def _int_text():
    return st.one_of(st.integers(-50, 50), st.integers(2**63 - 2, 2**64 + 2),
                     st.integers(-2**64, -2**63 + 2), st.just(10**400)).map(str)


def _float_text():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-1e6, 1e6).map(lambda x: f"{x:.3f}"),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(["1e-320", "-0.0", "0.1", "1E5", "  .5", "7."]),
    )


@st.composite
def fields_text(draw, kinds):
    """One row's field texts for columns of `kinds`, mostly valid, padded or quoted."""
    out = []
    for kind in kinds:
        if draw(st.integers(0, 19)) == 0:
            text = draw(st.sampled_from(BAD))
        else:
            text = draw(_int_text() if kind is int else _float_text())
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        text = pad + text + pad[::-1]
        if draw(st.integers(0, 9)) == 0:
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return out


@st.composite
def csv_lines(draw, header, kinds):
    """Lines of a CSV file: a header (rarely wrong), rows, blank rows, odd rows."""
    lines = [draw(st.sampled_from([",".join(header)] * 8 + [" " + " , ".join(header) + " ",
                                                             "", ",".join(header[:-1])]))]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.integers(0, 29))
        if shape == 0:
            row = draw(st.sampled_from(["", "  ", "\t", '""']))
        elif shape == 1:
            row = ",".join(draw(fields_text(kinds))[:-1])  # a short row
        elif shape == 2:
            row = ",".join(draw(fields_text(kinds)) + ["9"])  # a long row
        elif shape == 3:
            row = '"1,5",' + ",".join(draw(fields_text(kinds))[1:])  # a comma inside quotes
        elif shape == 4:
            row = ",".join(draw(fields_text(kinds))).replace(",", "\r", 1)  # a bare CR
        else:
            row = ",".join(draw(fields_text(kinds)))
        lines.append(row)
    end = draw(st.sampled_from(["\n", "\r\n", ""]))
    return [line + end for line in lines]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (RoadNetworkError, csv.Error) as exc:
        return type(exc), str(exc)


def _cells(values):
    """Comparable cells: ints as Python ints, floats by bits, blanks as None."""
    out = []
    for v in values:
        if isinstance(v, float):
            out.append(None if v != v else v.hex())
        else:
            out.append(v)
    return out


def _track(traj):
    return traj.vehicle_id, _cells(traj.t.tolist()), _cells(traj.xy.ravel().tolist())


@st.composite
def specs(draw):
    """(header, fields, lines): columns of random kinds, checked in a random order."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    header = [f"c{k}" for k in range(len(kinds))]
    order = draw(st.permutations(range(len(kinds))))
    fields = [(k, kinds[k], f"field {k}") for k in order]
    return header, fields, draw(csv_lines(header, kinds))


@SETTINGS
@given(specs())
def test_columns_match_the_per_field_reader(spec):
    header, fields, lines = spec
    got = _outcome(read_columns, lines, header, "test", fields)
    want = _outcome(ref_roadnet.read_fields, lines, header, "test", fields)
    if got[0] == "ok" and want[0] == "ok":
        for column, values, (_, kind, _) in zip(got[1], want[1], fields):
            if kind is int:
                assert all(type(v) is int for v in column.tolist())
            else:
                assert column.dtype == float
            assert _cells(column.tolist()) == _cells(values)
    else:
        assert got == want


def _network(net):
    return (net.ids, [(x.hex(), y.hex()) for x, y in net.xy.tolist()], net.arcs.tolist(),
            [w.hex() for w in net.length.tolist()], net._out)


@WHOLE
@given(csv_lines(["node_id", "x", "y"], [int, float, float]),
       csv_lines(["from", "to", "length_m", "speed_mps"], [int, int, None, float]),
       st.integers(0, 2**32 - 1))
def test_load_network_matches_the_per_field_reader(nodes, edges, seed):
    # Let most edges join the nodes that exist: ids are drawn from a wide range.
    rng = np.random.default_rng(seed)
    ids = [row.split(",")[0] for row in nodes[1:] if row.count(",") == 2] or ["0"]
    edges = [edges[0]] + [",".join([*rng.choice(ids, 2).tolist(), *row.split(",")[2:]])
                          if row.count(",") == 3 and rng.random() < 0.8 else row
                          for row in edges[1:]]
    got = _outcome(load_network, nodes, edges)
    want = _outcome(ref_roadnet.load_network, nodes, edges)
    if got[0] == "ok" and want[0] == "ok":
        assert _network(got[1]) == _network(want[1])
    else:
        assert got == want


@WHOLE
@given(csv_lines(["vehicle_id", "t", "x", "y"], [int, float, float, float]))
def test_read_trajectories_matches_the_per_field_reader(lines):
    got = _outcome(read_trajectories_csv, lines)
    want = _outcome(ref_trajgen.read_trajectories_csv, lines)
    if got[0] == "ok" and want[0] == "ok":
        assert all(type(t.vehicle_id) is int for t in got[1])
        assert [_track(t) for t in got[1]] == [_track(t) for t in want[1]]
    else:
        assert got == want
