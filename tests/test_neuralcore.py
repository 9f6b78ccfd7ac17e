import math
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import grad_check
from vtmigsim import neuralcore
from vtmigsim.neuralcore import (
    Adam,
    CKPT_MAGIC,
    PATHS,
    Critic,
    DenseNet,
    SplitActor,
    entropy_of,
    load_checkpoint,
    log_prob,
    sample_actions,
    save_checkpoint,
    softmax,
)


def make_actor(obs_dim=9, n_actions=4, seed=0, agents=1):
    return SplitActor(
        obs_dim, n_actions, (8, 16, 16, 32, 16), 2, np.random.default_rng(seed), agents
    )


def drawn_net(dims, rng, out_tanh=False):
    """A one-agent net with Glorot weights from rng."""
    net = DenseNet(dims, 1, out_tanh=out_tanh)
    net.draw(rng, 0)
    return net


# --- softmax / distribution ---

def test_softmax_sums_to_one_large_logits():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.uniform(-50, 50, size=(3, 6))
        p = softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= 0)


def test_entropy_bounds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = softmax(rng.uniform(-10, 10, size=(1, 5)))[0]
        h = float(entropy_of(p))
        assert 0.0 <= h <= math.log(5) + 1e-12


def test_zero_weights_give_uniform():
    actor = make_actor()
    for net in (actor.client_head, actor.server_head):
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
    _, probs = actor.forward_client(np.zeros((1, 9)))
    entropy = float(entropy_of(probs[0]))
    assert np.allclose(probs, 0.25)
    assert entropy == pytest.approx(math.log(4.0), abs=1e-12)
    assert entropy == pytest.approx(1.3862943611198906, abs=1e-9)


def test_sample_degenerate_distribution():
    probs = np.array([1.0, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = sample_actions(probs, rng.random())
        logp = log_prob(probs, a)
        assert a == 0
        assert logp == 0.0


def test_sample_frequencies_uniform():
    probs = np.full((100_000, 4), 0.25)
    rng = np.random.default_rng(123)
    counts = np.zeros(4)
    n = 100_000
    for a in sample_actions(probs, rng.random(n)):
        counts[a] += 1
    assert np.all(np.abs(counts / n - 0.25) < 0.01)


def test_log_prob_clamped_finite():
    probs = np.array([1.0, 0.0])
    assert math.isfinite(log_prob(probs, 1))
    assert log_prob(probs, 1) == pytest.approx(math.log(1e-12))


# --- forward oracle ---

def naive_forward(net: DenseNet, v, x):
    """Independent loop-based evaluation of agent v's stack."""
    h = list(x)
    n_layers = len(net.weights)
    for li in range(n_layers):
        w, b = net.weights[li][v], net.biases[li][v]
        out = []
        for r in range(w.shape[0]):
            acc = b[r]
            for c in range(w.shape[1]):
                acc += w[r, c] * h[c]
            if li < n_layers - 1 or net.out_tanh:
                acc = math.tanh(acc)
            out.append(acc)
        h = out
    return np.array(h)


@pytest.mark.parametrize("agents", [1, 3])
def test_forward_client_matches_naive(agents):
    rng = np.random.default_rng(5)
    actor = make_actor(seed=3, agents=agents)
    obs = rng.normal(size=(agents, 9))
    features, probs = actor.forward_client(obs)
    assert features.shape == (agents, 16) and probs.shape == (agents, 4)
    for v in range(agents):
        feat_ref = naive_forward(actor.client_trunk, v, obs[v])
        assert np.allclose(features[v], feat_ref, atol=1e-9)
        logits_ref = naive_forward(actor.client_head, v, feat_ref)
        z = logits_ref - logits_ref.max()
        probs_ref = np.exp(z) / np.exp(z).sum()
        assert np.allclose(probs[v], probs_ref, atol=1e-9)


@pytest.mark.parametrize("agents", [1, 3])
def test_forward_server_matches_naive(agents):
    rng = np.random.default_rng(6)
    actor = make_actor(seed=4, agents=agents)
    obs = rng.normal(size=(agents, 9))
    features, _ = actor.forward_client(obs)
    probs = actor.forward_server(features)
    assert probs.shape == (agents, 4)
    for v in range(agents):
        hidden_ref = naive_forward(actor.server_trunk, v, features[v])
        logits_ref = naive_forward(actor.server_head, v, hidden_ref)
        z = logits_ref - logits_ref.max()
        probs_ref = np.exp(z) / np.exp(z).sum()
        assert np.allclose(probs[v], probs_ref, atol=1e-9)


def test_forward_dimension_mismatch():
    actor = make_actor()
    with pytest.raises(ValueError):
        actor.forward_client(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        actor.forward_server(np.zeros((1, 3)))


@pytest.mark.parametrize("shape", [(16,), (2, 16), (4, 16), (3, 1, 16)])
def test_forward_server_wants_one_feature_row_per_agent(shape):
    """Client features of the right width but not one row per agent are
    refused, never broadcast over the agents."""
    actor = make_actor(agents=3)
    with pytest.raises(ValueError, match=r"shape \(3, 16\)"):
        actor.forward_server(np.zeros(shape))
    with pytest.raises(ValueError, match=r"shape \(3, 9\)"):
        actor.forward_client(np.zeros(shape[:-1] + (9,)))


# --- backward ---

def test_linear_net_closed_form_gradient():
    rng = np.random.default_rng(7)
    net = drawn_net([3, 2], rng)  # single linear layer, identity output
    x = rng.normal(size=(1, 1, 3))
    y_target = rng.normal(size=(1, 1, 2))
    y, cache = net.forward(x)
    # loss = |Wx + b - y|^2, dL/dy = 2(y - target)
    grads, _ = net.backward(cache, 2.0 * (y - y_target))
    dW_expected = 2.0 * (y - y_target)[0].T @ x[0]
    db_expected = 2.0 * (y - y_target)[0]
    assert np.allclose(grads[0][0], dW_expected, atol=1e-12)
    assert np.allclose(grads[0][1], db_expected, atol=1e-12)


def test_zero_upstream_zero_grads():
    rng = np.random.default_rng(8)
    net = drawn_net([4, 5, 2], rng, out_tanh=True)
    y, cache = net.forward(rng.normal(size=(1, 3, 4)))
    grads, dx = net.backward(cache, np.zeros_like(y))
    assert all(np.all(g[0] == 0) and np.all(g[1] == 0) for g in grads)
    assert np.all(dx == 0)


def test_grad_check_dense_paths():
    rng = np.random.default_rng(9)
    for trial in range(5):
        dims = [int(rng.integers(2, 6)) for _ in range(3)]
        net = drawn_net(dims, rng, out_tanh=bool(trial % 2))
        x = rng.normal(size=(1, 3, dims[0]))
        r = rng.normal(size=(1, 3, dims[-1]))

        def loss_and_grads():
            y, cache = net.forward(x)
            loss = float((y * r).sum())
            grads, _ = net.backward(cache, r)
            return loss, [net.flat_grads(grads)]

        err = grad_check([net.flat], loss_and_grads)
        assert err < 1e-4


def test_grad_check_actor_paths():
    rng = np.random.default_rng(10)
    actor = SplitActor(5, 3, (4, 6, 5), 1, rng, agents=1)
    x = rng.normal(size=(1, 2, 5))
    r = rng.normal(size=(1, 2, 3))

    for path, comps in (
        ("client", ("client_trunk", "client_head")),
        ("server", ("client_trunk", "server_trunk", "server_head")),
    ):
        params = [actor.components()[name].flat for name in comps]

        def loss_and_grads():
            logits, cache = actor.path_logits(x, path)
            loss = float((logits * r).sum())
            grads = actor.path_backward(cache, r, path)
            return loss, [grads[name] for name in comps]

        err = grad_check(params, loss_and_grads)
        assert err < 1e-4


def test_client_path_never_touches_server():
    rng = np.random.default_rng(11)
    actor = make_actor(seed=12)
    x = rng.normal(size=(1, 4, 9))
    assert PATHS == {"client": ("client_trunk", "client_head"),
                     "server": ("client_trunk", "server_trunk", "server_head")}
    for path in ("client", "server"):
        logits, cache = actor.path_logits(x, path)
        grads = actor.path_backward(cache, rng.normal(size=logits.shape), path)
        assert set(grads) == set(PATHS[path])


def test_an_unknown_path_is_a_key_error():
    """A path name comes from the learner, never from an input file, so an
    unknown one is a programming error, not a config error."""
    actor = make_actor()
    with pytest.raises(KeyError):
        actor.path_logits(np.zeros((1, 2, 9)), "edge")


# --- parameter counts ---

def test_param_count_closed_form():
    actor = make_actor(obs_dim=9, n_actions=4)
    # client: 9*8+8 + 8*16+16 + 16*4+4 = 292
    assert actor.path_params[0] == 292
    # server side: 16*16+16 + 16*32+32 + 32*16+16 + 16*4+4 = 1412
    server_only = (
        actor.server_trunk.param_count() + actor.server_head.param_count()
    )
    assert server_only == 1412
    assert actor.path_params[1] == 1704


def test_param_count_ordering():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n_hidden = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 20)) for _ in range(n_hidden))
        split = int(rng.integers(1, n_hidden))
        actor = SplitActor(
            int(rng.integers(2, 12)), int(rng.integers(2, 6)), dims, split, rng, agents=1
        )
        assert actor.path_params[0] < actor.path_params[1]


# --- optimizer ---

def test_adam_zero_gradient_no_change():
    p = np.array([1.0, -2.0])
    opt = Adam(p, lr=1e-3)
    before = p.copy()
    opt.step(np.zeros(2))
    assert np.array_equal(p, before)


def test_adam_first_step_magnitude():
    p = np.array([0.0])
    opt = Adam(p, lr=1e-3)
    opt.step(np.array([1.0]))
    # bias-corrected first step is -lr within eps rounding
    assert p[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_deterministic():
    results = []
    for _ in range(2):
        p = np.array([0.5, -0.5])
        opt = Adam(p, lr=1e-2)
        for i in range(10):
            opt.step(np.array([0.1 * (i + 1), -0.2]))
        results.append(p.copy())
    assert np.array_equal(results[0], results[1])


# --- checkpoint format ---

def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(13)
    tensors = [
        ("agent0/client_trunk/W0", rng.normal(size=(8, 9)) * 1e-7),
        ("agent0/client_trunk/b0", rng.normal(size=(1, 8))),
        ("meta/episode", np.array([[41.0]])),
    ]
    path = tmp_path / "ckpt.txt"
    save_checkpoint(str(path), tensors)
    with open(path) as fh:
        assert fh.readline().strip() == CKPT_MAGIC
    loaded = load_checkpoint(str(path))
    for name, arr in tensors:
        assert np.array_equal(loaded[name], np.atleast_2d(arr))


def test_checkpoint_text_is_per_value_17g_and_parses_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(16)
    values = np.concatenate([
        rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40),
        [0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 0.1, 1 / 3, np.inf, -np.inf],
    ])
    tensors = [("a/W0", values.reshape(7, 7)), ("a/b0", values[:5]), ("meta/x", np.array([[2.0]]))]
    path = tmp_path / "ckpt.txt"
    save_checkpoint(str(path), tensors)
    want = CKPT_MAGIC + "\n"
    for name, arr in tensors:
        mat = np.atleast_2d(arr)
        want += f"{name} {mat.shape[0]} {mat.shape[1]}\n"
        want += "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in mat)
    assert path.read_text() == want
    loaded = load_checkpoint(str(path))
    for name, arr in tensors:
        got = loaded[name]
        assert got.shape == np.atleast_2d(arr).shape
        assert np.array_equal(got.view(np.uint64), np.atleast_2d(arr).view(np.uint64)), name


def test_checkpoint_rejects_a_short_row(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text(f"{CKPT_MAGIC}\nx/W0 2 3\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="tensor x/W0: row 1 has 2 values, wanted 3"):
        load_checkpoint(str(path))
    assert os.listdir(tmp_path) == ["short.txt"]  # no sidecar


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOT-A-CKPT\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(path))
    assert os.listdir(tmp_path) == ["bad.txt"]  # no sidecar


@pytest.mark.parametrize("body, line, row, rows", [
    ("x/W0 3000000 0\n", 3, 0, 3000000),
    ("x/W0 1000000000000 1000000\n", 3, 0, 1000000000000),
    ("x/W0 2 3\n1 2 3\n", 4, 1, 2),
    ("a/b0 1 1\n5\n\nx/W0 4 0\n\n\n", 8, 2, 4),
], ids=["rows_no_cols", "rows_and_cols_huge", "row_missing", "blank_rows_missing"])
def test_a_text_that_ends_before_its_rows_is_refused_naming_the_line(tmp_path, body, line, row,
                                                                      rows):
    """The rows a header declares are read before the tensor is allocated, so a
    header no file could hold fails at the file's end, at once."""
    path = tmp_path / "ckpt.txt"
    path.write_text(f"{CKPT_MAGIC}\n{body}")
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(path))
    ends = f"tensor x/W0: the file ends before row {row} of {rows}"
    assert str(info.value) == f"{path}: line {line}: {ends}"
    assert os.listdir(tmp_path) == ["ckpt.txt"]


@pytest.mark.parametrize("data, at", [
    (b"\xff" + CKPT_MAGIC.encode() + b"\n", "position 0"),
    (CKPT_MAGIC.encode() + b"\nx\xe9/W0 1 1\n0\n", "byte 0xe9"),
    (CKPT_MAGIC.encode() + b"\nx/W0 1 2\n0 \xc3\n", "byte 0xc3"),
], ids=["magic", "header", "row"])
def test_a_checkpoint_that_is_not_utf8_is_a_value_error_naming_it(tmp_path, data, at):
    path = tmp_path / "ckpt.txt"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(path))
    assert str(info.value).startswith(f"{path}: not UTF-8: 'utf-8' codec can't decode")
    assert at in str(info.value)
    assert os.listdir(tmp_path) == ["ckpt.txt"]


# --- the checkpoint's binary sidecar ---

def _parsed(tensors):
    """What the text parse of `save_checkpoint(tensors)` gives: each value through
    %.17g and float()."""
    out = {}
    for name, arr in tensors:
        mat = np.atleast_2d(arr)
        out[name] = np.array([[float("%.17g" % x) for x in row] for row in mat.tolist()]
                             ).reshape(mat.shape)
    return out


def _assert_same(got, want):
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == np.float64 and got[name].shape == arr.shape, name
        assert got[name].tobytes() == arr.tobytes(), name


def _bits(x):
    return int(np.array(x, dtype=np.float64).view(np.uint64))


_EXTREMES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
             -1e-310, 1.7976931348623157e308, -1.7976931348623157e308]
# Every NaN: either sign, quiet or signalling, any payload.
_NAN_BITS = st.builds(lambda sign, mantissa: sign << 63 | 0x7FF << 52 | mantissa,
                      st.integers(0, 1), st.integers(1, (1 << 52) - 1))
_VALUE_BITS = st.one_of(st.sampled_from(_EXTREMES).map(_bits), st.floats().map(_bits), _NAN_BITS)
_TENSORS = st.lists(
    st.tuples(
        st.sampled_from(["a/W0", "a/b0", "critic1/W2", "meta/episode", "\u00e9/x"]),
        st.integers(0, 3).flatmap(lambda rows: st.integers(0, 3).flatmap(
            lambda cols: st.lists(_VALUE_BITS, min_size=rows * cols, max_size=rows * cols).map(
                lambda bits: np.array(bits, dtype=np.uint64).view(np.float64).reshape(rows, cols)))),
    ),
    max_size=6,
    unique_by=lambda tensor: tensor[0],
)


@settings(max_examples=60, deadline=None)
@given(_TENSORS)
def test_sidecar_loads_give_the_bits_of_the_text_parse(tensors):
    """With the sidecar that save wrote deleted, every load parses the text and
    gives the parse (same names, order, shapes and bits), and creates no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.txt")
        save_checkpoint(path, tensors)
        os.remove(path + ".f8")
        text = Path(path).read_bytes()
        want = _parsed(tensors)
        for _ in range(3):
            _assert_same(load_checkpoint(path), want)
            assert os.listdir(tmp) == ["ckpt.txt"]
        assert Path(path).read_bytes() == text


@settings(max_examples=60, deadline=None)
@given(_TENSORS)
def test_the_sidecar_a_save_writes_is_the_one_a_load_miss_writes(tensors):
    """The first load after a save is a hit, with no parse, and gives the bits
    the parse gives for every value the text can hold: a NaN of any sign or
    payload is stored as the parse of its "nan" returns it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.txt")
        save_checkpoint(path, tensors)
        with mock.patch.object(neuralcore, "_parse_checkpoint", None):
            _assert_same(load_checkpoint(path), _parsed(tensors))  # a hit
        assert sorted(os.listdir(tmp)) == ["ckpt.txt", "ckpt.txt.f8"]


def _flip(offset):
    def fault(path):
        data = bytearray(Path(path).read_bytes())
        data[offset] ^= 0x01
        Path(path).write_bytes(bytes(data))
    return fault


_SIDECAR_FAULTS = {
    "truncated": lambda path: os.truncate(path, os.path.getsize(path) // 2),
    "payload_byte": _flip(-1),
    "index_byte": _flip(len(b"MSRL-CKPT-F8 v1\n") + 2 * 65),  # the first name's first byte
    "other_checkpoints": lambda path: shutil.copyfile(
        os.path.join(os.path.dirname(path), "other.txt.f8"), path),
    "garbage": lambda path: Path(path).write_bytes(os.urandom(300)),
}


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


@pytest.mark.parametrize("fault", ["text_edited", *_SIDECAR_FAULTS])
def test_a_sidecar_that_does_not_match_is_parsed_around_and_rewritten(tmp_path, fault):
    """Every load parses around a sidecar that does not match its text, and no
    load rewrites it: the directory keeps its names and bytes."""
    rng = np.random.default_rng(17)
    tensors = [("a/W0", rng.normal(size=(4, 3))), ("a/b0", rng.normal(size=(1, 4))),
               ("meta/episode", np.array([[3.0]]))]
    other = [("a/W0", rng.normal(size=(4, 3)))]
    path, other_path = str(tmp_path / "ckpt.txt"), str(tmp_path / "other.txt")
    save_checkpoint(other_path, other)
    save_checkpoint(path, tensors)
    if fault == "text_edited":  # another text under the sidecar of the first
        tensors = other
        shutil.copyfile(other_path, path)
    else:
        _SIDECAR_FAULTS[fault](path + ".f8")
    before = _files(tmp_path)
    assert sorted(before) == ["ckpt.txt", "ckpt.txt.f8", "other.txt", "other.txt.f8"]
    for _ in range(3):
        _assert_same(load_checkpoint(path), _parsed(tensors))
        assert _files(tmp_path) == before


def test_a_failed_sidecar_write_still_returns_the_tensors(tmp_path, monkeypatch):
    """File modes do not stop root, so the write fails through an os.replace
    patched to refuse only the sidecar's rename."""
    replace = os.replace

    def refuse(src, dst):
        if str(dst).endswith(".f8"):
            raise OSError(28, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)
    tensors = [("a/W0", np.arange(6.0).reshape(2, 3))]
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(path, tensors)
    _assert_same(load_checkpoint(path), _parsed(tensors))
    assert os.listdir(tmp_path) == ["ckpt.txt"]


def test_a_save_that_fails_while_the_tensors_are_read_leaves_the_old_files(tmp_path):
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(path, [("a/W0", np.arange(6.0).reshape(2, 3))])
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    def tensors():
        yield "a/W0", np.zeros((2, 3))
        raise RuntimeError("bundle went away")

    with pytest.raises(RuntimeError, match="bundle went away"):
        save_checkpoint(path, tensors())
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    assert sorted(before) == ["ckpt.txt", "ckpt.txt.f8"]


def test_a_save_that_fails_while_the_text_is_written_leaves_no_partial(tmp_path, monkeypatch):
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(path, [("a/W0", np.arange(6.0).reshape(2, 3))])
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    text = neuralcore._checkpoint_text

    def full_disk(mats):
        yield next(iter(text(mats)))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(neuralcore, "_checkpoint_text", full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        save_checkpoint(path, [("a/W0", np.zeros((2, 3)))])
    assert not list(tmp_path.glob("*.partial"))
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
    assert sorted(before) == ["ckpt.txt", "ckpt.txt.f8"]


@pytest.mark.parametrize("names", [["a/W0", "b/W0", "a/W0"], [""], ["a W0"], ["a\tW0"], ["a\nW0"],
                                   ["a\u2003W0"]],
                         ids=["repeated", "empty", "space", "tab", "newline", "em_space"])
def test_a_name_the_text_cannot_hold_is_refused_before_any_file(tmp_path, names):
    with pytest.raises(ValueError, match="is empty, holds whitespace or repeats"):
        save_checkpoint(str(tmp_path / "ckpt.txt"), [(name, np.ones((1, 1))) for name in names])
    assert os.listdir(tmp_path) == []


def test_a_text_that_repeats_a_tensor_is_refused_naming_both_lines(tmp_path):
    path = tmp_path / "ckpt.txt"
    path.write_text(f"{CKPT_MAGIC}\nmeta/episode 1 1\n1\n\nx/W0 1 2\n3 4\nmeta/episode 1 1\n7\n")
    with pytest.raises(ValueError) as info:
        load_checkpoint(str(path))
    assert str(info.value) == f"{path}: line 7: tensor meta/episode repeats the tensor of line 2"
    assert os.listdir(tmp_path) == ["ckpt.txt"]  # no sidecar


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_checkpoint_read_from_a_pipe_is_parsed_with_no_sidecar(tmp_path):
    tensors = [("a/W0", np.arange(6.0).reshape(2, 3) / 7)]
    path = str(tmp_path / "ckpt.txt")
    save_checkpoint(path, tensors)
    os.remove(path + ".f8")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, Path(path).read_bytes())  # far below a pipe's buffer
        os.close(write_end)
        _assert_same(load_checkpoint(f"/dev/fd/{read_end}"), _parsed(tensors))
    finally:
        os.close(read_end)
    assert os.listdir(tmp_path) == ["ckpt.txt"]


def test_critic_shapes():
    rng = np.random.default_rng(14)
    critic = Critic(10, (32, 32), rng)
    assert critic.net.flat.shape == (1, critic.net.param_count())
    x = rng.normal(size=(7, 10))
    v = critic.value(x)
    assert v.shape == (7,)
    values, _ = critic.forward(x)
    assert np.array_equal(values, v)


def test_critic_grad_check():
    rng = np.random.default_rng(15)
    critic = Critic(6, (8, 8), rng)
    x = rng.normal(size=(3, 6))
    target = rng.normal(size=3)

    def loss_and_grads():
        v, cache = critic.forward(x)
        loss = float(((v - target) ** 2).mean())
        grads = critic.backward(cache, 2.0 * (v - target) / len(v))
        return loss, [grads]

    assert grad_check([critic.net.flat], loss_and_grads) < 1e-4
