import math

import numpy as np
import pytest

from helpers import grad_check
from vtmigsim.neuralcore import (
    Adam,
    CKPT_MAGIC,
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


def make_actor(obs_dim=9, n_actions=4, seed=0):
    return SplitActor(obs_dim, n_actions, (8, 16, 16, 32, 16), 2, np.random.default_rng(seed))


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
    _, probs = actor.forward_client(np.zeros(9))
    entropy = float(entropy_of(probs))
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

def naive_forward(net: DenseNet, x):
    """Independent loop-based evaluation of the same stack."""
    h = list(x)
    n_layers = len(net.weights)
    for li in range(n_layers):
        w, b = net.weights[li], net.biases[li]
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


def test_forward_client_matches_naive():
    rng = np.random.default_rng(5)
    actor = make_actor(seed=3)
    obs = rng.normal(size=9)
    features, probs = actor.forward_client(obs)
    feat_ref = naive_forward(actor.client_trunk, obs)
    assert np.allclose(features, feat_ref, atol=1e-9)
    logits_ref = naive_forward(actor.client_head, feat_ref)
    z = logits_ref - logits_ref.max()
    probs_ref = np.exp(z) / np.exp(z).sum()
    assert np.allclose(probs, probs_ref, atol=1e-9)


def test_forward_server_matches_naive():
    rng = np.random.default_rng(6)
    actor = make_actor(seed=4)
    obs = rng.normal(size=9)
    features, _ = actor.forward_client(obs)
    probs = actor.forward_server(features)
    hidden_ref = naive_forward(actor.server_trunk, features)
    logits_ref = naive_forward(actor.server_head, hidden_ref)
    z = logits_ref - logits_ref.max()
    probs_ref = np.exp(z) / np.exp(z).sum()
    assert np.allclose(probs, probs_ref, atol=1e-9)


def test_forward_dimension_mismatch():
    actor = make_actor()
    with pytest.raises(ValueError):
        actor.forward_client(np.zeros(5))
    with pytest.raises(ValueError):
        actor.forward_server(np.zeros(3))


# --- backward ---

def test_linear_net_closed_form_gradient():
    rng = np.random.default_rng(7)
    net = DenseNet([3, 2], rng)  # single linear layer, identity output
    x = rng.normal(size=(1, 3))
    y_target = rng.normal(size=(1, 2))
    y, cache = net.forward(x)
    # loss = |Wx + b - y|^2, dL/dy = 2(y - target)
    grads, _ = net.backward(cache, 2.0 * (y - y_target))
    dW_expected = 2.0 * (y - y_target).T @ x
    db_expected = 2.0 * (y - y_target)[0]
    assert np.allclose(grads[0][0], dW_expected, atol=1e-12)
    assert np.allclose(grads[0][1], db_expected, atol=1e-12)


def test_zero_upstream_zero_grads():
    rng = np.random.default_rng(8)
    net = DenseNet([4, 5, 2], rng, out_tanh=True)
    y, cache = net.forward(rng.normal(size=(3, 4)))
    grads, dx = net.backward(cache, np.zeros_like(y))
    assert all(np.all(g[0] == 0) and np.all(g[1] == 0) for g in grads)
    assert np.all(dx == 0)


def test_grad_check_dense_paths():
    rng = np.random.default_rng(9)
    for trial in range(5):
        dims = [int(rng.integers(2, 6)) for _ in range(3)]
        net = DenseNet(dims, rng, out_tanh=bool(trial % 2))
        x = rng.normal(size=(3, dims[0]))
        r = rng.normal(size=(3, dims[-1]))

        def loss_and_grads():
            y, cache = net.forward(x)
            loss = float((y * r).sum())
            grads, _ = net.backward(cache, r)
            return loss, [net.flat_grads(grads)]

        err = grad_check([net.flat], loss_and_grads)
        assert err < 1e-4


def test_grad_check_actor_paths():
    rng = np.random.default_rng(10)
    actor = SplitActor(5, 3, (4, 6, 5), 1, rng)
    x = rng.normal(size=(2, 5))
    r = rng.normal(size=(2, 3))

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
    x = rng.normal(size=(4, 9))
    logits, cache = actor.path_logits(x, "client")
    grads = actor.path_backward(cache, rng.normal(size=logits.shape), "client")
    assert set(grads) == {"client_trunk", "client_head"}
    logits, cache = actor.path_logits(x, "server")
    grads = actor.path_backward(cache, rng.normal(size=logits.shape), "server")
    assert set(grads) == {"client_trunk", "server_trunk", "server_head"}


# --- parameter counts ---

def test_param_count_closed_form():
    actor = make_actor(obs_dim=9, n_actions=4)
    # client: 9*8+8 + 8*16+16 + 16*4+4 = 292
    assert actor.param_count("client") == 292
    # server side: 16*16+16 + 16*32+32 + 32*16+16 + 16*4+4 = 1412
    server_only = (
        actor.server_trunk.param_count() + actor.server_head.param_count()
    )
    assert server_only == 1412
    assert actor.param_count("client+server") == 1704


def test_param_count_ordering():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n_hidden = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(2, 20)) for _ in range(n_hidden))
        split = int(rng.integers(1, n_hidden))
        actor = SplitActor(int(rng.integers(2, 12)), int(rng.integers(2, 6)), dims, split, rng)
        assert actor.param_count("client") < actor.param_count("client+server")


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


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOT-A-CKPT\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def test_critic_shapes():
    rng = np.random.default_rng(14)
    critic = Critic(10, (32, 32), rng)
    x = rng.normal(size=(7, 10))
    v = critic.value(x)
    assert v.shape == (7,)


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
