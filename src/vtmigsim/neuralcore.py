"""Minimal dense neural-network engine on numpy.

Provides the split policy network (a small client-side stack and a larger
server-side stack, each with its own action head), a centralized action-value
network, reverse-mode gradients for each forward path, an adaptive-moment
optimizer, and a plain-text checkpoint format.
"""

from __future__ import annotations

import copy
import math
from typing import Iterable, Optional, Sequence

import numpy as np

PROB_FLOOR = 1e-12

CLIENT = "client"
SERVER = "server"


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def entropy_of(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats; 0 log 0 treated as 0."""
    p = np.asarray(probs)
    logp = np.where(p > 0, np.log(np.maximum(p, PROB_FLOOR)), 0.0)
    return -(p * logp).sum(axis=-1)


def sample_actions(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw per row: the first action whose cumulative probability
    reaches u (the last action if rounding leaves the total below u)."""
    below = np.cumsum(probs, axis=-1) < np.asarray(u)[..., None]
    return np.minimum(below.sum(axis=-1), probs.shape[-1] - 1)


def log_prob(probs: np.ndarray, actions) -> np.ndarray:
    """Log-probability of each row's action, floored at PROB_FLOOR."""
    p = np.take_along_axis(probs, np.asarray(actions)[..., None], axis=-1)[..., 0]
    return np.log(np.maximum(p, PROB_FLOOR))


class DenseNet:
    """Fully connected stack: tanh on every layer except an identity output.

    With out_tanh=True the final layer is tanh as well, which is how trunk
    stacks producing intermediate features are built; heads use identity.
    All parameters are views of one flat buffer, (P,), or (V, P) for the
    independent nets of V agents: `weights[i]` is (out, in) or (V, out, in).
    """

    def __init__(self, dims: Sequence[int], rng=None, out_tanh: bool = False, agents=None):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = list(dims)
        self.out_tanh = out_tanh
        lead = () if agents is None else (agents,)
        self.flat = np.zeros(lead + (sum(o * i + o for i, o in zip(dims, dims[1:])),))
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        off = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            n = fan_out * fan_in
            self.weights.append(self.flat[..., off : off + n].reshape(lead + (fan_out, fan_in)))
            self.biases.append(self.flat[..., off + n : off + n + fan_out])
            off += n + fan_out
        if rng is not None:
            self.draw(rng)

    def draw(self, rng: np.random.Generator, agent: Optional[int] = None) -> None:
        """Glorot-uniform weights, layer by layer (of one agent, if stacked)."""
        for w in self.weights:
            limit = math.sqrt(6.0 / sum(w.shape[-2:]))
            (w if agent is None else w[agent])[...] = rng.uniform(-limit, limit, w.shape[-2:])

    def agent(self, v: int) -> "DenseNet":
        """Agent v of a stacked net, as an unstacked net sharing its memory."""
        view = copy.copy(self)
        view.flat = self.flat[v]
        view.weights = [w[v] for w in self.weights]
        view.biases = [b[v] for b in self.biases]
        return view

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Batched forward pass, (B, in) or stacked (V, B, in); returns
        (output, cache for backward). Each layer is one matmul."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cache = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.swapaxes(-1, -2) + b[..., None, :]
            use_tanh = i < last or self.out_tanh
            y = np.tanh(z) if use_tanh else z
            cache.append((h, y, use_tanh))
            h = y
        return h, cache

    def backward(self, cache: list, dy: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Reverse-accumulate (dW, db) per layer plus the input gradient."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
        grad = np.atleast_2d(dy)
        for i in range(len(self.weights) - 1, -1, -1):
            h_in, y_out, used_tanh = cache[i]
            dz = grad * (1.0 - y_out**2) if used_tanh else grad
            grads[i] = (dz.swapaxes(-1, -2) @ h_in, dz.sum(axis=-2))
            grad = dz @ self.weights[i]
        return grads, grad

    def flat_grads(self, layer_grads: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Layer gradients laid out like `flat`."""
        lead = self.flat.shape[:-1] + (-1,)
        return np.concatenate([g.reshape(lead) for dw_db in layer_grads for g in dw_db], axis=-1)

    def param_count(self) -> int:
        """Parameters of one agent's net."""
        return self.flat.shape[-1]


class SplitActor:
    """Policy split into a client-side small stack and a server-side stack.

    The client consumes the observation and emits both intermediate features
    and client-head logits. The server consumes the client features and emits
    its own logits. `split_index` is how many hidden widths belong to the
    client; hidden_dims[split_index:] belong to the server. With `agents`,
    every component is stacked over V agents, drawn agent by agent, component
    by component, and every input has a leading agent axis.
    """

    def __init__(
        self, obs_dim: int, n_actions: int, hidden_dims: Sequence[int], split_index: int,
        rng: np.random.Generator, agents: Optional[int] = None,
    ):
        if not (1 <= split_index < len(hidden_dims)):
            raise ValueError("split_index must leave at least one layer on each side")
        self.obs_dim = obs_dim
        self.agents = agents
        client_dims = [obs_dim] + list(hidden_dims[:split_index])
        server_dims = [client_dims[-1]] + list(hidden_dims[split_index:])
        self.client_trunk = DenseNet(client_dims, out_tanh=True, agents=agents)
        self.client_head = DenseNet([client_dims[-1], n_actions], agents=agents)
        self.server_trunk = DenseNet(server_dims, out_tanh=True, agents=agents)
        self.server_head = DenseNet([server_dims[-1], n_actions], agents=agents)
        for v in [None] if agents is None else range(agents):
            for net in self.components().values():
                net.draw(rng, v)

    # --- rollout inference: one observation per agent ---

    def forward_client(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Client features and action probabilities of obs (O,), or (V, O) stacked."""
        obs = np.asarray(obs, dtype=float)
        want = (self.obs_dim,) if self.agents is None else (self.agents, self.obs_dim)
        if obs.shape != want:
            raise ValueError(f"expected observation of shape {want}, got {obs.shape}")
        features, _ = self.client_trunk.forward(obs[..., None, :])
        logits, _ = self.client_head.forward(features)
        return features[..., 0, :], softmax(logits)[..., 0, :]

    def forward_server(self, features: np.ndarray) -> np.ndarray:
        """Server action probabilities of client features (F,), or (V, F) stacked."""
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != self.server_trunk.dims[0]:
            raise ValueError(
                f"expected features of width {self.server_trunk.dims[0]}, got {features.shape}"
            )
        hidden, _ = self.server_trunk.forward(features[..., None, :])
        logits, _ = self.server_head.forward(hidden)
        return softmax(logits)[..., 0, :]

    # --- batched path forward/backward for training ---

    def path_logits(self, obs: np.ndarray, path: str) -> tuple[np.ndarray, dict]:
        """Logits of one path for a batch, with caches for path_backward."""
        features, c_trunk = self.client_trunk.forward(obs)
        if path == CLIENT:
            logits, c_head = self.client_head.forward(features)
            return logits, {"trunk": c_trunk, "head": c_head}
        if path == SERVER:
            hidden, c_server = self.server_trunk.forward(features)
            logits, c_head = self.server_head.forward(hidden)
            return logits, {"trunk": c_trunk, "server": c_server, "head": c_head}
        raise ValueError(f"unknown path {path!r}")

    def path_backward(self, cache: dict, dlogits: np.ndarray, path: str) -> dict[str, np.ndarray]:
        """Flat parameter gradients of one path keyed by component name.

        The client path touches client trunk and client head only; the server
        path touches server head, server trunk, and the client trunk, but
        never the client head.
        """
        if path == CLIENT:
            head_grads, dfeat = self.client_head.backward(cache["head"], dlogits)
            trunk_grads, _ = self.client_trunk.backward(cache["trunk"], dfeat)
            return {
                "client_trunk": self.client_trunk.flat_grads(trunk_grads),
                "client_head": self.client_head.flat_grads(head_grads),
            }
        if path == SERVER:
            head_grads, dhidden = self.server_head.backward(cache["head"], dlogits)
            server_grads, dfeat = self.server_trunk.backward(cache["server"], dhidden)
            trunk_grads, _ = self.client_trunk.backward(cache["trunk"], dfeat)
            return {
                "client_trunk": self.client_trunk.flat_grads(trunk_grads),
                "server_trunk": self.server_trunk.flat_grads(server_grads),
                "server_head": self.server_head.flat_grads(head_grads),
            }
        raise ValueError(f"unknown path {path!r}")

    def components(self) -> dict[str, DenseNet]:
        return {
            "client_trunk": self.client_trunk,
            "client_head": self.client_head,
            "server_trunk": self.server_trunk,
            "server_head": self.server_head,
        }

    def param_count(self, mode: str) -> int:
        """Parameters one agent evaluates on a path: 'client' or 'client+server'.

        The server path runs after the client produced its logits, so the
        full-path count includes every client parameter as well.
        """
        client = self.client_trunk.param_count() + self.client_head.param_count()
        if mode == CLIENT:
            return client
        if mode == "client+server":
            return client + self.server_trunk.param_count() + self.server_head.param_count()
        raise ValueError(f"unknown mode {mode!r}")


class Critic:
    """Centralized action-value network over joint observation + one-hot joint action."""

    def __init__(self, input_dim: int, hidden_dims: Sequence[int], rng: np.random.Generator):
        self.input_dim = input_dim
        self.net = DenseNet([input_dim] + list(hidden_dims) + [1], rng)

    def value(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.net.forward(x)
        return y[:, 0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        y, cache = self.net.forward(x)
        return y[:, 0], cache

    def backward(self, cache: list, dvalue: np.ndarray) -> np.ndarray:
        """Gradient of the flat parameter buffer."""
        grads, _ = self.net.backward(cache, np.asarray(dvalue).reshape(-1, 1))
        return self.net.flat_grads(grads)

    def param_count(self) -> int:
        return self.net.param_count()


class Adam:
    """Adaptive-moment optimizer updating one flat parameter buffer in place.

    In a (V, P) buffer each agent counts its own steps, and a step moves only
    the `active` agents. Bias corrections are Python float powers.
    """

    def __init__(
        self, params: np.ndarray, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.steps = np.zeros(params.shape[:-1], dtype=int)
        self._corrections = np.zeros((2, 1))

    def step(self, grads: np.ndarray, active: Optional[np.ndarray] = None) -> None:
        rows = ... if active is None or active.all() else np.flatnonzero(active)
        self.steps[rows] += 1
        if self.steps.max() >= self._corrections.shape[1]:
            n = 2 * int(self.steps.max()) + 1
            betas = (self.beta1, self.beta2)
            self._corrections = np.array([[1.0 - b**s for s in range(n)] for b in betas])
        b1c, b2c = self._corrections[:, self.steps[rows], None]
        p, g, m, v = self.params[rows], grads[rows], self.m[rows], self.v[rows]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)
        if rows is not ...:
            self.params[rows], self.m[rows], self.v[rows] = p, m, v


# --- checkpoint format ---
# Line 1: "MSRL-CKPT v1". Then per tensor: "name rows cols" followed by `rows`
# lines of `cols` decimal floats. %.17g preserves float64 exactly.

CKPT_MAGIC = "MSRL-CKPT v1"


def save_checkpoint(path: str, tensors: Iterable[tuple[str, np.ndarray]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CKPT_MAGIC + "\n")
        for name, array in tensors:
            mat = np.atleast_2d(np.asarray(array, dtype=float))
            rows, cols = mat.shape
            row_format = " ".join(["%.17g"] * cols) + "\n"
            fh.write(f"{name} {rows} {cols}\n")
            for row in mat:
                fh.write(row_format % tuple(row.tolist()))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    with open(path, "r", encoding="utf-8") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != CKPT_MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        out: dict[str, np.ndarray] = {}
        while True:
            header = fh.readline()
            if not header:
                break
            if not header.strip():
                continue
            name, rows_s, cols_s = header.split()
            rows, cols = int(rows_s), int(cols_s)
            data = np.empty((rows, cols))
            for r in range(rows):
                fields = fh.readline().split()
                if len(fields) != cols:
                    raise ValueError(f"tensor {name}: row {r} has {len(fields)} values, wanted {cols}")
                data[r] = fields  # numpy parses each decimal string as float() does
            out[name] = data
    return out
