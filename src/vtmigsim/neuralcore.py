"""Minimal dense neural-network engine on numpy.

Provides the split policy network (a small client-side stack and a larger
server-side stack, each with its own action head), a centralized action-value
network, reverse-mode gradients for each forward path, an adaptive-moment
optimizer, and a plain-text checkpoint format. Saving a checkpoint also writes
a binary sidecar of its values, which a load returns once it matches the
text's SHA-256; a load that finds none parses the text. A load writes nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from typing import Iterable, Optional, Sequence

import numpy as np

PROB_FLOOR = 1e-12

CLIENT = "client"
SERVER = "server"

# The actor components each path runs through, input first.
PATHS = {
    CLIENT: ("client_trunk", "client_head"),
    SERVER: ("client_trunk", "server_trunk", "server_head"),
}


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
    """Fully connected stack per agent: tanh on every layer except an identity output.

    With out_tanh=True the final layer is tanh as well, which is how trunk
    stacks producing intermediate features are built; heads use identity.
    All parameters are views of one flat (V, P) buffer, zeros until drawn:
    `weights[i]` is (V, out, in) and `biases[i]` is (V, out).
    """

    def __init__(self, dims: Sequence[int], agents: int, out_tanh: bool = False):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = list(dims)
        self.out_tanh = out_tanh
        self.flat = np.zeros((agents, sum(o * i + o for i, o in zip(dims, dims[1:]))))
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        off = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            n = fan_out * fan_in
            self.weights.append(self.flat[:, off : off + n].reshape(agents, fan_out, fan_in))
            self.biases.append(self.flat[:, off + n : off + n + fan_out])
            off += n + fan_out

    def draw(self, rng: np.random.Generator, agent: int) -> None:
        """Glorot-uniform weights of one agent, layer by layer."""
        for w in self.weights:
            limit = math.sqrt(6.0 / sum(w.shape[-2:]))
            w[agent] = rng.uniform(-limit, limit, w.shape[-2:])

    def forward(self, x: Optional[np.ndarray], z0: Optional[np.ndarray] = None) -> tuple[np.ndarray, list]:
        """Batched forward pass of (V, B, in); returns (output, cache for
        backward). Each layer is one matmul. A caller that already holds
        layer 0's pre-activation x·W₀ᵀ + b₀ passes it as z0 and x as None:
        layer 0 then only applies its activation."""
        h = x
        cache = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = z0 if i == 0 and z0 is not None else h @ w.swapaxes(-1, -2) + b[:, None, :]
            use_tanh = i < last or self.out_tanh
            y = np.tanh(z) if use_tanh else z
            cache.append((h, y, use_tanh))
            h = y
        return h, cache

    def backward(self, cache: list, dy: np.ndarray) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """Reverse-accumulate (dW, db) per layer plus the input gradient."""
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
        grad = dy
        for i in range(len(self.weights) - 1, -1, -1):
            h_in, y_out, used_tanh = cache[i]
            dz = grad * (1.0 - y_out**2) if used_tanh else grad
            grads[i] = (dz.swapaxes(-1, -2) @ h_in, dz.sum(axis=-2))
            grad = dz @ self.weights[i]
        return grads, grad

    def flat_grads(self, layer_grads: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Layer gradients laid out like `flat`."""
        rows = [g.reshape(len(self.flat), -1) for dw_db in layer_grads for g in dw_db]
        return np.concatenate(rows, axis=1)

    def param_count(self) -> int:
        """Parameters of one agent's net."""
        return self.flat.shape[-1]


class SplitActor:
    """Policy split into a client-side small stack and a server-side stack.

    The client consumes the observation and emits both intermediate features
    and client-head logits. The server consumes the client features and emits
    its own logits. `split_index` is how many hidden widths belong to the
    client; hidden_dims[split_index:] belong to the server. Every component
    is stacked over `agents` agents, drawn (zeros without `rng`) agent by
    agent, component by component; every input has a leading agent axis."""

    def __init__(
        self, obs_dim: int, n_actions: int, hidden_dims: Sequence[int], split_index: int,
        rng: Optional[np.random.Generator], agents: int,
    ):
        if not (1 <= split_index < len(hidden_dims)):
            raise ValueError("split_index must leave at least one layer on each side")
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.agents = agents
        client_dims = [obs_dim] + list(hidden_dims[:split_index])
        server_dims = [client_dims[-1]] + list(hidden_dims[split_index:])
        self.client_trunk = DenseNet(client_dims, agents, out_tanh=True)
        self.client_head = DenseNet([client_dims[-1], n_actions], agents)
        self.server_trunk = DenseNet(server_dims, agents, out_tanh=True)
        self.server_head = DenseNet([server_dims[-1], n_actions], agents)
        if rng is not None:
            for v in range(agents):
                for net in self.components().values():
                    net.draw(rng, v)

    # --- rollout inference: one observation per agent ---

    def forward_client(self, obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Client features and action probabilities of obs (V, O)."""
        features, _ = self.client_trunk.forward(self._per_agent(obs, self.obs_dim))
        logits, _ = self.client_head.forward(features)
        return features[:, 0], softmax(logits)[:, 0]

    def forward_server(self, features: np.ndarray) -> np.ndarray:
        """Server action probabilities of client features (V, F)."""
        hidden, _ = self.server_trunk.forward(self._per_agent(features, self.server_trunk.dims[0]))
        logits, _ = self.server_head.forward(hidden)
        return softmax(logits)[:, 0]

    def _per_agent(self, x: np.ndarray, width: int) -> np.ndarray:
        """x as a (V, 1, width) float batch; a ValueError unless it is (V, width)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.agents, width):
            raise ValueError(f"expected input of shape {(self.agents, width)}, got {x.shape}")
        return x[:, None, :]

    # --- batched path forward/backward for training ---

    def path_logits(self, obs: np.ndarray, path: str) -> tuple[np.ndarray, list]:
        """Logits of one path for a batch, with the caches of its `PATHS` components."""
        caches = []
        for name in PATHS[path]:
            obs, cache = getattr(self, name).forward(obs)
            caches.append(cache)
        return obs, caches

    def path_backward(self, caches: list, dlogits: np.ndarray, path: str) -> dict[str, np.ndarray]:
        """Flat parameter gradients of one path's `PATHS` components keyed by name,
        output first: the client path never touches the server stack, and the
        server path never touches the client head."""
        grads = {}
        for name, cache in zip(PATHS[path][::-1], caches[::-1]):
            layer_grads, dlogits = getattr(self, name).backward(cache, dlogits)
            grads[name] = getattr(self, name).flat_grads(layer_grads)
        return grads

    def components(self) -> dict[str, DenseNet]:
        """Every component by name, in `PATHS` order: the draw and checkpoint order."""
        return {name: getattr(self, name) for name in dict.fromkeys(PATHS[CLIENT] + PATHS[SERVER])}

    @property
    def path_params(self) -> np.ndarray:
        """Parameters one agent evaluates per path: [client path, full path],
        indexed by the 0 client / 1 server path flag.

        The server path runs after the client produced its logits, so the
        full-path count includes every client parameter as well.
        """
        client = self.client_trunk.param_count() + self.client_head.param_count()
        server = self.server_trunk.param_count() + self.server_head.param_count()
        return np.array([client, client + server])


class Critic:
    """Centralized action-value network over joint observation + one-hot joint
    action: a one-agent net, whose agent axis these methods add and drop."""

    def __init__(self, input_dim: int, hidden_dims: Sequence[int], rng=None):
        self.net = DenseNet([input_dim, *hidden_dims, 1], 1)
        if rng is not None:
            self.net.draw(rng, 0)

    def value(self, x: np.ndarray) -> np.ndarray:
        y, _ = self.net.forward(x[None])
        return y[0, :, 0]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        y, cache = self.net.forward(x[None])
        return y[0, :, 0], cache

    def backward(self, cache: list, dvalue: np.ndarray) -> np.ndarray:
        """Gradient of the (1, P) flat parameter buffer."""
        grads, _ = self.net.backward(cache, dvalue[None, :, None])
        return self.net.flat_grads(grads)


class Adam:
    """Adaptive-moment optimizer updating one flat parameter buffer in place.

    In a (V, P) buffer each agent counts its own steps, and a step moves only
    the `active` agents. Bias corrections are Python float powers.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: np.ndarray, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.steps = np.zeros(params.shape[:-1], dtype=int)
        self._corrections = np.zeros((2, 1))

    def step(self, grads: np.ndarray, active: Optional[np.ndarray] = None) -> None:
        rows = ... if active is None or active.all() else np.flatnonzero(active)
        self.steps[rows] += 1
        if self.steps.max() >= self._corrections.shape[1]:
            n = 2 * int(self.steps.max()) + 1
            betas = (self.BETA1, self.BETA2)
            self._corrections = np.array([[1.0 - b**s for s in range(n)] for b in betas])
        b1c, b2c = self._corrections[:, self.steps[rows], None]
        p, g, m, v = self.params[rows], grads[rows], self.m[rows], self.v[rows]
        m *= self.BETA1
        m += (1.0 - self.BETA1) * g
        v *= self.BETA2
        v += (1.0 - self.BETA2) * g * g
        p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)
        if rows is not ...:
            self.params[rows], self.m[rows], self.v[rows] = p, m, v


# --- checkpoint format ---
# Line 1: "MSRL-CKPT v1". Then per tensor: "name rows cols" followed by `rows`
# lines of `cols` decimal floats. %.17g preserves float64 exactly.
#
# `save_checkpoint` also writes a binary sidecar, `<path>.f8`, keyed by the text's
# SHA-256 like a checked-hash .pyc (PEP 552); it is the sidecar's one writer. Line 1:
# "MSRL-CKPT-F8 v1". Line 2: the text's SHA-256 and the body's, in hex. The
# body: one line "name rows cols" per tensor, an empty line, then every
# tensor's values as little-endian float64, in that order.

CKPT_MAGIC = "MSRL-CKPT v1"
_SIDECAR_SUFFIX = ".f8"
_SIDECAR_MAGIC = b"MSRL-CKPT-F8 v1\n"


@contextlib.contextmanager
def partial_file(path: str, mode: str = "wb", **open_args):
    """A file opened as `<path>.<pid>.partial` and renamed to `path` when the block
    ends; on any failure it is removed and the error re-raised."""
    tmp = f"{path}.{os.getpid()}.partial"
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(path: str, tensors: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write checkpoint `path` and its sidecar, each NaN as "nan" parses, through `partial_file`:
    the sidecar first, its OSError ignored. An empty, spaced or repeated name raises first."""
    mats: dict[str, np.ndarray] = {}
    for name, array in tensors:
        if name.split() != [name] or name in mats:
            raise ValueError(f"checkpoint tensor name {name!r} is empty, holds whitespace or repeats")
        mats[name] = np.atleast_2d(np.asarray(array, dtype=float))
    text = hashlib.sha256()
    with partial_file(path) as fh:
        for data in _checkpoint_text(mats):
            text.update(data)
            fh.write(data)
        payload = np.concatenate([np.empty(0), *(a.ravel() for a in mats.values())], dtype="<f8")
        payload[np.isnan(payload)] = np.nan
        index = "".join(f"{name} {a.shape[0]} {a.shape[1]}\n" for name, a in mats.items())
        body = hashlib.sha256(index.encode() + b"\n")
        body.update(memoryview(payload))
        with contextlib.suppress(OSError), partial_file(f"{path}{_SIDECAR_SUFFIX}") as side:
            side.write(_SIDECAR_MAGIC + f"{text.hexdigest()} {body.hexdigest()}\n{index}\n".encode())
            side.write(memoryview(payload))


def _checkpoint_text(mats: dict[str, np.ndarray]) -> Iterable[bytes]:
    """The text of `mats` as UTF-8, in pieces of whole rows, at most 4096 values or one row."""
    yield f"{CKPT_MAGIC}\n".encode()
    for name, mat in mats.items():
        yield "{} {} {}\n".format(name, *mat.shape).encode()
        row_format = " ".join(["%.17g"] * mat.shape[1]) + "\n"
        step = max(1, 4096 // max(mat.shape[1], 1))
        for block in (mat[r : r + step] for r in range(0, len(mat), step)):
            yield (row_format * len(block) % tuple(block.ravel().tolist())).encode()


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """The tensors of checkpoint `path`; a malformed file, or one that is not
    UTF-8, is a ValueError naming it. A load writes no file.

    A load returns the values of the sidecar `<path>.f8` when it was made from
    a text of the same SHA-256 and its own digest holds. Otherwise it parses
    the text, as it does a text that cannot be read twice, from a pipe say."""
    with open(path, "rb") as fh:
        if fh.seekable():
            text = hashlib.sha256()
            while block := fh.read(1 << 20):
                text.update(block)
            try:
                return _read_sidecar(os.fsdecode(path) + _SIDECAR_SUFFIX, text.hexdigest())
            except (OSError, ValueError):
                fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8") as text_fh:
            try:
                return _parse_checkpoint(path, text_fh)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8: {exc}") from None


def _parse_checkpoint(path: str, fh) -> dict[str, np.ndarray]:
    """The tensors of text `fh`, each allocated after its rows are read, so within the file."""
    magic = fh.readline().rstrip("\n")
    if magic != CKPT_MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
    out: dict[str, np.ndarray] = {}
    header_lines: dict[str, int] = {}  # the line of each tensor's header
    line = 1  # the number of the last line read
    while header := fh.readline():
        line += 1
        if not header.strip():
            continue
        r = -1  # the row being read; -1 while reading the header
        try:
            name, rows_s, cols_s = header.split()
            if header_lines.setdefault(name, line) != line:
                raise ValueError(f"tensor {name} repeats the tensor of line {header_lines[name]}")
            rows, cols = np.empty((int(rows_s), int(cols_s), 0)).shape[:2]  # checked, not allocated
            data = []
            for r in range(rows):
                if not (row := fh.readline()):
                    raise ValueError(f"tensor {name}: the file ends before row {r} of {rows}")
                fields = row.split()
                if len(fields) != cols:
                    raise ValueError(f"tensor {name}: row {r} has {len(fields)} values, wanted {cols}")
                data.append(np.array(fields, dtype=float))  # numpy parses each string as float() does
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise ValueError(f"{path}: line {line + r + 1}: {exc}") from None
        line += rows
        out[name] = np.reshape(data, (rows, cols))
    return out


def _read_sidecar(path: str, text_digest: str) -> dict[str, np.ndarray]:
    """The tensors that sidecar `path` holds, as views of one array; a ValueError
    unless it was made from the text of SHA-256 `text_digest` and is whole."""
    with open(path, "rb") as fh:
        if fh.readline(64) != _SIDECAR_MAGIC:
            raise ValueError("not a checkpoint sidecar")
        keyed, body_digest = fh.readline(256).decode().split()
        if keyed != text_digest:
            raise ValueError("sidecar of another text")
        body = hashlib.sha256()
        shapes: dict[str, tuple[int, int]] = {}
        while (entry := fh.readline(4096)) != b"\n":
            body.update(entry)
            name, rows, cols = entry.decode().split()
            shapes[name] = (int(rows), int(cols))
        body.update(entry)
        sizes = [rows * cols for rows, cols in shapes.values()]
        if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * sum(sizes):
            raise ValueError("payload size differs from the index")
        payload = np.fromfile(fh, "<f8")
    body.update(memoryview(payload))
    if body.hexdigest() != body_digest:
        raise ValueError("sidecar digest mismatch")
    ends = np.cumsum([0, *sizes]).tolist()
    return {name: payload[a:b].reshape(shape)
            for (name, shape), a, b in zip(shapes.items(), ends, ends[1:])}
