"""Dense float64 MLP engine.

Every network is one dense ReLU core (`DenseNet`) with one forward and
one backward loop; the classifier adds a softmax cross-entropy head, the
attackers a sigmoid BCE head.  Forward prediction and gradient evaluation
on a frozen model are pure functions of (parameters, input), and training
is seeded so repeated runs are bitwise identical.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    InvalidInputError,
    ShapeError,
    TrainingError,
)

# Lower clamp for probabilities inside log(); keeps every reported loss finite.
PROB_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"MIANNCP\x00"
CHECKPOINT_VERSION = 1

_OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for seeded minibatch training."""

    epochs: int
    batch_size: int
    learning_rate: float
    optimizer: str = "adam"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError("learning_rate must be positive and finite")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {_OPTIMIZERS}")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_epsilon <= 0:
            raise ConfigError("adam_epsilon must be positive")


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input must be finite")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(probs, label):
    """-log p[label] with the probability clamped below by PROB_FLOOR: a
    float for one probability vector (c,) and label, one loss per row for a
    block (n, c) and n labels.  Each log is `math.log` of one value; numpy's
    vectorised log differs from it in the last bit for some inputs."""
    p = np.asarray(probs, dtype=np.float64)
    rows = np.atleast_2d(p)
    labels = np.array(label, dtype=np.int64, ndmin=1)
    if p.ndim not in (1, 2) or labels.shape != rows.shape[:1]:
        raise ShapeError(f"cross_entropy_loss got probs {p.shape} and labels {labels.shape}")
    if np.any((labels < 0) | (labels >= rows.shape[1])):
        raise IndexError(f"label out of range for {rows.shape[1]} classes")
    picked = np.clip(rows[np.arange(len(labels)), labels], PROB_FLOOR, 1.0)
    return one_or_block(p, np.array([-math.log(v) for v in picked.tolist()]))


def one_or_block(x, block):
    """`block`, one result per row of `x`, as a call on `x` returns it: when
    `x` is one input (d,), its row 0, as a float where that row is a scalar."""
    if np.ndim(x) != 1:
        return block
    return float(block[0]) if block.ndim == 1 else block[0]


def _check_layer_dims(layer_dims) -> list[int]:
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2:
        raise ConfigError("layer_dims needs at least an input and an output size")
    if any(d <= 0 for d in dims):
        raise ConfigError("layer dimensions must be positive")
    return dims


class DenseNet:
    """Fully connected ReLU layers under an output head.

    Subclasses define the head: `head_output` maps the last pre-activation
    to the prediction, `head_losses` gives the per-sample losses and
    `head_delta` the gradient of their sum w.r.t. the last pre-activation.
    """

    def __init__(self, layer_dims: Sequence[int], weights: list, biases: list):
        """Copies every parameter into a C-ordered float64 array, so a net
        never aliases its caller's arrays."""
        dims = _check_layer_dims(layer_dims)
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ShapeError("parameter list length does not match layer_dims")
        weights = [np.array(w, dtype=np.float64, order="C") for w in weights]
        biases = [np.array(b, dtype=np.float64, order="C") for b in biases]
        if not all(np.all(np.isfinite(p)) for p in weights + biases):
            raise InvalidInputError("network parameters must be finite")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]):
                raise ShapeError(
                    f"layer {i} weight shape {w.shape} != ({dims[i]}, {dims[i + 1]})"
                )
            if b.shape != (dims[i + 1],):
                raise ShapeError(f"layer {i} bias shape {b.shape} != ({dims[i + 1]},)")
        self.layer_dims = dims
        self.weights = weights
        self.biases = biases

    @classmethod
    def build(cls, layer_dims: Sequence[int], seed: int):
        """Seeded init: weights uniform in +/- 1/sqrt(fan_in), biases zero."""
        dims = _check_layer_dims(layer_dims)
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims, dims[1:]):
            limit = 1.0 / math.sqrt(fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(dims, weights, biases)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward(self, X: np.ndarray, product=np.matmul):
        """Batch forward pass: (pre-activations, activations starting with
        the input, head output).  `product(A, W)` multiplies the activations
        by a weight matrix; `row_product` makes every row independent of
        the others."""
        pres = []
        acts = [X]
        a = X
        last = self.n_layers - 1
        for i in range(self.n_layers):
            z = product(a, self.weights[i]) + self.biases[i]
            pres.append(z)
            if i < last:
                a = np.maximum(z, 0.0)
                acts.append(a)
        return pres, acts, self.head_output(pres[-1])


class MLPClassifier(DenseNet):
    """Fully connected ReLU network with a softmax output layer."""

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def head_output(self, logits: np.ndarray) -> np.ndarray:
        return softmax(logits)

    def head_losses(self, logits: np.ndarray, probs: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Cross entropy with the probability clamped below by PROB_FLOOR."""
        return -np.log(np.clip(probs[np.arange(len(Y)), Y], PROB_FLOOR, 1.0))

    def head_delta(self, probs: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Gradient of the unclamped cross entropy; the clamp only bounds the
        reported value."""
        delta = probs.copy()
        delta[np.arange(len(Y)), Y] -= 1.0
        return delta


def build_mlp(layer_dims: Sequence[int], seed: int) -> MLPClassifier:
    """Seeded softmax classifier; see `DenseNet.build`."""
    return MLPClassifier.build(layer_dims, seed)


def row_product(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """A @ W as one vector-matrix product per row of A.

    Each row is then bitwise the product of that row alone, whatever the
    block holds; a flat `A @ W` runs one matrix-matrix product whose rows
    differ from the one-row product in the last bits.
    """
    return (A[:, None, :] @ W)[:, 0, :]


def _backward(net: DenseNet, pres, delta, need_input, product=np.matmul):
    """Back-propagate the head delta through the dense core: (each layer's
    delta, the gradient w.r.t. its pre-activation; the input grad or None)."""
    deltas = [None] * net.n_layers
    for i in reversed(range(net.n_layers)):
        deltas[i] = delta
        if i > 0:
            delta = product(delta, net.weights[i].T) * (pres[i - 1] > 0.0)
    return deltas, product(delta, net.weights[0].T) if need_input else None


def _parameter_grads(acts, deltas) -> list:
    """Gradients of the batch's summed head loss in `parameters()` order."""
    grads = []
    for a, delta in zip(acts, deltas):
        grads += [a.T @ delta, delta.sum(axis=0)]
    return grads


def loss_and_grads(net: DenseNet, X, Y, need_input=False):
    """Mean head loss over the batch plus its exact gradients.

    Returns (loss, parameter grads in `parameters()` order, input grad or
    None, head output).
    """
    pres, acts, out = net.forward(X)
    loss = float(np.mean(net.head_losses(pres[-1], out, Y)))
    deltas, g_in = _backward(net, pres, net.head_delta(out, Y) / X.shape[0], need_input)
    return loss, _parameter_grads(acts, deltas), g_in, out


def mean_loss(net: DenseNet, X, Y) -> float:
    """Mean head loss over the batch, forward pass only."""
    pres, _, out = net.forward(X)
    return float(np.mean(net.head_losses(pres[-1], out, Y)))


def _check_rows(model: MLPClassifier, x) -> np.ndarray:
    """One input (d,) or a block of inputs (n, d) as an (n, d) float array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != model.input_dim:
        raise ShapeError(
            f"input shape {arr.shape} does not match model input_dim {model.input_dim}"
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("model input must be finite")
    return arr.reshape(-1, model.input_dim)


def _check_labels(model: MLPClassifier, y, n: int) -> np.ndarray:
    """One label or one per row, as an (n,) integer array."""
    labels = np.array(y, dtype=np.int64, ndmin=1)
    if labels.shape != (n,):
        raise ShapeError(f"{labels.shape[0]} labels for {n} inputs")
    bad = labels[(labels < 0) | (labels >= model.n_classes)]
    if bad.size:
        raise IndexError(f"label {bad[0]} out of range for {model.n_classes} classes")
    return labels


def forward_predict(model: MLPClassifier, x) -> np.ndarray:
    """Class-probability vector of one input (d,), or one per row of a
    block (n, d); each sums to 1 and is bitwise what the row alone gives."""
    _, _, probs = model.forward(_check_rows(model, x), row_product)
    return one_or_block(x, probs)


def row_backward(model: MLPClassifier, x, y):
    """One forward and backward pass of the true-label cross entropy over a
    block (n, d) and n labels, or one input and label, each row bitwise what
    the row alone gives: block arrays (pre-activations, activations, probs,
    deltas, input grads).  deltas[i] is each row's gradient w.r.t. layer
    i's pre-activation; see `row_parameter_grads`."""
    X = _check_rows(model, x)
    Y = _check_labels(model, y, X.shape[0])
    pres, acts, probs = model.forward(X, row_product)
    deltas, g_in = _backward(model, pres, model.head_delta(probs, Y), True, row_product)
    return pres, acts, probs, deltas, g_in


def row_parameter_grads(acts, deltas, k: int) -> list:
    """Row k's parameter gradients in `parameters()` order from a
    `row_backward` pass: the batch gradient of that row alone, so layer i's
    weight gradient is the gemm `a_i[k][:, None] @ delta_i[k][None, :]`
    (an outer product by multiplication gives -0.0 where it gives +0.0)."""
    return _parameter_grads([a[k : k + 1] for a in acts], [d[k : k + 1] for d in deltas])


def sample_evaluation(model: MLPClassifier, x, y):
    """(loss, probs, input gradient) of the true-label cross entropy for one
    input and label; the attack hot path.  Given a block (n, d) and n
    labels it returns the (n,) losses, (n, c) probs and (n, d) input
    gradients, each row bitwise what the row alone gives."""
    pres, _, probs, _, g_in = row_backward(model, x, y)
    losses = model.head_losses(pres[-1], probs, _check_labels(model, y, probs.shape[0]))
    return one_or_block(x, losses), one_or_block(x, probs), one_or_block(x, g_in)


def backward_gradients(model: MLPClassifier, x, y):
    """Exact reverse-mode gradients of the per-sample loss: (parameter grads
    in `parameters()` order, input grad); shapes mirror the differentiated
    arrays.  The one-row call of `row_backward`."""
    if np.ndim(x) != 1:
        raise ShapeError("backward_gradients takes one input vector")
    _, acts, _, deltas, g_in = row_backward(model, x, y)
    return row_parameter_grads(acts, deltas, 0), g_in[0]


def _dataset_arrays(model: MLPClassifier, X, Y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.int64)
    if X.ndim != 2 or Y.shape != X.shape[:1]:
        raise ShapeError(f"dataset needs (n, d) features and (n,) labels, got {X.shape}, {Y.shape}")
    if X.shape[0] == 0:
        raise ConfigError("dataset is empty")
    if X.shape[1] != model.input_dim:
        raise ShapeError(
            f"sample dim {X.shape[1]} does not match model input_dim {model.input_dim}"
        )
    if Y.min() < 0 or Y.max() >= model.n_classes:
        raise IndexError("sample label out of range for model classes")
    return X, Y


class AdamState:
    """Adam moment buffers with bias correction, one pair per parameter."""

    def __init__(self, shapes, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon

    def step(self, params: list, grads: list, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


def train(model: MLPClassifier, X, Y, config: TrainConfig):
    """Seeded minibatch training; returns (model, per-epoch mean loss history).

    The model is updated in place.  Batches follow a fresh seeded permutation
    each epoch; the final short batch is kept.
    """
    X, Y = _dataset_arrays(model, X, Y)
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    adam = None
    if config.optimizer == "adam":
        adam = AdamState(
            [p.shape for p in params],
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            epsilon=config.adam_epsilon,
        )
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            try:
                loss, grads, _, _ = loss_and_grads(model, X[idx], Y[idx])
            except InvalidInputError as exc:
                # overflowed parameters poison the forward pass
                raise TrainingError(f"training diverged: {exc}") from exc
            if adam is not None:
                adam.step(params, grads, config.learning_rate)
            else:
                for p, g in zip(params, grads):
                    p -= config.learning_rate * g
            total += loss * len(idx)
        epoch_loss = total / n
        if not math.isfinite(epoch_loss):
            raise TrainingError("training diverged to a non-finite loss")
        history.append(epoch_loss)
    return model, history


def empirical_risk(model: MLPClassifier, X, Y) -> float:
    """Mean cross-entropy loss over the dataset."""
    X, Y = _dataset_arrays(model, X, Y)
    return mean_loss(model, X, Y)


def classification_accuracy(model: MLPClassifier, X, Y) -> float:
    X, Y = _dataset_arrays(model, X, Y)
    _, _, probs = model.forward(X)
    return float(np.mean(np.argmax(probs, axis=1) == Y))


# ---------------------------------------------------------------------------
# Checkpoint format: magic(8) | version u32 | n_dims u32 | dims u32[n] |
# per layer: weight f64 row-major, then bias f64.  Little endian throughout;
# raw float64 bytes make reloads bitwise exact.
# ---------------------------------------------------------------------------


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise DataError("checkpoint truncated")
    return buf


def write_net_params(fh: BinaryIO, layer_dims, weights: Iterable, biases: Iterable):
    dims = [int(d) for d in layer_dims]
    fh.write(struct.pack("<I", len(dims)))
    fh.write(struct.pack(f"<{len(dims)}I", *dims))
    for w, b in zip(weights, biases):
        fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def read_net_params(fh: BinaryIO):
    """Layer sizes and parameters; the sizes are checked against the bytes
    left in the file before any parameter is read, and every parameter must
    be finite."""
    (n_dims,) = struct.unpack("<I", _read_exact(fh, 4))
    if n_dims < 2 or n_dims > 1024:
        raise DataError(f"checkpoint has implausible layer count {n_dims}")
    dims = list(struct.unpack(f"<{n_dims}I", _read_exact(fh, 4 * n_dims)))
    if 0 in dims:
        raise DataError(f"checkpoint declares a zero layer width in {dims}")
    need = sum(8 * (fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
    pos = fh.tell()
    if need > fh.seek(0, os.SEEK_END) - pos:
        raise DataError(f"checkpoint truncated: layers {dims} need {need} bytes")
    fh.seek(pos)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = np.frombuffer(_read_exact(fh, 8 * fan_in * fan_out), dtype="<f8")
        b = np.frombuffer(_read_exact(fh, 8 * fan_out), dtype="<f8")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise DataError("checkpoint holds non-finite parameters")
        weights.append(w.reshape(fan_in, fan_out))
        biases.append(b)
    return dims, weights, biases


def save_checkpoint(model: MLPClassifier, path) -> None:
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        write_net_params(fh, model.layer_dims, model.weights, model.biases)


def load_checkpoint(path) -> MLPClassifier:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError("not a model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        dims, weights, biases = read_net_params(fh)
        if fh.read(1):
            raise DataError("trailing bytes after checkpoint payload")
    return MLPClassifier(dims, weights, biases)
