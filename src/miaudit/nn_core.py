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
        """Copies every parameter into one flat float64 buffer, `flat`, so a
        net never aliases its caller's arrays; `weights[i]` and `biases[i]`
        are C-contiguous views of it, laid out in `parameters()` order."""
        dims = _check_layer_dims(layer_dims)
        if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise ShapeError("parameter list length does not match layer_dims")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
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
        self.flat = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:])))
        views = self.parameter_views(self.flat)
        for view, p in zip(views, [p for pair in zip(weights, biases) for p in pair]):
            view[...] = p
        self.weights = views[0::2]
        self.biases = views[1::2]

    def __reduce__(self):
        """Pickle and copy through `__init__`, so the copy's parameters
        view its own `flat` again."""
        return type(self), (self.layer_dims, self.weights, self.biases)

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
        return self.flat.size

    def parameter_views(self, flat: np.ndarray) -> list:
        """C-contiguous views of a flat buffer shaped like `parameters()`:
        each layer's weight (fan_in, fan_out) and then its bias (fan_out,)."""
        views, start = [], 0
        for fan_in, fan_out in zip(self.layer_dims, self.layer_dims[1:]):
            for shape in ((fan_in, fan_out), (fan_out,)):
                size = math.prod(shape)
                views.append(flat[start : start + size].reshape(shape))
                start += size
        return views

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


def _parameter_grads(acts, deltas, grads: list) -> list:
    """Gradients of the batch's summed head loss, written into `grads`, one
    array per parameter in `parameters()` order, and returned."""
    for a, delta, g_w, g_b in zip(acts, deltas, grads[0::2], grads[1::2]):
        np.matmul(a.T, delta, out=g_w)
        delta.sum(axis=0, out=g_b)
    return grads


def _mean(losses: np.ndarray) -> float:
    """`np.mean` of a 1-D float64 array, bitwise: the same add-reduce and
    the same divide by the count, without `np.mean`'s Python dispatch, which
    costs more than the arithmetic on one minibatch."""
    return float(losses.sum() / losses.shape[0])


def batch_grads(net: DenseNet, X, Y, grads: list, need_input=False):
    """Forward and backward pass of the batch's mean head loss, without the
    loss itself: (pre-activations, head output, parameter grads written into
    `grads`, input grad or None)."""
    pres, acts, out = net.forward(X)
    deltas, g_in = _backward(net, pres, net.head_delta(out, Y) / X.shape[0], need_input)
    return pres, out, _parameter_grads(acts, deltas, grads), g_in


def loss_and_grads(net: DenseNet, X, Y, need_input=False, grads=None):
    """Mean head loss over the batch plus its exact gradients.

    Returns (loss, parameter grads in `parameters()` order, input grad or
    None, head output).  The parameter grads are written into `grads`, for
    example `net.parameter_views` of a flat buffer, or into new arrays.
    """
    if grads is None:
        grads = net.parameter_views(np.empty(net.parameter_count()))
    pres, out, grads, g_in = batch_grads(net, X, Y, grads, need_input)
    return _mean(net.head_losses(pres[-1], out, Y)), grads, g_in, out


def mean_loss(net: DenseNet, X, Y) -> float:
    """Mean head loss over the batch, forward pass only."""
    pres, _, out = net.forward(X)
    return _mean(net.head_losses(pres[-1], out, Y))


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
    i's pre-activation; see `row_gradient_factors`."""
    X = _check_rows(model, x)
    Y = _check_labels(model, y, X.shape[0])
    pres, acts, probs = model.forward(X, row_product)
    deltas, g_in = _backward(model, pres, model.head_delta(probs, Y), True, row_product)
    return pres, acts, probs, deltas, g_in


@dataclass(frozen=True)
class FactorSums:
    """Per-row reductions of one factor of a rank-1 gradient block, each an
    (n,) array; `powers[p - 1]` is the sum of x**p, for p = 1..4."""

    powers: tuple
    abs_sum: np.ndarray
    min: np.ndarray
    max: np.ndarray
    abs_min: np.ndarray


def _factor_sums(x: np.ndarray) -> FactorSums:
    # a C-ordered block reduces each row along axis 1 on its own, so every
    # row's sums are bitwise what the row alone gives
    x = np.ascontiguousarray(x)
    x2 = x * x
    x_abs = np.abs(x)
    return FactorSums(
        powers=(x.sum(axis=1), x2.sum(axis=1), (x2 * x).sum(axis=1), (x2 * x2).sum(axis=1)),
        abs_sum=x_abs.sum(axis=1),
        min=x.min(axis=1),
        max=x.max(axis=1),
        abs_min=x_abs.min(axis=1),
    )


def row_gradient_factors(acts, deltas) -> list:
    """Per layer, the (activation, delta) `FactorSums` of every row of a
    `row_backward` pass.

    Row k's gradient of layer i's parameters is the weight block
    `a_i[k] (x) delta_i[k]` and the bias block `delta_i[k]`: the rank-1
    block of `(a_i[k], 1) (x) delta_i[k]`.  So its sum of g**p is
    `(sum a**p + 1) * sum delta**p`, its l1 norm factorises the same way,
    its largest entry is one of the four products of the two factors'
    extremes or the largest delta, and its smallest |g| is
    `min|a| * min|delta|` or the smallest |delta| (Goodfellow 2015,
    arXiv:1510.01799).  No row's gradient is ever formed.
    """
    return [(_factor_sums(a), _factor_sums(d)) for a, d in zip(acts, deltas)]


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
    # the batch gradient of the row alone: layer i's weight gradient is the
    # gemm a_i.T @ delta_i (an outer product by multiplication gives -0.0
    # where the gemm gives +0.0)
    grads = model.parameter_views(np.empty(model.parameter_count()))
    return _parameter_grads(acts, deltas, grads), g_in[0]


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
    """Adam moment buffers with bias correction over one flat parameter
    buffer (Kingma & Ba, arXiv:1412.6980), with the paper's default betas
    and epsilon.  The update is elementwise, so it runs once over the whole
    buffer, in place."""

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = (np.empty(size), np.empty(size))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """Moment updates, then
        `params -= lr * (m / c1) / (sqrt(v / c2) + EPSILON)`, each operation
        in this order and grouping."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        s, u = self._scratch
        m *= b1
        m += np.multiply(1.0 - b1, grads, out=s)
        v *= b2
        np.multiply(grads, grads, out=s)
        v += np.multiply(1.0 - b2, s, out=s)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.EPSILON
        np.divide(m, c1, out=u)
        np.multiply(lr, u, out=u)
        params -= np.divide(u, s, out=u)


def train(model: MLPClassifier, X, Y, config: TrainConfig):
    """Seeded minibatch training; returns (model, per-epoch mean loss history).

    The model is updated in place.  Batches follow a fresh seeded permutation
    each epoch; the final short batch is kept.
    """
    X, Y = _dataset_arrays(model, X, Y)
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    grad = np.empty_like(model.flat)
    grads = model.parameter_views(grad)
    adam = AdamState(grad.size) if config.optimizer == "adam" else None
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            try:
                loss, _, _, _ = loss_and_grads(model, X[idx], Y[idx], grads=grads)
            except InvalidInputError as exc:
                # overflowed parameters poison the forward pass
                raise TrainingError(f"training diverged: {exc}") from exc
            if adam is not None:
                adam.step(model.flat, grad, config.learning_rate)
            else:
                model.flat -= config.learning_rate * grad
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
