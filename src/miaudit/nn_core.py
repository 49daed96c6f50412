"""Dense float64 MLP engine.

Every network is one dense ReLU core (`DenseNet`) with one forward and
one backward loop; the classifier adds a softmax cross-entropy head, the
attackers a sigmoid BCE head.  Forward prediction and gradient evaluation
on a frozen model are pure functions of (parameters, input), and every
net trains through one seeded epoch loop (`minibatch_epochs`), so repeated
runs are bitwise identical.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import BinaryReader, write_bytes
from .errors import ConfigError, InvalidInputError, ShapeError, TrainingError

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


def cross_entropy_loss(probs, labels) -> np.ndarray:
    """-log p[label] of each row of a probability block (n, c) with n
    labels, the probability clamped below by PROB_FLOOR: the one
    cross-entropy kernel, which every classifier loss in the package reads."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if p.ndim != 2 or labels.shape != p.shape[:1]:
        raise ShapeError(f"cross_entropy_loss got probs {p.shape} and labels {labels.shape}")
    labels = _class_labels(labels, p.shape[1])
    return -np.log(np.clip(p[np.arange(len(labels)), labels], PROB_FLOOR, 1.0))


def flat_size(layer_dims) -> int:
    """The number of parameters of a net with these layer sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))


def parameter_views(layer_dims, flat: np.ndarray) -> list:
    """C-contiguous views of a flat buffer of a net with these layer sizes,
    in `parameters()` order: each layer's weight (fan_in, fan_out) and then
    its bias (fan_out,)."""
    views, start = [], 0
    for fan_in, fan_out in zip(layer_dims, layer_dims[1:]):
        for shape in ((fan_in, fan_out), (fan_out,)):
            size = math.prod(shape)
            views.append(flat[start : start + size].reshape(shape))
            start += size
    return views


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
        self.flat = np.empty(flat_size(dims))
        views = parameter_views(dims, self.flat)
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
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def parameter_count(self) -> int:
        return self.flat.size

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
        return cross_entropy_loss(probs, Y)

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


def loss_and_grads(net: DenseNet, X, Y, need_input=False, grads=None):
    """Mean head loss over the batch plus its exact gradients.

    Returns (loss, parameter grads in `parameters()` order, input grad or
    None, head output).  The parameter grads are written into `grads`, for
    example `parameter_views` of a flat buffer, or into new arrays.
    """
    if grads is None:
        grads = parameter_views(net.layer_dims, np.empty(net.parameter_count()))
    pres, acts, out = net.forward(X)
    deltas, g_in = _backward(net, pres, net.head_delta(out, Y) / X.shape[0], need_input)
    _parameter_grads(acts, deltas, grads)
    return _mean(net.head_losses(pres[-1], out, Y)), grads, g_in, out


def mean_loss(net: DenseNet, X, Y) -> float:
    """Mean head loss over the batch, forward pass only."""
    pres, _, out = net.forward(X)
    return _mean(net.head_losses(pres[-1], out, Y))


def _check_rows(model: DenseNet, X) -> np.ndarray:
    """A block of inputs (n, d) as a float array."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != model.input_dim:
        raise ShapeError(f"input shape {arr.shape} is not an (n, {model.input_dim}) block")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("model input must be finite")
    return arr


def _class_labels(Y, n_classes: int) -> np.ndarray:
    """Labels as an int64 array of the same shape.  A label that is not an
    integer in [0, n_classes) is an InvalidInputError; an integral float
    such as 1.0 is its integer, never a truncated fraction."""
    labels = np.asarray(Y)
    if labels.dtype.kind not in "biu":
        try:
            values = labels.astype(np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"labels must be integers: {exc}") from exc
        fractional = values[values != np.trunc(values)]  # nan included
        if fractional.size:
            raise InvalidInputError(f"label {fractional[0]} is not an integer")
        labels = values
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise InvalidInputError(f"label {bad[0]} out of range for {n_classes} classes")
    return labels.astype(np.int64, copy=False)


def _check_labels(model: MLPClassifier, Y, n: int) -> np.ndarray:
    """One label per row, as an (n,) integer array."""
    labels = np.asarray(Y)
    if labels.shape != (n,):
        raise ShapeError(f"labels of shape {labels.shape} for {n} inputs")
    return _class_labels(labels, model.n_classes)


def forward_predict(model: MLPClassifier, X) -> np.ndarray:
    """Class-probability vector of each row of a block (n, d); each sums to
    1 and is bitwise what the row alone gives."""
    _, _, probs = model.forward(_check_rows(model, X), row_product)
    return probs


def row_backward(model: MLPClassifier, X, Y):
    """One forward and backward pass of the true-label cross entropy over a
    block (n, d) and n labels, each row bitwise what the row alone gives:
    block arrays (pre-activations, activations, probs, deltas, input
    grads).  deltas[i] is each row's gradient w.r.t. layer i's
    pre-activation; see `row_gradient_factors`."""
    X = _check_rows(model, X)
    Y = _check_labels(model, Y, X.shape[0])
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


def sample_evaluation(model: MLPClassifier, X, Y):
    """The (n,) true-label cross entropies, (n, c) probs and (n, d) input
    gradients of a block (n, d) and n labels, each row bitwise what the row
    alone gives; the attack hot path."""
    pres, _, probs, _, g_in = row_backward(model, X, Y)
    return model.head_losses(pres[-1], probs, Y), probs, g_in


def backward_gradients(model: MLPClassifier, x, y):
    """Exact reverse-mode gradients of the per-sample loss: (parameter grads
    in `parameters()` order, input grad); shapes mirror the differentiated
    arrays.  The one-row call of `row_backward`."""
    if np.ndim(x) != 1:
        raise ShapeError("backward_gradients takes one input vector")
    _, acts, _, deltas, g_in = row_backward(model, np.asarray(x)[None, :], [y])
    # the batch gradient of the row alone: layer i's weight gradient is the
    # gemm a_i.T @ delta_i (an outer product by multiplication gives -0.0
    # where the gemm gives +0.0)
    grads = parameter_views(model.layer_dims, np.empty(model.parameter_count()))
    return _parameter_grads(acts, deltas, grads), g_in[0]


def _dataset_arrays(model: MLPClassifier, X, Y) -> tuple[np.ndarray, np.ndarray]:
    X = _check_rows(model, X)
    if X.shape[0] == 0:
        raise ConfigError("dataset is empty")
    return X, _check_labels(model, Y, X.shape[0])


class AdamState:
    """Adam moment buffers with bias correction over one flat parameter
    buffer (Kingma & Ba, arXiv:1412.6980), with the paper's default betas
    and epsilon.  The update is elementwise, so it runs once over the whole
    buffer, in place."""

    BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._scratch = np.empty(size)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """Moment updates, then
        `params -= lr * (m / c1) / (sqrt(v / c2) + EPSILON)`, each operation
        in this order and grouping.  `grads` is overwritten: once the moments
        hold it, it serves as the second temporary."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        m, v, s = self.m, self.v, self._scratch
        m *= b1
        m += np.multiply(1.0 - b1, grads, out=s)
        v *= b2
        np.multiply(grads, grads, out=s)
        v += np.multiply(1.0 - b2, s, out=s)
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.EPSILON
        u = np.divide(m, c1, out=grads)
        np.multiply(lr, u, out=u)
        params -= np.divide(u, s, out=u)


def minibatch_epochs(net: DenseNet, X: np.ndarray, Y: np.ndarray, config: TrainConfig):
    """The one epoch loop of every net: seeded minibatch training of `net`
    in place, by Adam or SGD steps over its flat buffer.  Batches follow a
    fresh seeded permutation each epoch, the final short batch kept.  After
    each of `config.epochs` epochs, yields the batch-weighted mean of the
    batch losses, each taken before its step."""
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    grad = np.empty_like(net.flat)
    grads = parameter_views(net.layer_dims, grad)
    adam = AdamState(grad.size) if config.optimizer == "adam" else None
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            try:
                loss, _, _, _ = loss_and_grads(net, X[idx], Y[idx], grads=grads)
            except InvalidInputError as exc:
                # overflowed parameters poison the forward pass
                raise TrainingError(f"training diverged: {exc}") from exc
            if adam is not None:
                adam.step(net.flat, grad, config.learning_rate)
            else:
                net.flat -= config.learning_rate * grad
            total += loss * len(idx)
        yield total / n


def train(model: MLPClassifier, X, Y, config: TrainConfig):
    """Seeded minibatch training (`minibatch_epochs`); returns (model,
    per-epoch mean loss history).  The model is updated in place."""
    X, Y = _dataset_arrays(model, X, Y)
    history = []
    for epoch_loss in minibatch_epochs(model, X, Y, config):
        if not math.isfinite(epoch_loss):
            raise TrainingError("training diverged to a non-finite loss")
        history.append(epoch_loss)
    return model, history


def empirical_risk(model: MLPClassifier, X, Y) -> float:
    """Mean cross-entropy loss over the dataset."""
    return mean_loss(model, *_dataset_arrays(model, X, Y))


def classification_accuracy(model: MLPClassifier, X, Y) -> float:
    X, Y = _dataset_arrays(model, X, Y)
    return float(np.mean(np.argmax(model.forward(X)[2], axis=1) == Y))


# ---------------------------------------------------------------------------
# Checkpoint format: magic(8) | version u32 | n_dims u32 | dims u32[n] |
# the net's `flat` buffer as f64, in `parameters()` order.  Little endian
# throughout; raw float64 bytes make reloads bitwise exact.
# ---------------------------------------------------------------------------


def net_chunks(net: DenseNet) -> list:
    """A net's n_dims and dims, then its `flat` block, as a checkpoint holds them."""
    dims = net.layer_dims
    return [struct.pack(f"<{len(dims) + 1}I", len(dims), *dims), net.flat.astype("<f8", copy=False)]


def read_net_header(reader: BinaryReader) -> tuple[list, int]:
    """A net's dims, read from a checkpoint, and the byte size of its block."""
    (n_dims,) = reader.unpack("<I")
    if n_dims < 2 or n_dims > 1024:
        raise reader.error(f"implausible layer count {n_dims}")
    dims = list(reader.unpack(f"<{n_dims}I"))
    if 0 in dims:
        raise reader.error(f"zero layer width in {dims}")
    return dims, 8 * flat_size(dims)


def net_from_block(cls, layer_dims, block, reader: BinaryReader):
    """A `cls` net whose `flat` buffer is the f64 bytes of `block`."""
    flat = np.frombuffer(block, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise reader.error("non-finite parameters")
    views = parameter_views(layer_dims, flat)
    return cls(layer_dims, views[0::2], views[1::2])


def save_checkpoint(model: MLPClassifier, path) -> None:
    write_bytes(path, [CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION), *net_chunks(model)])


def load_checkpoint(path) -> MLPClassifier:
    reader = BinaryReader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "a model checkpoint")
    dims, size = read_net_header(reader)
    return net_from_block(MLPClassifier, dims, reader.rest(size), reader)
