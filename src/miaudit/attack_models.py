"""Trained membership attackers.

Feature extractors turn a block of samples (n, d) with n labels into one
fixed-length row per sample; attackers are binary nets
(logistic = no hidden layer, combiner = two ReLU layers, ensemble = the
fixed [6, 40, 40, 20, 10, 1] stack) trained on min-max scaled features
with member = 1, nonmember = 0.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .artifacts import BinaryReader, write_bytes, write_csv
from .errors import ConfigError, InvalidInputError, ShapeError, TrainingError
from .nn_core import (
    DenseNet,
    MLPClassifier,
    TrainConfig,
    _check_rows,
    cross_entropy_loss,
    loss_and_grads,
    mean_loss,
    minibatch_epochs,
    net_chunks,
    net_from_block,
    read_net_header,
    row_backward,
    row_gradient_factors,
    row_product,
)
from .scores import ENSEMBLE_FEATURE_ORDER  # noqa: F401  re-exported: the ensemble attacker's input columns

GRAD_STAT_NAMES = ("l1_norm", "l2_norm", "max_value", "mean", "skewness", "kurtosis", "abs_min")

ENSEMBLE_LAYER_DIMS = (6, 40, 40, 20, 10, 1)

ATTACKER_MAGIC = b"MIAATKC\x00"
ATTACKER_VERSION = 1

_MOMENT_FLOOR = 1e-24

# Ridge weight of the logistic attackers' penalised objective.  The unpenalised
# maximum-likelihood fit overfits the seven collinear gradient statistics and
# scores worse; any value from 1e-4 to 1e-2 keeps the reference AUROCs.
LOGISTIC_RIDGE = 1e-3
_ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton line search
_MAX_HALVINGS = 40


def gradient_statistics(G) -> np.ndarray:
    """Population-moment summary of each row of a block (n, d) of gradient
    vectors, one (n, 7) row in GRAD_STAT_NAMES order from row reductions
    along axis 1; skew/kurtosis 0 for a near-constant row, kurtosis is
    excess (normal -> 0)."""
    G = np.ascontiguousarray(G, dtype=np.float64)
    if G.ndim != 2:
        raise ShapeError(f"gradient statistics take an (n, d) block, got shape {G.shape}")
    if G.shape[1] == 0:
        raise ConfigError("gradient statistics need a non-empty vector")
    mean = np.mean(G, axis=1)
    centered = G - mean[:, None]
    m2 = np.mean(centered**2, axis=1)
    flat = m2 < _MOMENT_FLOOR
    m2 = np.where(flat, 1.0, m2)
    return np.stack(
        [
            np.sum(np.abs(G), axis=1),
            np.sqrt(np.sum(G * G, axis=1)),
            np.max(G, axis=1),
            mean,
            np.where(flat, 0.0, np.mean(centered**3, axis=1) / m2**1.5),
            np.where(flat, 0.0, np.mean(centered**4, axis=1) / m2**2 - 3.0),
            np.min(np.abs(G), axis=1),
        ],
        axis=1,
    )


# ---------------------------------------------------------------------------
# Feature extractors
# ---------------------------------------------------------------------------


def extract_grad_w_stats(model: MLPClassifier, X, Y) -> np.ndarray:
    """`gradient_statistics` of the full parameter gradient, one row per
    sample, from the per-layer factor sums of `row_gradient_factors`: the
    power sums give the raw moments, and the central ones follow from the
    binomial expansion around the mean.  No row's gradient is formed."""
    _, acts, _, deltas, _ = row_backward(model, X, Y)
    factors = row_gradient_factors(acts, deltas)
    n = model.parameter_count()
    # the sum of g**p over the whole gradient, for p = 1..4
    sums = [sum((a.powers[p] + 1.0) * d.powers[p] for a, d in factors) for p in range(4)]
    mean, e2, e3, e4 = (s / n for s in sums)
    m2 = e2 - mean * mean
    m3 = e3 - 3.0 * mean * e2 + 2.0 * mean**3
    m4 = e4 - 4.0 * mean * e3 + 6.0 * mean * mean * e2 - 3.0 * mean**4
    flat = m2 < _MOMENT_FLOOR
    m2 = np.where(flat, 1.0, m2)
    # per layer: the largest entry is a product of the factors' extremes or
    # the largest bias entry, the smallest |entry| min|a| * min|delta| or
    # the smallest |bias entry|
    largest = [
        np.maximum.reduce([a.max * d.max, a.max * d.min, a.min * d.max, a.min * d.min, d.max])
        for a, d in factors
    ]
    smallest = [np.minimum(a.abs_min * d.abs_min, d.abs_min) for a, d in factors]
    stats = [
        sum((a.abs_sum + 1.0) * d.abs_sum for a, d in factors),
        np.sqrt(sums[1]),
        np.max(largest, axis=0),
        mean,
        np.where(flat, 0.0, m3 / m2**1.5),
        np.where(flat, 0.0, m4 / m2**2 - 3.0),
        np.min(smallest, axis=0),
    ]
    return np.stack(stats, axis=1)


def extract_grad_x_stats(model: MLPClassifier, X, Y) -> np.ndarray:
    """Statistics of the input gradient."""
    *_, g_in = row_backward(model, X, Y)
    return gradient_statistics(g_in)


def extract_intermediate_outputs(model: MLPClassifier, X, Y=None) -> np.ndarray:
    """Softmax probabilities plus the penultimate activation; the labels
    are not used."""
    if model.n_layers < 2:
        raise ConfigError("intermediate outputs need at least one hidden layer")
    _, acts, probs = model.forward(_check_rows(model, X), row_product)
    return np.concatenate([probs, acts[-1]], axis=1)


def extract_wb_features(model: MLPClassifier, X, Y) -> np.ndarray:
    """White-box concat: last-layer parameter gradient, loss, intermediate
    outputs, one-hot label."""
    if model.n_layers < 2:
        raise ConfigError("white-box features need at least one hidden layer")
    _, acts, probs, deltas, _ = row_backward(model, X, Y)
    Y = np.asarray(Y, dtype=np.int64)
    # a batched gemm per row, not an outer product, which gives -0.0 where
    # the gemm gives +0.0; the last delta, probs minus the one-hot label,
    # holds no -0.0, so it is its own bias gradient
    g_w = acts[-1][:, :, None] @ deltas[-1][:, None, :]
    loss = cross_entropy_loss(probs, Y)[:, None]
    features = [g_w.reshape(len(Y), -1), deltas[-1], loss, probs, acts[-1], np.eye(model.n_classes)[Y]]
    return np.concatenate(features, axis=1)


# ---------------------------------------------------------------------------
# Scaling
# ---------------------------------------------------------------------------


@dataclass
class MinMaxScaler:
    """Per-column affine map to [0, 1] with clipping outside the fit range.

    Degenerate columns (max == min) map to 0; the others are `live`.
    Refitting on a transformed split reproduces the identity on that split.
    A column whose span max - min overflows to inf is mapped as
    `(x/2 - min/2) / (max/2 - min/2)`, which halving at that size leaves
    exact and finite; every other column as `(x - min) / (max - min)`.
    """

    mins: np.ndarray
    maxs: np.ndarray

    @classmethod
    def fit(cls, X) -> "MinMaxScaler":
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ShapeError("scaler fit needs a non-empty 2-D matrix")
        return cls(arr.min(axis=0), arr.max(axis=0))

    @property
    def live(self) -> np.ndarray:
        """Boolean mask of the columns with a positive span on the fit rows;
        `transform` maps every other column to 0 on every row."""
        return self.maxs > self.mins

    def transform(self, X, out=None) -> np.ndarray:
        """The scaled block, written into `out` (a float (n, d) array, which
        may be X itself) when given, else into a new array; every step but
        the first works in place."""
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.mins.shape[0]:
            raise ShapeError(
                f"scaler expects an (n, {self.mins.shape[0]}) block, got shape {arr.shape}"
            )
        live = self.live
        with np.errstate(over="ignore"):
            h = np.where(np.isinf(self.maxs - self.mins), 0.5, 1.0)
        lo, hi = self.mins * h, self.maxs * h
        out = np.multiply(arr, h, out=out)
        out -= lo
        out /= np.where(live, hi - lo, 1.0)
        np.copyto(out, 0.0, where=~live)
        return np.clip(out, 0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# Binary nets
# ---------------------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """`1 / (1 + exp(-z))` for z >= 0 and `exp(z) / (1 + exp(z))` below,
    elementwise bitwise that two-branch form: `exp(-|z|)` is `exp(-z)` on
    the first branch and `exp(z)` on the second, and never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class BinaryNet(DenseNet):
    """ReLU hidden layers with a single sigmoid output unit."""

    def __init__(self, layer_dims: Sequence[int], weights: list, biases: list):
        super().__init__(layer_dims, weights, biases)
        if self.layer_dims[-1] != 1:
            raise ConfigError("binary net needs output width 1")

    def head_output(self, logits: np.ndarray) -> np.ndarray:
        return _sigmoid(logits[:, 0])

    def head_losses(self, logits: np.ndarray, probs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """BCE in the stable softplus form."""
        z = logits[:, 0]
        return np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))

    def head_delta(self, probs: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (probs - y)[:, None]

    def scores(self, X) -> np.ndarray:
        """The sigmoid output of each row, bitwise what the row alone gets."""
        return self.forward(_check_rows(self, X), row_product)[2]


@dataclass
class TrainedAttacker:
    """Binary net plus the scaler fitted on its training features.

    `history` holds the full-dataset training loss per Newton iteration
    (logistic) or per epoch (mlp/ensemble); the logistic entries are the
    penalised objective, from the zero init on.  It is not persisted by
    save_attacker.
    """

    kind: str  # "logistic" or "mlp"
    net: BinaryNet
    scaler: MinMaxScaler
    history: list = field(default_factory=list)

    @property
    def feature_length(self) -> int:
        return self.net.layer_dims[0]


def _feature_matrix(features, copy: bool = False) -> np.ndarray:
    """The checked (n, d) float block of `features`: with `copy` a new
    row-major array, else `features` itself when it is a float array."""
    try:
        if copy:
            arr = np.array(features, dtype=np.float64, order="C")
        else:
            arr = np.asarray(features, dtype=np.float64)
    except ValueError as exc:
        raise ShapeError(f"feature vectors must share one length: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ShapeError(f"features must be a non-empty (n, d) block, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("attacker features must be finite")
    return arr


def _check_labels(labels, n: int) -> np.ndarray:
    y = np.asarray(labels, dtype=np.float64).ravel()
    if y.shape[0] != n:
        raise ShapeError("label count does not match feature count")
    members = y == 1.0
    if not np.all(members | (y == 0.0)):
        raise TrainingError("attacker labels must be 0/1")
    if members.all() or not members.any():
        raise TrainingError("attacker training needs both classes")
    return y


def fit_logistic_attacker(
    features, labels, seed: int = 0, max_steps: int = 50, *, overwrite_features: bool = False
):
    """Logistic regression fitted exactly, by damped Newton.

    Minimises the mean BCE plus a fixed weight ridge of 1e-3,
    LOGISTIC_RIDGE / 2 * ||w||^2 (the bias is not penalised), from zero
    init.  Each iteration solves the (d + 1)-square Newton system and halves
    the step until the penalised objective decreases enough (Armijo); the
    fit stops after the full step whose predicted decrease is below 1e-12
    relative, or after `max_steps` iterations.  With `overwrite_features`,
    a float array `features` is scaled in place.
    """
    X_raw = _feature_matrix(features)
    y = _check_labels(labels, X_raw.shape[0])
    scaler = MinMaxScaler.fit(X_raw)
    X = scaler.transform(X_raw, out=X_raw if overwrite_features else None)
    n, d = X.shape
    net = BinaryNet([d, 1], [np.zeros((d, 1))], [np.zeros(1)])
    w, b = net.parameters()
    A = np.hstack([X, np.ones((n, 1))])
    ridge = np.r_[np.full(d, LOGISTIC_RIDGE), 0.0]

    def objective():
        loss, (g_w, g_b), _, p = loss_and_grads(net, X, y)
        loss += 0.5 * LOGISTIC_RIDGE * float(w[:, 0] @ w[:, 0])
        if not math.isfinite(loss):
            raise TrainingError("logistic attacker loss is not finite")
        return loss, np.r_[g_w[:, 0] + LOGISTIC_RIDGE * w[:, 0], g_b], p

    loss, grad, p = objective()
    history = [loss]
    for _ in range(max_steps):
        hessian = (A.T * (p * (1.0 - p))) @ A / n + np.diag(ridge)
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise TrainingError(f"logistic attacker Newton system is singular: {exc}") from exc
        theta = np.r_[w[:, 0], b]
        slope = float(grad @ step)
        # the quadratic model predicts a decrease of slope / 2; below 1e-12
        # relative the loss no longer resolves it, so this last step is full
        converged = slope < 2e-12 * max(abs(loss), 1.0)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            w[:, 0], b[:] = np.split(theta - t * step, [d])
            trial, trial_grad, trial_p = objective()
            if converged or trial <= loss - _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            # no representable decrease is left along the Newton direction
            w[:, 0], b[:] = np.split(theta, [d])
            break
        loss, grad, p = trial, trial_grad, trial_p
        history.append(loss)
        if converged:
            break
    return TrainedAttacker("logistic", net, scaler, history)


def _train_binary_net(
    net: BinaryNet, X: np.ndarray, y: np.ndarray, seed: int, epochs: int, learning_rate: float,
    batch_size: int, min_delta: float = 1e-6, patience: int = 20,
) -> list[float]:
    """Adam epochs of `minibatch_epochs` until the full-set mean loss has
    not improved by `min_delta` for `patience` epochs; returns that loss
    after each epoch."""
    history, best, best_epoch = [], math.inf, 0
    config = TrainConfig(epochs, batch_size, learning_rate, seed=seed)
    for epoch, _ in enumerate(minibatch_epochs(net, X, y, config)):
        loss = mean_loss(net, X, y)
        if not math.isfinite(loss):
            raise TrainingError("attacker training diverged")
        history.append(loss)
        if loss < best - min_delta:
            best = loss
            best_epoch = epoch
        elif epoch - best_epoch >= patience:
            break
    return history


def _all_if_none(mask: np.ndarray) -> np.ndarray:
    """`mask`, or every entry when it selects none."""
    return mask if mask.any() else ~mask


def _live_units(X: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the ReLU units of the layer `X @ w + b` that some row of X,
    a block of scaled features in [0, 1], may make active, under any
    summation order.

    The computed pre-activation z and the one any minibatch gemm computes
    both lie within `gamma * (|X| @ |w| + |b|)` of the exact one, with
    Higham's `gamma_k = k u / (1 - k u)` for the K products and the bias
    add.  So a unit with `z + 2 gamma (|X| @ |w| + |b|) <= 0` on every row
    is inactive in every batch of a fit that starts here: its delta, and so
    its incoming weights', its bias' and its outgoing weights' gradients,
    are exactly 0, and Adam leaves them at their init.  gamma_{K+2} in
    place of gamma_{K+1} also covers the rounding of this test.
    """
    k = X.shape[1] + 2
    u = np.finfo(np.float64).eps / 2
    gamma = k * u / (1.0 - k * u)
    # X >= 0, so |X| is X but for the signs of zeros, which move no sum's
    # value and so no test below
    bound = X @ np.abs(w) + np.abs(b)
    return np.any(X @ w + b + 2.0 * gamma * bound > 0.0, axis=0)


# rows per chunk that `_live_columns` copies out of a block and back
_COMPACT_ROWS = 64


def _live_columns(X: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The columns `keep` of the row-major block X, as a row-major block
    written over the front of X's memory, chunk by chunk: a chunk's kept
    columns land on rows already read, so X is read before it is
    overwritten and no full-size copy is made."""
    if keep.all():
        return X
    n, k = X.shape[0], int(keep.sum())
    out = X.reshape(-1)[: n * k].reshape(n, k)
    for start in range(0, n, _COMPACT_ROWS):
        rows = slice(start, start + _COMPACT_ROWS)
        out[rows] = np.compress(keep, X[rows], axis=1)
    return out


def _fit_mlp(X_raw, labels, seed, hidden, epochs, learning_rate, batch_size) -> TrainedAttacker:
    """Scale the features, then train a ReLU net with the given hidden
    widths under a sigmoid output.  X_raw, a checked float block, is
    overwritten: the net trains on its live columns, compacted to a
    row-major block in its memory (contiguous rows make each minibatch
    gather one copy per row) and scaled there.

    Two kinds of parameter provably never move, so they are not trained.
    A column constant on the training rows scales to 0 on every row, so its
    first-layer weights get a zero gradient.  A first-layer unit that no
    training row can make active at init (`_live_units`) stays inactive for
    the whole fit, so its incoming weights, its bias and its outgoing
    weights get zero gradients.  Adam leaves all of these at their init.
    So a core net that starts from the full net's init is trained on the
    live columns and the live units only, and its parameters are written
    back into the full net; with no live column, every column is trained,
    and with no live unit, every unit.
    """
    y = _check_labels(labels, X_raw.shape[0])
    scaler = MinMaxScaler.fit(X_raw)
    net = BinaryNet.build([X_raw.shape[1], *hidden, 1], seed)
    # keep[i]: the units of layer i that are trained (layer 0: the input columns)
    keep = [np.ones(d, dtype=bool) for d in net.layer_dims]
    keep[0] = _all_if_none(scaler.live)
    # each column scales on its own, so only the trained ones are scaled
    X = _live_columns(np.ascontiguousarray(X_raw), keep[0])
    MinMaxScaler(scaler.mins[keep[0]], scaler.maxs[keep[0]]).transform(X, out=X)
    if net.n_layers > 1:
        keep[1] = _all_if_none(_live_units(X, net.weights[0][keep[0]], net.biases[0]))
    blocks = [np.ix_(rows, cols) for rows, cols in zip(keep, keep[1:])]
    core = BinaryNet(
        [int(k.sum()) for k in keep],
        [w[block] for w, block in zip(net.weights, blocks)],
        [b[cols] for b, cols in zip(net.biases, keep[1:])],
    )
    history = _train_binary_net(core, X, y, seed + 1, epochs, learning_rate, batch_size)
    for w, block, trained in zip(net.weights, blocks, core.weights):
        w[block] = trained
    for b, cols, trained in zip(net.biases, keep[1:], core.biases):
        b[cols] = trained
    return TrainedAttacker("mlp", net, scaler, history)


def fit_mlp_attacker(
    features,
    labels,
    seed: int = 0,
    hidden: Sequence[int] = (64, 32),
    epochs: int = 300,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
    *,
    overwrite_features: bool = False,
) -> TrainedAttacker:
    """Two-hidden-layer combiner for wide feature vectors.  The first-layer
    weights of a column constant on the training rows, and the incoming
    weights, bias and outgoing weights of a first-layer unit that no
    training row can make active at init, stay at their init and are not
    trained (see `_fit_mlp`).  The fit works on a copy of `features`, or,
    with `overwrite_features`, in the memory of a float array `features`,
    whose values it then destroys."""
    X = _feature_matrix(features, copy=not overwrite_features)
    return _fit_mlp(X, labels, seed, hidden, epochs, learning_rate, batch_size)


def build_and_train_ensemble(
    features,
    labels,
    seed: int = 0,
    epochs: int = 300,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
    *,
    overwrite_features: bool = False,
) -> TrainedAttacker:
    """Ensemble attacker over the six per-strategy scores.

    Architecture is fixed at [6, 40, 40, 20, 10, 1]; Adam for at most
    `epochs` epochs with early stop when the full-set BCE fails to improve
    by 1e-6 for 20 consecutive epochs.  The first-layer weights of a
    score column constant on the training rows, and the parameters of a
    first-layer unit that no training row can make active at init, stay at
    their init and are not trained (see `_fit_mlp`).  `overwrite_features`
    as for `fit_mlp_attacker`.
    """
    X_raw = _feature_matrix(features, copy=not overwrite_features)
    if X_raw.shape[1] != ENSEMBLE_LAYER_DIMS[0]:
        raise ShapeError(
            f"ensemble expects {ENSEMBLE_LAYER_DIMS[0]} features, got {X_raw.shape[1]}"
        )
    if epochs > 300:
        raise ConfigError("ensemble epochs capped at 300")
    hidden = ENSEMBLE_LAYER_DIMS[1:-1]
    return _fit_mlp(X_raw, labels, seed, hidden, epochs, learning_rate, batch_size)


def attacker_scores(attacker: TrainedAttacker, features) -> np.ndarray:
    """Membership probability in [0, 1] of each row of a feature block,
    bitwise what the row alone gets."""
    X = _feature_matrix(features)
    if X.shape[1] != attacker.feature_length:
        raise ShapeError(f"attacker expects {attacker.feature_length} features, got {X.shape[1]}")
    return attacker.net.scores(attacker.scaler.transform(X))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

_KIND_CODES = {"logistic": 0, "mlp": 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def save_attacker(attacker: TrainedAttacker, path) -> None:
    """The checkpoint header with the kind byte after the version, the net's
    `flat` block, then the scaler: its width u32, mins f64 and maxs f64."""
    header = ATTACKER_MAGIC + struct.pack("<IB", ATTACKER_VERSION, _KIND_CODES[attacker.kind])
    bounds = np.asarray([attacker.scaler.mins, attacker.scaler.maxs], dtype="<f8")
    scaler = struct.pack("<I", bounds.shape[1]) + bounds.tobytes()
    write_bytes(path, [header, *net_chunks(attacker.net), scaler])


def load_attacker(path) -> TrainedAttacker:
    reader = BinaryReader(path, ATTACKER_MAGIC, ATTACKER_VERSION, "an attacker checkpoint")
    (kind_code,) = reader.unpack("<B")
    if kind_code not in _KIND_NAMES:
        raise reader.error(f"unknown attacker kind code {kind_code}")
    dims, size = read_net_header(reader)
    if dims[-1] != 1:
        raise reader.error(f"attacker net has output width {dims[-1]}, not 1")
    rest = reader.rest(size + 4 + 16 * dims[0])
    net = net_from_block(BinaryNet, dims, rest[:size], reader)
    (n_feat,) = struct.unpack_from("<I", rest, size)
    if n_feat != dims[0]:
        raise reader.error(f"attacker scaler width {n_feat} != net input width {dims[0]}")
    mins, maxs = np.frombuffer(rest, dtype="<f8", offset=size + 4).reshape(2, n_feat)
    if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
        raise reader.error("attacker checkpoint holds non-finite scaler bounds")
    if np.any(maxs < mins):
        raise reader.error("attacker checkpoint holds a scaler bound with max < min")
    return TrainedAttacker(_KIND_NAMES[kind_code], net, MinMaxScaler(mins.copy(), maxs.copy()))


def write_feature_dump(path, sample_ids, features, is_member) -> None:
    """CSV dump: sample_id, one column per feature, is_member."""
    X = _feature_matrix(features)
    ids = list(sample_ids)
    members = list(is_member)
    if len(ids) != X.shape[0] or len(members) != X.shape[0]:
        raise ShapeError("feature dump inputs must have matching lengths")
    header = ["sample_id"] + [f"f{i}" for i in range(X.shape[1])] + ["is_member"]
    write_csv(path, header, ([sid, *row.tolist(), m] for sid, row, m in zip(ids, X, members)))
