"""Untargeted adversarial-example engine.

Projected gradient ascent on the true-label cross entropy with an adaptive
halving step size, inside the intersection of an lp ball around the input
and the [0, 1] feature box.  Supports p in {1, 2, inf}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .errors import ConfigError, InvalidInputError, ShapeError
from .nn_core import (
    MLPClassifier,
    _class_labels,
    cross_entropy_loss,
    forward_predict,
    sample_evaluation,
)

SUPPORTED_NORMS = (1.0, 2.0, math.inf)

# APGD's published step-rule values (Croce & Hein 2020, arXiv:2003.01690).
INITIAL_STEP_FRACTION = 2.0
MOMENTUM = 0.75

# Step-halving checkpoints as fractions of the iteration budget.
_CHECKPOINT_FRACTIONS = (0.22, 0.42, 0.57, 0.69, 0.78, 0.85, 0.90, 0.94, 0.97)


def lp_norm(v: np.ndarray, p: float):
    """||v||_p for p in {1, 2, inf} over the last axis: a float for a
    vector, one norm per row for a block."""
    if p == math.inf:
        norm = np.max(np.abs(v), axis=-1, initial=0.0)
    elif p == 1:
        norm = np.sum(np.abs(v), axis=-1)
    elif p == 2:
        norm = np.sqrt(np.sum(v * v, axis=-1))
    else:
        raise ConfigError(f"unsupported norm order {p}")
    return float(norm) if np.ndim(norm) == 0 else norm


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball via the sorted-threshold rule;
    row by row for an (n, d) block."""
    rows = np.atleast_2d(v)
    a = np.abs(rows)
    out = rows.copy()
    far = a.sum(axis=1) > radius
    if np.any(far):
        u = np.sort(a[far], axis=1)[:, ::-1]
        css = np.cumsum(u, axis=1)
        k = np.arange(1, u.shape[1] + 1)
        usable = u * k > (css - radius)
        rho = u.shape[1] - np.argmax(usable[:, ::-1], axis=1)  # last usable k
        theta = (css[np.arange(len(rho)), rho - 1] - radius) / rho
        out[far] = np.sign(rows[far]) * np.maximum(a[far] - theta[:, None], 0.0)
    return out.reshape(np.shape(v))


def project_lp_box(
    candidate,
    center,
    p: float,
    epsilon: float,
    lo: float = 0.0,
    hi: float = 1.0,
) -> np.ndarray:
    """Project candidate onto {r : ||r - center||_p <= epsilon} intersect [lo, hi]^d.

    Takes one candidate and center (d,), or (n, d) blocks of them, which
    are projected row by row.  The lp-ball projection runs first (clamp for
    inf, rescale for 2, sorted threshold for 1), then the box clip.  With
    the center inside the box the clip only moves coordinates toward the
    center, so ball feasibility survives and the result satisfies both
    constraints.
    """
    if p not in SUPPORTED_NORMS:
        raise ConfigError(f"unsupported norm order {p}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be positive and finite")
    if not lo < hi:
        raise ConfigError("box bounds must satisfy lo < hi")
    cand = np.asarray(candidate, dtype=np.float64)
    ctr = np.asarray(center, dtype=np.float64)
    if cand.shape != ctr.shape or cand.ndim not in (1, 2):
        raise ConfigError("candidate and center must be 1-D arrays or (n, d) blocks of equal shape")
    if not (np.all(np.isfinite(cand)) and np.all(np.isfinite(ctr))):
        raise InvalidInputError("projection inputs must be finite")
    v = cand - ctr
    if p == math.inf:
        v = np.clip(v, -epsilon, epsilon)
    elif p == 2:
        norm = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
        v = v * (epsilon / np.maximum(norm, epsilon))  # a factor of exactly 1 inside the ball
    else:
        v = project_l1_ball(v, epsilon)
    return np.clip(ctr + v, lo, hi)


@dataclass(frozen=True)
class AttackConfig:
    """Attack search budget and geometry.

    p: norm order (1, 2, or inf); epsilon: ball radius; n_iter: gradient
    steps per run; n_restarts: total runs per sample, at least 1 (the first
    starts at the input itself, later ones at seeded random feasible points).
    """

    p: float = math.inf
    epsilon: float = 1.0
    n_iter: int = 100
    n_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.p not in SUPPORTED_NORMS:
            raise ConfigError(f"attack norm order must be one of {SUPPORTED_NORMS}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError("attack epsilon must be positive and finite")
        if self.n_iter < 1:
            raise ConfigError("attack n_iter must be >= 1")
        if self.n_restarts < 1:
            raise ConfigError("attack.n_restarts must be >= 1")


@dataclass(frozen=True)
class AdversarialOutcome:
    """Result of the adversarial search: plain values for one sample, or
    one entry per row for a block (v is then (n, d)).  `distance` is that
    of the closest misclassified iterate of a loss-maximising APGD run
    (epsilon when none is found, 0 for a row already misclassified), an
    upper bound on the distance to the nearest adversarial example."""

    v: np.ndarray
    distance: float
    success: bool
    iterations_used: int
    best_loss: float


@dataclass
class ApgdTrace:
    """Iterate trace of one projected-ascent run of a block of n rows:
    losses, distances from the inputs in the attack norm, and predictions,
    each (iterates, n).  Iterate 0 is the start."""

    losses: np.ndarray
    distances: np.ndarray
    predictions: np.ndarray


def _checkpoint_iterations(n_iter: int) -> list[int]:
    pts = {min(n_iter, max(1, math.ceil(f * n_iter))) for f in _CHECKPOINT_FRACTIONS}
    return sorted(pts)


def _ascend(model: MLPClassifier, X: np.ndarray, Y: np.ndarray, config: AttackConfig, start, visit):
    """One adaptive projected-gradient-ascent run on the true-label loss
    for every row of X in lock step.

    Step rule: eta starts at INITIAL_STEP_FRACTION * epsilon; at a fixed
    schedule of checkpoints it halves when under 75% of steps since the last
    checkpoint improved the loss, or when both eta and the best loss sat
    still across the window.  Every halving restarts the iterate from the
    best point seen.  Steps use the gradient sign for p=inf and the
    normalized gradient otherwise, with a MOMENTUM blend (weight 1 on the
    first step) and projection after both the raw step and the blend.

    Each row keeps its own step size, loss, best point and gradient,
    improvement count and restart-from-best, so its run is bitwise the one
    it would make alone.  `visit(points, losses, predictions)` sees every
    evaluated iterate of the block, the start first.  Returns each row's
    best point and best loss.
    """
    p, eps = config.p, config.epsilon
    checkpoints = set(_checkpoint_iterations(config.n_iter))

    cur = X if start is None else project_lp_box(start, X, p, eps)
    loss, probs, grad = sample_evaluation(model, cur, Y)
    visit(cur, loss, np.argmax(probs, axis=1))

    prev = cur
    best_x, best_loss, best_grad = cur.copy(), loss.copy(), grad.copy()
    eta = np.full(len(X), INITIAL_STEP_FRACTION * eps)
    eta_at_ck, best_at_ck = eta.copy(), best_loss.copy()
    improved = np.zeros(len(X), dtype=np.int64)
    last_ck = 0
    for k in range(1, config.n_iter + 1):
        if p == math.inf:
            direction = np.sign(grad)
        else:
            gnorm = np.sqrt(np.sum(grad * grad, axis=1, keepdims=True))
            direction = np.divide(grad, gnorm, out=np.zeros_like(grad), where=gnorm > 1e-30)
        z = project_lp_box(cur + eta[:, None] * direction, X, p, eps)
        blend = MOMENTUM if k > 1 else 1.0
        nxt = project_lp_box(
            cur + blend * (z - cur) + (1.0 - blend) * (cur - prev), X, p, eps
        )
        prev, cur = cur, nxt
        new_loss, probs, grad = sample_evaluation(model, cur, Y)
        improved += new_loss > loss
        loss = new_loss
        visit(cur, loss, np.argmax(probs, axis=1))
        better = loss > best_loss
        best_x[better], best_loss[better], best_grad[better] = cur[better], loss[better], grad[better]
        if k in checkpoints:
            stalled = (eta == eta_at_ck) & (best_loss == best_at_ck)
            halve = (improved < 0.75 * (k - last_ck)) | stalled
            eta[halve] *= 0.5
            back = halve[:, None]
            cur, prev = np.where(back, best_x, cur), np.where(back, best_x, prev)
            loss, grad = np.where(halve, best_loss, loss), np.where(back, best_grad, grad)
            eta_at_ck, best_at_ck = eta.copy(), best_loss.copy()
            improved[:] = 0
            last_ck = k
    return best_x, best_loss


def _random_starts(rngs: list, X: np.ndarray, config: AttackConfig) -> np.ndarray:
    """One random feasible start per row of X, drawn from that row's generator."""
    lo = np.maximum(0.0, X - config.epsilon)
    hi = np.minimum(1.0, X + config.epsilon)
    Z = np.array([rng.uniform(a, b) for rng, a, b in zip(rngs, lo, hi)])
    if config.p == math.inf:
        return Z
    return project_lp_box(Z, X, config.p, config.epsilon)


def find_adversarial_rows(model: MLPClassifier, X, Y, config: AttackConfig, seeds=None) -> AdversarialOutcome:
    """`find_adversarial` for every row of a block (n, d) with labels (n,);
    returns one AdversarialOutcome whose fields hold one entry per row.

    All rows search in lock step.  Row i draws its random restarts from
    `default_rng(seeds[i])`, or from `default_rng(config.seed)` when no
    seeds are given, and its outcome is bitwise the one it gets alone,
    whatever its block mates.  Each row's closest misclassified iterate is
    kept as the search runs; no iterate is stored.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = _class_labels(Y, model.n_classes)
    if X.ndim != 2 or Y.shape != (len(X),) or (seeds is not None and len(seeds) != len(X)):
        raise ShapeError("find_adversarial_rows needs (n, d) inputs, n labels and n seeds")
    n = len(X)
    seeds = [config.seed] * n if seeds is None else seeds
    probs0 = forward_predict(model, X)
    loss0 = cross_entropy_loss(probs0, Y)
    searched = np.argmax(probs0, axis=1) == Y  # the others are already misclassified

    best_loss, best_loss_point = loss0.copy(), X.copy()
    best_dist, best_point = np.full(n, math.inf), X.copy()
    rows = np.flatnonzero(searched)
    Xr, Yr = X[rows], Y[rows]

    def screen(points, losses, preds):
        hit = preds != Yr
        if hit.any():
            dist = lp_norm(points[hit] - Xr[hit], config.p)
            closer = dist < best_dist[rows[hit]]
            best_dist[rows[hit][closer]] = dist[closer]
            best_point[rows[hit][closer]] = points[hit][closer]

    for run in range(config.n_restarts):
        if not rows.size:  # every row starts out misclassified
            break
        if run == 1:  # the first run starts at the inputs and draws nothing
            rngs = [np.random.default_rng(seeds[i]) for i in rows]
        start = None if run == 0 else _random_starts(rngs, Xr, config)
        run_x, run_loss = _ascend(model, Xr, Yr, config, start, screen)
        better = run_loss > best_loss[rows]
        best_loss[rows[better]] = run_loss[better]
        best_loss_point[rows[better]] = run_x[better]

    found = best_dist < math.inf
    return AdversarialOutcome(
        v=np.where(found[:, None], best_point, best_loss_point) - X,
        distance=np.where(found, best_dist, np.where(searched, config.epsilon, 0.0)),
        success=found | ~searched,
        iterations_used=np.where(searched, config.n_iter * config.n_restarts, 0),
        best_loss=best_loss,
    )


def first_run_traces(model: MLPClassifier, X, Y, config: AttackConfig) -> ApgdTrace:
    """The ApgdTrace of a block (n, d) with labels (n,): the run of
    `find_adversarial_rows` that starts at the input, misclassified rows
    included.  Rows run in lock step, each bitwise as it would alone."""
    X = np.asarray(X, dtype=np.float64)
    recorded = []

    def record(points, losses, predictions):
        recorded.append((losses, lp_norm(points - X, config.p), predictions))

    _ascend(model, X, _class_labels(Y, model.n_classes), config, None, record)
    losses, distances, predictions = (np.stack(blocks) for blocks in zip(*recorded))
    return ApgdTrace(losses, distances, predictions.astype(np.int64))


def find_adversarial(model: MLPClassifier, x, y: int, config: AttackConfig) -> AdversarialOutcome:
    """The closest misclassified iterate of a loss-maximising APGD run, an
    upper bound on the distance to the nearest adversarial example.

    Already-misclassified inputs return v = 0 immediately.  Otherwise every
    iterate of every run is screened and the feasible misclassified point
    closest to x (in the attack norm) wins.  When nothing misclassifies,
    distance is reported as epsilon and v is the best-loss perturbation
    found.  This is the one-row call of `find_adversarial_rows`, seeded with
    `config.seed`.
    """
    x = np.asarray(x, dtype=np.float64)
    out = find_adversarial_rows(model, x[None, :], [y], config)
    return AdversarialOutcome(
        out.v[0], out.distance.item(), out.success.item(), out.iterations_used.item(),
        out.best_loss.item(),
    )


def dump_trace_csv(trace: ApgdTrace, row: int, path) -> None:
    """Debug dump of one row of a trace: one line per iterate with loss,
    distance, predicted class."""
    rows = zip(itertools.count(), trace.losses[:, row], trace.distances[:, row], trace.predictions[:, row])
    write_csv(path, ["iteration", "loss", "distance", "predicted_class"], rows)
