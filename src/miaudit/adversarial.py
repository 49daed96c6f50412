"""Untargeted adversarial-example engine.

Projected gradient ascent on the true-label cross entropy with an adaptive
halving step size, inside the intersection of an lp ball around the input
and the [0, 1] feature box.  Supports p in {1, 2, inf}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidInputError
from .nn_core import MLPClassifier, cross_entropy_loss, forward_predict, sample_evaluation

SUPPORTED_NORMS = (1.0, 2.0, math.inf)

# Feasibility slack used when validating externally supplied candidates.
NORM_TOL = 1e-9

# Step-halving checkpoints as fractions of the iteration budget.
_CHECKPOINT_FRACTIONS = (0.22, 0.42, 0.57, 0.69, 0.78, 0.85, 0.90, 0.94, 0.97)


def lp_norm(v: np.ndarray, p: float) -> float:
    """||v||_p for p in {1, 2, inf}."""
    if p == math.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    if p == 1:
        return float(np.sum(np.abs(v)))
    if p == 2:
        return float(np.sqrt(np.sum(v * v)))
    raise ConfigError(f"unsupported norm order {p}")


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball via the sorted-threshold rule."""
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, u.size + 1)
    usable = u * k > (css - radius)
    rho = int(k[usable][-1])
    theta = (css[rho - 1] - radius) / rho
    return np.sign(v) * np.maximum(a - theta, 0.0)


def project_lp_box(
    candidate,
    center,
    p: float,
    epsilon: float,
    lo: float = 0.0,
    hi: float = 1.0,
) -> np.ndarray:
    """Project candidate onto {r : ||r - center||_p <= epsilon} intersect [lo, hi]^d.

    The lp-ball projection runs first (clamp for inf, rescale for 2, sorted
    threshold for 1), then the box clip.  With the center inside the box the
    clip only moves coordinates toward the center, so ball feasibility
    survives and the result satisfies both constraints.
    """
    if p not in SUPPORTED_NORMS:
        raise ConfigError(f"unsupported norm order {p}")
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise ConfigError("epsilon must be positive and finite")
    if not lo < hi:
        raise ConfigError("box bounds must satisfy lo < hi")
    cand = np.asarray(candidate, dtype=np.float64)
    ctr = np.asarray(center, dtype=np.float64)
    if cand.shape != ctr.shape or cand.ndim != 1:
        raise ConfigError("candidate and center must be 1-D arrays of equal length")
    if not (np.all(np.isfinite(cand)) and np.all(np.isfinite(ctr))):
        raise InvalidInputError("projection inputs must be finite")
    v = cand - ctr
    if p == math.inf:
        v = np.clip(v, -epsilon, epsilon)
    elif p == 2:
        norm = float(np.sqrt(np.sum(v * v)))
        if norm > epsilon:
            v = v * (epsilon / norm)
    else:
        v = project_l1_ball(v, epsilon)
    return np.clip(ctr + v, lo, hi)


@dataclass(frozen=True)
class AttackConfig:
    """Attack search budget and geometry.

    p: norm order (1, 2, or inf); epsilon: ball radius; n_iter: gradient
    steps per run; n_restarts: total runs per sample (first starts at the
    input itself, later ones at seeded random feasible points).
    """

    p: float = math.inf
    epsilon: float = 1.0
    n_iter: int = 100
    n_restarts: int = 1
    seed: int = 0
    initial_step_fraction: float = 2.0
    momentum: float = 0.75

    def __post_init__(self):
        if self.p not in SUPPORTED_NORMS:
            raise ConfigError(f"attack norm order must be one of {SUPPORTED_NORMS}")
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ConfigError("attack epsilon must be positive and finite")
        if self.n_iter < 1:
            raise ConfigError("attack n_iter must be >= 1")
        if self.n_restarts < 0:
            raise ConfigError("attack n_restarts must be >= 0")
        if self.initial_step_fraction <= 0:
            raise ConfigError("initial_step_fraction must be positive")
        if not 0 <= self.momentum <= 1:
            raise ConfigError("momentum must lie in [0, 1]")


@dataclass(frozen=True)
class AdversarialOutcome:
    """Result of the minimum-distance search for one sample."""

    v: np.ndarray
    distance: float
    success: bool
    iterations_used: int
    best_loss: float


@dataclass
class ApgdTrace:
    """Full iterate trace of one projected-ascent run; row 0 is the start."""

    points: np.ndarray
    losses: np.ndarray
    predictions: np.ndarray
    center: np.ndarray
    p: float
    epsilon: float

    @property
    def best_loss(self) -> float:
        return float(self.losses.max())

    def best_point(self) -> np.ndarray:
        return self.points[int(np.argmax(self.losses))]

    def distances(self) -> np.ndarray:
        return np.array([lp_norm(pt - self.center, self.p) for pt in self.points])


def _checkpoint_iterations(n_iter: int) -> list[int]:
    pts = {min(n_iter, max(1, math.ceil(f * n_iter))) for f in _CHECKPOINT_FRACTIONS}
    return sorted(pts)


def apgd_maximize_loss(
    model: MLPClassifier,
    x,
    y: int,
    config: AttackConfig,
    start: Optional[np.ndarray] = None,
) -> ApgdTrace:
    """One adaptive projected-gradient-ascent run on the true-label loss.

    Step rule: eta starts at initial_step_fraction * epsilon; at a fixed
    schedule of checkpoints it halves when under 75% of steps since the last
    checkpoint improved the loss, or when both eta and the best loss sat
    still across the window.  Every halving restarts the iterate from the
    best point seen.  Steps use the gradient sign for p=inf and the
    normalized gradient otherwise, with a momentum blend (weight 1 on the
    first step) and projection after both the raw step and the blend.
    """
    x = np.asarray(x, dtype=np.float64)
    p, eps = config.p, config.epsilon
    eta = config.initial_step_fraction * eps
    checkpoints = set(_checkpoint_iterations(config.n_iter))

    cur = x if start is None else project_lp_box(start, x, p, eps)
    loss, probs, grad = sample_evaluation(model, cur, y)
    points = [cur]
    losses = [loss]
    preds = [int(np.argmax(probs))]

    prev = cur
    best_x, best_loss, best_grad = cur, loss, grad
    eta_at_ck, best_at_ck = eta, best_loss
    improved = 0
    last_ck = 0
    for k in range(1, config.n_iter + 1):
        if p == math.inf:
            direction = np.sign(grad)
        else:
            gnorm = float(np.sqrt(np.sum(grad * grad)))
            direction = grad / gnorm if gnorm > 1e-30 else np.zeros_like(grad)
        z = project_lp_box(cur + eta * direction, x, p, eps)
        blend = config.momentum if k > 1 else 1.0
        nxt = project_lp_box(
            cur + blend * (z - cur) + (1.0 - blend) * (cur - prev), x, p, eps
        )
        prev, cur = cur, nxt
        new_loss, probs, grad = sample_evaluation(model, cur, y)
        if new_loss > loss:
            improved += 1
        loss = new_loss
        points.append(cur)
        losses.append(loss)
        preds.append(int(np.argmax(probs)))
        if loss > best_loss:
            best_x, best_loss, best_grad = cur, loss, grad
        if k in checkpoints:
            window = k - last_ck
            stalled = eta == eta_at_ck and best_loss == best_at_ck
            if improved < 0.75 * window or stalled:
                eta *= 0.5
                cur, prev = best_x, best_x
                loss, grad = best_loss, best_grad
            eta_at_ck, best_at_ck = eta, best_loss
            improved = 0
            last_ck = k
    return ApgdTrace(
        points=np.array(points),
        losses=np.array(losses),
        predictions=np.array(preds, dtype=np.int64),
        center=x.copy(),
        p=p,
        epsilon=eps,
    )


def _random_feasible_start(rng: np.random.Generator, x, config: AttackConfig):
    lo = np.maximum(0.0, x - config.epsilon)
    hi = np.minimum(1.0, x + config.epsilon)
    z = rng.uniform(lo, hi)
    if config.p == math.inf:
        return z
    return project_lp_box(z, x, config.p, config.epsilon)


def _candidate_feasible(pt: np.ndarray, x: np.ndarray, config: AttackConfig) -> bool:
    if pt.shape != x.shape:
        return False
    if np.min(pt) < -NORM_TOL or np.max(pt) > 1.0 + NORM_TOL:
        return False
    return lp_norm(pt - x, config.p) <= config.epsilon + NORM_TOL


def find_adversarial(
    model: MLPClassifier,
    x,
    y: int,
    config: AttackConfig,
    extra_candidates: Optional[np.ndarray] = None,
) -> AdversarialOutcome:
    """Minimum-norm misclassifying perturbation within the epsilon budget.

    Already-misclassified inputs return v = 0 immediately.  Otherwise every
    iterate of every run is screened and the feasible misclassified point
    closest to x (in the attack norm) wins.  extra_candidates, if given,
    joins the screening after a feasibility check; feeding the trace of a
    smaller-budget search keeps the reported distance monotone in epsilon.
    When nothing misclassifies, distance is reported as epsilon and v is the
    best-loss perturbation found.
    """
    x = np.asarray(x, dtype=np.float64)
    probs0 = forward_predict(model, x)
    loss0 = cross_entropy_loss(probs0, y)
    if int(np.argmax(probs0)) != y:
        return AdversarialOutcome(np.zeros_like(x), 0.0, True, 0, loss0)

    rng = np.random.default_rng(config.seed)
    best_dist = math.inf
    best_point = None
    best_loss = loss0
    best_loss_point = x
    iterations = 0
    for run in range(config.n_restarts):
        start = None if run == 0 else _random_feasible_start(rng, x, config)
        trace = apgd_maximize_loss(model, x, y, config, start=start)
        iterations += len(trace.losses) - 1
        if trace.best_loss > best_loss:
            best_loss = trace.best_loss
            best_loss_point = trace.best_point()
        missed = trace.predictions != y
        if missed.any():
            dists = trace.distances()[missed]
            i = int(np.argmin(dists))
            if dists[i] < best_dist:
                best_dist = float(dists[i])
                best_point = trace.points[missed][i]
    if extra_candidates is not None:
        cands = np.atleast_2d(np.asarray(extra_candidates, dtype=np.float64))
        for pt in cands:
            if not _candidate_feasible(pt, x, config):
                continue
            if int(np.argmax(forward_predict(model, pt))) != y:
                d = lp_norm(pt - x, config.p)
                if d < best_dist:
                    best_dist = d
                    best_point = pt
    if best_point is not None:
        return AdversarialOutcome(
            best_point - x, best_dist, True, iterations, best_loss
        )
    return AdversarialOutcome(
        best_loss_point - x, float(config.epsilon), False, iterations, best_loss
    )


def dump_trace_csv(trace: ApgdTrace, path) -> None:
    """Debug dump: one row per iterate with loss, distance, predicted class."""
    dists = trace.distances()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "loss", "distance", "predicted_class"])
        for i in range(len(trace.losses)):
            writer.writerow(
                [i, repr(float(trace.losses[i])), repr(float(dists[i])), int(trace.predictions[i])]
            )
