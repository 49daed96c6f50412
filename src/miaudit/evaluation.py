"""Attack evaluation: tie-aware ROC/AUROC, threshold selection, the repeated
balanced protocol, the imbalanced holdout protocol, ratio robustness, grid
ROC averaging, and score histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, EvaluationError

DEFAULT_FPR_GRID_POINTS = 201


def _pools(member_scores, nonmember_scores) -> tuple[np.ndarray, np.ndarray]:
    """The member and nonmember scores as float64 vectors, each non-empty
    and finite; higher score = more member-like."""
    ms = np.asarray(member_scores, dtype=np.float64).ravel()
    ns = np.asarray(nonmember_scores, dtype=np.float64).ravel()
    if ms.size == 0 or ns.size == 0:
        raise EvaluationError("scores need both members and nonmembers")
    if not (np.all(np.isfinite(ms)) and np.all(np.isfinite(ns))):
        raise EvaluationError("scores must be finite")
    return ms, ns


@dataclass(frozen=True)
class ROCCurve:
    """Operating points swept over all distinct thresholds, ties grouped.

    Starts at (0, 0) with threshold +inf and ends at (1, 1); fpr and tpr are
    non-decreasing.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


def _sorted_sweep(ss, mm):
    """Group the ties of scores already in descending order.

    Returns (ss, boundaries, tp, fp): boundary j predicts "member" for the
    top `boundaries[j]` scores and admits tp[j] members and fp[j]
    nonmembers; entry 0 is the empty boundary.  Only the score sequence and
    each tie group's member count matter, so any descending order of the
    same scores gives the same result.
    """
    # last index of each tie group
    ends = np.append(np.nonzero(ss[1:] != ss[:-1])[0], ss.shape[0] - 1)
    members = np.cumsum(mm)[ends]
    tp = np.concatenate([[0], members]).astype(np.float64)
    fp = np.concatenate([[0], ends + 1 - members]).astype(np.float64)
    return ss, np.concatenate([[0], ends + 1]), tp, fp


class _SortedPools:
    """Both pools of one strategy (members first), stable-sorted by
    descending score once.  `sweep(member_idx)` is the sweep of the chosen
    members (all of them for None) against every nonmember: filtering the
    pool's order by a mask leaves the subset's scores in descending order
    with the same tie groups, so it equals the sweep of a fresh sort of the
    subset, bit for bit."""

    def __init__(self, member_scores, nonmember_scores):
        ms, ns = _pools(member_scores, nonmember_scores)
        scores = np.concatenate([ms, ns])
        self.n_members = ms.size
        self.order = np.argsort(-scores, kind="stable")
        self.ss = scores[self.order]
        self.mm = self.order < ms.size

    def sweep(self, member_idx=None):
        if member_idx is None:  # every member
            return _sorted_sweep(self.ss, self.mm)
        keep = np.ones(self.order.shape[0], dtype=bool)
        keep[: self.n_members] = False
        keep[member_idx] = True
        keep = keep[self.order]
        return _sorted_sweep(self.ss[keep], self.mm[keep])


def _curve(ss, boundaries, tp, fp) -> ROCCurve:
    return ROCCurve(fp / fp[-1], tp / tp[-1], np.concatenate([[math.inf], ss[boundaries[1:] - 1]]))


def _area(curve: ROCCurve) -> float:
    return float(np.sum(np.diff(curve.fpr) * (curve.tpr[1:] + curve.tpr[:-1]) * 0.5))


def _best_boundary(ss, boundaries, rate) -> tuple[float, float]:
    """(tau, rate) at the boundary with the highest rate; among ties the
    smallest tau wins.  tau is the midpoint between the adjacent distinct
    scores, or an infinity at either end."""
    best = rate.max()
    j = int(boundaries[np.nonzero(rate == best)[0][-1]])
    if j == 0:
        return math.inf, float(best)
    if j == ss.shape[0]:
        return -math.inf, float(best)
    return float(0.5 * ss[j - 1] + 0.5 * ss[j]), float(best)


def _best_accuracy(ss, boundaries, tp, fp) -> tuple[float, float]:
    return _best_boundary(ss, boundaries, (tp + (fp[-1] - fp)) / (tp[-1] + fp[-1]))


def roc_curve(member_scores, nonmember_scores) -> ROCCurve:
    return _curve(*_SortedPools(member_scores, nonmember_scores).sweep())


def auroc(member_scores, nonmember_scores) -> float:
    """Trapezoid area under the tie-grouped ROC; equals the tied-rank
    Mann-Whitney statistic."""
    return _area(roc_curve(member_scores, nonmember_scores))


def best_threshold_accuracy(member_scores, nonmember_scores) -> tuple[float, float]:
    """(tau, accuracy) maximizing plain accuracy of score >= tau.

    The sweep covers every distinct operating point (midpoints between
    adjacent distinct scores plus both infinities); among ties the smallest
    tau wins.
    """
    return _best_accuracy(*_SortedPools(member_scores, nonmember_scores).sweep())


def _best_balanced_threshold(member_scores, nonmember_scores) -> float:
    ss, boundaries, tp, fp = _SortedPools(member_scores, nonmember_scores).sweep()
    return _best_boundary(ss, boundaries, 0.5 * (tp / tp[-1] + (fp[-1] - fp) / fp[-1]))[0]


def decision_rates(member_scores, nonmember_scores, tau: float) -> tuple[float, float, float]:
    """(balanced_accuracy, fpr, tpr) of the rule score >= tau."""
    ms, ns = _pools(member_scores, nonmember_scores)
    tpr = float((ms >= tau).mean())
    fpr = float((ns >= tau).mean())
    return 0.5 * (tpr + (1.0 - fpr)), fpr, tpr


def holdout_cut(n: int, holdout_fraction: float) -> int:
    """Rows of one class, of n, that holdout_threshold_eval uses to pick tau;
    the other n - cut rows are its evaluation side."""
    return int(round(holdout_fraction * n))


def holdout_threshold_eval(
    member_scores,
    nonmember_scores,
    holdout_fraction: float = 0.8,
    seed: int = 0,
    fixed_tau=None,
) -> tuple[float, float]:
    """Imbalanced-aware protocol: pick tau for balanced accuracy on a
    stratified holdout_fraction of the data, report (balanced_accuracy, fpr)
    on the rest.  fixed_tau skips the sweep (trained attackers use 0.5).
    Each pool is shuffled by its own permutation, members first, and cut
    at `holdout_cut`.
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    sel, ev = [], []
    for pool in _pools(member_scores, nonmember_scores):
        pool = pool[rng.permutation(pool.size)]
        cut = holdout_cut(pool.size, holdout_fraction)
        sel.append(pool[:cut])
        ev.append(pool[cut:])
    if min(p.size for p in sel + ev) == 0:
        raise EvaluationError("degenerate holdout split: a side lost a class")
    tau = _best_balanced_threshold(*sel) if fixed_tau is None else float(fixed_tau)
    bal, fpr, _ = decision_rates(*ev, tau)
    return bal, fpr


def _grid_row(curve: ROCCurve, grid) -> np.ndarray:
    """TPR of one curve at each grid FPR: the curve keeps one (max) TPR per
    distinct FPR, the last of its run since fpr is non-decreasing, and is
    linearly interpolated between them."""
    ends = np.append(np.nonzero(np.diff(curve.fpr) != 0)[0], curve.fpr.shape[0] - 1)
    return np.interp(grid, curve.fpr[ends], curve.tpr[ends])


def averaged_roc_on_grid(curves, fpr_grid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of TPR at fixed FPR grid points.

    Each curve is reduced to its grid row as `repeated_subset_experiment`
    reduces each draw's curve, so the mean and std of a protocol's curves
    are those of its grid rows.
    """
    grid = np.asarray(fpr_grid, dtype=np.float64)
    if grid.size == 0:
        raise ConfigError("fpr grid must be non-empty")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0 or grid[-1] > 1:
        raise ConfigError("fpr grid must be strictly increasing within [0, 1]")
    rows = [_grid_row(c, grid) for c in curves]
    if not rows:
        raise ConfigError("need at least one ROC curve to average")
    stack = np.vstack(rows)
    return stack.mean(axis=0), stack.std(axis=0)


def default_fpr_grid(points: int = DEFAULT_FPR_GRID_POINTS) -> np.ndarray:
    if points < 2:
        raise ConfigError("fpr grid needs at least 2 points")
    return np.linspace(0.0, 1.0, points)


def _member_draws(pool_size: int, size: int, repeats: int, seed: list) -> list:
    """Member indices of each repeat: `repeats` seeded draws of `size` of
    the pool without replacement, drawn from `[*seed, r]` for repeat r.
    When `size` is the whole pool every draw is a permutation of it, which
    sweeps alike, so the list is one None (every member) that stands for
    all repeats."""
    if size == pool_size:
        return [None]
    return [
        np.random.default_rng([*seed, r]).choice(pool_size, size=size, replace=False)
        for r in range(repeats)
    ]


def repeated_subset_experiment(
    member_scores: dict,
    nonmember_scores: dict,
    subset_size: int,
    repeats: int,
    seed: int = 0,
    fpr_grid_points: int = DEFAULT_FPR_GRID_POINTS,
) -> dict:
    """Repeat: draw `subset_size` members, evaluate every strategy on that
    subset vs the full nonmember pool.  The same subset indices serve all
    strategies within a repeat.  Each strategy's pools are sorted once and
    every draw sweeps that order filtered to its subset.

    Returns strategy -> (aurocs, accuracies, grid_rows) over the distinct
    draws: each draw's AUROC, best-threshold accuracy, and ROC curve reduced
    to its TPR at each point of `default_fpr_grid(fpr_grid_points)`, as
    `averaged_roc_on_grid` reduces a curve.  There are `repeats` draws, or
    one when the subset is the whole member pool: every repeat is then the
    same set, so it is swept once and stands for all of them.
    """
    if repeats < 1:
        raise ConfigError("protocol repeats must be >= 1")
    if set(member_scores) != set(nonmember_scores):
        raise ConfigError("member and nonmember score tables list different strategies")
    if not member_scores:
        return {}
    sizes_m = {len(np.ravel(v)) for v in member_scores.values()}
    sizes_n = {len(np.ravel(v)) for v in nonmember_scores.values()}
    if len(sizes_m) != 1 or len(sizes_n) != 1:
        raise ConfigError("per-strategy score pools differ in length")
    (pool_size,) = sizes_m
    if not 1 <= subset_size <= pool_size:
        raise ConfigError(f"member subset size {subset_size} outside [1, {pool_size}], the member pool")
    draws = _member_draws(pool_size, subset_size, repeats, [seed])
    grid = default_fpr_grid(fpr_grid_points)
    results = {}
    for name in member_scores:
        pools = _SortedPools(member_scores[name], nonmember_scores[name])
        per_draw = []
        for idx in draws:
            sweep = pools.sweep(idx)
            curve = _curve(*sweep)
            per_draw.append((_area(curve), _best_accuracy(*sweep)[1], _grid_row(curve, grid)))
        aurocs, accuracies, grid_rows = zip(*per_draw)
        results[name] = np.array(aurocs), np.array(accuracies), np.vstack(grid_rows)
    return results


def ratio_robustness_experiment(
    member_scores,
    nonmember_scores,
    ratios=((5, 1), (1, 1), (1, 5)),
    repeats: int = 20,
    seed: int = 0,
) -> dict:
    """Mean AUROC at several member:nonmember ratios for one strategy.

    Nonmembers stay fixed; the member side is subsampled to round(a/b * n)
    per ratio a:b and averaged over seeded draws.  A ratio that needs more
    members than the pool holds raises ConfigError.  The pools are sorted
    once and every draw sweeps that order filtered to its members; a ratio
    that needs the whole member pool is swept once.
    """
    ms, ns = _pools(member_scores, nonmember_scores)
    if repeats < 1:
        raise ConfigError("ratio repeats must be >= 1")
    pools = _SortedPools(ms, ns)
    out = {}
    for a, b in ratios:
        if a < 1 or b < 1:
            raise ConfigError(f"ratio parts must be >= 1, got {a}:{b}")
        need = int(round(ns.size * a / b))
        if need < 1:
            raise ConfigError(f"ratio {a}:{b} leaves no members")
        if need > ms.size:
            raise ConfigError(
                f"ratio {a}:{b} needs {need} members but the pool has {ms.size}"
            )
        draws = _member_draws(ms.size, need, repeats, [seed, a, b])
        out[f"{a}:{b}"] = float(np.mean([_area(_curve(*pools.sweep(idx))) for idx in draws]))
    return out


@dataclass(frozen=True)
class HistogramResult:
    edges: np.ndarray
    member_counts: np.ndarray
    nonmember_counts: np.ndarray


def score_histogram(member_scores, nonmember_scores, n_bins: int, value_range) -> HistogramResult:
    """Fixed-range histograms per class; out-of-range values land in the
    first or last bin.  A range whose width hi - lo overflows gets its
    edges from the halved range, doubled, which is exact at that size."""
    if n_bins < 1:
        raise ConfigError("histogram needs at least one bin")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError("histogram range must be finite with lo < hi")
    h = 0.5 if math.isinf(hi - lo) else 1.0
    edges = np.linspace(lo * h, hi * h, n_bins + 1) / h
    ms, ns = _pools(member_scores, nonmember_scores)
    mc, _ = np.histogram(np.clip(ms, lo, hi), bins=edges)
    nc, _ = np.histogram(np.clip(ns, lo, hi), bins=edges)
    return HistogramResult(edges, mc.astype(np.int64), nc.astype(np.int64))


@dataclass
class EvalReport:
    """Everything the pipeline publishes: the JSON payload plus side tables
    (ROC grids, histograms, score columns) written as CSV files.

    The score columns are the per-sample rows behind the pools: `scores`
    maps a strategy to one score per row of `sample_ids` and `is_member`.
    A re-render has none."""

    schema_version: int
    seed: int
    config_echo: dict
    dataset: dict
    target: dict
    splits: dict
    strategies: dict
    roc_grids: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    sample_ids: Optional[np.ndarray] = None
    is_member: Optional[np.ndarray] = None
    scores: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "config": self.config_echo,
            "dataset": self.dataset,
            "target": self.target,
            "splits": self.splits,
            "strategies": self.strategies,
        }
