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


@dataclass(frozen=True)
class LabeledScoreSet:
    """Scores with membership ground truth; higher score = more member-like."""

    scores: np.ndarray
    is_member: np.ndarray

    @classmethod
    def from_arrays(cls, scores, is_member) -> "LabeledScoreSet":
        s = np.asarray(scores, dtype=np.float64).ravel()
        m = np.asarray(is_member, dtype=bool).ravel()
        if s.shape[0] != m.shape[0]:
            raise EvaluationError("scores and labels differ in length")
        if s.shape[0] == 0:
            raise EvaluationError("empty score set")
        if not np.all(np.isfinite(s)):
            raise EvaluationError("scores must be finite")
        return cls(s, m)

    @classmethod
    def from_pools(cls, member_scores, nonmember_scores) -> "LabeledScoreSet":
        ms = np.asarray(member_scores, dtype=np.float64).ravel()
        ns = np.asarray(nonmember_scores, dtype=np.float64).ravel()
        return cls.from_arrays(
            np.concatenate([ms, ns]),
            np.concatenate([np.ones(len(ms), bool), np.zeros(len(ns), bool)]),
        )


def _require_both_classes(score_set: LabeledScoreSet) -> None:
    n_m = int(score_set.is_member.sum())
    if n_m == 0 or n_m == score_set.is_member.shape[0]:
        raise EvaluationError("score set needs both members and nonmembers")


@dataclass(frozen=True)
class ROCCurve:
    """Operating points swept over all distinct thresholds, ties grouped.

    Starts at (0, 0) with threshold +inf and ends at (1, 1); fpr and tpr are
    non-decreasing.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


def _sweep(score_set: LabeledScoreSet):
    """Sort the scores once and group ties; see `_sorted_sweep`."""
    _require_both_classes(score_set)
    order = np.argsort(-score_set.scores, kind="stable")
    return _sorted_sweep(score_set.scores[order], score_set.is_member[order])


def _sorted_sweep(ss, mm):
    """Group the ties of scores already in descending order.

    Returns (ss, boundaries, tp, fp): boundary j predicts "member" for the
    top `boundaries[j]` scores and admits tp[j] members and fp[j]
    nonmembers; entry 0 is the empty boundary.  Only the score sequence and
    each tie group's member count matter, so any descending order of the
    same scores gives the same result.
    """
    # last index of each tie group
    ends = np.append(np.nonzero(np.diff(ss) != 0)[0], ss.shape[0] - 1)
    members = np.cumsum(mm)[ends]
    tp = np.concatenate([[0], members]).astype(np.float64)
    fp = np.concatenate([[0], ends + 1 - members]).astype(np.float64)
    return ss, np.concatenate([[0], ends + 1]), tp, fp


class _SortedPools:
    """Both pools of one strategy (members first), stable-sorted by
    descending score once.  `sweep(member_idx)` is the sweep of the chosen
    members against every nonmember: filtering the pool's order by a mask
    leaves the subset's scores in descending order with the same tie
    groups, so it equals `_sweep` of a fresh sort, bit for bit."""

    def __init__(self, member_scores, nonmember_scores):
        pool = LabeledScoreSet.from_pools(member_scores, nonmember_scores)
        self.n_members = int(pool.is_member.sum())
        self.order = np.argsort(-pool.scores, kind="stable")
        self.ss = pool.scores[self.order]
        self.mm = pool.is_member[self.order]

    def sweep(self, member_idx):
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
    return float(0.5 * (ss[j - 1] + ss[j])), float(best)


def _best_accuracy(ss, boundaries, tp, fp) -> tuple[float, float]:
    return _best_boundary(ss, boundaries, (tp + (fp[-1] - fp)) / (tp[-1] + fp[-1]))


def roc_curve(score_set: LabeledScoreSet) -> ROCCurve:
    return _curve(*_sweep(score_set))


def auroc(score_set: LabeledScoreSet) -> float:
    """Trapezoid area under the tie-grouped ROC; equals the tied-rank
    Mann-Whitney statistic."""
    return _area(roc_curve(score_set))


def best_threshold_accuracy(score_set: LabeledScoreSet) -> tuple[float, float]:
    """(tau, accuracy) maximizing plain accuracy of score >= tau.

    The sweep covers every distinct operating point (midpoints between
    adjacent distinct scores plus both infinities); among ties the smallest
    tau wins.
    """
    return _best_accuracy(*_sweep(score_set))


def _best_balanced_threshold(score_set: LabeledScoreSet) -> float:
    ss, boundaries, tp, fp = _sweep(score_set)
    return _best_boundary(ss, boundaries, 0.5 * (tp / tp[-1] + (fp[-1] - fp) / fp[-1]))[0]


def decision_rates(score_set: LabeledScoreSet, tau: float) -> tuple[float, float, float]:
    """(balanced_accuracy, fpr, tpr) of the rule score >= tau."""
    _require_both_classes(score_set)
    pred = score_set.scores >= tau
    m = score_set.is_member
    tpr = float(pred[m].mean())
    fpr = float(pred[~m].mean())
    return 0.5 * (tpr + (1.0 - fpr)), fpr, tpr


def holdout_cut(n: int, holdout_fraction: float) -> int:
    """Rows of one class, of n, that holdout_threshold_eval uses to pick tau;
    the other n - cut rows are its evaluation side."""
    return int(round(holdout_fraction * n))


def holdout_threshold_eval(
    score_set: LabeledScoreSet,
    holdout_fraction: float = 0.8,
    seed: int = 0,
    fixed_tau=None,
) -> tuple[float, float]:
    """Imbalanced-aware protocol: pick tau for balanced accuracy on a
    stratified holdout_fraction of the data, report (balanced_accuracy, fpr)
    on the rest.  fixed_tau skips the sweep (trained attackers use 0.5).
    """
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must lie strictly between 0 and 1")
    _require_both_classes(score_set)
    rng = np.random.default_rng(seed)
    sel_idx, eval_idx = [], []
    for cls in (True, False):
        idx = np.nonzero(score_set.is_member == cls)[0]
        idx = idx[rng.permutation(idx.shape[0])]
        cut = holdout_cut(idx.shape[0], holdout_fraction)
        sel_idx.append(idx[:cut])
        eval_idx.append(idx[cut:])
    sel = np.concatenate(sel_idx)
    ev = np.concatenate(eval_idx)
    if min(len(i) for i in sel_idx) == 0 or min(len(i) for i in eval_idx) == 0:
        raise EvaluationError("degenerate holdout split: a side lost a class")
    eval_set = LabeledScoreSet(score_set.scores[ev], score_set.is_member[ev])
    if fixed_tau is None:
        sel_set = LabeledScoreSet(score_set.scores[sel], score_set.is_member[sel])
        tau = _best_balanced_threshold(sel_set)
    else:
        tau = float(fixed_tau)
    bal, fpr, _ = decision_rates(eval_set, tau)
    return bal, fpr


def _grid_row(curve: ROCCurve, grid) -> np.ndarray:
    """TPR of one curve at each grid FPR: the curve keeps one (max) TPR per
    distinct FPR, the last of its run since fpr is non-decreasing, and is
    linearly interpolated between them."""
    ends = np.append(np.nonzero(np.diff(curve.fpr) != 0)[0], curve.fpr.shape[0] - 1)
    return np.interp(grid, curve.fpr[ends], curve.tpr[ends])


def averaged_roc_on_grid(curves, fpr_grid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of TPR at fixed FPR grid points.

    Each curve is reduced to its grid row as the repeated protocol reduces
    each repeat's curve (`StrategyRepeats.grid_rows`), so the mean and std
    of a protocol's curves are those of its grid rows.
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


@dataclass(frozen=True)
class ProtocolConfig:
    """Shape of the repeated balanced-subset protocol."""

    member_pool_size: int
    nonmember_pool_size: int
    member_subset_size: int = 0  # 0 = derive from ratio
    repeats: int = 20
    ratio: tuple = (1, 1)  # member:nonmember target for derived subsets
    holdout_fraction: float = 0.8
    seed: int = 0
    fpr_grid_points: int = DEFAULT_FPR_GRID_POINTS  # of each repeat's grid row

    def __post_init__(self):
        if self.member_pool_size < 1 or self.nonmember_pool_size < 1:
            raise ConfigError("protocol pools must be non-empty")
        if self.repeats < 1:
            raise ConfigError("protocol repeats must be >= 1")
        if self.member_subset_size < 0:
            raise ConfigError("member_subset_size must be >= 0")
        if self.member_subset_size > self.member_pool_size:
            raise ConfigError("member_subset_size exceeds the member pool")
        a, b = self.ratio
        if a < 1 or b < 1:
            raise ConfigError("protocol ratio parts must be >= 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie strictly between 0 and 1")

    def resolved_subset_size(self) -> int:
        if self.member_subset_size:
            return self.member_subset_size
        a, b = self.ratio
        want = int(round(self.nonmember_pool_size * a / b))
        size = min(self.member_pool_size, want)
        if size < 1:
            raise ConfigError("derived member subset is empty")
        return size


@dataclass
class StrategyRepeats:
    """Per-repeat metrics for one strategy under the balanced protocol.

    Row r of `grid_rows` is repeat r's ROC curve reduced to its TPR at each
    point of `default_fpr_grid(protocol.fpr_grid_points)`, as
    `averaged_roc_on_grid` reduces a curve; the curves are not kept.
    """

    aurocs: np.ndarray
    accuracies: np.ndarray
    grid_rows: np.ndarray  # (repeats, grid points)

    @property
    def auroc_mean(self) -> float:
        return float(self.aurocs.mean())

    @property
    def auroc_std(self) -> float:
        return float(self.aurocs.std())

    @property
    def accuracy_mean(self) -> float:
        return float(self.accuracies.mean())

    @property
    def accuracy_std(self) -> float:
        return float(self.accuracies.std())


def repeated_subset_experiment(
    member_scores: dict,
    nonmember_scores: dict,
    protocol: ProtocolConfig,
) -> dict:
    """Repeat: draw a member subset, evaluate every strategy on subset vs the
    full nonmember pool.  The same subset indices serve all strategies within
    a repeat; stds are population stds over repeats.  Each strategy's pools
    are sorted once and every repeat sweeps that order filtered to its
    subset.
    """
    if set(member_scores) != set(nonmember_scores):
        raise ConfigError("member and nonmember score tables list different strategies")
    if not member_scores:
        return {}
    sizes_m = {len(np.ravel(v)) for v in member_scores.values()}
    sizes_n = {len(np.ravel(v)) for v in nonmember_scores.values()}
    if len(sizes_m) != 1 or len(sizes_n) != 1:
        raise ConfigError("per-strategy score pools differ in length")
    if sizes_m != {protocol.member_pool_size} or sizes_n != {protocol.nonmember_pool_size}:
        raise ConfigError("score pools do not match the protocol pool sizes")
    subset = protocol.resolved_subset_size()
    grid = default_fpr_grid(protocol.fpr_grid_points)
    names = sorted(member_scores)
    pools = {name: _SortedPools(member_scores[name], nonmember_scores[name]) for name in names}
    results = {
        name: StrategyRepeats(
            np.zeros(protocol.repeats), np.zeros(protocol.repeats), np.zeros((protocol.repeats, grid.size))
        )
        for name in member_scores
    }
    for r in range(protocol.repeats):
        rng = np.random.default_rng([protocol.seed, r])
        idx = rng.choice(protocol.member_pool_size, size=subset, replace=False)
        for name in names:
            sweep = pools[name].sweep(idx)
            curve = _curve(*sweep)
            results[name].aurocs[r] = _area(curve)
            results[name].accuracies[r] = _best_accuracy(*sweep)[1]
            results[name].grid_rows[r] = _grid_row(curve, grid)
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
    once and every draw sweeps that order filtered to its members.
    """
    ms = np.asarray(member_scores, dtype=np.float64).ravel()
    ns = np.asarray(nonmember_scores, dtype=np.float64).ravel()
    if ms.size == 0 or ns.size == 0:
        raise EvaluationError("ratio experiment needs both pools non-empty")
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
        key = f"{a}:{b}"
        if need == ms.size:
            out[key] = _area(_curve(*_sorted_sweep(pools.ss, pools.mm)))
            continue
        vals = np.zeros(repeats)
        for r in range(repeats):
            rng = np.random.default_rng([seed, a, b, r])
            vals[r] = _area(_curve(*pools.sweep(rng.choice(ms.size, size=need, replace=False))))
        out[key] = float(vals.mean())
    return out


@dataclass(frozen=True)
class HistogramResult:
    edges: np.ndarray
    member_counts: np.ndarray
    nonmember_counts: np.ndarray


def score_histogram(score_set: LabeledScoreSet, n_bins: int, value_range) -> HistogramResult:
    """Fixed-range histograms per class; out-of-range values land in the
    first or last bin."""
    if n_bins < 1:
        raise ConfigError("histogram needs at least one bin")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError("histogram range must be finite with lo < hi")
    edges = np.linspace(lo, hi, n_bins + 1)
    clipped = np.clip(score_set.scores, lo, hi)
    m = score_set.is_member
    mc, _ = np.histogram(clipped[m], bins=edges)
    nc, _ = np.histogram(clipped[~m], bins=edges)
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
