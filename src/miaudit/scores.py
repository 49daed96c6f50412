"""Membership scores: one scalar phi per strategy, oriented so larger
values point toward "member".  The decision rule is phi >= tau.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversarial import AttackConfig, find_adversarial, find_adversarial_rows
from .errors import DataError
from .nn_core import (
    PROB_FLOOR,
    MLPClassifier,
    backward_gradients,
    cross_entropy_loss,
    forward_predict,
    sample_evaluation,
)


@dataclass(frozen=True)
class ScoreRecord:
    sample_id: int
    strategy: str
    score: float
    is_member: bool


def softmax_response(model: MLPClassifier, x, y: int = None) -> float:
    """Largest output probability; the label is not used."""
    return float(np.max(forward_predict(model, x)))


def modified_entropy(model: MLPClassifier, x, y: int) -> float:
    """Label-aware entropy variant; small for confident correct predictions.

    Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] inside the
    logs only, so a probability of exactly 1 on the true class gives 0.
    """
    probs = forward_predict(model, x)
    if y < 0 or y >= probs.shape[0]:
        raise IndexError(f"label {y} out of range for {probs.shape[0]} classes")
    clamped = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_p = np.log(clamped)
    log_1mp = np.log(np.clip(1.0 - probs, PROB_FLOOR, 1.0 - PROB_FLOOR))
    total = -(1.0 - probs[y]) * log_p[y]
    mask = np.arange(probs.shape[0]) != y
    total -= float(np.sum(probs[mask] * log_1mp[mask]))
    return float(total)


def mentr_score(model: MLPClassifier, x, y: int) -> float:
    """Negated modified entropy (members score high)."""
    return -modified_entropy(model, x, y)


def loss_score(model: MLPClassifier, x, y: int) -> float:
    """Negated true-label cross entropy."""
    return -cross_entropy_loss(forward_predict(model, x), y)


def grad_w_norm_score(model: MLPClassifier, x, y: int) -> float:
    """Negated SQUARED l2 norm of the full parameter gradient."""
    grads, _ = backward_gradients(model, x, y)
    total = 0.0
    for g in grads:  # this order and grouping fix the score's last bits
        total += float(np.sum(g * g))
    return -total


def grad_x_norm_score(model: MLPClassifier, x, y: int) -> float:
    """Negated l2 norm (not squared) of the input gradient."""
    _, _, g = sample_evaluation(model, x, y)
    return -float(np.sqrt(np.sum(g * g)))


def adv_dist_score(model: MLPClassifier, x, y: int, attack: AttackConfig) -> float:
    """Adversarial distance: lp norm of the minimal misclassifying
    perturbation, epsilon when the attack fails, 0 when x already misses."""
    return find_adversarial(model, x, y, attack).distance


def adv_dist_scores(model: MLPClassifier, X, Y, attack: AttackConfig, seeds, traces=False):
    """`adv_dist_score` of every row of a block, row i searched with seed
    seeds[i] in one lock-step search.  Returns (distances, the first-run
    trace of every row or None); see `find_adversarial_rows`."""
    outcomes, found = find_adversarial_rows(model, X, Y, attack, seeds, traces)
    return np.array([o.distance for o in outcomes]), found


def membership_decision(score: float, tau: float) -> bool:
    return score >= tau


def _unit_range(scores: np.ndarray, epsilon: float) -> tuple:
    return (0.0, 1.0)


def _epsilon_range(scores: np.ndarray, epsilon: float) -> tuple:
    return (0.0, epsilon)


def _data_range(scores: np.ndarray, epsilon: float) -> tuple:
    lo = float(scores.min())
    hi = float(scores.max())
    return (lo, hi if hi > lo else lo + 1.0)


@dataclass(frozen=True)
class Strategy:
    """What one strategy is.

    A threshold strategy scores one sample with `score(model, x, y)`, or,
    when `needs_attack`, a block of samples at once with `score(model, X,
    Y, attack, seeds, traces)` (see `adv_dist_scores`).  An attacker trains
    the attack_models function named `fitter` on one feature vector per
    sample: the output of the attack_models extractor named `extractor`,
    whose feature set is called `features`, or the six threshold scores
    when it has none.  Attacker functions are held by name so that they
    are looked up on attack_models when called.  `hist_range(scores,
    epsilon)` gives the range of the score histogram.
    """

    name: str
    hist_range: Callable
    score: Callable = None
    needs_attack: bool = False
    features: str = ""
    extractor: str = ""
    fitter: str = ""

    @property
    def kind(self) -> str:
        return "threshold" if self.score is not None else "attacker"

    @property
    def needed_scores(self) -> tuple:
        """Threshold scores every sample needs for this strategy."""
        if self.score is not None:
            return (self.name,)
        return () if self.extractor else ENSEMBLE_FEATURE_ORDER


# The only list of strategies, in report and default-config order.
STRATEGIES = {
    s.name: s
    for s in (
        Strategy("softmax", _unit_range, softmax_response),
        Strategy("mentr", _data_range, mentr_score),
        Strategy("loss", _data_range, loss_score),
        Strategy("grad_w_norm", _data_range, grad_w_norm_score),
        Strategy("grad_x_norm", _data_range, grad_x_norm_score),
        Strategy("adv_dist", _epsilon_range, adv_dist_scores, needs_attack=True),
        Strategy("attacker_grad_w", _unit_range, features="grad_w_stats",
                 extractor="extract_grad_w_stats", fitter="fit_logistic_attacker"),
        Strategy("attacker_grad_x", _unit_range, features="grad_x_stats",
                 extractor="extract_grad_x_stats", fitter="fit_logistic_attacker"),
        Strategy("attacker_int_outs", _unit_range, features="intermediate_outputs",
                 extractor="extract_intermediate_outputs", fitter="fit_mlp_attacker"),
        Strategy("attacker_wb", _unit_range, features="wb_concat",
                 extractor="extract_wb_features", fitter="fit_mlp_attacker"),
        Strategy("attacker_ensemble", _unit_range, fitter="build_and_train_ensemble"),
    )
}

ALL_STRATEGIES = tuple(STRATEGIES)
THRESHOLD_STRATEGIES = tuple(n for n, s in STRATEGIES.items() if s.kind == "threshold")
ATTACKER_STRATEGIES = tuple(n for n, s in STRATEGIES.items() if s.kind == "attacker")
# Order of the per-strategy scores fed to the ensemble attacker.
ENSEMBLE_FEATURE_ORDER = THRESHOLD_STRATEGIES


def compute_score(
    model: MLPClassifier, x, y: int, strategy: str, attack: AttackConfig = None
) -> float:
    """Score one sample with one threshold strategy."""
    entry = STRATEGIES.get(strategy)
    if entry is None or entry.score is None:
        raise DataError(f"unknown strategy {strategy!r}")
    if not entry.needs_attack:
        return entry.score(model, x, y)
    if attack is None:
        raise DataError(f"{strategy} strategy needs an AttackConfig")
    values, _ = entry.score(model, np.asarray(x, dtype=np.float64)[None, :], [y], attack, [attack.seed])
    return float(values[0])


def write_score_records(records, path) -> None:
    """CSV dump, one row per (sample, strategy); floats as shortest repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "strategy", "score", "is_member"])
        for r in records:
            writer.writerow(
                [r.sample_id, r.strategy, repr(float(r.score)), int(r.is_member)]
            )


def parse_member_flag(field: str, path, lineno: int) -> bool:
    """The is_member column of a CSV row: "1" is a member, "0" is not."""
    flag = field.strip()
    if flag not in ("0", "1"):
        raise DataError(f"{path}: row {lineno}: is_member must be 0 or 1, got {field!r}")
    return flag == "1"


def read_score_records(path) -> list[ScoreRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "strategy", "score", "is_member"]:
            raise DataError(f"unexpected score CSV header in {path}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataError(f"{path}: row {lineno} has {len(row)} fields, want 4")
            try:
                sample_id, score = int(row[0]), float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: {exc}") from exc
            if not math.isfinite(score):
                raise DataError(f"{path}: row {lineno}: non-finite score")
            member = parse_member_flag(row[3], path, lineno)
            records.append(ScoreRecord(sample_id, row[1], score, member))
    return records
