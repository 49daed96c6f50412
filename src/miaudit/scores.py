"""Membership scores: one scalar phi per strategy, oriented so larger
values point toward "member".  The decision rule is phi >= tau.

Every score takes a block of samples (n, d) with n labels and returns one
value per row, each bitwise what the row alone gives; one input (d,) and
its label give that row's float.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversarial import (
    AttackConfig,
    find_adversarial,  # noqa: F401  bench/tracing.py patches scores.find_adversarial by name
    find_adversarial_rows,
)
from .errors import DataError
from .nn_core import (
    PROB_FLOOR,
    MLPClassifier,
    _check_labels,
    cross_entropy_loss,
    forward_predict,
    one_or_block,
    row_backward,
    row_parameter_grads,
    sample_evaluation,
)


def softmax_response(model: MLPClassifier, x, y=None):
    """Largest output probability; the label is not used."""
    return one_or_block(x, np.max(forward_predict(model, np.atleast_2d(x)), axis=1))


def modified_entropy(model: MLPClassifier, x, y):
    """Label-aware entropy variant; small for confident correct predictions.

    Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] inside the
    logs only, so a probability of exactly 1 on the true class gives 0.
    The sum runs over the c - 1 other classes only: a zero term in the true
    class's place would move some sums by one ulp.
    """
    probs = forward_predict(model, np.atleast_2d(x))
    n, c = probs.shape
    Y = _check_labels(model, y, n)
    log_p = np.log(np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR))
    log_1mp = np.log(np.clip(1.0 - probs, PROB_FLOOR, 1.0 - PROB_FLOOR))
    rows = np.arange(n)
    others = np.arange(c)[None, :] != Y[:, None]
    rest = np.sum((probs[others] * log_1mp[others]).reshape(n, c - 1), axis=1)
    return one_or_block(x, -(1.0 - probs[rows, Y]) * log_p[rows, Y] - rest)


def mentr_score(model: MLPClassifier, x, y):
    """Negated modified entropy (members score high)."""
    return one_or_block(x, -modified_entropy(model, np.atleast_2d(x), y))


def loss_score(model: MLPClassifier, x, y):
    """Negated true-label cross entropy."""
    return one_or_block(x, -cross_entropy_loss(forward_predict(model, np.atleast_2d(x)), y))


def grad_w_norm_score(model: MLPClassifier, x, y):
    """Negated SQUARED l2 norm of the full parameter gradient."""
    _, acts, _, deltas, _ = row_backward(model, x, y)
    scores = np.empty(acts[0].shape[0])
    # one row at a time: the parameter gradients of a whole block can take
    # more memory than the rest of the audit
    for k in range(len(scores)):
        total = 0.0
        for g in row_parameter_grads(acts, deltas, k):  # this order and grouping fix the score's last bits
            total += float(np.sum(g * g))
        scores[k] = -total
    return one_or_block(x, scores)


def grad_x_norm_score(model: MLPClassifier, x, y):
    """Negated l2 norm (not squared) of the input gradient."""
    _, _, g = sample_evaluation(model, np.atleast_2d(x), y)
    return one_or_block(x, -np.sqrt(np.sum(g * g, axis=1)))


def adv_dist_score(model: MLPClassifier, x, y, attack: AttackConfig, seeds=None, traces=None):
    """Adversarial distance: lp norm of the minimal misclassifying
    perturbation, epsilon when the attack fails, 0 when x already misses.

    All rows search in lock step; row i draws its restarts from seeds[i],
    or from `attack.seed` when no seeds are given.  A list passed as
    `traces` receives the first-run trace of every row (see
    `find_adversarial_rows`).
    """
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    seeds = [attack.seed] * len(X) if seeds is None else seeds
    outcomes, found = find_adversarial_rows(
        model, X, np.array(y, dtype=np.int64, ndmin=1), attack, seeds, traces is not None
    )
    if traces is not None:
        traces.extend(found)
    return one_or_block(x, np.array([o.distance for o in outcomes]))


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

    A threshold strategy scores a block of samples with `score(model, X,
    Y)`, or `score(model, X, Y, attack)` when `needs_attack` (see
    `adv_dist_score`), one value per row.  An attacker trains the
    attack_models function named `fitter` on one feature row per sample:
    the output of the attack_models extractor named `extractor`, which
    also takes a block, whose feature set is called `features`, or the six
    threshold scores when it has none.  Attacker functions are held by
    name so that they are looked up on attack_models when called.
    `hist_range(scores, epsilon)` gives the range of the score histogram.
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
        Strategy("adv_dist", _epsilon_range, adv_dist_score, needs_attack=True),
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


def compute_score(model: MLPClassifier, x, y, strategy: str, attack: AttackConfig = None):
    """Score a block of samples (n, d) with labels (n,), or one sample, with
    one threshold strategy; every row of the search draws from `attack.seed`."""
    entry = STRATEGIES.get(strategy)
    if entry is None or entry.score is None:
        raise DataError(f"unknown strategy {strategy!r}")
    if entry.needs_attack and attack is None:
        raise DataError(f"{strategy} strategy needs an AttackConfig")
    extra = (attack,) if entry.needs_attack else ()
    return entry.score(model, x, y, *extra)


SCORE_HEADER = ["sample_id", "strategy", "score", "is_member"]


def write_score_records(path, strategy: str, sample_ids, scores, is_member) -> None:
    """CSV dump, one row per sample of one strategy; floats as shortest repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORE_HEADER)
        rows = zip(np.asarray(sample_ids).tolist(), np.asarray(scores).tolist(), is_member)
        for sid, score, member in rows:
            writer.writerow([sid, strategy, repr(float(score)), int(member)])


def parse_member_flag(field: str, path, lineno: int) -> bool:
    """The is_member column of a CSV row: "1" is a member, "0" is not."""
    flag = field.strip()
    if flag not in ("0", "1"):
        raise DataError(f"{path}: row {lineno}: is_member must be 0 or 1, got {field!r}")
    return flag == "1"


def _score_columns(rows, strategy: str):
    """(sample ids, scores, member flags) of CSV rows, checked column by
    column; None when any row fails a check."""
    if set(map(len, rows)) - {4}:
        return None
    ids, names, scores, flags = list(zip(*rows)) or ((), (), (), ())
    try:
        ids = np.fromiter(map(int, ids), dtype=np.int64, count=len(rows))
        scores = np.fromiter(map(float, scores), dtype=np.float64, count=len(rows))
    except (ValueError, OverflowError):
        return None
    is_one = {flag: flag.strip() == "1" for flag in set(flags)}
    if (
        not np.all(np.isfinite(scores))
        or not set(names) <= {strategy}
        or not {flag.strip() for flag in is_one} <= {"0", "1"}
    ):
        return None
    return ids, scores, np.fromiter(map(is_one.__getitem__, flags), dtype=bool, count=len(rows))


def _score_rows(rows, strategy: str, path, first_lineno: int):
    """_score_columns row by row: raises DataError naming the first bad row."""
    ids, scores, members = array("q"), array("d"), []
    for lineno, row in enumerate(rows, start=first_lineno):
        if len(row) != 4:
            raise DataError(f"{path}: row {lineno} has {len(row)} fields, want 4")
        try:
            ids.append(int(row[0]))
            scores.append(float(row[2]))
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from exc
        if not math.isfinite(scores[-1]):
            raise DataError(f"{path}: row {lineno}: non-finite score")
        if row[1] != strategy:
            raise DataError(f"{path}: row {lineno}: strategy column does not name {strategy!r}")
        members.append(parse_member_flag(row[3], path, lineno))
    return np.array(ids, dtype=np.int64), np.array(scores), np.array(members, dtype=bool)


# Fewer rows than the cyclic collector's first threshold (700 new container
# objects), so a chunk's row lists are freed before a collection has to scan
# and promote them: a read triggers no collection.  At 4,096 rows the six
# 20,000-row files of a report triggered about 300 collections, two of them
# full ones, some 30 ms of the read.
SCORE_CHUNK_ROWS = 256


def read_score_records(path, strategy: str):
    """One strategy's score CSV, read SCORE_CHUNK_ROWS rows at a time into
    (sample ids, scores, member flags) arrays in file order.  Every row must
    name `strategy`.  A chunk is checked column by column; only a chunk that
    fails is read again row by row, to report its first bad row."""
    chunks = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != SCORE_HEADER:
            raise DataError(f"unexpected score CSV header in {path}")
        for lineno in itertools.count(2, SCORE_CHUNK_ROWS):
            rows = []
            try:
                rows.extend(itertools.islice(reader, SCORE_CHUNK_ROWS))
            except csv.Error:
                _score_rows(rows, strategy, path, lineno)  # a bad row before it comes first
                raise
            columns = _score_columns(rows, strategy)
            chunks.append(columns if columns is not None else _score_rows(rows, strategy, path, lineno))
            if len(rows) < SCORE_CHUNK_ROWS:
                break
    return tuple(np.concatenate(column) for column in zip(*chunks))
