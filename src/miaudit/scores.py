"""Membership scores: one scalar phi per strategy, oriented so larger
values point toward "member".  The decision rule is phi >= tau.

Every score takes a block of samples (n, d) with n labels and returns one
value per row, each bitwise what the row alone gives; one sample is the
one-row block `X[i:i+1]` with labels `Y[i:i+1]`.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversarial import (
    AttackConfig,
    find_adversarial,  # noqa: F401  bench/tracing.py patches scores.find_adversarial by name
    find_adversarial_rows,
)
from .artifacts import csv_rows, write_csv
from .errors import DataError
from .nn_core import (
    PROB_FLOOR,
    MLPClassifier,
    _check_labels,
    cross_entropy_loss,
    forward_predict,
    row_backward,
    row_gradient_factors,
    sample_evaluation,
)


def softmax_response(model: MLPClassifier, X, Y=None):
    """Largest output probability; the labels are not used."""
    return np.max(forward_predict(model, X), axis=1)


def modified_entropy(model: MLPClassifier, X, Y):
    """Label-aware entropy variant; small for confident correct predictions.

    Probabilities are clamped to [PROB_FLOOR, 1 - PROB_FLOOR] inside the
    logs only, so a probability of exactly 1 on the true class gives 0.
    The sum runs over the c - 1 other classes only: a zero term in the true
    class's place would move some sums by one ulp.
    """
    probs = forward_predict(model, X)
    n, c = probs.shape
    Y = _check_labels(model, Y, n)
    log_p = np.log(np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR))
    log_1mp = np.log(np.clip(1.0 - probs, PROB_FLOOR, 1.0 - PROB_FLOOR))
    rows = np.arange(n)
    others = np.arange(c)[None, :] != Y[:, None]
    rest = np.sum((probs[others] * log_1mp[others]).reshape(n, c - 1), axis=1)
    return -(1.0 - probs[rows, Y]) * log_p[rows, Y] - rest


def mentr_score(model: MLPClassifier, X, Y):
    """Negated modified entropy (members score high)."""
    return -modified_entropy(model, X, Y)


def loss_score(model: MLPClassifier, X, Y):
    """Negated true-label cross entropy."""
    return -cross_entropy_loss(forward_predict(model, X), Y)


def grad_w_norm_score(model: MLPClassifier, X, Y):
    """Negated SQUARED l2 norm of the full parameter gradient, summed over
    the layers as `(sum a**2 + 1) * sum delta**2` (`row_gradient_factors`)."""
    _, acts, _, deltas, _ = row_backward(model, X, Y)
    return -sum((a.powers[1] + 1.0) * d.powers[1] for a, d in row_gradient_factors(acts, deltas))


def grad_x_norm_score(model: MLPClassifier, X, Y):
    """Negated l2 norm (not squared) of the input gradient."""
    _, _, g = sample_evaluation(model, X, Y)
    return -np.sqrt(np.sum(g * g, axis=1))


def adv_dist_score(model: MLPClassifier, X, Y, attack: AttackConfig, seeds=None):
    """Adversarial distance: lp distance of the closest misclassified
    iterate of a loss-maximising APGD run, epsilon when none is found, 0
    when the row is already misclassified; an upper bound on the distance
    to the nearest adversarial example.

    All rows search in lock step; row i draws its restarts from seeds[i],
    or from `attack.seed` when no seeds are given.
    """
    return find_adversarial_rows(model, X, Y, attack, seeds).distance


def membership_decision(score: float, tau: float) -> bool:
    return score >= tau


def _unit_range(member: np.ndarray, nonmember: np.ndarray, epsilon: float) -> tuple:
    return (0.0, 1.0)


def _epsilon_range(member: np.ndarray, nonmember: np.ndarray, epsilon: float) -> tuple:
    return (0.0, epsilon)


def _data_range(member: np.ndarray, nonmember: np.ndarray, epsilon: float) -> tuple:
    scores = np.concatenate([member, nonmember])
    lo = float(scores.min())
    hi = float(scores.max())
    if hi > lo:
        return (lo, hi)
    # a constant pool: width 1 above it, or its span to 0 where lo + 1.0 == lo
    return (lo, lo + 1.0) if lo + 1.0 > lo else (min(lo, 0.0), max(lo, 0.0))


@dataclass(frozen=True)
class Strategy:
    """What one strategy is.

    A threshold strategy scores a block of samples with `score(model, X,
    Y)`, or `score(model, X, Y, attack, seeds)` when `needs_attack` (see
    `adv_dist_score`), one value per row.  An attacker trains the
    attack_models function named `fitter` on one feature row per sample:
    the output of the attack_models extractor named `extractor`, which
    also takes a block, whose feature set is called `features`, or the six
    threshold scores when it has none.  Attacker functions are held by
    name so that they are looked up on attack_models when called.
    `hist_range(member, nonmember, epsilon)` gives the range of the score
    histogram of the two score pools.
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


def compute_score(model: MLPClassifier, X, Y, strategy: str, attack: AttackConfig = None, seeds=None):
    """Score a block of samples (n, d) with labels (n,) with one threshold
    strategy.  Only a score that `needs_attack` gets `attack` and `seeds`:
    row i of the search draws from seeds[i], or from `attack.seed` when no
    seeds are given."""
    entry = STRATEGIES.get(strategy)
    if entry is None or entry.score is None:
        raise DataError(f"unknown strategy {strategy!r}")
    if entry.needs_attack and attack is None:
        raise DataError(f"{strategy} strategy needs an AttackConfig")
    extra = (attack, seeds) if entry.needs_attack else ()
    return entry.score(model, X, Y, *extra)


SCORE_HEADER = ["sample_id", "strategy", "score", "is_member"]
_HEADER_LINE = ",".join(SCORE_HEADER).encode() + b"\n"
# The bytes _parse_plain_score_csv takes: printable ASCII but the quote, and LF.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"


def write_score_records(path, strategy: str, sample_ids, scores, is_member) -> None:
    """CSV dump, one row per sample of one strategy."""
    ids = np.asarray(sample_ids).tolist()
    values = np.asarray(scores, dtype=np.float64).tolist()
    write_csv(path, SCORE_HEADER, ((sid, strategy, v, m) for sid, v, m in zip(ids, values, is_member)))


def parse_member_flag(field: str, path, lineno: int) -> bool:
    """The is_member column of a CSV row: "1" is a member, "0" is not."""
    flag = field.strip()
    if flag not in ("0", "1"):
        raise DataError(f"{path}: row {lineno}: is_member must be 0 or 1, got {field!r}")
    return flag == "1"


def _score_rows(rows, strategy: str, path):
    """(sample ids, scores, member flags) of the CSV rows after the header,
    read one row at a time: raises DataError naming the first bad row."""
    ids, scores, members = array("q"), array("d"), []
    for lineno, row in enumerate(rows, start=2):
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


def _parse_plain_score_csv(data: bytes, strategy: str):
    """(sample ids, scores, member flags) of a score CSV's bytes, parsed by
    one np.loadtxt call; None for any file on which loadtxt and the row
    reader could differ.

    Only printable ASCII without quotes, with LF or CRLF line ends, is
    parsed here: loadtxt reads some control bytes as spaces, skips blank
    lines, splits at a lone CR and has no field size limit, so a file with
    a quote, a control byte, a lone CR, a line over csv.field_size_limit()
    or other than one row per newline after the header (a blank line, no
    final newline) is left to the row reader.  The string columns are one
    character wider than any field they accept, so a longer field, which
    loadtxt cuts to fit, never reads as a match.
    """
    text = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    # a last row without its newline would offset, in the row count below,
    # a blank line that loadtxt skips
    plain = text.startswith(_HEADER_LINE) and text.endswith(b"\n")
    if not plain or text.translate(None, _PLAIN_BYTES):
        return None
    ends = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))
    if np.diff(ends, append=len(text)).max() > csv.field_size_limit() + 1:
        return None
    dtype = np.dtype(
        [("id", np.int64), ("strategy", f"U{len(strategy) + 1}"), ("score", np.float64), ("flag", "U2")]
    )
    try:
        with warnings.catch_warnings():
            # numpy 1.24-1.26 read "1.0" into an int column with only a DeprecationWarning
            warnings.simplefilter("error")
            # loadtxt reads the checked bytes themselves: a decoded str in an
            # io.StringIO would hold several more copies of the file at once
            table = np.loadtxt(
                io.BytesIO(text),
                encoding="ascii",
                dtype=dtype,
                delimiter=",",
                comments=None,
                quotechar=None,
                skiprows=1,
                ndmin=1,
            )
    except (ValueError, Warning):
        return None
    members = table["flag"] == "1"
    if (
        len(table) != len(ends) - 1
        or not np.all(table["strategy"] == strategy)
        or not np.all(members | (table["flag"] == "0"))
        or not np.all(np.isfinite(table["score"]))
    ):
        return None
    return np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["score"]), members


def read_score_records(path, strategy: str):
    """One strategy's score CSV as (sample ids, scores, member flags) arrays
    in file order.  Every row must name `strategy`.

    A file in the plain layout `write_score_records` writes is parsed in one
    pass (`_parse_plain_score_csv`); any other file, valid or not, is read
    row by row, which gives the same arrays or names the first bad row.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _parse_plain_score_csv(data, strategy)
    if columns is not None:
        return columns
    reader = csv_rows(io.BytesIO(data), path)
    if next(reader, None) != SCORE_HEADER:
        raise DataError(f"unexpected score CSV header in {path}")
    return _score_rows(reader, strategy, path)
