"""Workload definitions, input generation and output checks.

Every input the program sees is written here from a seed: a flat config file
and, for `report_rerender`, one `scores_<strategy>.csv` per threshold
strategy.  A run writes two input sets: one from the run seed, which its
timed calls repeat, and the reference set from REFERENCE_SEED, the same in
every run, whose AUROCs gate the strength of the attacks.  The checks read
only what the program wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

THRESHOLD = ("softmax", "mentr", "loss", "grad_w_norm", "grad_x_norm", "adv_dist")
ATTACKERS = (
    "attacker_grad_w",
    "attacker_grad_x",
    "attacker_int_outs",
    "attacker_wb",
    "attacker_ensemble",
)
ATTACKER_TRAIN_FRACTION = 0.4
EPSILON = 1.0
# Config seed of the reference input set.  Its AUROCs are deterministic and
# the same in every run whatever the run seed, so a bound of 1 % on them
# catches an attack that got weaker; AUROCs on seed-dependent data spread by
# several per cent from seed to seed.
REFERENCE_SEED = 20220318


@dataclass(frozen=True)
class Scale:
    """Input sizes; `FULL` is what the benchmark measures, `SMOKE` is for tests."""

    classes: int
    dim: int
    per_class: int
    hidden: str
    epochs: int
    report_rows: int  # members and, again, nonmembers per score CSV


FULL = Scale(classes=10, dim=24, per_class=8, hidden="128,128", epochs=150, report_rows=10000)
SMOKE = Scale(classes=3, dim=6, per_class=15, hidden="8", epochs=5, report_rows=300)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # miaudit subcommand: "audit" or "report"
    strategies: tuple
    n_iter: int
    workers: int  # MIAUDIT_WORKERS; 0 leaves it unset


# Why each workload exists: bench/README.md.  BENCHMARK.json lists the ones
# with bounds; adv_search_pool is run by hand (its spread is too wide).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("adv_search", "audit", THRESHOLD, 50, 0),
        Workload("attackers_full", "audit", THRESHOLD + ATTACKERS, 10, 0),
        Workload("report_rerender", "report", THRESHOLD, 50, 0),
        Workload("adv_search_pool", "audit", THRESHOLD, 50, 2),
    )
}


def config_text(w: Workload, seed: int, scale: Scale) -> str:
    lines = [
        f"seed = {seed}",
        f"dataset.classes = {scale.classes}",
        f"dataset.dim = {scale.dim}",
        "dataset.separation = 0.5",
        f"dataset.n_per_class = {scale.per_class}",
        f"dataset.heldout_per_class = {scale.per_class}",
        f"target.hidden_dims = {scale.hidden}",
        f"target.epochs = {scale.epochs}",
        f"strategies = {','.join(w.strategies)}",
        f"attack.epsilon = {EPSILON}",
        f"attack.n_iter = {w.n_iter}",
        f"attacker.train_fraction = {ATTACKER_TRAIN_FRACTION}",
    ]
    return "\n".join(lines) + "\n"


# Member shift of each synthetic score stream, in units of its spread, and
# the map from a standard-normal draw to the strategy's value range.
_SCORE_SHAPES = {
    "softmax": (0.25, lambda z: 1.0 / (1.0 + math.exp(-z))),
    "mentr": (0.45, lambda z: -math.exp(-z)),
    "loss": (0.50, lambda z: -math.log1p(math.exp(-z))),
    "grad_w_norm": (0.55, lambda z: -math.exp(-1.5 * z)),
    "grad_x_norm": (0.40, lambda z: -math.exp(-z)),
    # clipped to [0, epsilon] like a real adv_dist, so ties at both ends
    "adv_dist": (0.60, lambda z: min(EPSILON, max(0.0, 0.45 + 0.3 * z))),
}


def write_score_csvs(out_dir: Path, seed: int, rows: int) -> None:
    """One `sample_id,strategy,score,is_member` file per threshold strategy:
    ids 0..rows-1 are members, rows..2*rows-1 nonmembers."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in THRESHOLD:
        shift, shape = _SCORE_SHAPES[name]
        rng = random.Random(f"{seed}:{name}")
        lines = ["sample_id,strategy,score,is_member"]
        for sid in range(2 * rows):
            member = sid < rows
            value = shape(rng.gauss(shift if member else 0.0, 1.0))
            lines.append(f"{sid},{name},{float(value)!r},{int(member)}")
        (out_dir / f"scores_{name}.csv").write_text("\n".join(lines) + "\n")


def write_inputs(w: Workload, seed: int, scale: Scale, inputs: Path) -> Path:
    """Write one input set, made from `seed`, into `inputs`; returns it."""
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "workload.cfg").write_text(config_text(w, seed, scale))
    if w.command == "report":
        write_score_csvs(inputs / "scores", seed, scale.report_rows)
    return inputs


def cli_args(w: Workload, inputs: Path, out: Path) -> list:
    args = [w.command, "--config", str(inputs / "workload.cfg"), "--out", str(out)]
    if w.command == "report":
        args += ["--scores-dir", str(inputs / "scores")]
    return args


def samples_per_call(w: Workload, scale: Scale) -> int:
    """Samples scored by an audit, or score rows re-analysed by a report."""
    if w.command == "report":
        return 2 * scale.report_rows * len(w.strategies)
    return 2 * scale.classes * scale.per_class


def expected_splits(w: Workload, scale: Scale) -> dict:
    n = scale.classes * scale.per_class
    k = int(round(ATTACKER_TRAIN_FRACTION * n)) if any(s in ATTACKERS for s in w.strategies) else 0
    return {
        "members_total": n,
        "nonmembers_total": n,
        "attacker_train_members": k,
        "attacker_train_nonmembers": k,
        "eval_members": n - k,
        "eval_nonmembers": n - k,
    }


def _aurocs(section: dict):
    a1 = section["analysis1"]
    yield a1["auroc_mean"]
    yield from a1["aurocs"]
    yield from section.get("ratio_auroc", {}).values()


def check_outputs(w: Workload, scale: Scale, out: Path) -> list:
    """Problems found in one call's output directory; empty means correct."""
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    problems = []
    strategies = report.get("strategies", {})
    if sorted(strategies) != sorted(w.strategies):
        problems.append(f"strategies {sorted(strategies)} != configured {sorted(w.strategies)}")
    for name in w.strategies:
        section = strategies.get(name, {})
        if "analysis1" not in section or "analysis2" not in section:
            problems.append(f"{name}: missing analysis1/analysis2")
            continue
        bad = [a for a in _aurocs(section) if not 0.0 <= a <= 1.0]
        if bad:
            problems.append(f"{name}: AUROC outside [0, 1]: {bad[:3]}")
    if w.command == "report":
        want = scale.report_rows
        for name, section in strategies.items():
            got = section.get("analysis1", {}).get("member_subset_size")
            if got != want:
                problems.append(f"{name}: member_subset_size {got} != {want}")
        return problems
    splits = expected_splits(w, scale)
    if report.get("splits") != splits:
        problems.append(f"splits {report.get('splits')} != {splits}")
    rows = splits["eval_members"] + splits["eval_nonmembers"] + 1
    for name in w.strategies:
        try:
            got = len((out / f"scores_{name}.csv").read_text().splitlines())
        except OSError as exc:
            problems.append(f"scores_{name}.csv unreadable: {exc}")
            continue
        if got != rows:
            problems.append(f"scores_{name}.csv has {got} lines, want {rows}")
    return problems


def auroc_stats(out: Path) -> tuple:
    """(mean, smallest) `analysis1.auroc_mean` over the strategies in report.json."""
    strategies = json.loads((out / "report.json").read_text())["strategies"]
    values = [s["analysis1"]["auroc_mean"] for s in strategies.values()]
    return sum(values) / len(values), min(values)


def digest(out: Path) -> str:
    """sha256 over the names and bytes of every top-level file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
