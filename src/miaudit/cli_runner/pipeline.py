"""End-to-end audit pipeline.

Stages: data -> target -> scores -> attackers -> analyses -> export.  Every
stage derives its seed from the master seed by name, per-sample attack seeds
hash in the sample id, and the scoring stage scores all samples in row
chunks whose rows do not depend on each other, so reports are
byte-identical across runs.  Stage failures re-raise with a [stage:...]
tag.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .. import attack_models as am
from ..adversarial import dump_trace_csv, first_run_traces
from ..artifacts import read_json_object, write_csv, write_json
from ..errors import AuditError, ConfigError, DataError, TrainingError
from ..evaluation import (
    EvalReport,
    averaged_roc_on_grid,  # noqa: F401  bench/tracing.py patches pipeline.averaged_roc_on_grid by name
    default_fpr_grid,
    holdout_cut,
    holdout_threshold_eval,
    ratio_robustness_experiment,
    repeated_subset_experiment,
    score_histogram,
)
from ..nn_core import (
    build_mlp,
    classification_accuracy,
    empirical_risk,
    load_checkpoint,
    save_checkpoint,
    train,
)
from ..scores import (
    ENSEMBLE_FEATURE_ORDER,
    STRATEGIES,
    compute_score,
    read_score_records,
    write_score_records,
)
from .config import ExperimentConfig, stage_seed
from .data import generate_synthetic_dataset, load_dataset

SCHEMA_VERSION = 1


@contextmanager
def _stage(name: str):
    try:
        yield
    except AuditError as exc:
        raise type(exc)(f"[stage:{name}] {exc}") from exc


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def synthetic_dataset(config: ExperimentConfig):
    """(X, y, manifest) of the configured synthetic dataset."""
    return generate_synthetic_dataset(
        config["dataset.n_per_class"],
        config["dataset.classes"],
        config["dataset.dim"],
        config["dataset.separation"],
        stage_seed(config.seed, "data"),
        config["dataset.heldout_per_class"],
    )


def prepare_target(config: ExperimentConfig):
    """Data and target stages, shared by `audit` and `train-target`.

    Returns (X, y, manifest, model, target summary): the samples, the first
    manifest.train_size rows the members the target trains on, and the
    report's `target` section.
    """
    with _stage("data"):
        if config["dataset.source"] == "synthetic":
            X, y, manifest = synthetic_dataset(config)
        else:
            X, y, manifest = load_dataset(config["dataset.path"], config["dataset.source"])
    members, nonmembers = slice(None, manifest.train_size), slice(manifest.train_size, None)

    with _stage("target"):
        ckpt = config["target.load_checkpoint"]
        if ckpt:
            model = load_checkpoint(ckpt)
            if (model.input_dim, model.n_classes) != (manifest.feature_dim, manifest.n_classes):
                raise DataError(
                    f"checkpoint {ckpt} takes {model.input_dim} features and {model.n_classes} "
                    f"classes; the dataset has {manifest.feature_dim} and {manifest.n_classes}"
                )
            history = []
        else:
            dims = [manifest.feature_dim, *config.hidden_dims(), manifest.n_classes]
            model = build_mlp(dims, stage_seed(config.seed, "target_init"))
            _, history = train(
                model, X[members], y[members], config.train_config(stage_seed(config.seed, "target_train"))
            )
        summary = {
            "layer_dims": list(model.layer_dims),
            "parameter_count": model.parameter_count(),
            "epochs_run": len(history),
            "final_train_loss": float(history[-1]) if history else None,
            "train_accuracy": classification_accuracy(model, X[members], y[members]),
            "heldout_accuracy": classification_accuracy(model, X[nonmembers], y[nonmembers]),
            "train_risk": empirical_risk(model, X[members], y[members]),
            "heldout_risk": empirical_risk(model, X[nonmembers], y[nonmembers]),
        }
    return X, y, manifest, model, summary


def _attacker_split(config: ExperimentConfig, n_members: int, n_nonmembers: int, any_attackers: bool):
    """Mask of the attacker-training rows: 50/50 members/nonmembers."""
    mask = np.zeros(n_members + n_nonmembers, dtype=bool)
    if not any_attackers:
        return mask
    frac = config["attacker.train_fraction"]
    k = int(round(frac * min(n_members, n_nonmembers)))
    if k < 1:
        raise ConfigError("attacker.train_fraction leaves no training samples")
    if k >= n_members or k >= n_nonmembers:
        raise ConfigError("attacker.train_fraction leaves no evaluation samples")
    rng = np.random.default_rng(stage_seed(config.seed, "attacker_split"))
    mask[rng.permutation(n_members)[:k]] = True
    mask[n_members + rng.permutation(n_nonmembers)[:k]] = True
    return mask


def _holdout_shortfall(n_members: int, n_nonmembers: int, fraction: float):
    """Why analysis2's holdout split cannot use pools of these sizes (a side
    of it would get no members or no nonmembers), or None when it can."""
    if all(0 < holdout_cut(n, fraction) < n for n in (n_members, n_nonmembers)):
        return None
    return (
        f"{n_members} members and {n_nonmembers} nonmembers are too few for "
        f"analysis2's holdout split (protocol.holdout_fraction = {fraction})"
    )


# Rows per call of every score and feature extractor.  Each row's result is
# bitwise what the row alone gives, so the size moves no output byte; it
# bounds what one call holds.  128 rows searched as fast as 64 and faster
# than 256 on a 10,000-sample audit, and faster than 64 on the default
# audit (ROADMAP item 16).
CHUNK_ROWS = 128


def _chunks(n: int):
    """Slices that cover rows 0..n-1 in CHUNK_ROWS steps."""
    return (slice(start, min(start + CHUNK_ROWS, n)) for start in range(0, n, CHUNK_ROWS))


def score_samples(config: ExperimentConfig, model, X, Y, score_names):
    """Score every sample (row of X, label in Y, sample id = row index).

    Returns (scores, traces): threshold strategy -> score array, and the
    adversarial search's debug traces as (first sample id, ApgdTrace) per
    chunk (empty unless `debug.dump_traces` and a score needs the search).
    Every score runs on CHUNK_ROWS rows at a time.  The search is seeded per
    row by its sample id, so its results do not depend on the other rows.
    The traces replay the search's first run, the one started at each
    input, for every row.
    """
    scores = {name: np.empty(len(X)) for name in score_names}
    traces = []
    search = any(STRATEGIES[name].needs_attack for name in score_names)
    attack, base = config.attack_config(), stage_seed(config.seed, "attack")
    for rows in _chunks(len(X)):
        ids = range(rows.start, rows.stop)
        seeds = [stage_seed(base, f"sample:{sid}") for sid in ids] if search else None
        for name, out in scores.items():
            out[rows] = compute_score(model, X[rows], Y[rows], name, attack, seeds)
        if search and config["debug.dump_traces"]:
            traces.append((rows.start, first_run_traces(model, X[rows], Y[rows], attack)))
    return scores, traces


def feature_chunks(model, X, Y, scores: dict, name: str, ids: np.ndarray):
    """One attacker's feature rows of the samples `ids` (row indices of X
    and Y, and of every array in `scores`), CHUNK_ROWS rows at a time: its
    extractor's output, or the six threshold scores for the ensemble."""
    extractor = STRATEGIES[name].extractor
    for part in _chunks(len(ids)):
        rows = ids[part]
        if extractor:
            yield getattr(am, extractor)(model, X[rows], Y[rows])
        else:
            yield np.column_stack([scores[s][rows] for s in ENSEMBLE_FEATURE_ORDER])


def _stacked(chunks, n_rows: int) -> np.ndarray:
    """The row blocks of `chunks`, n_rows rows between them, as one block."""
    out, start = None, 0
    for block in chunks:
        if out is None:
            out = np.empty((n_rows, block.shape[1]))
        out[start:start + len(block)] = block
        start += len(block)
    return out


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _end_child(pid: int) -> str:
    """Kill the fit process if it still runs, reap it, and say how it ended."""
    import signal

    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return f"exit status {code}" if code >= 0 else f"signal {-code}"


def fit_attackers(config: ExperimentConfig, features: dict, labels: np.ndarray) -> dict:
    """Fit every attacker on its training feature matrix (`features` maps
    attacker -> matrix, in strategy order) and the shared 0/1 labels;
    returns attacker -> TrainedAttacker in the same order.  Each fit works
    in the memory of its matrix and leaves it overwritten.

    The widest matrix, the longest fit, is fitted here while one forked
    process fits the others in strategy order, up to its first failure,
    and then pickles one (ok, attacker or exception) pair per fit into a
    pipe.  The processes share no GIL.  With one fit, no
    `os.fork` or one usable core, every fit runs here, one after another.
    A fit is a pure function of its features, labels and seed, so no byte
    depends on where it ran.  The first failing attacker in strategy order
    raises; a fit process that ends without its results is a
    TrainingError.  The fit process is reaped on every path.
    """

    def fit(name):
        fitter = getattr(am, STRATEGIES[name].fitter)
        seed = stage_seed(config.seed, f"attacker:{name}")
        return fitter(features[name], labels, seed, overwrite_features=True)

    if len(features) < 2 or not hasattr(os, "fork") or _usable_cores() < 2:
        return {name: fit(name) for name in features}
    # imported here, so that the CLI's start-up and an audit without
    # attackers do not load it
    import pickle

    widest = max(features, key=lambda n: features[n].shape[1])
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            outcomes = []
            for name in features:
                if name != widest:
                    try:
                        outcomes.append((True, fit(name)))
                    except Exception as exc:
                        outcomes.append((False, exc))
                        break
            # written after the last fit: a result larger than the pipe
            # buffer blocks the writer until the parent's own fit is done
            with os.fdopen(write_fd, "wb") as pipe:
                for outcome in outcomes:
                    pickle.dump(outcome, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    fitted, lost = {}, None
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                own = (True, fit(widest))
            except Exception as exc:
                own = (False, exc)
            for name in features:
                if name == widest:
                    ok, result = own
                else:
                    try:
                        ok, result = pickle.load(pipe)
                    except (EOFError, pickle.UnpicklingError):
                        lost = name
                        break
                if not ok:
                    raise result
                fitted[name] = result
    finally:
        ended = _end_child(pid)
    if lost is not None:
        raise TrainingError(f"the attacker fit process ended ({ended}) without the fit of {lost}")
    return fitted


def run_pipeline(config: ExperimentConfig, out_dir=None):
    """Full audit; returns (EvalReport, output_dir).  Writes report.json,
    per-strategy CSVs, and model/attacker checkpoints into out_dir."""
    out = Path(out_dir if out_dir is not None else config["output.dir"])
    strategies = config.strategies()
    attacker_names = [s for s in strategies if STRATEGIES[s].kind == "attacker"]

    X, Y, manifest, model, target_summary = prepare_target(config)

    # samples are indexed by position: members, then nonmembers
    n_members = manifest.train_size
    n_nonmembers = manifest.heldout_size
    is_member = np.arange(n_members + n_nonmembers) < n_members
    with _stage("attackers"):
        train_mask = _attacker_split(config, n_members, n_nonmembers, bool(attacker_names))
    eval_mask = ~train_mask
    eval_member = is_member[eval_mask]
    # the pool sizes follow from the config, so an unusable split is caught
    # before any scoring
    shortfall = _holdout_shortfall(int(eval_member.sum()), int((~eval_member).sum()),
                                  config["protocol.holdout_fraction"])
    if strategies and shortfall:
        raise ConfigError(shortfall)

    # per-sample work: the threshold scores every strategy needs, and one
    # feature vector per attacker
    needed_scores = list(dict.fromkeys(n for s in strategies for n in STRATEGIES[s].needed_scores))

    # pools ordered by ascending sample id; all strategies share them
    train_ids, eval_ids = np.flatnonzero(train_mask), np.flatnonzero(eval_mask)
    with _stage("scores"):
        scores, traces = score_samples(config, model, X, Y, needed_scores)
        # only the attacker-training rows' features are held whole
        train_features = {
            name: _stacked(feature_chunks(model, X, Y, scores, name, train_ids), len(train_ids))
            for name in attacker_names
        }

    with _stage("attackers"):
        eval_scores = {name: scores[name][eval_mask] for name in strategies if name in scores}
        attackers = fit_attackers(config, train_features, is_member[train_mask].astype(np.float64))
        del train_features
        # the evaluation rows' features are extracted and scored one chunk
        # at a time, and kept whole only for the debug dump
        dumps = {}
        for name, attacker in attackers.items():
            chunks = feature_chunks(model, X, Y, scores, name, eval_ids)
            if config["debug.dump_features"] and STRATEGIES[name].features:
                dumps[name] = _stacked(chunks, len(eval_ids))
                chunks = (dumps[name][rows] for rows in _chunks(len(eval_ids)))
            eval_scores[name] = np.concatenate([am.attacker_scores(attacker, block) for block in chunks])

    member_pool = {name: eval_scores[name][eval_member] for name in strategies}
    nonmember_pool = {name: eval_scores[name][~eval_member] for name in strategies}

    splits = {
        "members_total": n_members,
        "nonmembers_total": n_nonmembers,
        "attacker_train_members": int(np.sum(train_mask & is_member)),
        "attacker_train_nonmembers": int(np.sum(train_mask & ~is_member)),
        "eval_members": int(np.sum(eval_member)),
        "eval_nonmembers": int(np.sum(~eval_member)),
    }
    report = build_report(
        config, member_pool, nonmember_pool, manifest.to_dict(), target_summary, splits
    )
    report.sample_ids, report.is_member = eval_ids, eval_member
    report.scores = {name: eval_scores[name] for name in strategies}

    with _stage("export"):
        export_report(report, out)
        save_checkpoint(model, out / "target.ckpt")
        for name, attacker in attackers.items():
            am.save_attacker(attacker, out / f"{name}.ckpt")
        for name, rows in dumps.items():
            path = out / f"features_{STRATEGIES[name].features}.csv"
            am.write_feature_dump(path, eval_ids, rows, eval_member)
        if traces:
            (out / "traces").mkdir(parents=True, exist_ok=True)
        for start, trace in traces:
            for row in range(len(trace.center)):
                dump_trace_csv(trace, row, out / "traces" / f"trace_{start + row}.csv")
    return report, out


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def build_report(
    config: ExperimentConfig, member_pool, nonmember_pool, dataset, target, splits
) -> EvalReport:
    """Run the analyses on the score pools and wrap them in the report.

    Each pool maps every configured strategy to its scores in ascending
    sample-id order.  `audit` and `report` both build their report here, so
    a re-render of an audit reproduces its analysis sections.
    """
    strategies = config.strategies()
    strategy_reports = {name: {} for name in strategies}
    roc_grids = {}
    histograms = {}
    grid = default_fpr_grid(config["protocol.fpr_grid_points"])

    if strategies:
        n_m = len(member_pool[strategies[0]])
        n_n = len(nonmember_pool[strategies[0]])
        with _stage("analysis1"):
            protocol = config.protocol_config(n_m, n_n, stage_seed(config.seed, "analysis1"))
            repeats = repeated_subset_experiment(member_pool, nonmember_pool, protocol)
            for name, res in repeats.items():
                strategy_reports[name]["analysis1"] = {
                    "repeats": protocol.repeats,
                    "member_subset_size": protocol.resolved_subset_size(),
                    "auroc_mean": res.auroc_mean,
                    "auroc_std": res.auroc_std,
                    "accuracy_mean": res.accuracy_mean,
                    "accuracy_std": res.accuracy_std,
                    "aurocs": [float(v) for v in res.aurocs],
                    "accuracies": [float(v) for v in res.accuracies],
                }
                roc_grids[name] = (grid, *res.tpr_stats)

        with _stage("analysis2"):
            seed2 = stage_seed(config.seed, "analysis2")
            for name in strategies:
                # attackers output a membership probability
                fixed = 0.5 if STRATEGIES[name].kind == "attacker" else None
                bal, fpr = holdout_threshold_eval(
                    member_pool[name], nonmember_pool[name], config["protocol.holdout_fraction"],
                    seed2, fixed_tau=fixed,
                )
                strategy_reports[name]["analysis2"] = {
                    "balanced_accuracy": bal,
                    "fpr": fpr,
                    "threshold_rule": "fixed_0.5" if fixed is not None else "swept",
                }

        ratio_names = [s for s in config.ratio_strategies() if s in strategies]
        if ratio_names:
            with _stage("ratio"):
                ratios = config.ratios()
                max_frac = max(a / b for a, b in ratios)
                base = min(n_n, int(n_m / max_frac))
                if base < 1:
                    raise ConfigError("score pools too small for the configured ratios")
                rng = np.random.default_rng(stage_seed(config.seed, "ratio_base"))
                keep = np.sort(rng.choice(n_n, size=base, replace=False))
                for name in ratio_names:
                    strategy_reports[name]["ratio_auroc"] = ratio_robustness_experiment(
                        member_pool[name],
                        nonmember_pool[name][keep],
                        ratios,
                        repeats=config["protocol.ratio_repeats"],
                        seed=stage_seed(config.seed, "ratio"),
                    )

        with _stage("histograms"):
            for name in strategies:
                pools = member_pool[name], nonmember_pool[name]
                rng_range = STRATEGIES[name].hist_range(*pools, config["attack.epsilon"])
                histograms[name] = score_histogram(*pools, config["histogram.bins"], rng_range)

    for name in strategies:
        strategy_reports[name]["kind"] = STRATEGIES[name].kind
        strategy_reports[name]["files"] = {
            "scores": f"scores_{name}.csv",
            "roc": f"roc_{name}.csv",
            "hist": f"hist_{name}.csv",
        }

    return EvalReport(
        schema_version=SCHEMA_VERSION,
        seed=config.seed,
        config_echo=config.echo(),
        dataset=dataset,
        target=target,
        splits=splits,
        strategies=strategy_reports,
        roc_grids=roc_grids,
        histograms=histograms,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_report(report: EvalReport, out_dir) -> Path:
    """Write report.json plus per-strategy CSV side files, atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", report.to_dict())
    for name, (grid, mean_tpr, std_tpr) in report.roc_grids.items():
        write_csv(out / f"roc_{name}.csv", ["fpr", "tpr_mean", "tpr_std"], zip(grid, mean_tpr, std_tpr))
    for name, hist in report.histograms.items():
        rows = zip(hist.edges[:-1], hist.edges[1:], hist.member_counts, hist.nonmember_counts)
        write_csv(out / f"hist_{name}.csv", ["bin_lo", "bin_hi", "member_count", "nonmember_count"], rows)
    for name, scores in report.scores.items():
        write_score_records(out / f"scores_{name}.csv", name, report.sample_ids, scores, report.is_member)
    return out / "report.json"


# ---------------------------------------------------------------------------
# Re-render from dumped scores
# ---------------------------------------------------------------------------


def rerender_from_scores(config: ExperimentConfig, scores_dir, out_dir):
    """Rebuild the analyses and report from scores_<strategy>.csv files.

    Stage seeds come from the config, so a re-render of an unmodified audit
    directory reproduces the audit's numbers.  Every file must list the same
    (sample_id, is_member) sequence, each id once, with enough members and
    nonmembers for analysis2's holdout split (both sides of it keep some of
    each), and name its own strategy in every row; otherwise the pools would
    pair different samples, count one twice or leave nothing to compare.
    Dataset/target/splits sections are carried over from an existing
    report.json when present, and then the pools must have the sizes its
    splits give, so a score file cut at a row boundary is caught.
    """
    scores_path = Path(scores_dir)
    strategies = config.strategies()
    fraction = config["protocol.holdout_fraction"]
    member_pool = {}
    nonmember_pool = {}
    samples = None
    for name in strategies:
        csv_path = scores_path / f"scores_{name}.csv"
        if not csv_path.is_file():
            raise DataError(f"missing score file {csv_path}")
        ids, scores, members = read_score_records(csv_path, name)
        order = np.argsort(ids, kind="stable")
        ids, scores, members = ids[order], scores[order], members[order]
        if samples is None:
            repeated = ids[1:][ids[1:] == ids[:-1]]
            if repeated.size:
                raise DataError(f"{csv_path}: sample_id {repeated[0]} appears more than once")
            shortfall = _holdout_shortfall(int(members.sum()), int((~members).sum()), fraction)
            if shortfall:
                raise DataError(f"{csv_path}: {shortfall}")
            samples = (ids, members)
        elif not (np.array_equal(ids, samples[0]) and np.array_equal(members, samples[1])):
            raise DataError(f"{csv_path}: samples differ from scores_{strategies[0]}.csv")
        member_pool[name] = scores[members]
        nonmember_pool[name] = scores[~members]

    dataset_section, target_section, splits_section = {}, {}, {}
    old_report = scores_path / "report.json"
    if old_report.is_file():
        old = read_json_object(old_report)
        dataset_section = old.get("dataset", {})
        target_section = old.get("target", {})
        splits_section = old.get("splits", {})
        if not isinstance(splits_section, dict):
            raise DataError(f"{old_report}: splits is not a JSON object")
        flags = () if samples is None else (("eval_members", samples[1]), ("eval_nonmembers", ~samples[1]))
        for key, in_pool in flags:
            n = int(in_pool.sum())
            if key in splits_section and splits_section[key] != n:
                raise DataError(
                    f"{scores_path}: {n} rows of {key}, {old_report} splits say {splits_section[key]}"
                )

    report = build_report(
        config, member_pool, nonmember_pool, dataset_section, target_section, splits_section
    )
    with _stage("export"):
        export_report(report, out_dir)
    return report, Path(out_dir)
