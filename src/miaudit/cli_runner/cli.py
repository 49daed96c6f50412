"""Command line entry point.

Subcommands: gen-data, train-target, audit, report.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..artifacts import read_json_object, write_json
from ..errors import AuditError, ConfigError, DataError
from ..nn_core import save_checkpoint
from .config import load_config
from .data import save_dataset
from .pipeline import (
    prepare_target,
    rerender_from_scores,
    run_pipeline,
    synthetic_dataset,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default=None, help="output directory override")


def _load(args: argparse.Namespace):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None):
        overrides["output.dir"] = args.out
    return load_config(args.config, overrides)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    config = _load(args)
    out = Path(args.out or config["dataset.path"] or "dataset_out")
    X, y, manifest = synthetic_dataset(config)
    # the format an audit of this config reads
    fmt = args.format or ("binary" if config["dataset.source"] == "binary" else "csv")
    save_dataset(X, y, manifest, out, fmt)
    print(f"wrote {manifest.train_size} train / {manifest.heldout_size} heldout samples to {out}")
    return 0


def _cmd_train_target(args: argparse.Namespace) -> int:
    config = _load(args)
    out = Path(args.out or config["output.dir"])
    _, _, _, model, summary = prepare_target(config)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / "target.ckpt")
    write_json(out / "target_summary.json", summary)
    print(
        f"target trained: train acc {summary['train_accuracy']:.4f}, "
        f"heldout acc {summary['heldout_accuracy']:.4f}, checkpoint at {out / 'target.ckpt'}"
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    config = _load(args)
    report, out = run_pipeline(config)
    print(f"report written to {out / 'report.json'}")
    for name in sorted(report.strategies):
        section = report.strategies[name]
        a1 = section.get("analysis1")
        if a1:
            print(
                f"  {name}: auroc {a1['auroc_mean']:.4f} +/- {a1['auroc_std']:.4f}, "
                f"balanced acc {section['analysis2']['balanced_accuracy']:.4f}"
            )
    return 0


# Settings that change what `report` computes from the same score files,
# besides every protocol.* key.
_REPORT_KEYS = ("seed", "strategies", "attack.epsilon", "histogram.bins")


def _config_notes(config, scores_dir) -> list:
    """One note for each setting that changes the analyses and differs from
    the `config` echo of the audit's report.json in `scores_dir`."""
    path = Path(scores_dir) / "report.json"
    if not path.is_file():
        return []
    try:
        old = read_json_object(path).get("config")
    except (DataError, OSError):
        return []  # the re-render reads it again and reports the error
    if not isinstance(old, dict):
        return []
    return [
        f"note: {key} = {value}, but {path} was written with {old[key]}"
        for key, value in config.echo().items()
        if (key in _REPORT_KEYS or key.startswith("protocol.")) and key in old and old[key] != value
    ]


def _cmd_report(args: argparse.Namespace) -> int:
    config = _load(args)
    scores_dir = args.scores_dir or config["output.dir"]
    out = args.out or config["output.dir"]
    for note in _config_notes(config, scores_dir):
        print(note, file=sys.stderr)
    _, out_path = rerender_from_scores(config, scores_dir, out)
    print(f"report re-rendered to {Path(out_path) / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miaudit",
        description="Membership-inference privacy audit: train a target, mount attacks, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset directory")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "binary"), default=None)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-target", help="train the target model and stop")
    _add_common(p)
    p.set_defaults(func=_cmd_train_target)

    p = sub.add_parser("audit", help="run the full audit pipeline")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("report", help="re-render the report from dumped score CSVs")
    _add_common(p)
    p.add_argument("--scores-dir", default=None, help="directory with scores_<strategy>.csv")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (AuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
