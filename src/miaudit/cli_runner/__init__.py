"""Experiment configuration, datasets, the audit pipeline, and the CLI."""

from ..scores import ALL_STRATEGIES, ATTACKER_STRATEGIES
from .config import ExperimentConfig, load_config, stage_seed
from .data import (
    DatasetManifest,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
)
from .pipeline import export_report, rerender_from_scores, run_pipeline

__all__ = [
    "ALL_STRATEGIES",
    "ATTACKER_STRATEGIES",
    "DatasetManifest",
    "ExperimentConfig",
    "export_report",
    "generate_synthetic_dataset",
    "load_config",
    "load_dataset",
    "rerender_from_scores",
    "run_pipeline",
    "save_dataset",
    "stage_seed",
]
