"""Flat dotted-key experiment configuration.

File format: one `key = value` per line, full-line # comments, unknown keys
rejected.  CLI flags --seed/--out override the corresponding keys.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from ..adversarial import AttackConfig
from ..errors import ConfigError
from ..nn_core import TrainConfig
from ..scores import ALL_STRATEGIES, THRESHOLD_STRATEGIES

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_norm(raw: str) -> float:
    low = str(raw).strip().lower()
    if low in ("inf", "linf", "l-inf", "infinity"):
        return math.inf
    try:
        p = float(low)
    except ValueError as exc:
        raise ConfigError(f"norm order must be 1, 2, or inf, got {raw!r}") from exc
    if p not in (1.0, 2.0):
        raise ConfigError(f"norm order must be 1, 2, or inf, got {raw!r}")
    return p


def _norm_to_str(p: float) -> str:
    return "inf" if p == math.inf else str(int(p))


# key -> (parser, default).  Defaults are the desk-scale audit settings.
_SCHEMA = {
    "seed": (int, 0),
    "dataset.source": (str, "synthetic"),
    "dataset.path": (str, ""),
    "dataset.n_per_class": (int, 50),
    "dataset.classes": (int, 10),
    "dataset.dim": (int, 32),
    "dataset.separation": (float, 1.0),
    "dataset.heldout_per_class": (int, 50),
    "target.hidden_dims": (str, "64"),
    "target.epochs": (int, 200),
    "target.batch_size": (int, 32),
    "target.learning_rate": (float, 0.003),
    "target.optimizer": (str, "adam"),
    "target.load_checkpoint": (str, ""),
    "attack.p": (_parse_norm, math.inf),
    "attack.epsilon": (float, 1.0),
    "attack.n_iter": (int, 50),
    "attack.n_restarts": (int, 1),
    "strategies": (str, ",".join(THRESHOLD_STRATEGIES)),
    "attacker.train_fraction": (float, 0.4),
    "protocol.repeats": (int, 20),
    "protocol.member_subset_size": (int, 0),
    "protocol.ratio": (str, "1:1"),
    "protocol.holdout_fraction": (float, 0.8),
    "protocol.ratios": (str, "5:1,1:1,1:5"),
    "protocol.ratio_repeats": (int, 20),
    "protocol.ratio_strategies": (str, "adv_dist"),
    "protocol.fpr_grid_points": (int, 201),
    "histogram.bins": (int, 30),
    "output.dir": (str, "audit_out"),
    "debug.dump_traces": (_parse_bool, False),
    "debug.dump_features": (_parse_bool, False),
}


def parse_config_file(path) -> dict:
    """Raw key -> string map from a flat config file."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        out[key] = value.strip()
    return out


def _parse_ratio(raw: str) -> tuple[int, int]:
    parts = raw.strip().split(":")
    if len(parts) != 2:
        raise ConfigError(f"ratio must look like 'a:b', got {raw!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"ratio parts must be integers, got {raw!r}") from exc
    if a < 1 or b < 1:
        raise ConfigError(f"ratio parts must be >= 1, got {raw!r}")
    return a, b


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


@dataclass
class ExperimentConfig:
    """Typed view of the flat config plus derived sub-configs."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {}
        for key, (parser, default) in _SCHEMA.items():
            raw = self.values.get(key, None)
            if raw is None:
                merged[key] = default
            else:
                try:
                    merged[key] = parser(str(raw))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        unknown = set(self.values) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        self.values = merged
        self._validate()

    def _validate(self):
        v = self.values
        if v["dataset.source"] not in ("synthetic", "csv", "binary"):
            raise ConfigError("dataset.source must be synthetic, csv, or binary")
        if v["dataset.source"] != "synthetic" and not v["dataset.path"]:
            raise ConfigError("dataset.path is required for file-backed datasets")
        for key in ("dataset.n_per_class", "dataset.classes", "dataset.dim", "dataset.heldout_per_class"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        if not (math.isfinite(v["dataset.separation"]) and v["dataset.separation"] >= 0):
            raise ConfigError("dataset.separation must be finite and >= 0")
        hidden = self.hidden_dims()
        if any(h < 1 for h in hidden):
            raise ConfigError("target.hidden_dims entries must be >= 1")
        bad = [s for s in self.strategies() if s not in ALL_STRATEGIES]
        if bad:
            raise ConfigError(f"unknown strategies {bad}; known: {list(ALL_STRATEGIES)}")
        for key in ("attacker.train_fraction", "protocol.holdout_fraction"):
            if not 0.0 < v[key] < 1.0:
                raise ConfigError(f"{key} must lie strictly between 0 and 1")
        for key in ("protocol.repeats", "protocol.ratio_repeats"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        if v["protocol.member_subset_size"] < 0:
            raise ConfigError("protocol.member_subset_size must be >= 0")
        if v["protocol.fpr_grid_points"] < 2:
            raise ConfigError("protocol.fpr_grid_points must be >= 2")
        if v["histogram.bins"] < 1:
            raise ConfigError("histogram.bins must be >= 1")
        bad = [s for s in self.ratio_strategies() if s not in ALL_STRATEGIES]
        if bad:
            raise ConfigError(f"unknown ratio strategies {bad}")
        for key in ("strategies", "protocol.ratio_strategies"):
            names = _split_list(v[key])
            repeated = sorted({s for s in names if names.count(s) > 1})
            if repeated:
                raise ConfigError(f"{key} names {repeated} more than once")
        _parse_ratio(v["protocol.ratio"])
        for raw in _split_list(v["protocol.ratios"]):
            _parse_ratio(raw)
        # exercise the sub-config validators early
        self.attack_config()
        self.train_config()

    # -- typed accessors --------------------------------------------------
    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    def hidden_dims(self) -> list[int]:
        try:
            return [int(t) for t in _split_list(str(self.values["target.hidden_dims"]))]
        except ValueError as exc:
            raise ConfigError("target.hidden_dims must be comma-separated integers") from exc

    def strategies(self) -> list[str]:
        return _split_list(self.values["strategies"])

    def ratio_strategies(self) -> list[str]:
        return _split_list(self.values["protocol.ratio_strategies"])

    def ratios(self) -> list[tuple[int, int]]:
        return [_parse_ratio(r) for r in _split_list(self.values["protocol.ratios"])]

    def attack_config(self, seed: int = 0) -> AttackConfig:
        v = self.values
        return AttackConfig(
            p=v["attack.p"],
            epsilon=v["attack.epsilon"],
            n_iter=v["attack.n_iter"],
            n_restarts=v["attack.n_restarts"],
            seed=seed,
        )

    def train_config(self, seed: int = 0) -> TrainConfig:
        v = self.values
        return TrainConfig(
            epochs=v["target.epochs"],
            batch_size=v["target.batch_size"],
            learning_rate=v["target.learning_rate"],
            optimizer=v["target.optimizer"],
            seed=seed,
        )

    def member_subset_size(self, member_pool: int, nonmember_pool: int) -> int:
        """Members per draw of analysis1: `protocol.member_subset_size`, or,
        when it is 0, `protocol.ratio` times the nonmember pool; either way
        at most the member pool."""
        size = self.values["protocol.member_subset_size"]
        if not size:
            a, b = _parse_ratio(self.values["protocol.ratio"])
            size = int(round(nonmember_pool * a / b))
            if min(size, member_pool) < 1:
                raise ConfigError("derived member subset is empty")
        return min(size, member_pool)

    def echo(self) -> dict:
        """String form of every effective key, for the report."""
        out = {}
        for key in sorted(self.values):
            val = self.values[key]
            if key == "attack.p":
                out[key] = _norm_to_str(val)
            elif isinstance(val, bool):
                out[key] = "true" if val else "false"
            else:
                out[key] = str(val)
        return out


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Config from file (optional) plus override map (CLI flags)."""
    raw = parse_config_file(path) if path else {}
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        raw[key] = str(val)
    return ExperimentConfig(raw)


def stage_seed(master_seed: int, stage: str) -> int:
    """Deterministic 63-bit seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{master_seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)
