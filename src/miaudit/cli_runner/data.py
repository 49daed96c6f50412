"""Dataset generation, loading, and the two on-disk formats.

A dataset directory holds train.<ext> and heldout.<ext> (ext csv or bin).
CSV: header f0..f{d-1},label.  Binary: magic, version, d, K, n, then
little-endian float32 features row-major and int32 labels.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..artifacts import BinaryReader, csv_rows, read_json_object, write_bytes, write_csv, write_json
from ..errors import ConfigError, DataError

DATA_MAGIC = b"MIADATA\x00"
DATA_VERSION = 1

_EXT = {"csv": "csv", "binary": "bin"}
_LABEL_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class DatasetManifest:
    feature_dim: int
    n_classes: int
    train_size: int
    heldout_size: int
    normalized: bool
    feature_mins: Optional[np.ndarray] = None
    feature_maxs: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        out = {
            "feature_dim": self.feature_dim,
            "n_classes": self.n_classes,
            "train_size": self.train_size,
            "heldout_size": self.heldout_size,
            "normalized": self.normalized,
        }
        if self.feature_mins is not None:
            out["feature_mins"] = [float(v) for v in self.feature_mins]
            out["feature_maxs"] = [float(v) for v in self.feature_maxs]
        return out


@dataclass
class Dataset:
    """Feature matrix in [0, 1]^d with integer labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise DataError("dataset arrays must be (n, d) features and (n,) labels")

    def __len__(self) -> int:
        return self.X.shape[0]


def generate_synthetic_dataset(
    n_per_class: int,
    n_classes: int,
    dim: int,
    class_separation: float,
    seed: int,
    heldout_per_class: Optional[int] = None,
):
    """Gaussian class blobs mapped into [0, 1]^d.

    Blob means are standard normal draws scaled by class_separation; noise is
    isotropic unit variance.  One global per-feature affine map (fitted on
    train + heldout jointly) brings everything into the box, so the two
    splits are identically distributed and disjoint by construction.
    Returns (train, heldout, manifest).
    """
    if n_per_class < 1 or n_classes < 1 or dim < 1:
        raise ConfigError("dataset sizes must be >= 1")
    if not (math.isfinite(class_separation) and class_separation >= 0):
        raise ConfigError("class_separation must be finite and >= 0")
    n_held = n_per_class if heldout_per_class is None else heldout_per_class
    if n_held < 1:
        raise ConfigError("heldout_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n_classes, dim)) * class_separation
    per_class = n_per_class + n_held
    # one block filled class by class, then mapped in place: the only
    # full-size arrays are this block and the two splits taken from it
    X = np.empty((n_classes * per_class, dim))
    for cls in range(n_classes):
        rows = X[cls * per_class:(cls + 1) * per_class]
        np.add(means[cls], rng.normal(size=(per_class, dim)), out=rows)
    y = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    X -= lo
    X /= span
    train_rows, held_rows = [], []
    for cls in range(n_classes):
        base = cls * per_class
        train_rows.append(np.arange(base, base + n_per_class))
        held_rows.append(np.arange(base + n_per_class, base + per_class))
    train_idx = np.concatenate(train_rows)
    held_idx = np.concatenate(held_rows)
    train_idx = train_idx[rng.permutation(train_idx.shape[0])]
    held_idx = held_idx[rng.permutation(held_idx.shape[0])]
    train = Dataset(X[train_idx], y[train_idx])
    heldout = Dataset(X[held_idx], y[held_idx])
    manifest = DatasetManifest(
        feature_dim=dim,
        n_classes=n_classes,
        train_size=len(train),
        heldout_size=len(heldout),
        normalized=True,
        feature_mins=lo,
        feature_maxs=hi,
    )
    return train, heldout, manifest


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------


def save_csv_file(dataset: Dataset, path) -> None:
    header = [f"f{i}" for i in range(dataset.X.shape[1])] + ["label"]
    write_csv(path, header, ([*row.tolist(), label] for row, label in zip(dataset.X, dataset.y)))


def read_csv_file(path):
    """(features, labels) from one CSV file; errors carry the line number."""
    reader = csv_rows(Path(path).read_bytes(), path)
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    d = len(header) - 1
    if d < 1 or header != [f"f{i}" for i in range(d)] + ["label"]:
        raise DataError(f"{path}: line 1: expected header f0..f{{d-1}},label")
    feats, labels = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != d + 1:
            raise DataError(f"{path}: line {lineno}: {len(row)} fields, want {d + 1}")
        try:
            feats.append([float(v) for v in row[:-1]])
            labels.append(int(row[-1]))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        if not 0 <= labels[-1] <= _LABEL_MAX:
            raise DataError(f"{path}: line {lineno}: label {labels[-1]} outside [0, {_LABEL_MAX}]")
    if not feats:
        raise DataError(f"{path}: no data rows")
    X = np.array(feats, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise DataError(f"{path}: non-finite feature values")
    return X, np.array(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------


def save_binary_file(dataset: Dataset, path, n_classes: Optional[int] = None) -> None:
    n, d = dataset.X.shape
    k = int(dataset.y.max()) + 1 if n_classes is None else int(n_classes)
    header = DATA_MAGIC + struct.pack("<IIII", DATA_VERSION, d, k, n)
    X = np.ascontiguousarray(dataset.X, dtype="<f4")
    write_bytes(path, [header, X, np.ascontiguousarray(dataset.y, dtype="<i4")])


def read_binary_file(path):
    """(features, labels, n_classes) from one binary file."""
    reader = BinaryReader(path, DATA_MAGIC, DATA_VERSION, "a dataset file")
    d, k, n = reader.unpack("<III")
    if d < 1 or k < 1 or n < 1:
        raise reader.error(f"implausible header (d={d}, K={k}, n={n})")
    data = reader.rest(4 * n * d + 4 * n)
    X = np.frombuffer(data, dtype="<f4", count=n * d).reshape(n, d).astype(np.float64)
    y = np.frombuffer(data, dtype="<i4", offset=4 * n * d).astype(np.int64)
    if not np.all(np.isfinite(X)):
        raise reader.error("non-finite feature values")
    if y.min() < 0 or y.max() >= k:
        raise reader.error(f"label outside [0, {k})")
    return X, y, k


# ---------------------------------------------------------------------------
# Directory-level load/save
# ---------------------------------------------------------------------------


def save_dataset(train: Dataset, heldout: Dataset, manifest: DatasetManifest, out_dir, fmt: str = "csv") -> None:
    """Write both splits and manifest.json, each file atomically."""
    if fmt not in _EXT:
        raise ConfigError(f"dataset format must be csv or binary, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, split in (("train", train), ("heldout", heldout)):
        path = out / f"{name}.{_EXT[fmt]}"
        if fmt == "csv":
            save_csv_file(split, path)
        else:
            save_binary_file(split, path, manifest.n_classes)
    write_json(out / "manifest.json", manifest.to_dict())


def load_dataset(path, fmt: str = "csv"):
    """Load train + heldout splits from a dataset directory.

    Features outside [0, 1] are min-max normalized per feature, with the map
    fitted jointly over both splits and recorded in the manifest.  When the
    directory holds a manifest.json (`gen-data` writes one), its train_size,
    heldout_size, feature_dim and n_classes must match the files.  With or
    without one, the class count may not exceed the rows of both splits.
    Returns (train, heldout, manifest).
    """
    if fmt not in _EXT:
        raise ConfigError(f"dataset format must be csv or binary, got {fmt!r}")
    base = Path(path)
    ext = _EXT[fmt]
    train_path = base / f"train.{ext}"
    held_path = base / f"heldout.{ext}"
    for p in (train_path, held_path):
        if not p.is_file():
            raise DataError(f"missing dataset file {p}")
    if fmt == "csv":
        Xt, yt = read_csv_file(train_path)
        Xh, yh = read_csv_file(held_path)
        k = int(max(yt.max(), yh.max())) + 1
    else:
        Xt, yt, k1 = read_binary_file(train_path)
        Xh, yh, k2 = read_binary_file(held_path)
        if k1 != k2:
            raise DataError("train and heldout disagree on the class count")
        k = k1
    if Xt.shape[1] != Xh.shape[1]:
        raise DataError("train and heldout disagree on the feature dimension")
    manifest_path = base / "manifest.json"
    # a CSV cut at a row boundary still parses, and an edited CSV label sizes
    # the target's output layer; the manifest catches both
    if manifest_path.is_file():
        recorded = read_json_object(manifest_path)
        for key, n in (
            ("train_size", len(Xt)), ("heldout_size", len(Xh)), ("feature_dim", Xt.shape[1]), ("n_classes", k)
        ):
            if recorded.get(key) != n:
                raise DataError(f"{manifest_path}: {key} is {recorded.get(key)!r}, the files hold {n}")
    # the class count sizes the target's output layer; more classes than
    # rows cannot all appear in the data, so the count is not trusted
    if k > len(Xt) + len(Xh):
        raise DataError(f"{base}: {k} classes, more than the {len(Xt) + len(Xh)} rows of both splits")
    lo = np.minimum(Xt.min(axis=0), Xh.min(axis=0))
    hi = np.maximum(Xt.max(axis=0), Xh.max(axis=0))
    needs = (lo < 0.0) | (hi > 1.0)
    normalized = bool(needs.any())
    if normalized:
        span = np.where(hi > lo, hi - lo, 1.0)
        f_lo = np.where(needs, lo, 0.0)
        f_span = np.where(needs, span, 1.0)
        Xt = (Xt - f_lo) / f_span
        Xh = (Xh - f_lo) / f_span
        mins = f_lo
        maxs = np.where(needs, hi, 1.0)
    else:
        mins = np.zeros(Xt.shape[1])
        maxs = np.ones(Xt.shape[1])
    manifest = DatasetManifest(
        feature_dim=int(Xt.shape[1]),
        n_classes=k,
        train_size=int(Xt.shape[0]),
        heldout_size=int(Xh.shape[0]),
        normalized=normalized,
        feature_mins=mins,
        feature_maxs=maxs,
    )
    return Dataset(Xt, yt), Dataset(Xh, yh), manifest
