"""Dataset generation, loading, and the two on-disk formats.

A dataset directory holds train.<ext> and heldout.<ext> (ext csv or bin).
CSV: header f0..f{d-1},label.  Binary: magic, version, d, K, n, then
little-endian float32 features row-major and int32 labels.
"""

from __future__ import annotations

import math
import struct
from array import array
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
    Returns (X, y, manifest): the first manifest.train_size rows are the
    training split (members), the rest the heldout split.
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
    # one block filled class by class, mapped in place, then put in split
    # order in place: the only full-size array is this block
    X = np.empty((n_classes * per_class, dim))
    for cls in range(n_classes):
        rows = X[cls * per_class:(cls + 1) * per_class]
        np.add(means[cls], rng.normal(size=(per_class, dim)), out=rows)
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    X -= lo
    X /= span
    ids = np.arange(X.shape[0], dtype=np.int64).reshape(n_classes, per_class)
    splits = ids[:, :n_per_class].ravel(), ids[:, n_per_class:].ravel()
    order = np.concatenate([idx[rng.permutation(idx.shape[0])] for idx in splits])
    _gather_rows(X, order)
    manifest = DatasetManifest(
        feature_dim=dim,
        n_classes=n_classes,
        train_size=n_classes * n_per_class,
        heldout_size=n_classes * n_held,
        normalized=True,
        feature_mins=lo,
        feature_maxs=hi,
    )
    # row r of the class-major block is of class r // per_class
    return X, order // per_class, manifest


def _gather_rows(X: np.ndarray, order: np.ndarray) -> None:
    """X[:] = X[order] for a permutation `order`, in place: each cycle of
    the permutation is followed with one row of scratch."""
    order = order.tolist()
    done = bytearray(len(order))
    scratch = np.empty(X.shape[1])
    for start in range(len(order)):
        if done[start]:
            continue
        scratch[:] = X[start]
        i = start
        while order[i] != start:
            X[i] = X[order[i]]
            done[i] = 1
            i = order[i]
        X[i] = scratch
        done[i] = 1


# ---------------------------------------------------------------------------
# CSV format
# ---------------------------------------------------------------------------


def _check_rows(X: np.ndarray, y: np.ndarray) -> None:
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DataError(f"dataset arrays must be (n, d) features and (n,) labels, got {X.shape} and {y.shape}")


def save_csv_file(X: np.ndarray, y: np.ndarray, path) -> None:
    _check_rows(X, y)
    header = [f"f{i}" for i in range(X.shape[1])] + ["label"]
    write_csv(path, header, ([*row.tolist(), label] for row, label in zip(X, y)))


def _read_csv_rows(path, feats: array, labels: array) -> int:
    """Append one CSV file's features to `feats` and labels to `labels`;
    returns its feature count.  Errors carry the line number."""
    with open(path, "rb") as fh:
        reader = csv_rows(fh, path)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        d = len(header) - 1
        if d < 1 or header != [f"f{i}" for i in range(d)] + ["label"]:
            raise DataError(f"{path}: line 1: expected header f0..f{{d-1}},label")
        n_before = len(labels)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise DataError(f"{path}: line {lineno}: {len(row)} fields, want {d + 1}")
            try:
                values = [float(v) for v in row[:-1]]
                label = int(row[-1])
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise DataError(f"{path}: line {lineno}: non-finite feature values")
            if not 0 <= label <= _LABEL_MAX:
                raise DataError(f"{path}: line {lineno}: label {label} outside [0, {_LABEL_MAX}]")
            feats.extend(values)
            labels.append(label)
        if len(labels) == n_before:
            raise DataError(f"{path}: no data rows")
        return d


def read_csv_file(path):
    """(features, labels) from one CSV file; errors carry the line number."""
    feats, labels = array("d"), array("q")
    d = _read_csv_rows(path, feats, labels)
    return np.frombuffer(feats).reshape(-1, d), np.frombuffer(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# Binary format
# ---------------------------------------------------------------------------


def save_binary_file(X: np.ndarray, y: np.ndarray, path, n_classes: Optional[int] = None) -> None:
    _check_rows(X, y)
    n, d = X.shape
    k = int(y.max()) + 1 if n_classes is None else int(n_classes)
    header = DATA_MAGIC + struct.pack("<IIII", DATA_VERSION, d, k, n)
    write_bytes(path, [header, np.ascontiguousarray(X, dtype="<f4"), np.ascontiguousarray(y, dtype="<i4")])


def _read_binary(path, head_only: bool = False):
    """A binary dataset file's header (d, K, n) and its checked rows: (n, d)
    float32 features and (n,) int32 labels, views of the file's bytes.
    With `head_only`, only the header is read, and the rows are None."""
    head = len(DATA_MAGIC) + 16 if head_only else -1
    reader = BinaryReader(path, DATA_MAGIC, DATA_VERSION, "a dataset file", head)
    d, k, n = reader.unpack("<III")
    if d < 1 or k < 1 or n < 1:
        raise reader.error(f"implausible header (d={d}, K={k}, n={n})")
    data = reader.rest(4 * n * d + 4 * n)
    if head_only:
        return (d, k, n), None, None
    feats = np.frombuffer(data, dtype="<f4", count=n * d).reshape(n, d)
    if not np.all(np.isfinite(feats)):
        raise reader.error("non-finite feature values")
    labels = np.frombuffer(data, dtype="<i4", offset=4 * n * d)
    if labels.min() < 0 or labels.max() >= k:
        raise reader.error(f"label outside [0, {k})")
    return (d, k, n), feats, labels


def read_binary_file(path):
    """(features, labels, n_classes) from one binary file."""
    (_, k, _), feats, labels = _read_binary(path)
    return feats.astype(np.float64), labels.astype(np.int64), k


# ---------------------------------------------------------------------------
# Directory-level load/save
# ---------------------------------------------------------------------------


def save_dataset(X: np.ndarray, y: np.ndarray, manifest: DatasetManifest, out_dir, fmt: str = "csv") -> None:
    """Write the first manifest.train_size rows as the train split, the rest
    as the heldout split, and manifest.json, each file atomically.  A
    manifest that does not describe the block, which `load_dataset` would
    reject, is a DataError before any file is written."""
    if fmt not in _EXT:
        raise ConfigError(f"dataset format must be csv or binary, got {fmt!r}")
    _check_rows(X, y)
    n_rows = manifest.train_size + manifest.heldout_size
    if n_rows != len(X):
        raise DataError(f"manifest train_size + heldout_size is {n_rows}, X has {len(X)} rows")
    if manifest.feature_dim != X.shape[1]:
        raise DataError(f"manifest feature_dim is {manifest.feature_dim}, X has {X.shape[1]} columns")
    if np.any((y < 0) | (y >= manifest.n_classes)):
        raise DataError(f"a label lies outside [0, {manifest.n_classes}), the manifest's classes")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = manifest.train_size
    for name, rows in (("train", slice(None, n)), ("heldout", slice(n, None))):
        path = out / f"{name}.{_EXT[fmt]}"
        if fmt == "csv":
            save_csv_file(X[rows], y[rows], path)
        else:
            save_binary_file(X[rows], y[rows], path, manifest.n_classes)
    write_json(out / "manifest.json", manifest.to_dict())


def load_dataset(path, fmt: str = "csv"):
    """Load a dataset directory as one block: train rows, then heldout rows.

    Features outside [0, 1] are min-max normalized per feature, with the map
    fitted jointly over both splits and recorded in the manifest.  When the
    directory holds a manifest.json (`gen-data` writes one), its train_size,
    heldout_size, feature_dim and n_classes must match the files.  With or
    without one, the class count may not exceed the rows of both splits.
    Returns (X, y, manifest), the first manifest.train_size rows the
    training split.
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
        # both files' rows go into one buffer, which the block then views
        feats, labels = array("d"), array("q")
        d = _read_csv_rows(train_path, feats, labels)
        n_train = len(labels)
        if _read_csv_rows(held_path, feats, labels) != d:
            raise DataError("train and heldout disagree on the feature dimension")
        X, y = np.frombuffer(feats).reshape(-1, d), np.frombuffer(labels, dtype=np.int64)
        k = int(y.max()) + 1
    else:
        # the block is allocated once both headers are read, and takes one
        # file's rows at a time, so one file's bytes are held beside it
        (d, k, n_train), feats, labels = _read_binary(train_path)
        held, _, _ = _read_binary(held_path, head_only=True)
        if held[1] != k:
            raise DataError("train and heldout disagree on the class count")
        if held[0] != d:
            raise DataError("train and heldout disagree on the feature dimension")
        X, y = np.empty((n_train + held[2], d)), np.empty(n_train + held[2], dtype=np.int64)
        X[:n_train], y[:n_train] = feats, labels
        del feats, labels
        header, feats, labels = _read_binary(held_path)
        if header != held:
            raise DataError(f"{held_path}: the header changed while the file was read")
        X[n_train:], y[n_train:] = feats, labels
    n_held, d = len(X) - n_train, X.shape[1]
    manifest_path = base / "manifest.json"
    # a CSV cut at a row boundary still parses, and an edited CSV label sizes
    # the target's output layer; the manifest catches both
    if manifest_path.is_file():
        recorded = read_json_object(manifest_path)
        for key, n in (("train_size", n_train), ("heldout_size", n_held), ("feature_dim", d), ("n_classes", k)):
            if recorded.get(key) != n:
                raise DataError(f"{manifest_path}: {key} is {recorded.get(key)!r}, the files hold {n}")
    # the class count sizes the target's output layer; more classes than
    # rows cannot all appear in the data, so the count is not trusted
    if k > n_train + n_held:
        raise DataError(f"{base}: {k} classes, more than the {n_train + n_held} rows of both splits")
    lo, hi = X.min(axis=0), X.max(axis=0)
    needs = (lo < 0.0) | (hi > 1.0)
    mins = np.where(needs, lo, 0.0)
    maxs = np.where(needs, hi, 1.0)
    if needs.any():
        X -= mins
        X /= np.where(needs & (hi > lo), hi - lo, 1.0)
    manifest = DatasetManifest(
        feature_dim=d,
        n_classes=k,
        train_size=n_train,
        heldout_size=n_held,
        normalized=bool(needs.any()),
        feature_mins=mins,
        feature_maxs=maxs,
    )
    return X, y, manifest
