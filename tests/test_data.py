"""Synthetic data generation and the CSV / binary dataset formats."""

import dataclasses
import itertools
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from miaudit.cli_runner import data
from miaudit.cli_runner.data import (
    DATA_MAGIC,
    Dataset,
    generate_synthetic_dataset,
    load_dataset,
    read_binary_file,
    read_csv_file,
    save_binary_file,
    save_csv_file,
    save_dataset,
)
from miaudit.errors import ConfigError, DataError


class TestSyntheticGeneration:
    def test_shapes_and_box(self):
        train, held, manifest = generate_synthetic_dataset(10, 4, 6, 1.0, seed=0)
        assert train.X.shape == (40, 6) and held.X.shape == (40, 6)
        for part in (train, held):
            assert part.X.min() >= 0.0 and part.X.max() <= 1.0
            assert np.bincount(part.y, minlength=4).tolist() == [10, 10, 10, 10]
        assert manifest.feature_dim == 6 and manifest.n_classes == 4
        assert manifest.train_size == 40 and manifest.heldout_size == 40
        assert manifest.normalized

    def test_matches_the_stacked_reference(self):
        # per-class blocks stacked at the end, the map applied out of place
        train, held, _ = generate_synthetic_dataset(7, 5, 4, 0.8, seed=9, heldout_per_class=3)
        rng = np.random.default_rng(9)
        means = rng.normal(size=(5, 4)) * 0.8
        X = np.vstack([means[c] + rng.normal(size=(10, 4)) for c in range(5)])
        y = np.concatenate([np.full(10, c, dtype=np.int64) for c in range(5)])
        lo, hi = X.min(axis=0), X.max(axis=0)
        X = (X - lo) / np.where(hi > lo, hi - lo, 1.0)
        rows = np.arange(50).reshape(5, 10)
        train_idx = rows[:, :7].ravel()[rng.permutation(35)]
        held_idx = rows[:, 7:].ravel()[rng.permutation(15)]
        for part, idx in ((train, train_idx), (held, held_idx)):
            assert part.X.tobytes() == X[idx].tobytes()
            assert part.y.tobytes() == y[idx].tobytes()

    def test_peak_memory_stays_near_the_returned_arrays(self):
        # the block the splits are taken from, the splits, and one class's
        # draws; stacking a list of blocks and mapping out of place held
        # about four times the result
        generate_synthetic_dataset(2, 2, 2, 1.0, seed=0)  # lazy numpy imports
        tracemalloc.start()
        try:
            train, held, _ = generate_synthetic_dataset(100, 10, 50, 1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (train.X, train.y, held.X, held.y))
        assert peak < 2.5 * returned

    def test_heldout_size_override(self):
        train, held, _ = generate_synthetic_dataset(8, 3, 4, 1.0, seed=1, heldout_per_class=5)
        assert len(train) == 24 and len(held) == 15

    def test_seeded_reproducibility(self):
        a_train, a_held, _ = generate_synthetic_dataset(6, 3, 5, 0.8, seed=42)
        b_train, b_held, _ = generate_synthetic_dataset(6, 3, 5, 0.8, seed=42)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_train.y, b_train.y)
        assert np.array_equal(a_held.X, b_held.X)
        c_train, _, _ = generate_synthetic_dataset(6, 3, 5, 0.8, seed=43)
        assert not np.array_equal(a_train.X, c_train.X)

    def test_splits_disjoint(self):
        train, held, _ = generate_synthetic_dataset(12, 2, 3, 0.5, seed=7)
        train_rows = {tuple(row) for row in train.X}
        held_rows = {tuple(row) for row in held.X}
        assert not train_rows & held_rows

    def test_separation_matters(self):
        # larger separation spreads class means further apart after the
        # shared normalization; measure mean pairwise mean-distance
        def spread(sep):
            train, _, _ = generate_synthetic_dataset(30, 4, 8, sep, seed=3)
            means = np.array([train.X[train.y == c].mean(axis=0) for c in range(4)])
            d = 0.0
            pairs = 0
            for i in range(4):
                for j in range(i + 1, 4):
                    d += float(np.linalg.norm(means[i] - means[j]))
                    pairs += 1
            return d / pairs

        assert spread(3.0) > spread(0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(0, 3, 4, 1.0, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(5, 3, 4, -0.5, seed=0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                generate_synthetic_dataset(5, 3, 4, bad, seed=0)
        with pytest.raises(ConfigError):
            generate_synthetic_dataset(5, 3, 4, 1.0, seed=0, heldout_per_class=0)


class TestCsvFormat:
    def test_roundtrip(self, tmp_path, rng):
        X = rng.uniform(0, 1, (7, 3))
        y = rng.integers(0, 4, 7)
        path = tmp_path / "part.csv"
        save_csv_file(Dataset(X, y), path)
        RX, ry = read_csv_file(path)
        assert np.allclose(RX, X, atol=1e-7)  # float32 storage precision
        assert np.array_equal(ry, y)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("x0,x1,label\n0.1,0.2,0\n")
        with pytest.raises(DataError):
            read_csv_file(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("f0,f1,label\n0.1,0.2,0\n0.3,oops,1\n")
        with pytest.raises(DataError) as err:
            read_csv_file(path)
        assert "3" in str(err.value)

    def test_oversized_field_is_a_data_error(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text(f"f0,f1,label\n0.1,0.2,0\n0.3,{'9' * 140_000},1\n")  # over csv.field_size_limit()
        with pytest.raises(DataError, match="part.csv: line 3: field larger than field limit"):
            read_csv_file(path)

    def test_undecodable_bytes_are_a_data_error(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_bytes(b"f0,f1,label\n0.1,0.2,0\n0.3,0.4\xff,1\n")
        with pytest.raises(DataError, match="part.csv: line 3: 'utf-8' codec can't decode byte 0xff"):
            read_csv_file(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("f0,label\n0.5,-1\n")
        with pytest.raises(DataError):
            read_csv_file(path)

    def test_label_beyond_int64_is_a_data_error(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("f0,label\n0.5,0\n0.5,99999999999999999999\n")
        with pytest.raises(DataError, match="part.csv: line 3: label 99999999999999999999 outside"):
            read_csv_file(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("f0,label\ninf,0\n")
        with pytest.raises(DataError):
            read_csv_file(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "part.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataError):
            read_csv_file(path)


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path, rng):
        X = rng.uniform(0, 1, (9, 4)).astype(np.float32).astype(np.float64)
        y = rng.integers(0, 3, 9)
        path = tmp_path / "part.bin"
        save_binary_file(Dataset(X, y), path, n_classes=3)
        RX, ry, k = read_binary_file(path)
        assert np.array_equal(RX, X)
        assert np.array_equal(ry, y)
        assert k == 3

    def test_magic_written(self, tmp_path, rng):
        path = tmp_path / "part.bin"
        save_binary_file(Dataset(rng.uniform(0, 1, (2, 2)), np.array([0, 1])), path, 2)
        assert path.read_bytes()[: len(DATA_MAGIC)] == DATA_MAGIC

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "part.bin"
        path.write_bytes(b"BADMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError):
            read_binary_file(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "part.bin"
        save_binary_file(Dataset(rng.uniform(0, 1, (5, 3)), np.zeros(5, dtype=np.int64)), path, 1)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                read_binary_file(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(DataError):
            read_binary_file(path)

    @pytest.mark.parametrize("size", [65535, 2**32 - 1])
    def test_header_larger_than_file(self, tmp_path, size):
        # an 88-byte file whose header declares size x size features
        path = tmp_path / "train.bin"
        path.write_bytes(DATA_MAGIC + struct.pack("<IIII", 1, size, 2, size) + bytes(64))
        with pytest.raises(DataError):
            read_binary_file(path)

    def test_label_outside_class_count(self, tmp_path, rng):
        path = tmp_path / "part.bin"
        save_binary_file(Dataset(rng.uniform(0, 1, (3, 2)), np.array([0, 1, 2])), path, 3)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (9).to_bytes(4, "little")  # last int32 label
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            read_binary_file(path)


class TestDatasetDirectory:
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_save_load_roundtrip(self, tmp_path, fmt):
        train, held, manifest = generate_synthetic_dataset(6, 3, 4, 1.0, seed=5)
        save_dataset(train, held, manifest, tmp_path / "ds", fmt=fmt)
        assert (tmp_path / "ds" / "manifest.json").is_file()
        ltrain, lheld, lmanifest = load_dataset(tmp_path / "ds", fmt=fmt)
        assert np.allclose(ltrain.X, train.X, atol=1e-7)
        assert np.array_equal(ltrain.y, train.y)
        assert np.allclose(lheld.X, held.X, atol=1e-7)
        assert lmanifest.n_classes == 3
        assert lmanifest.train_size == 18 and lmanifest.heldout_size == 18

    def test_load_normalizes_offending_features_jointly(self, tmp_path):
        # feature 0 exceeds the box in heldout only; both splits must be
        # rescaled with the same map, leaving in-range features untouched
        Xt = np.array([[0.0, 0.2], [4.0, 0.8]])
        Xh = np.array([[8.0, 0.5]])
        save_csv_file(Dataset(Xt, np.array([0, 1])), tmp_path / "train.csv")
        save_csv_file(Dataset(Xh, np.array([0])), tmp_path / "heldout.csv")
        train, held, manifest = load_dataset(tmp_path, fmt="csv")
        assert manifest.normalized
        assert np.allclose(train.X[:, 0], [0.0, 0.5])
        assert np.allclose(held.X[:, 0], [1.0])
        assert np.allclose(train.X[:, 1], [0.2, 0.8], atol=1e-7)

    def test_in_range_data_left_alone(self, tmp_path):
        train, held, manifest = generate_synthetic_dataset(5, 2, 3, 1.0, seed=9)
        save_dataset(train, held, manifest, tmp_path, fmt="csv")
        ltrain, _, lmanifest = load_dataset(tmp_path, fmt="csv")
        assert not lmanifest.normalized
        assert np.allclose(ltrain.X, train.X, atol=1e-7)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_class_count_disagreeing_with_manifest(self, tmp_path, fmt):
        train, held, manifest = generate_synthetic_dataset(2, 10, 3, 1.0, seed=4)
        train.y[0] = 11
        save_dataset(train, held, manifest, tmp_path, fmt=fmt)
        if fmt == "binary":  # a header that agrees with the edited label
            save_binary_file(train, tmp_path / "train.bin", n_classes=12)
            save_binary_file(held, tmp_path / "heldout.bin", n_classes=12)
        with pytest.raises(DataError, match="n_classes is 10, the files hold 12"):
            load_dataset(tmp_path, fmt=fmt)

    @pytest.mark.parametrize("with_manifest", [True, False], ids=["manifest", "no_manifest"])
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_class_count_beyond_the_rows(self, tmp_path, fmt, with_manifest):
        # 6 + 6 rows; an edited CSV label or binary header, and a manifest
        # that agrees with it
        train, held, manifest = generate_synthetic_dataset(2, 3, 3, 1.0, seed=4)
        k = 5_000_001 if fmt == "csv" else 4_000_000_000
        if fmt == "csv":
            train.y[0] = k - 1
        save_dataset(train, held, dataclasses.replace(manifest, n_classes=k), tmp_path, fmt=fmt)
        if not with_manifest:
            (tmp_path / "manifest.json").unlink()
        with pytest.raises(DataError, match=f"{k} classes, more than the 12 rows of both splits"):
            load_dataset(tmp_path, fmt=fmt)

    def test_class_count_equal_to_the_rows_loads(self, tmp_path):
        train, held, manifest = generate_synthetic_dataset(2, 3, 3, 1.0, seed=4)
        save_dataset(train, held, dataclasses.replace(manifest, n_classes=12), tmp_path, fmt="binary")
        assert load_dataset(tmp_path, fmt="binary")[2].n_classes == 12

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path, fmt="csv")

    @pytest.mark.parametrize("failing", ["train.csv", "heldout.csv"])
    def test_failed_save_keeps_whole_files(self, tmp_path, monkeypatch, failing):
        out = tmp_path / "ds"
        save_dataset(*generate_synthetic_dataset(4, 2, 3, 1.0, seed=1), out)
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        update = generate_synthetic_dataset(5, 2, 3, 1.0, seed=2)
        save_dataset(*update, tmp_path / "ref")
        new = {p.name: p.read_bytes() for p in (tmp_path / "ref").iterdir()}
        write = data.write_csv

        def disk_full():
            raise OSError("disk full")
            yield

        def fail_one(path, header, rows):
            # the real writer fails after two rows of the failing file
            if failing in Path(path).name:
                rows = itertools.chain(itertools.islice(rows, 2), disk_full())
            write(path, header, rows)

        monkeypatch.setattr(data, "write_csv", fail_one)
        with pytest.raises(OSError):
            save_dataset(*update, out)
        assert sorted(p.name for p in out.iterdir()) == sorted(old)
        for name, blob in old.items():
            assert (out / name).read_bytes() in (blob, new[name]), name

    def test_dimension_mismatch(self, tmp_path, rng):
        save_csv_file(Dataset(rng.uniform(0, 1, (3, 2)), np.array([0, 1, 0])), tmp_path / "train.csv")
        save_csv_file(Dataset(rng.uniform(0, 1, (2, 3)), np.array([0, 1])), tmp_path / "heldout.csv")
        with pytest.raises(DataError):
            load_dataset(tmp_path, fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path, fmt="parquet")


class TestDatasetContainer:
    def test_shape_validation(self, rng):
        with pytest.raises(DataError):
            Dataset(rng.uniform(0, 1, (3, 2)), np.array([0, 1]))
