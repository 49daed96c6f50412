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
        X, y, manifest = generate_synthetic_dataset(10, 4, 6, 1.0, seed=0)
        assert X.shape == (80, 6) and X.dtype == np.float64
        assert y.shape == (80,) and y.dtype == np.int64
        assert X.min() >= 0.0 and X.max() <= 1.0
        for part in (y[:40], y[40:]):
            assert np.bincount(part, minlength=4).tolist() == [10, 10, 10, 10]
        assert manifest.feature_dim == 6 and manifest.n_classes == 4
        assert manifest.train_size == 40 and manifest.heldout_size == 40
        assert manifest.normalized

    def test_matches_the_stacked_reference(self):
        # per-class blocks stacked at the end, the map applied out of place
        X_out, y_out, _ = generate_synthetic_dataset(7, 5, 4, 0.8, seed=9, heldout_per_class=3)
        rng = np.random.default_rng(9)
        means = rng.normal(size=(5, 4)) * 0.8
        X = np.vstack([means[c] + rng.normal(size=(10, 4)) for c in range(5)])
        y = np.concatenate([np.full(10, c, dtype=np.int64) for c in range(5)])
        lo, hi = X.min(axis=0), X.max(axis=0)
        X = (X - lo) / np.where(hi > lo, hi - lo, 1.0)
        rows = np.arange(50).reshape(5, 10)
        train_idx = rows[:, :7].ravel()[rng.permutation(35)]
        held_idx = rows[:, 7:].ravel()[rng.permutation(15)]
        idx = np.concatenate([train_idx, held_idx])  # members first
        assert X_out.tobytes() == X[idx].tobytes()
        assert y_out.tobytes() == y[idx].tobytes()

    def test_peak_memory_stays_near_the_returned_arrays(self):
        # the block that is returned, one class's draws and the row order;
        # split copies of the block would hold about twice the result
        generate_synthetic_dataset(2, 2, 2, 1.0, seed=0)  # lazy numpy imports
        tracemalloc.start()
        try:
            X, y, _ = generate_synthetic_dataset(100, 10, 50, 1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (X.nbytes + y.nbytes)

    def test_heldout_size_override(self):
        X, y, manifest = generate_synthetic_dataset(8, 3, 4, 1.0, seed=1, heldout_per_class=5)
        assert (manifest.train_size, manifest.heldout_size) == (24, 15)
        assert len(X) == len(y) == 39

    def test_seeded_reproducibility(self):
        a_X, a_y, _ = generate_synthetic_dataset(6, 3, 5, 0.8, seed=42)
        b_X, b_y, _ = generate_synthetic_dataset(6, 3, 5, 0.8, seed=42)
        assert np.array_equal(a_X, b_X)
        assert np.array_equal(a_y, b_y)
        c_X, _, _ = generate_synthetic_dataset(6, 3, 5, 0.8, seed=43)
        assert not np.array_equal(a_X, c_X)

    def test_splits_disjoint(self):
        X, _, manifest = generate_synthetic_dataset(12, 2, 3, 0.5, seed=7)
        train_rows = {tuple(row) for row in X[: manifest.train_size]}
        held_rows = {tuple(row) for row in X[manifest.train_size :]}
        assert not train_rows & held_rows

    def test_separation_matters(self):
        # larger separation spreads class means further apart after the
        # shared normalization; measure mean pairwise mean-distance
        def spread(sep):
            X, y, manifest = generate_synthetic_dataset(30, 4, 8, sep, seed=3)
            X, y = X[: manifest.train_size], y[: manifest.train_size]
            means = np.array([X[y == c].mean(axis=0) for c in range(4)])
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
        save_csv_file(X, y, path)
        RX, ry = read_csv_file(path)
        assert np.allclose(RX, X, atol=1e-7)  # float32 storage precision
        assert np.array_equal(ry, y)

    def test_read_peak_memory_stays_near_the_file(self, tmp_path):
        # the file's bytes, its text while it is checked as UTF-8, and the
        # returned arrays; Python floats, or the text held while the rows
        # are parsed, would each take more than the file again
        X, y, _ = generate_synthetic_dataset(10, 20, 200, 1.0, seed=0)
        path = tmp_path / "part.csv"
        save_csv_file(X, y, path)
        read_csv_file(path)  # lazy imports
        tracemalloc.start()
        try:
            read_csv_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size

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

    @pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x82", b"\xe2\x82\xac"[:2] + b"\r\n"])
    def test_undecodable_bytes_past_the_first_megabyte(self, tmp_path, bad):
        # the check decodes the file in pieces; the line and the message
        # are those of a decode of the whole file
        rows = b"".join(b"0.%06d,\xc3\xa9,1\r\n" % i if i % 3 else b"0.%06d,0.5,1\n" % i for i in range(120_000))
        data = b"f0,f1,label\n" + rows + b"0.3," + bad + b"x,1\n"
        path = tmp_path / "part.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        with pytest.raises(DataError) as err:
            read_csv_file(path)
        assert str(err.value) == f"{path}: line 120002: {whole.value}"

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
        cases = [
            ("f0,label\ninf,0\n", 2),
            ("f0,f1,label\n0.1,0.2,0\n0.3,nan,1\n", 3),
            # the first bad row wins, whatever is wrong with a later one
            ("f0,f1,label\n0.1,inf,0\n0.3,oops,1\n", 2),
        ]
        for body, line in cases:
            path.write_text(body)
            with pytest.raises(DataError, match=f"part.csv: line {line}: non-finite feature values"):
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
        save_binary_file(X, y, path, n_classes=3)
        RX, ry, k = read_binary_file(path)
        assert np.array_equal(RX, X)
        assert np.array_equal(ry, y)
        assert k == 3

    def test_magic_written(self, tmp_path, rng):
        path = tmp_path / "part.bin"
        save_binary_file(rng.uniform(0, 1, (2, 2)), np.array([0, 1]), path, 2)
        assert path.read_bytes()[: len(DATA_MAGIC)] == DATA_MAGIC

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "part.bin"
        path.write_bytes(b"BADMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError):
            read_binary_file(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "part.bin"
        save_binary_file(rng.uniform(0, 1, (5, 3)), np.zeros(5, dtype=np.int64), path, 1)
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

    def test_heldout_header_larger_than_file(self, tmp_path):
        # the heldout header sizes the block only once the file's size
        # agrees with it
        X, y, manifest = generate_synthetic_dataset(2, 2, 3, 1.0, seed=0)
        save_dataset(X, y, manifest, tmp_path, fmt="binary")
        (tmp_path / "manifest.json").unlink()
        path = tmp_path / "heldout.bin"
        path.write_bytes(DATA_MAGIC + struct.pack("<IIII", 1, 3, 2, 2**32 - 1) + bytes(64))
        with pytest.raises(DataError, match="heldout.bin: header declares"):
            load_dataset(tmp_path, fmt="binary")

    def test_label_outside_class_count(self, tmp_path, rng):
        path = tmp_path / "part.bin"
        save_binary_file(rng.uniform(0, 1, (3, 2)), np.array([0, 1, 2]), path, 3)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (9).to_bytes(4, "little")  # last int32 label
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            read_binary_file(path)


class TestDatasetDirectory:
    @pytest.mark.parametrize("fmt, bound", [("binary", 1.5), ("csv", 1.5)])
    def test_load_holds_one_block(self, tmp_path, fmt, bound):
        # the returned block plus one binary file's bytes, or one piece of
        # a CSV file, at a time; a split copy and its concatenation peak at
        # 2x, a CSV file's whole bytes beside the block at about 2.2x
        X, y, manifest = generate_synthetic_dataset(10, 100, 600, 1.0, seed=0, heldout_per_class=10)
        save_dataset(X, y, manifest, tmp_path / "ds", fmt=fmt)
        del X, y
        load_dataset(tmp_path / "ds", fmt=fmt)  # lazy imports
        tracemalloc.start()
        try:
            X, y, _ = load_dataset(tmp_path / "ds", fmt=fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (2000, 600)
        assert peak <= bound * (X.nbytes + y.nbytes)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_save_load_roundtrip(self, tmp_path, fmt):
        X, y, manifest = generate_synthetic_dataset(6, 3, 4, 1.0, seed=5)
        save_dataset(X, y, manifest, tmp_path / "ds", fmt=fmt)
        assert (tmp_path / "ds" / "manifest.json").is_file()
        lX, ly, lmanifest = load_dataset(tmp_path / "ds", fmt=fmt)
        assert np.allclose(lX, X, atol=1e-7)
        assert np.array_equal(ly, y)
        assert lmanifest.n_classes == 3
        assert lmanifest.train_size == 18 and lmanifest.heldout_size == 18

    def test_load_normalizes_offending_features_jointly(self, tmp_path):
        # feature 0 exceeds the box in heldout only; both splits must be
        # rescaled with the same map, leaving in-range features untouched
        Xt = np.array([[0.0, 0.2], [4.0, 0.8]])
        Xh = np.array([[8.0, 0.5]])
        save_csv_file(Xt, np.array([0, 1]), tmp_path / "train.csv")
        save_csv_file(Xh, np.array([0]), tmp_path / "heldout.csv")
        X, y, manifest = load_dataset(tmp_path, fmt="csv")
        assert manifest.normalized and manifest.train_size == 2
        assert y.tolist() == [0, 1, 0]
        # the out-of-place map of the rows as read, bitwise
        raw = np.vstack([read_csv_file(tmp_path / "train.csv")[0], read_csv_file(tmp_path / "heldout.csv")[0]])
        assert X.tobytes() == ((raw - manifest.feature_mins) / [8.0, 1.0]).tobytes()
        assert X[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert np.allclose(X[:, 1], [0.2, 0.8, 0.5], atol=1e-7)

    def test_in_range_data_left_alone(self, tmp_path):
        X, y, manifest = generate_synthetic_dataset(5, 2, 3, 1.0, seed=9)
        save_dataset(X, y, manifest, tmp_path, fmt="csv")
        lX, _, lmanifest = load_dataset(tmp_path, fmt="csv")
        assert not lmanifest.normalized
        assert np.allclose(lX, X, atol=1e-7)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_class_count_disagreeing_with_manifest(self, tmp_path, fmt):
        # a saved directory whose train file then gets an edited label
        X, y, manifest = generate_synthetic_dataset(2, 10, 3, 1.0, seed=4)
        save_dataset(X, y, manifest, tmp_path, fmt=fmt)
        y[0] = 11
        n = manifest.train_size
        if fmt == "csv":
            save_csv_file(X[:n], y[:n], tmp_path / "train.csv")
        else:  # with headers that agree with the edited label
            save_binary_file(X[:n], y[:n], tmp_path / "train.bin", n_classes=12)
            save_binary_file(X[n:], y[n:], tmp_path / "heldout.bin", n_classes=12)
        with pytest.raises(DataError, match="n_classes is 10, the files hold 12"):
            load_dataset(tmp_path, fmt=fmt)

    @pytest.mark.parametrize("with_manifest", [True, False], ids=["manifest", "no_manifest"])
    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_class_count_beyond_the_rows(self, tmp_path, fmt, with_manifest):
        # 6 + 6 rows; an edited CSV label or binary header, and a manifest
        # that agrees with it
        X, y, manifest = generate_synthetic_dataset(2, 3, 3, 1.0, seed=4)
        k = 5_000_001 if fmt == "csv" else 4_000_000_000
        if fmt == "csv":
            y[0] = k - 1
        save_dataset(X, y, dataclasses.replace(manifest, n_classes=k), tmp_path, fmt=fmt)
        if not with_manifest:
            (tmp_path / "manifest.json").unlink()
        with pytest.raises(DataError, match=f"{k} classes, more than the 12 rows of both splits"):
            load_dataset(tmp_path, fmt=fmt)

    def test_class_count_equal_to_the_rows_loads(self, tmp_path):
        X, y, manifest = generate_synthetic_dataset(2, 3, 3, 1.0, seed=4)
        save_dataset(X, y, dataclasses.replace(manifest, n_classes=12), tmp_path, fmt="binary")
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
        save_csv_file(rng.uniform(0, 1, (3, 2)), np.array([0, 1, 0]), tmp_path / "train.csv")
        save_csv_file(rng.uniform(0, 1, (2, 3)), np.array([0, 1]), tmp_path / "heldout.csv")
        with pytest.raises(DataError):
            load_dataset(tmp_path, fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path, fmt="parquet")


class TestDatasetContainer:
    # the (X, y) pair every saver takes: (n, d) features and (n,) labels
    def test_shape_validation(self, tmp_path, rng):
        X = rng.uniform(0, 1, (3, 2))
        savers = {
            "part.csv": save_csv_file,
            "part.bin": lambda X, y, path: save_binary_file(X, y, path, 2),
        }
        for bad_X, bad_y in ((X, np.array([0, 1])), (X, np.array([0, 1, 0, 1])), (X[0], np.array([0]))):
            for name, save in savers.items():
                with pytest.raises(DataError, match="dataset arrays must be"):
                    save(bad_X, bad_y, tmp_path / name)
        with pytest.raises(DataError, match="dataset arrays must be"):
            save_dataset(X, np.array([0, 1]), generate_synthetic_dataset(1, 2, 2, 1.0, seed=0)[2], tmp_path)
        # a manifest that does not describe the block, which load_dataset
        # would reject
        X, y, manifest = generate_synthetic_dataset(2, 3, 4, 1.0, 0, 2)
        negative = y.copy()
        negative[0] = -1
        for labels, changes, match in (
            (y, {"train_size": 4}, "train_size \\+ heldout_size is 10, X has 12 rows"),
            (y, {"feature_dim": 5}, "feature_dim is 5, X has 4 columns"),
            (y, {"n_classes": 2}, "outside \\[0, 2\\)"),
            (negative, {}, "outside \\[0, 3\\)"),
        ):
            for fmt in ("csv", "binary"):
                with pytest.raises(DataError, match=match):
                    save_dataset(X, labels, dataclasses.replace(manifest, **changes), tmp_path / "ds", fmt)
        assert list(tmp_path.iterdir()) == []
