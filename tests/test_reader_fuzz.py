"""Truncation and trailing-byte fuzz of the file readers.

A valid binary file cut at every offset from 0 to its length - 1, and the
same file with one byte appended, must each fail with DataError: never with
another exception and never with a successful load.  The readers are
`load_checkpoint`, `load_attacker` and `load_dataset(..., "binary")`.

A cut CSV file can still be valid: a cut inside the last number leaves a
shorter number.  So a score CSV cut at every offset, or with one byte
appended, must instead give exactly what the row-by-row reference reader
of test_scores gives: the same arrays, bitwise, or the same DataError.
"""

import numpy as np
import pytest

import miaudit as mi
from miaudit import attack_models as am
from miaudit.cli_runner.data import generate_synthetic_dataset, load_dataset, save_dataset
from miaudit.errors import DataError
from miaudit.scores import write_score_records
from test_scores import assert_reads_like_reference


def fuzz_file(path, load) -> None:
    """Check `load()` on every cut of the file at path and on the file with
    one trailing byte; the intact file must load."""
    blob = path.read_bytes()
    load()
    for bad in [blob[:cut] for cut in range(len(blob))] + [blob + b"\x00"]:
        path.write_bytes(bad)
        with pytest.raises(DataError):
            load()


def test_checkpoint(tmp_path):
    path = tmp_path / "target.ckpt"
    mi.save_checkpoint(mi.build_mlp([3, 4, 2], seed=0), path)
    fuzz_file(path, lambda: mi.load_checkpoint(path))


def test_attacker(tmp_path):
    # a logistic attacker is cut the same way in test_attack_models
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (12, 3))
    y = np.repeat([0.0, 1.0], 6)
    path = tmp_path / "attacker.ckpt"
    am.save_attacker(am.fit_mlp_attacker(X, y, seed=1, hidden=(4, 3), epochs=3), path)
    fuzz_file(path, lambda: am.load_attacker(path))


@pytest.mark.parametrize("split", ["train", "heldout"])
def test_binary_dataset(tmp_path, split):
    train, heldout, manifest = generate_synthetic_dataset(2, 2, 3, 1.0, 0, 2)
    save_dataset(train, heldout, manifest, tmp_path, "binary")
    fuzz_file(tmp_path / f"{split}.bin", lambda: load_dataset(tmp_path, "binary"))


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["as_written", "crlf"])
def test_score_csv(tmp_path, newline):
    path = tmp_path / "scores_loss.csv"
    write_score_records(path, "loss", [0, 1, 22], [-0.125, 3e-07, 12.5], [True, False, True])
    blob = path.read_bytes().replace(b"\n", newline)
    cases = [blob[:cut] for cut in range(len(blob))] + [blob + bytes([b]) for b in b'\x00\r\n 0,#"x\xff\x80']
    for case in cases:
        path.write_bytes(case)
        assert_reads_like_reference(path)
