"""Truncation and trailing-byte fuzz of the binary readers.

A valid file cut at every offset from 0 to its length - 1, and the same
file with one byte appended, must each fail with DataError: never with
another exception and never with a successful load.  The readers are
`load_checkpoint`, `load_attacker` and `load_dataset(..., "binary")`.

The CSV readers are left out on purpose: a cut inside the last number of a
CSV file leaves a shorter number, which is still valid CSV, so some cut
CSV files load without error by design.
"""

import numpy as np
import pytest

import miaudit as mi
from miaudit import attack_models as am
from miaudit.cli_runner.data import generate_synthetic_dataset, load_dataset, save_dataset
from miaudit.errors import DataError


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
