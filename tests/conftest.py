"""Shared fixtures: small trained models and the desk-scale audit corpus."""

import math
import struct
import time

import numpy as np
import pytest

import miaudit as mi
from miaudit.cli_runner import generate_synthetic_dataset
from miaudit.nn_core import classification_accuracy

# Desk-scale experiment: 500-sample / 10-class target trained to
# interpolation, scored by all six threshold strategies on members vs a
# same-sized heldout pool.  Several acceptance checks share this corpus.
DESK_SEEDS = (0, 1, 2, 3, 4)
DESK_N_PER_CLASS = 50
DESK_CLASSES = 10
DESK_DIM = 24
DESK_SEPARATION = 0.30
DESK_LAYERS = (DESK_DIM, 128, 128, DESK_CLASSES)
DESK_EPOCHS = 600
DESK_LR = 0.002
DESK_ATTACK = dict(p=math.inf, epsilon=1.0, n_iter=30, n_restarts=1)


def train_desk_target(seed: int):
    """(model, (X, y) of the members, (X, y) of the nonmembers)."""
    X, y, manifest = generate_synthetic_dataset(
        DESK_N_PER_CLASS,
        DESK_CLASSES,
        DESK_DIM,
        DESK_SEPARATION,
        seed=seed,
        heldout_per_class=DESK_N_PER_CLASS,
    )
    n = manifest.train_size
    model = mi.build_mlp(list(DESK_LAYERS), seed=seed + 100)
    mi.train(
        model,
        X[:n],
        y[:n],
        mi.TrainConfig(epochs=DESK_EPOCHS, batch_size=32, learning_rate=DESK_LR, seed=seed + 200),
    )
    return model, (X[:n], y[:n]), (X[n:], y[n:])


@pytest.fixture(scope="session")
def desk_audit():
    """Per-seed score pools for the six threshold strategies.

    Returns (runs, elapsed_seconds); each run holds train/heldout accuracy
    and member/nonmember score arrays keyed by strategy.
    """
    t0 = time.time()
    runs = []
    for seed in DESK_SEEDS:
        model, train, held = train_desk_target(seed)
        attack = mi.AttackConfig(seed=seed, **DESK_ATTACK)
        member, nonmember = {}, {}
        for name in mi.THRESHOLD_STRATEGIES:  # one block call per pool
            member[name] = mi.compute_score(model, *train, name, attack)
            nonmember[name] = mi.compute_score(model, *held, name, attack)
        runs.append(
            {
                "seed": seed,
                "train_accuracy": classification_accuracy(model, *train),
                "heldout_accuracy": classification_accuracy(model, *held),
                "member": member,
                "nonmember": nonmember,
            }
        )
    return runs, time.time() - t0


@pytest.fixture()
def tiny_model():
    """Deterministic small untrained classifier."""
    return mi.build_mlp([4, 8, 3], seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def corrupt_net_params():
    """Network parameter blocks whose header declares layers that the bytes
    after it cannot hold: widths of 2**32 - 1, a 65536 x 65536 layer, and a
    zero width followed by 16 bytes."""

    def block(dims, payload):
        return struct.pack(f"<{len(dims) + 1}I", len(dims), *dims) + payload

    return [
        block([0xFFFFFFFF, 0xFFFFFFFF], b""),
        block([65536, 65536], bytes(64)),
        block([3, 0, 2], bytes(16)),
    ]


@pytest.fixture()
def assert_same_tree():
    """Asserts that two directories hold the same relative file paths, at
    every depth, with the same bytes."""

    def check(a, b):
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    return check
