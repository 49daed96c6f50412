"""Network core: forward math, exact gradients, training, checkpoints."""

import math
import pickle
import struct

import numpy as np
import pytest

import miaudit as mi
from miaudit.attack_models import (
    ATTACKER_MAGIC,
    ATTACKER_VERSION,
    ENSEMBLE_LAYER_DIMS,
    BinaryNet,
    MinMaxScaler,
    TrainedAttacker,
    _train_binary_net,
    load_attacker,
    save_attacker,
)
from miaudit.cli_runner.cli import main
from miaudit.errors import ConfigError, DataError, InvalidInputError, ShapeError, TrainingError
from miaudit.nn_core import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    _backward,
    classification_accuracy,
    loss_and_grads,
    sample_evaluation,
)


def finite_difference_grad(f, x, h=1e-6):
    """Central differences, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    out = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        hi = f(x)
        flat[i] = old - h
        lo = f(x)
        flat[i] = old
        out[i] = (hi - lo) / (2 * h)
    return g


def rel_err(a, b, floor=1e-5):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def make_blobs(rng, n_per_class, n_classes, dim, sep=1.5):
    """Tiny gaussian-blob dataset squeezed into the unit box."""
    means = rng.normal(0.0, 1.0, (n_classes, dim)) * sep
    X = np.vstack([means[c] + rng.normal(0.0, 1.0, (n_per_class, dim)) for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), n_per_class)
    lo, hi = X.min(axis=0), X.max(axis=0)
    X = (X - lo) / np.maximum(hi - lo, 1e-12)
    order = rng.permutation(len(y))
    return X[order], y[order]


class TestSoftmax:
    def test_frozen_example(self):
        out = mi.softmax(np.array([1.0, 2.0, 3.0]))
        want = np.array([0.09003057317038046, 0.24472847105479767, 0.6652409557748219])
        assert np.allclose(out, want, atol=1e-12)

    def test_normalizes_and_positive(self, rng):
        for _ in range(50):
            z = rng.normal(0, 5, rng.integers(2, 9))
            p = mi.softmax(z)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_shift_invariance(self, rng):
        z = rng.normal(0, 3, 6)
        assert np.allclose(mi.softmax(z), mi.softmax(z + 123.0), atol=1e-12)

    def test_large_logits_stay_finite(self):
        p = mi.softmax(np.array([800.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == 1.0 and p[1] == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            mi.softmax(np.array([1.0, np.nan]))


class TestCrossEntropy:
    def test_frozen_example(self):
        probs = np.array([0.7, 0.2, 0.1])
        assert abs(mi.cross_entropy_loss(probs, 0) - 0.35667494393873245) < 1e-12

    def test_clamps_zero_probability(self):
        loss = mi.cross_entropy_loss(np.array([0.0, 1.0]), 0)
        assert math.isfinite(loss)
        assert abs(loss - (-math.log(1e-12))) < 1e-9

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            mi.cross_entropy_loss(np.array([0.5, 0.5]), 2)
        with pytest.raises(IndexError):
            mi.cross_entropy_loss(np.array([0.5, 0.5]), -1)


class TestNonFiniteParameters:
    def test_classifier_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            with pytest.raises(InvalidInputError):
                mi.MLPClassifier([1, 2], [np.array([[1.0, bad]])], [np.zeros(2)])
            with pytest.raises(InvalidInputError):
                mi.MLPClassifier([1, 2], [np.zeros((1, 2))], [np.array([bad, 0.0])])

    def test_loaders_reject_nan_weight(self, tmp_path):
        model = mi.build_mlp([3, 4, 2], seed=0)
        ckpt = tmp_path / "target.ckpt"
        mi.save_checkpoint(model, ckpt)
        blob = bytearray(ckpt.read_bytes())
        first_weight = len(CHECKPOINT_MAGIC) + 4 + 4 + 4 * 3
        blob[first_weight : first_weight + 8] = struct.pack("<d", math.nan)
        ckpt.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            mi.load_checkpoint(ckpt)

        attacker = mi.fit_logistic_attacker(np.eye(4), np.array([1.0, 0.0, 1.0, 0.0]), max_steps=2)
        apath = tmp_path / "attacker.ckpt"
        save_attacker(attacker, apath)
        blob = bytearray(apath.read_bytes())
        first_weight = len(ATTACKER_MAGIC) + 4 + 1 + 4 + 4 * 2
        blob[first_weight : first_weight + 8] = struct.pack("<d", math.nan)
        apath.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            load_attacker(apath)

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset.n_per_class = 4\ndataset.classes = 2\ndataset.dim = 3\n"
            f"strategies = loss\ntarget.load_checkpoint = {ckpt}\n"
        )
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


class TestBuildMlp:
    def test_seeded_and_bounded(self):
        a = mi.build_mlp([5, 7, 3], seed=11)
        b = mi.build_mlp([5, 7, 3], seed=11)
        c = mi.build_mlp([5, 7, 3], seed=12)
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa, wb)
        assert any(
            not np.array_equal(wa, wc)
            for wa, wc in zip(a.parameters(), c.parameters())
        )
        for W, fan_in in zip(a.weights, [5, 7]):
            assert np.max(np.abs(W)) <= 1.0 / math.sqrt(fan_in)
        for bvec in a.biases:
            assert np.all(bvec == 0.0)

    def test_layer_dim_validation(self):
        with pytest.raises(ConfigError):
            mi.build_mlp([5], seed=0)
        with pytest.raises(ConfigError):
            mi.build_mlp([5, 0, 3], seed=0)

    def test_deep_model_shapes(self):
        m = mi.build_mlp([4, 9, 6, 3], seed=0)
        assert m.input_dim == 4 and m.n_classes == 3
        assert [w.shape for w in m.weights] == [(4, 9), (9, 6), (6, 3)]
        assert m.parameter_count() == 4 * 9 + 9 + 9 * 6 + 6 + 6 * 3 + 3


class TestForward:
    def test_predict_is_distribution(self, tiny_model, rng):
        for _ in range(20):
            p = mi.forward_predict(tiny_model, rng.uniform(0, 1, 4))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= 0)

    def test_batch_matches_single(self, tiny_model, rng):
        X = rng.uniform(0, 1, (8, 4))
        batch = mi.forward_predict(tiny_model, X)
        for i in range(8):
            assert np.allclose(batch[i], mi.forward_predict(tiny_model, X[i]), atol=1e-14)

    def test_input_validation(self, tiny_model):
        with pytest.raises(ShapeError):
            mi.forward_predict(tiny_model, np.zeros(5))
        with pytest.raises(InvalidInputError):
            mi.forward_predict(tiny_model, np.array([0.1, np.nan, 0.2, 0.3]))


class TestRowIndependence:
    """Premise of the block search: each row of a stacked forward/backward
    pass is bitwise the flat one-row pass, for every block size.  A numpy or
    BLAS change that breaks it fails here instead of moving report bytes."""

    @pytest.mark.parametrize(
        "dims",
        [[24, 128, 128, 10], [6, 16, 3], [4, 8, 3], [4, 12, 3], [3, 16, 3], [2, 5, 5, 2], [2, 2]],
    )
    def test_block_rows_equal_one_row_pass(self, dims):
        model = mi.build_mlp(dims, seed=len(dims))
        rng = np.random.default_rng(dims[1])
        for n in (1, 2, 7, 160):
            X = rng.uniform(0, 1, (n, dims[0]))
            Y = rng.integers(dims[-1], size=n)
            losses, probs, grads = sample_evaluation(model, X, Y)
            predicted = mi.forward_predict(model, X)
            for i in range(n):
                loss, _, g, p = loss_and_grads(
                    model, X[i : i + 1], Y[i : i + 1], need_input=True
                )
                assert np.float64(loss).tobytes() == losses[i].tobytes()
                assert p[0].tobytes() == probs[i].tobytes() == predicted[i].tobytes()
                assert g[0].tobytes() == grads[i].tobytes()


class TestGradients:
    def test_parameter_gradients_match_finite_differences(self, rng):
        # the exhaustive 50-model sweep lives in the acceptance suite
        for dims in ([3, 5, 2], [4, 6, 6, 3]):
            model = mi.build_mlp(dims, seed=int(rng.integers(1000)))
            x = rng.uniform(0.05, 0.95, dims[0])
            y = int(rng.integers(dims[-1]))
            grads, _ = mi.backward_gradients(model, x, y)
            for li in range(len(model.weights)):
                for tensor, grad in (
                    (model.weights[li], grads[2 * li]),
                    (model.biases[li], grads[2 * li + 1]),
                ):
                    def loss_fn(vals, tensor=tensor):
                        saved = tensor.copy()
                        tensor[...] = vals
                        out = mi.cross_entropy_loss(mi.forward_predict(model, x), y)
                        tensor[...] = saved
                        return out

                    fd = finite_difference_grad(loss_fn, tensor.copy())
                    assert rel_err(grad, fd) < 1e-4

    def test_input_gradient_matches_finite_differences(self, tiny_model, rng):
        x = rng.uniform(0.05, 0.95, 4)
        y = 1
        _, g_in = mi.backward_gradients(tiny_model, x, y)

        def loss_fn(xv):
            return mi.cross_entropy_loss(mi.forward_predict(tiny_model, xv), y)

        fd = finite_difference_grad(loss_fn, x.copy())
        assert rel_err(g_in, fd) < 1e-4

    def test_sample_evaluation_consistent(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        loss, probs, g_in = sample_evaluation(tiny_model, x, 2)
        assert abs(loss - mi.cross_entropy_loss(mi.forward_predict(tiny_model, x), 2)) < 1e-12
        assert np.allclose(probs, mi.forward_predict(tiny_model, x), atol=1e-14)
        _, g_backward = mi.backward_gradients(tiny_model, x, 2)
        assert np.allclose(g_in, g_backward, atol=1e-14)

    def test_gradient_bundle_shapes(self, tiny_model):
        grads, g_in = mi.backward_gradients(tiny_model, np.full(4, 0.5), 0)
        assert [g.shape for g in grads] == [p.shape for p in tiny_model.parameters()]
        assert g_in.shape == (4,)
        flat = np.concatenate([g.ravel() for g in grads])
        assert flat.shape == (tiny_model.parameter_count(),)


class TestTraining:
    def test_zero_epochs_is_identity(self, rng):
        X, y = make_blobs(rng, 4, 3, 5)
        model = mi.build_mlp([5, 8, 3], seed=1)
        before = [t.copy() for t in model.parameters()]
        _, history = mi.train(model, X, y, mi.TrainConfig(0, 4, 0.01))
        assert history == []
        for old, t in zip(before, model.parameters()):
            assert np.array_equal(old, t)

    def test_bitwise_deterministic(self, rng):
        X, y = make_blobs(rng, 6, 3, 5)
        cfg = mi.TrainConfig(epochs=12, batch_size=4, learning_rate=0.01, seed=5)
        outs = []
        for _ in range(2):
            model = mi.build_mlp([5, 12, 3], seed=2)
            _, history = mi.train(model, X, y, cfg)
            outs.append((history, [t.copy() for t in model.parameters()]))
        assert outs[0][0] == outs[1][0]
        for a, b in zip(outs[0][1], outs[1][1]):
            assert np.array_equal(a, b)

    def test_interpolates_small_set(self, rng):
        X, y = make_blobs(rng, 8, 3, 6, sep=1.0)
        model = mi.build_mlp([6, 32, 3], seed=3)
        _, history = mi.train(
            model, X, y, mi.TrainConfig(epochs=300, batch_size=8, learning_rate=0.005, seed=0)
        )
        assert classification_accuracy(model, X, y) == 1.0
        assert history[-1] < history[0]
        assert all(math.isfinite(h) for h in history)

    def test_sgd_option(self, rng):
        X, y = make_blobs(rng, 6, 2, 4)
        model = mi.build_mlp([4, 8, 2], seed=4)
        _, history = mi.train(
            model,
            X,
            y,
            mi.TrainConfig(epochs=50, batch_size=4, learning_rate=0.5, optimizer="sgd", seed=1),
        )
        assert history[-1] < history[0]

    def test_risk_decreases(self, rng):
        X, y = make_blobs(rng, 6, 3, 5)
        model = mi.build_mlp([5, 16, 3], seed=9)
        before = mi.empirical_risk(model, X, y)
        mi.train(model, X, y, mi.TrainConfig(epochs=40, batch_size=6, learning_rate=0.01, seed=2))
        assert mi.empirical_risk(model, X, y) < before

    def test_empty_dataset_rejected(self):
        model = mi.build_mlp([3, 4, 2], seed=0)
        with pytest.raises(ConfigError):
            mi.train(model, np.zeros((0, 3)), np.zeros(0, dtype=int), mi.TrainConfig(1, 2, 0.01))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            mi.TrainConfig(epochs=-1, batch_size=2, learning_rate=0.1)
        with pytest.raises(ConfigError):
            mi.TrainConfig(epochs=1, batch_size=0, learning_rate=0.1)
        with pytest.raises(ConfigError):
            mi.TrainConfig(epochs=1, batch_size=2, learning_rate=0.0)
        with pytest.raises(ConfigError):
            mi.TrainConfig(epochs=1, batch_size=2, learning_rate=0.1, optimizer="rmsprop")


class TestEmpiricalRisk:
    def test_frozen_mean(self):
        # logistic slope 10 turns chosen inputs into exact per-sample losses
        # 0.1, 0.2, 0.3, so the mean risk is 0.2
        model = mi.MLPClassifier(
            [1, 2],
            [np.array([[10.0, 0.0]])],
            [np.zeros(2)],
        )
        xs = []
        for target in (0.1, 0.2, 0.3):
            p = math.exp(-target)
            xs.append(math.log(p / (1 - p)) / 10.0)
        X = np.array(xs)[:, None]
        assert abs(mi.empirical_risk(model, X, np.zeros(3, dtype=int)) - 0.2) < 1e-12

    def test_matches_per_sample_mean(self, tiny_model, rng):
        X = rng.uniform(0, 1, (9, 4))
        y = rng.integers(0, 3, 9)
        manual = np.mean(
            [mi.cross_entropy_loss(mi.forward_predict(tiny_model, X[i]), int(y[i])) for i in range(9)]
        )
        assert abs(mi.empirical_risk(tiny_model, X, y) - manual) < 1e-12


def reference_train(net, X, Y, seed, epochs, batch_size, lr, optimizer="adam"):
    """The per-array training loop: fresh gradient arrays per batch, one
    Adam moment pair per parameter array, each array updated on its own.
    Returns the number of steps."""
    rng = np.random.default_rng(seed)
    params = net.parameters()
    m = [np.zeros(p.shape) for p in params]
    v = [np.zeros(p.shape) for p in params]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    for _ in range(epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            idx = order[start : start + batch_size]
            pres, acts, out = net.forward(X[idx])
            deltas, _ = _backward(net, pres, net.head_delta(out, Y[idx]) / len(idx), False)
            grads = [g for a, d in zip(acts, deltas) for g in (a.T @ d, d.sum(axis=0))]
            t += 1
            if optimizer == "sgd":
                for p, g in zip(params, grads):
                    p -= lr * g
                continue
            c1 = 1.0 - b1**t
            c2 = 1.0 - b2**t
            for p, g, mp, vp in zip(params, grads, m, v):
                mp *= b1
                mp += (1.0 - b1) * g
                vp *= b2
                vp += (1.0 - b2) * (g * g)
                p -= lr * (mp / c1) / (np.sqrt(vp / c2) + eps)
    return t


def parameter_bytes(net) -> bytes:
    return b"".join(p.tobytes() for p in net.parameters())


class TestFlatTraining:
    """Training over one flat parameter, gradient and moment buffer is
    bitwise the per-array loop."""

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_target_training_matches_per_array_loop(self, optimizer):
        dims = [24, 128, 128, 10]
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (64, 24))
        y = rng.integers(0, 10, 64)
        model = mi.build_mlp(dims, seed=3)
        cfg = mi.TrainConfig(epochs=100, batch_size=32, learning_rate=1e-3, optimizer=optimizer, seed=4)
        mi.train(model, X, y, cfg)
        reference = mi.build_mlp(dims, seed=3)
        assert reference_train(reference, X, y, 4, 100, 32, 1e-3, optimizer) == 200
        assert parameter_bytes(model) == parameter_bytes(reference)
        assert model.flat.tobytes() == parameter_bytes(reference)

    @pytest.mark.parametrize("dims", [[1439, 64, 32, 1], list(ENSEMBLE_LAYER_DIMS)], ids=["wb", "ensemble"])
    def test_attacker_training_matches_per_array_loop(self, dims):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (64, dims[0]))
        y = (np.arange(64) % 2).astype(np.float64)
        net = BinaryNet.build(dims, seed=7)
        # a patience past the last epoch: every epoch runs
        history = _train_binary_net(net, X, y, 8, 100, 1e-3, 32, patience=101)
        assert len(history) == 100
        reference = BinaryNet.build(dims, seed=7)
        assert reference_train(reference, X, y, 8, 100, 32, 1e-3) == 200
        assert parameter_bytes(net) == parameter_bytes(reference)


class TestFlatParameters:
    def test_parameters_are_views_of_one_flat_buffer(self):
        model = mi.build_mlp([5, 7, 3], seed=1)
        params = model.parameters()
        assert model.flat.size == model.parameter_count() == sum(p.size for p in params)
        assert model.flat.tobytes() == parameter_bytes(model)
        for p in params:
            assert p.flags.c_contiguous and np.shares_memory(p, model.flat)

    def test_net_does_not_alias_callers_arrays(self):
        rng = np.random.default_rng(2)
        weights = [np.asfortranarray(rng.normal(size=(4, 6))), rng.normal(size=(3, 6)).T]
        biases = [rng.normal(size=6), rng.normal(size=(2, 3))[0]]
        kept = [a.copy() for a in weights + biases]
        model = mi.MLPClassifier([4, 6, 3], weights, biases)
        for a, k in zip(model.parameters(), [kept[0], kept[2], kept[1], kept[3]]):
            assert np.array_equal(a, k)
        assert not any(np.shares_memory(model.flat, a) for a in weights + biases)
        for a in weights + biases:
            a[...] = 0.0
        model.flat[:] = 7.0
        assert all(np.all(p == 7.0) for p in model.parameters())
        assert all(not np.any(a) for a in weights + biases)

    @pytest.mark.parametrize("build", [lambda: mi.build_mlp([5, 7, 3], seed=4),
                                       lambda: BinaryNet.build([5, 7, 1], seed=4)])
    def test_pickled_net_views_its_own_flat_buffer(self, build):
        net = build()
        net.flat += np.linspace(0.5, 1.5, net.flat.size)  # no zero weight or bias
        copy = pickle.loads(pickle.dumps(net))
        assert type(copy) is type(net) and copy.layer_dims == net.layer_dims
        assert copy.flat.tobytes() == net.flat.tobytes()
        assert not np.shares_memory(copy.flat, net.flat)
        copy.flat[:] = 0.0
        assert all(not np.any(p) for p in copy.parameters())
        assert all(np.all(p != 0.0) for p in net.parameters())

    def test_checkpoint_bytes_are_the_per_array_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        dims = [4, 6, 3]
        weights = [rng.normal(size=(4, 6)), rng.normal(size=(6, 3))]
        biases = [rng.normal(size=6), rng.normal(size=3)]
        layers = b"".join(w.astype("<f8").tobytes() + b.astype("<f8").tobytes() for w, b in zip(weights, biases))
        net_bytes = struct.pack("<I", 3) + struct.pack("<3I", *dims) + layers
        path = tmp_path / "model.ckpt"
        mi.save_checkpoint(mi.MLPClassifier(dims, weights, biases), path)
        assert path.read_bytes() == CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + net_bytes
        bin_dims = [4, 6, 1]
        bin_weights = [weights[0], weights[1][:, :1]]
        bin_biases = [biases[0], biases[1][:1]]
        layers = b"".join(
            w.astype("<f8").tobytes() + b.astype("<f8").tobytes() for w, b in zip(bin_weights, bin_biases)
        )
        mins, maxs = rng.normal(size=4), rng.normal(size=4) + 5.0
        attacker = TrainedAttacker(
            "mlp", BinaryNet(bin_dims, bin_weights, bin_biases), MinMaxScaler(mins, maxs)
        )
        save_attacker(attacker, path)
        assert path.read_bytes() == (
            ATTACKER_MAGIC
            + struct.pack("<I", ATTACKER_VERSION)
            + struct.pack("<B", 1)
            + struct.pack("<I", 3)
            + struct.pack("<3I", *bin_dims)
            + layers
            + struct.pack("<I", 4)
            + mins.astype("<f8").tobytes()
            + maxs.astype("<f8").tobytes()
        )


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        model = mi.build_mlp([6, 10, 4], seed=21)
        path = tmp_path / "model.ckpt"
        mi.save_checkpoint(model, path)
        loaded = mi.load_checkpoint(path)
        assert loaded.layer_dims == model.layer_dims
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)
        x = rng.uniform(0, 1, 6)
        assert np.array_equal(mi.forward_predict(model, x), mi.forward_predict(loaded, x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODL" + b"\x00" * 64)
        with pytest.raises(DataError):
            mi.load_checkpoint(path)

    def test_truncated(self, tmp_path, corrupt_net_params):
        model = mi.build_mlp([3, 4, 2], seed=0)
        path = tmp_path / "model.ckpt"
        mi.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(DataError):
            mi.load_checkpoint(path)
        for params in corrupt_net_params:
            path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 1) + params)
            with pytest.raises(DataError):
                mi.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = mi.build_mlp([3, 4, 2], seed=0)
        path = tmp_path / "model.ckpt"
        mi.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError):
            mi.load_checkpoint(path)

    def test_magic_prefix(self, tmp_path):
        model = mi.build_mlp([3, 4, 2], seed=0)
        path = tmp_path / "model.ckpt"
        mi.save_checkpoint(model, path)
        assert path.read_bytes()[: len(CHECKPOINT_MAGIC)] == CHECKPOINT_MAGIC


class TestTrainingDivergence:
    def test_non_finite_loss_raises(self, rng):
        X, y = make_blobs(rng, 4, 2, 3)
        model = mi.build_mlp([3, 6, 2], seed=0)
        with pytest.raises(TrainingError), np.errstate(over="ignore", invalid="ignore"):
            # one giant step overflows layer products to inf - inf = nan
            mi.train(
                model,
                X,
                y,
                mi.TrainConfig(epochs=3, batch_size=8, learning_rate=1e200, optimizer="sgd"),
            )
