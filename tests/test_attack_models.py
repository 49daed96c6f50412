"""Feature extractors, scaling, and the trained membership attackers."""

import csv
import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miaudit as mi
from miaudit import attack_models as am
from miaudit.attack_models import (
    ATTACKER_MAGIC,
    ENSEMBLE_LAYER_DIMS,
    GRAD_STAT_NAMES,
    LOGISTIC_RIDGE,
    BinaryNet,
    MinMaxScaler,
    _live_columns,
    _sigmoid,
    _train_binary_net,
    attacker_scores,
    load_attacker,
    save_attacker,
    write_feature_dump,
)
from miaudit.errors import ConfigError, DataError, InvalidInputError, ShapeError, TrainingError
from miaudit.nn_core import _mean, cross_entropy_loss, forward_predict, loss_and_grads, row_backward


def python_stats(values):
    """Independent pure-python reimplementation of the seven statistics."""
    n = len(values)
    mean = sum(values) / n
    m2 = sum((v - mean) ** 2 for v in values) / n
    if m2 < 1e-24:
        skew, kurt = 0.0, 0.0
    else:
        m3 = sum((v - mean) ** 3 for v in values) / n
        m4 = sum((v - mean) ** 4 for v in values) / n
        skew = m3 / m2**1.5
        kurt = m4 / m2**2 - 3.0
    return {
        "l1_norm": sum(abs(v) for v in values),
        "l2_norm": math.sqrt(sum(v * v for v in values)),
        "max_value": max(values),
        "mean": mean,
        "skewness": skew,
        "kurtosis": kurt,
        "abs_min": min(abs(v) for v in values),
    }


def separable_features(rng, n_per_side=60, dim=4, gap=3.0):
    X = np.vstack(
        [rng.normal(gap, 1.0, (n_per_side, dim)), rng.normal(-gap, 1.0, (n_per_side, dim))]
    )
    y = np.r_[np.ones(n_per_side), np.zeros(n_per_side)]
    return X, y


def stats_of(v):
    """`gradient_statistics` of one vector, by GRAD_STAT_NAMES name."""
    return dict(zip(GRAD_STAT_NAMES, mi.gradient_statistics(np.asarray(v)[None, :])[0]))


class TestGradientStatistics:
    def test_frozen_example(self):
        s = stats_of(np.array([1.0, -2.0, 3.0]))
        assert s["l1_norm"] == 6.0
        assert abs(s["l2_norm"] - math.sqrt(14)) < 1e-12
        assert s["max_value"] == 3.0
        assert abs(s["mean"] - 2.0 / 3.0) < 1e-12
        # centered values are (1/3, -8/3, 7/3): m2 = 114/27, m3 = -168/81
        assert abs(s["skewness"] - (-168.0 / 81.0) / (114.0 / 27.0) ** 1.5) < 1e-12
        assert abs(s["kurtosis"] + 1.5) < 1e-12
        assert s["abs_min"] == 1.0

    def test_constant_vector_zero_moments(self):
        s = stats_of(np.full(5, 0.3))
        assert s["skewness"] == 0.0 and s["kurtosis"] == 0.0
        assert s["mean"] == pytest.approx(0.3)

    def test_matches_python_oracle(self, rng):
        for _ in range(25):
            v = rng.normal(0, 2, int(rng.integers(2, 40)))
            want = python_stats(list(v))
            got = stats_of(v)
            for name in GRAD_STAT_NAMES:
                assert abs(got[name] - want[name]) < 1e-9, name

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            mi.gradient_statistics(np.empty((1, 0)))

    @settings(max_examples=100, deadline=None)
    @given(
        vals=st.lists(st.floats(-50, 50), min_size=2, max_size=20),
        scale=st.floats(0.1, 10.0),
    )
    def test_positive_scaling_behaviour(self, vals, scale):
        v = np.array(vals)
        base = stats_of(v)
        scaled = stats_of(v * scale)
        assert scaled["l1_norm"] == pytest.approx(base["l1_norm"] * scale, rel=1e-9, abs=1e-12)
        assert scaled["l2_norm"] == pytest.approx(base["l2_norm"] * scale, rel=1e-9, abs=1e-12)
        assert scaled["mean"] == pytest.approx(base["mean"] * scale, rel=1e-9, abs=1e-12)
        # shape moments ignore positive rescaling (unless the floor kicks in)
        centered = v - v.mean()
        if np.mean(centered**2) * min(1.0, scale**2) > 1e-20:
            assert scaled["skewness"] == pytest.approx(base["skewness"], rel=1e-6, abs=1e-9)
            assert scaled["kurtosis"] == pytest.approx(base["kurtosis"], rel=1e-6, abs=1e-9)

    def test_stat_name_order(self):
        assert GRAD_STAT_NAMES == (
            "l1_norm",
            "l2_norm",
            "max_value",
            "mean",
            "skewness",
            "kurtosis",
            "abs_min",
        )
        s = mi.gradient_statistics(np.array([[1.0, 2.0]]))
        assert s.tolist() == [[python_stats([1.0, 2.0])[n] for n in GRAD_STAT_NAMES]]

    def test_shape_moments_take_array_powers(self):
        rng = np.random.default_rng(4)
        G = rng.normal(size=(2000, 30)) * rng.uniform(0.1, 10.0, (2000, 1))
        centered = G - np.mean(G, axis=1)[:, None]
        m2 = np.mean(centered**2, axis=1)
        # on this block a Python float's power rounds some rows differently
        assert (m2**1.5).tolist() != [m**1.5 for m in m2.tolist()]
        s = mi.gradient_statistics(G)
        assert s[:, 4].tobytes() == (np.mean(centered**3, axis=1) / m2**1.5).tobytes()
        assert s[:, 5].tobytes() == (np.mean(centered**4, axis=1) / m2**2 - 3.0).tobytes()


class TestExtractors:
    def test_grad_w_stats_composition(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        fv = mi.extract_grad_w_stats(tiny_model, x[None, :], [1])
        grads, _ = mi.backward_gradients(tiny_model, x, 1)
        want = mi.gradient_statistics(np.concatenate([g.ravel() for g in grads])[None, :])
        assert np.max(np.abs(fv - want)) <= 1e-9  # factorised per layer; criterion 8's gap
        assert fv.shape == (1, 7)

    def test_grad_x_stats_composition(self, tiny_model, rng):
        # the block's row reductions give each row's one-row statistics bitwise
        X = rng.uniform(0, 1, (40, 4))
        y = rng.integers(0, 3, 40)
        block = mi.extract_grad_x_stats(tiny_model, X, y)
        assert block.shape == (40, 7)
        for x, label, row in zip(X, y, block):
            _, g_in = mi.backward_gradients(tiny_model, x, label)
            (want,) = mi.gradient_statistics(g_in[None, :])
            assert np.array_equal(row, want)
            assert np.array_equal(mi.extract_grad_x_stats(tiny_model, x[None, :], [label])[0], want)

    def test_intermediate_outputs_layout(self, tiny_model, rng):
        X = rng.uniform(0, 1, (1, 4))
        fv = mi.extract_intermediate_outputs(tiny_model, X)
        assert fv.shape == (1, 3 + 8)
        assert np.allclose(fv[0, :3], forward_predict(tiny_model, X)[0], atol=1e-14)

    def test_intermediate_outputs_needs_hidden_layer(self):
        linear = mi.build_mlp([4, 3], seed=0)
        with pytest.raises(ConfigError):
            mi.extract_intermediate_outputs(linear, np.full((1, 4), 0.5))

    def test_wb_feature_layout(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        y = 1
        (fv,) = mi.extract_wb_features(tiny_model, x[None, :], [y])
        grads, _ = mi.backward_gradients(tiny_model, x, y)
        gw = grads[-2].ravel()
        gb = grads[-1].ravel()
        probs = forward_predict(tiny_model, x[None, :])
        n_w, n_b, k = gw.size, gb.size, 3
        assert fv.shape == (n_w + n_b + 1 + k + 8 + k,)
        assert np.array_equal(fv[:n_w], gw)
        assert np.array_equal(fv[n_w : n_w + n_b], gb)
        assert fv[n_w + n_b] == pytest.approx(cross_entropy_loss(probs, [y])[0], abs=1e-12)
        assert np.allclose(fv[n_w + n_b + 1 : n_w + n_b + 1 + k], probs[0], atol=1e-14)
        onehot = fv[-k:]
        assert list(onehot) == [0.0, 1.0, 0.0]


def python_grad_w_oracle(model, x, y):
    """extract_grad_w_stats and grad_w_norm of one sample in plain Python
    over its flattened `backward_gradients`, with exactly rounded sums and
    no numpy reduction."""
    grads, _ = mi.backward_gradients(model, x, y)
    vals = [v for g in grads for v in g.ravel().tolist()]
    n = len(vals)
    mean = math.fsum(vals) / n
    m2 = math.fsum((v - mean) ** 2 for v in vals) / n
    if m2 < 1e-24:
        skew, kurt = 0.0, 0.0
    else:
        skew = math.fsum((v - mean) ** 3 for v in vals) / n / m2**1.5
        kurt = math.fsum((v - mean) ** 4 for v in vals) / n / m2**2 - 3.0
    squares = math.fsum(v * v for v in vals)
    stats = [
        math.fsum(abs(v) for v in vals),
        math.sqrt(squares),
        max(vals),
        mean,
        skew,
        kurt,
        min(abs(v) for v in vals),
    ]
    return stats, -squares


class TestFactorisedGradientOracle:
    """The per-layer factorised parameter-gradient statistics against a
    plain-Python oracle over the flattened gradient, within criterion 8's
    1e-9 gap."""

    # [4, 3] has no hidden layer to kill, and no zero activation hides its
    # bias block from the smallest |g|; "signed" inputs reach the corner
    # products of a negative activation factor
    @pytest.mark.parametrize(
        "dims, case",
        [
            (dims, case)
            for dims in ([4, 3], [3, 6, 3], [6, 40, 40, 20, 10], [24, 128, 128, 10])
            for case in ("plain", "dead_relu", "all_zero", "scaled_x100", "signed")
            if len(dims) > 2 or case != "dead_relu"
        ],
    )
    def test_matches_python_oracle(self, dims, case):
        model = mi.build_mlp(dims, seed=len(dims))
        X = np.random.default_rng(dims[0]).uniform(0, 1, (6, dims[0]))
        Y = np.arange(6) % dims[-1]
        if case == "dead_relu":
            model.biases[0][0] = -100.0
        if case == "all_zero":
            # the softmax is exactly one-hot on class 0, so every delta is 0
            model.biases[-1][0] = 1e4
            Y[:] = 0
        if case == "scaled_x100":
            X *= 100.0
        if case == "signed":
            X -= 0.5
        _, _, _, deltas, _ = row_backward(model, X, Y)
        if case == "dead_relu":
            assert any(np.any(np.signbit(d) & (d == 0.0)) for d in deltas)
        if case == "all_zero":
            assert not any(np.any(d) for d in deltas)
        stats = mi.extract_grad_w_stats(model, X, Y)
        norms = mi.grad_w_norm_score(model, X, Y)
        for i in range(len(X)):
            want_stats, want_norm = python_grad_w_oracle(model, X[i], int(Y[i]))
            assert np.max(np.abs(stats[i] - want_stats)) <= 1e-9
            assert abs(norms[i] - want_norm) <= 1e-9
            if case == "all_zero":
                assert stats[i].tolist() == [0.0] * 7 and norms[i] == 0.0


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self, rng):
        X = rng.normal(0, 5, (30, 4))
        scaler = mi.MinMaxScaler.fit(X)
        Z = scaler.transform(X)
        assert np.all(Z >= 0.0) and np.all(Z <= 1.0)
        assert np.allclose(Z.min(axis=0), 0.0, atol=1e-12)
        assert np.allclose(Z.max(axis=0), 1.0, atol=1e-12)

    def test_clips_out_of_range(self, rng):
        X = rng.uniform(0, 1, (10, 2))
        scaler = mi.MinMaxScaler.fit(X)
        Z = scaler.transform(np.array([[5.0, -5.0]]))
        assert Z[0, 0] == 1.0 and Z[0, 1] == 0.0

    def test_degenerate_column_maps_to_zero(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 2.0]])
        Z = mi.MinMaxScaler.fit(X).transform(X)
        assert np.all(Z[:, 0] == 0.0)
        assert Z[:, 1].max() == 1.0

    def test_refit_on_transformed_is_identity(self, rng):
        X = rng.normal(0, 3, (20, 3))
        Z = mi.MinMaxScaler.fit(X).transform(X)
        Z2 = mi.MinMaxScaler.fit(Z).transform(Z)
        assert np.allclose(Z, Z2, atol=1e-12)

    def test_width_mismatch(self, rng):
        scaler = mi.MinMaxScaler.fit(rng.uniform(0, 1, (5, 3)))
        with pytest.raises(ShapeError):
            scaler.transform(np.zeros((2, 4)))

    def test_out_buffer_gets_the_bytes_of_a_new_array(self, rng):
        # a constant column, a span that overflows and rows out of the fit range
        X = np.column_stack([rng.normal(0, 3, 12), np.full(12, 2.0), np.r_[-1e308, 1e308, rng.normal(0, 1, 10)]])
        scaler = MinMaxScaler.fit(X[:8])
        want = scaler.transform(X)
        buf = np.full_like(X, np.nan)
        assert scaler.transform(X, out=buf) is buf
        own = X.copy()
        scaler.transform(own, out=own)
        assert buf.tobytes() == want.tobytes() == own.tobytes()

    def test_live_marks_the_columns_with_a_span(self):
        X = np.array([[2.0, 1.0, 0.0, 5e-324], [2.0, 3.0, 0.0, 0.0]])
        assert MinMaxScaler.fit(X).live.tolist() == [False, True, False, True]

    def test_span_overflowing_to_inf_still_scales(self):
        # max - min overflows, but the column and everything else is finite
        X = np.array([[-1e308, 0.0], [0.0, 1.0], [1e308, 2.0], [-1e308, 3.0]])
        scaler = MinMaxScaler.fit(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Z = scaler.transform(X)
        assert scaler.live.tolist() == [True, True]
        assert Z[:, 0].tolist() == [0.0, 0.5, 1.0, 0.0]
        assert Z[:, 1].tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
        attacker = mi.fit_logistic_attacker(X, np.array([0, 1, 1, 0]))
        assert np.all(np.isfinite(attacker_scores(attacker, X)))


def two_branch_sigmoid(z):
    """The sigmoid as two masked branches, each exp taken only where it
    cannot overflow."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestHeadArithmetic:
    def test_sigmoid_is_bitwise_the_two_branch_form(self, rng):
        edges = [0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 36.7, 37.0, 709.0, 744.9, 745.0, 746.0]
        edges += [1e300, 1.7976931348623157e308, np.inf]
        z = np.r_[edges, np.negative(edges), rng.normal(0.0, 30.0, 500), np.nan]
        with warnings.catch_warnings():  # overflow or invalid would warn
            warnings.simplefilter("error")
            got = _sigmoid(z)
        want = two_branch_sigmoid(z)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 32, 127, 128, 129, 1000, 4099])
    def test_mean_is_bitwise_np_mean(self, rng, n):
        for losses in (rng.exponential(1.0, n), rng.normal(0.0, 1e6, n) ** 3):
            got, want = _mean(losses), float(np.mean(losses))
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", want)


def python_bce(net, X, y):
    """Independent forward pass and mean binary cross entropy."""
    a = X
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ w + b
        if i < len(net.weights) - 1:
            a = np.maximum(a, 0.0)
    p = 1.0 / (1.0 + np.exp(-a[:, 0]))
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


class TestBinaryNetGradients:
    @pytest.mark.parametrize("dims", [[4, 1], [4, 6, 1], [3, 7, 5, 1]])
    def test_parameter_grads_match_finite_differences(self, rng, dims):
        net = BinaryNet.build(dims, seed=int(rng.integers(1000)))
        X = rng.uniform(0.0, 1.0, (9, dims[0]))
        y = (np.arange(9) % 2).astype(np.float64)
        loss, grads, _, _ = loss_and_grads(net, X, y)
        assert abs(loss - python_bce(net, X, y)) <= 1e-12
        step = 1e-6
        for tensor, grad in zip(net.parameters(), grads):
            assert grad.shape == tensor.shape
            flat_vals = tensor.ravel()
            flat_grad = grad.ravel()
            for i in range(flat_vals.size):
                old = flat_vals[i]
                flat_vals[i] = old + step
                hi = python_bce(net, X, y)
                flat_vals[i] = old - step
                lo = python_bce(net, X, y)
                flat_vals[i] = old
                fd = (hi - lo) / (2 * step)
                err = abs(flat_grad[i] - fd) / max(abs(flat_grad[i]), abs(fd), 1e-5)
                assert err <= 1e-4, f"param grad off by {err}"


class TestLogisticAttacker:
    def test_loss_monotone_on_separable_set(self, rng):
        X, y = separable_features(rng)
        attacker = mi.fit_logistic_attacker(X, y)
        h = np.array(attacker.history)
        assert len(h) >= 2
        assert h[0] == pytest.approx(math.log(2), abs=1e-12)
        assert np.all(np.diff(h) <= 1e-12)

    def test_separates_training_data(self, rng):
        X, y = separable_features(rng)
        attacker = mi.fit_logistic_attacker(X, y)
        s = attacker_scores(attacker, X)
        assert np.mean((s >= 0.5) == (y == 1.0)) >= 0.99

    def test_deterministic(self, rng):
        X, y = separable_features(rng, n_per_side=20)
        a = mi.fit_logistic_attacker(X, y)
        b = mi.fit_logistic_attacker(X, y)
        for ta, tb in zip(a.net.parameters(), b.net.parameters()):
            assert np.array_equal(ta, tb)

    def test_weights_stay_finite_on_separable_set(self, rng):
        # the ridge bounds the weights where plain maximum likelihood has none
        X, y = separable_features(rng)
        attacker = mi.fit_logistic_attacker(X, y)
        assert all(np.all(np.isfinite(p)) for p in attacker.net.parameters())
        assert len(attacker.history) <= 26

    def test_collinear_overlapping_features_converge_fast(self, rng):
        # two nearly proportional columns make gradient descent crawl; the
        # Newton fit must stop on its own rule, far below max_steps
        X = rng.normal(0.0, 1.0, (64, 7))
        X[:, 1] = 2.0 * X[:, 0] + rng.normal(0.0, 1e-4, 64)
        y = (X[:, 0] + X[:, 2] + rng.normal(0.0, 1.5, 64) > 0).astype(float)
        attacker = mi.fit_logistic_attacker(X, y)
        assert len(attacker.history) - 1 <= 25
        assert np.all(np.diff(attacker.history) <= 1e-12)

    def test_singular_newton_system_is_a_training_error(self, rng, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        X, y = separable_features(rng, n_per_side=10)
        with pytest.raises(TrainingError, match="singular"):
            mi.fit_logistic_attacker(X, y)


def python_scaled(X):
    """Min-max scaling of each column to [0, 1], as plain nested lists."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    return [[(v - a) / (b - a) for v, a, b in zip(row, lo, hi)] for row in X.tolist()]


def python_penalised_grad(rows, y, w, b):
    """Gradient of mean BCE + LOGISTIC_RIDGE / 2 * ||w||^2 at (w, b), one
    math.exp per row."""
    n = len(rows)
    g_w = [LOGISTIC_RIDGE * wj for wj in w]
    g_b = 0.0
    for row, label in zip(rows, y):
        z = sum(wj * xj for wj, xj in zip(w, row)) + b
        p = 1.0 / (1.0 + math.exp(-z))
        for j, xj in enumerate(row):
            g_w[j] += (p - label) * xj / n
        g_b += (p - label) / n
    return g_w, g_b


def overlapping_features(rng, n, dim):
    X = rng.normal(0.0, 1.0, (n, dim))
    logits = X @ rng.normal(0.0, 1.0, dim)
    y = (rng.uniform(0.0, 1.0, n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return X, y


class TestLogisticAttackerOracle:
    def test_penalised_gradient_vanishes(self, rng):
        X, y = overlapping_features(rng, 80, 7)
        attacker = mi.fit_logistic_attacker(X, y)
        w = attacker.net.weights[0][:, 0].tolist()
        b = float(attacker.net.biases[0][0])
        g_w, g_b = python_penalised_grad(python_scaled(X), y.tolist(), w, b)
        assert max(abs(g) for g in g_w + [g_b]) <= 1e-8

    def test_matches_long_gradient_descent(self, rng):
        X, y = overlapping_features(rng, 30, 2)
        rows, labels = python_scaled(X), y.tolist()
        # 1/L step: the mean BCE's curvature is at most max ||(x, 1)||^2 / 4
        lr = 1.0 / (max(sum(v * v for v in row) + 1.0 for row in rows) / 4.0 + LOGISTIC_RIDGE)
        w, b = [0.0, 0.0], 0.0
        for _ in range(20000):
            g_w, g_b = python_penalised_grad(rows, labels, w, b)
            if max(abs(g) for g in g_w + [g_b]) < 1e-12:
                break
            w = [wj - lr * gj for wj, gj in zip(w, g_w)]
            b -= lr * g_b
        attacker = mi.fit_logistic_attacker(X, y)
        assert np.allclose(attacker.net.weights[0][:, 0], w, rtol=0.0, atol=1e-6)
        assert attacker.net.biases[0][0] == pytest.approx(b, abs=1e-6)


class TestMlpAttacker:
    def test_trains_and_scores_in_unit_interval(self, rng):
        X, y = separable_features(rng, n_per_side=40)
        attacker = mi.fit_mlp_attacker(X, y, seed=1)
        s = attacker_scores(attacker, X)
        assert np.all((0.0 <= s) & (s <= 1.0))
        assert np.mean((s >= 0.5) == (y == 1.0)) >= 0.95
        assert attacker.net.layer_dims == [X.shape[1], 64, 32, 1]

    def test_seeded_reproducibility(self, rng):
        X, y = separable_features(rng, n_per_side=15)
        a = mi.fit_mlp_attacker(X, y, seed=7, epochs=30)
        b = mi.fit_mlp_attacker(X, y, seed=7, epochs=30)
        for ta, tb in zip(a.net.parameters(), b.net.parameters()):
            assert np.array_equal(ta, tb)


def full_width_fit(X, y, seed, hidden, epochs):
    """The MLP attacker fit on every scaled column, constant ones included:
    (the trained net, its init, the loss history)."""
    dims = [X.shape[1], *hidden, 1]
    net = BinaryNet.build(dims, seed)
    history = _train_binary_net(net, MinMaxScaler.fit(X).transform(X), y, seed + 1, epochs, 1e-3, 32)
    return net, BinaryNet.build(dims, seed), history


def columns_with_constants(rng, n=48):
    """Live columns around zero columns and constant non-zero ones."""
    X, y = separable_features(rng, n_per_side=n // 2, dim=6, gap=0.7)
    consts = [0.0, 2.5, 0.0, -1e3, 0.0, 7.0, 0.0]
    cols = [X[:, :3]] + [np.full((n, 1), c) for c in consts] + [X[:, 3:], np.zeros((n, 2))]
    return np.hstack(cols), y


def spy_core_dims(monkeypatch):
    """The layer sizes of every net `_fit_mlp` trains, recorded as it goes."""
    seen = []

    def spy(net, *args):
        seen.append(list(net.layer_dims))
        return _train_binary_net(net, *args)

    monkeypatch.setattr(am, "_train_binary_net", spy)
    return seen


def fixed_init(monkeypatch, w0):
    """Make every `BinaryNet.build` of [3, 3, 2, 1] start from first-layer
    weights `w0`, constant later layers and zero biases."""
    init = BinaryNet(
        [3, 3, 2, 1],
        [w0, np.full((3, 2), 0.5), np.full((2, 1), 0.5)],
        [np.zeros(3), np.zeros(2), np.zeros(1)],
    )

    def build(cls, dims, seed):
        assert list(dims) == init.layer_dims
        return cls(dims, init.weights, init.biases)

    monkeypatch.setattr(BinaryNet, "build", classmethod(build))


# scaled rows (1, 1, 0), (0, 1, 1), (0, 0, 1), twice each: every column
# spans [0, 1], so min-max scaling leaves them exact
CORNER_ROWS = np.tile([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]], (2, 1))
CORNER_LABELS = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])


class TestLiveColumnFit:
    """Only the columns with a span on the training rows and the first-layer
    units some training row can make active are trained; the parameters
    left out would get zero gradients anyway."""

    HIDDEN = (16, 8)

    def test_matches_full_width_fit(self, rng):
        X, y = columns_with_constants(rng)
        live = np.ptp(X, axis=0) > 0
        assert 0 < live.sum() < X.shape[1]
        attacker = mi.fit_mlp_attacker(X, y, seed=5, hidden=self.HIDDEN, epochs=60)
        want, init, history = full_width_fit(X, y, 5, self.HIDDEN, 60)
        got_w0 = attacker.net.weights[0]
        assert np.array_equal(got_w0[~live], init.weights[0][~live])
        assert np.array_equal(want.weights[0][~live], init.weights[0][~live])
        assert np.max(np.abs(got_w0[live] - want.weights[0][live])) <= 1e-12
        assert not np.array_equal(got_w0[live], init.weights[0][live])
        for got, ref in zip(attacker.net.parameters()[1:], want.parameters()[1:]):
            assert np.max(np.abs(got - ref)) <= 1e-12
        assert len(attacker.history) == len(history)
        assert np.max(np.abs(np.subtract(attacker.history, history))) <= 1e-12

    def test_ensemble_trains_live_columns_only(self, rng):
        X = np.hstack([rng.uniform(0, 1, (40, 4)), np.full((40, 2), 0.5)])
        y = (X[:, 0] > 0.5).astype(float)
        attacker = mi.build_and_train_ensemble(X, y, seed=3, epochs=20)
        init = BinaryNet.build(ENSEMBLE_LAYER_DIMS, 3)
        assert np.array_equal(attacker.net.weights[0][4:], init.weights[0][4:])
        assert not np.array_equal(attacker.net.weights[0][:4], init.weights[0][:4])

    def test_no_constant_column_is_bitwise_the_full_width_fit(self, rng):
        X, y = separable_features(rng, n_per_side=20, dim=9, gap=0.7)
        attacker = mi.fit_mlp_attacker(X, y, seed=2, hidden=self.HIDDEN, epochs=40)
        want, _, history = full_width_fit(X, y, 2, self.HIDDEN, 40)
        assert np.array_equal(attacker.net.flat, want.flat)
        assert attacker.history == history

    def test_every_column_constant_still_trains(self):
        X = np.hstack([np.zeros((12, 3)), np.full((12, 2), -4.0)])
        y = np.r_[np.ones(9), np.zeros(3)]
        attacker = mi.fit_mlp_attacker(X, y, seed=4, hidden=self.HIDDEN, epochs=30)
        want, init, history = full_width_fit(X, y, 4, self.HIDDEN, 30)
        assert np.array_equal(attacker.net.flat, want.flat)
        assert attacker.history == history
        assert np.array_equal(attacker.net.weights[0], init.weights[0])
        assert history[-1] < history[0]

    def test_dead_units_stay_at_init(self, rng, monkeypatch):
        # two live columns in [0, 1]: a unit with negative weights on both
        # is inactive on every row
        X, y = separable_features(rng, n_per_side=20, dim=2, gap=0.7)
        X = np.hstack([X, np.full((40, 1), 3.0)])
        cores = spy_core_dims(monkeypatch)
        attacker = mi.fit_mlp_attacker(X, y, seed=5, hidden=self.HIDDEN, epochs=60)
        want, init, history = full_width_fit(X, y, 5, self.HIDDEN, 60)
        z_max = (MinMaxScaler.fit(X).transform(X) @ init.weights[0]).max(axis=0)
        assert np.all(np.abs(z_max) > 1e-9)  # no unit near the rounding bound
        dead = z_max < 0.0
        assert 0 < dead.sum() < self.HIDDEN[0]
        assert cores == [[2, self.HIDDEN[0] - int(dead.sum()), *self.HIDDEN[1:], 1]]
        for net in (attacker.net, want):
            assert np.array_equal(net.weights[0][:, dead], init.weights[0][:, dead])
            assert np.array_equal(net.biases[0][dead], init.biases[0][dead])
            assert np.array_equal(net.weights[1][dead], init.weights[1][dead])
        assert not np.array_equal(attacker.net.weights[0][:2, ~dead], init.weights[0][:2, ~dead])
        for got, ref in zip(attacker.net.parameters(), want.parameters()):
            assert np.max(np.abs(got - ref)) <= 1e-12
        assert len(attacker.history) == len(history)
        assert np.max(np.abs(np.subtract(attacker.history, history))) <= 1e-12

    def test_unit_inside_the_rounding_bound_is_trained(self, monkeypatch):
        # unit 0's largest pre-activation is 0.1 - nextafter(0.1, 1), about
        # -1.4e-17, well inside the rounding bound; unit 1 is inactive on
        # every row by far, and unit 2 active
        w0 = np.array([[0.1, -0.5, 0.4], [-np.nextafter(0.1, 1.0), -0.25, 0.3], [-0.2, -0.5, 0.1]])
        z_max = (CORNER_ROWS @ w0).max(axis=0)
        assert -1e-16 < z_max[0] < 0.0 and z_max[1] < -0.1 and z_max[2] > 0.0
        fixed_init(monkeypatch, w0)
        cores = spy_core_dims(monkeypatch)
        attacker = mi.fit_mlp_attacker(CORNER_ROWS, CORNER_LABELS, hidden=(3, 2), epochs=30)
        want, init, history = full_width_fit(CORNER_ROWS, CORNER_LABELS, 0, (3, 2), 30)
        assert cores == [[3, 2, 2, 1]]
        assert np.array_equal(attacker.net.weights[0][:, 1], init.weights[0][:, 1])
        for got, ref in zip(attacker.net.parameters(), want.parameters()):
            assert np.max(np.abs(got - ref)) <= 1e-12
        assert np.max(np.abs(np.subtract(attacker.history, history))) <= 1e-12

    def test_every_unit_dead_trains_the_full_net(self, monkeypatch):
        w0 = -np.array([[0.1, 0.5, 0.4], [0.2, 0.25, 0.3], [0.3, 0.5, 0.1]])
        assert np.all(CORNER_ROWS @ w0 < 0.0)
        fixed_init(monkeypatch, w0)
        cores = spy_core_dims(monkeypatch)
        attacker = mi.fit_mlp_attacker(CORNER_ROWS, CORNER_LABELS, hidden=(3, 2), epochs=30)
        want, _, history = full_width_fit(CORNER_ROWS, CORNER_LABELS, 0, (3, 2), 30)
        assert cores == [[3, 3, 2, 1]]
        assert np.array_equal(attacker.net.flat, want.flat)
        assert attacker.history == history


def layout_fits(rng):
    """(fitter, features, labels) of both MLP attackers, on blocks with
    constant columns, so that the live columns are compacted."""
    X, y = columns_with_constants(rng)
    E = np.hstack([rng.uniform(0, 1, (40, 4)), np.full((40, 2), 0.5)])
    return [
        (lambda X, y, **kw: mi.fit_mlp_attacker(X, y, seed=5, hidden=(16, 8), epochs=20, **kw), X, y),
        (lambda X, y, **kw: mi.build_and_train_ensemble(X, y, seed=3, epochs=20, **kw),
         E, (E[:, 0] > 0.5).astype(float)),
    ]


def spy_blocks(monkeypatch):
    """Every feature block `_fit_mlp` trains on, recorded as it goes."""
    seen = []

    def spy(net, X, *args):
        seen.append(X)
        return _train_binary_net(net, X, *args)

    monkeypatch.setattr(am, "_train_binary_net", spy)
    return seen


class TestRowMajorFit:
    """Every MLP attacker trains on its live columns as one row-major block,
    in a copy of the caller's features or, with `overwrite_features`, in
    their own memory."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_live_columns_are_the_column_selection(self, rng, n):
        for keep in ([1, 0, 1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 0, 1], [1, 1, 1, 0, 1, 1, 1], [1] * 7):
            keep = np.array(keep, dtype=bool)
            X = rng.normal(size=(n, 7))
            want = X[:, keep].copy()
            got = _live_columns(X, keep)
            assert got.flags.c_contiguous and np.shares_memory(got, X)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_every_layout_fits_the_same_net(self, rng, overwrite):
        for fit, X, y in layout_fits(rng):
            want = fit(X.copy(), y)
            wider = np.repeat(X, 2, axis=1)
            for block in (np.ascontiguousarray(X), np.asfortranarray(X), wider[:, ::2]):
                got = fit(block, y, overwrite_features=overwrite)
                assert got.net.flat.tobytes() == want.net.flat.tobytes()
                assert got.history == want.history

    def test_trains_on_contiguous_rows(self, rng, monkeypatch):
        seen = spy_blocks(monkeypatch)
        for fit, X, y in layout_fits(rng):
            for block in (X, np.asfortranarray(X)):
                fit(block, y)
                live = int((np.ptp(X, axis=0) > 0).sum())
                assert seen[-1].shape == (len(X), live)
                assert seen[-1].strides[1] == seen[-1].itemsize
                assert seen[-1].flags.c_contiguous

    def test_overwrite_trains_in_the_callers_memory(self, rng, monkeypatch):
        seen = spy_blocks(monkeypatch)
        for fit, X, y in layout_fits(rng):
            fit(X, y)
            assert not np.shares_memory(seen[-1], X)
            fit(X, y, overwrite_features=True)
            assert np.shares_memory(seen[-1], X)

    def test_callers_array_is_left_unchanged(self, rng):
        for fit, X, y in layout_fits(rng):
            for block in (X, np.asfortranarray(X)):
                before = block.tobytes()
                fit(block, y)
                assert block.tobytes() == before


class TestEnsembleAttacker:
    def test_architecture_frozen(self, rng):
        X = rng.uniform(0, 1, (50, 6))
        y = (X[:, 0] > 0.5).astype(float)
        attacker = mi.build_and_train_ensemble(X, y, seed=0, epochs=40)
        assert attacker.net.layer_dims == [6, 40, 40, 20, 10, 1]
        assert ENSEMBLE_LAYER_DIMS == (6, 40, 40, 20, 10, 1)

    def test_wrong_width_rejected(self, rng):
        X = rng.uniform(0, 1, (20, 5))
        y = np.r_[np.ones(10), np.zeros(10)]
        with pytest.raises(ShapeError):
            mi.build_and_train_ensemble(X, y)

    def test_epoch_cap(self, rng):
        X = rng.uniform(0, 1, (20, 6))
        y = np.r_[np.ones(10), np.zeros(10)]
        with pytest.raises(ConfigError):
            mi.build_and_train_ensemble(X, y, epochs=301)

    def test_early_stopping_kicks_in(self, rng):
        # trivially separable six-feature set converges long before 300
        X = np.vstack([rng.normal(4, 0.5, (60, 6)), rng.normal(-4, 0.5, (60, 6))])
        y = np.r_[np.ones(60), np.zeros(60)]
        attacker = mi.build_and_train_ensemble(X, y, seed=2, epochs=300, learning_rate=0.01)
        assert len(attacker.history) < 300


class TestAttackerScoring:
    def test_wrong_length_rejected(self, rng):
        X, y = separable_features(rng, n_per_side=15)
        attacker = mi.fit_logistic_attacker(X, y)
        with pytest.raises(ShapeError):
            attacker_scores(attacker, np.zeros((1, 9)))

    def test_label_validation(self, rng):
        X = rng.uniform(0, 1, (10, 3))
        for labels in (np.full(10, 1.0), np.zeros(10), np.r_[np.ones(5), np.full(5, np.nan)]):
            with pytest.raises(TrainingError):
                mi.fit_logistic_attacker(X, labels)
        with pytest.raises(TrainingError):
            mi.fit_logistic_attacker(X, np.r_[np.ones(5), np.full(5, 2.0)])
        with pytest.raises(ShapeError):
            mi.fit_logistic_attacker(X, np.ones(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, tmp_path, rng, bad):
        X, y = separable_features(rng, n_per_side=10)
        attacker = mi.fit_logistic_attacker(X, y)
        X[3, 1] = bad
        for call in (
            lambda: mi.fit_logistic_attacker(X, y),
            lambda: mi.fit_mlp_attacker(X, y, epochs=2),
            lambda: mi.build_and_train_ensemble(np.hstack([X, X[:, :2]]), y, epochs=2),
            lambda: attacker_scores(attacker, X),
            lambda: write_feature_dump(tmp_path / "f.csv", range(len(X)), X, y == 1.0),
        ):
            with pytest.raises(InvalidInputError, match="finite"):
                call()
        assert not (tmp_path / "f.csv").exists()

    def test_inconsistent_feature_lengths(self, tmp_path, rng):
        feats = [np.zeros(3), np.zeros(4)]
        with pytest.raises(ShapeError):
            mi.fit_logistic_attacker(feats, np.array([0.0, 1.0]))
        # a 1-D or empty block is named by its shape, whichever call rejects it
        X, y = separable_features(rng, n_per_side=10)
        attacker = mi.fit_logistic_attacker(X, y)
        for block in (X[0], X[:0]):
            for call in (
                lambda: mi.fit_logistic_attacker(block, y[:1]),
                lambda: attacker_scores(attacker, block),
                lambda: write_feature_dump(tmp_path / "f.csv", [0], block, [True]),
            ):
                with pytest.raises(ShapeError) as info:
                    call()
                assert str(info.value) == f"features must be a non-empty (n, d) block, got shape {block.shape}"
        assert not (tmp_path / "f.csv").exists()


class TestAttackerPersistence:
    @pytest.mark.parametrize("kind", ["logistic", "mlp"])
    def test_roundtrip_scores_bitwise(self, tmp_path, rng, kind):
        X, y = separable_features(rng, n_per_side=20)
        if kind == "logistic":
            attacker = mi.fit_logistic_attacker(X, y)
        else:
            attacker = mi.fit_mlp_attacker(X, y, seed=3, epochs=25)
        path = tmp_path / "attacker.ckpt"
        save_attacker(attacker, path)
        loaded = load_attacker(path)
        assert loaded.kind == attacker.kind
        probe = rng.normal(0, 3, (12, X.shape[1]))
        assert np.array_equal(attacker_scores(attacker, probe), attacker_scores(loaded, probe))

    @pytest.mark.parametrize("where", ["nan_min", "inf_max", "max_below_min"])
    def test_bad_scaler_bounds(self, tmp_path, rng, where):
        X, y = separable_features(rng, n_per_side=10)
        path = tmp_path / "attacker.ckpt"
        save_attacker(mi.fit_logistic_attacker(X, y), path)
        d = X.shape[1]
        blob = bytearray(path.read_bytes())
        mins_at = len(blob) - 16 * d  # the mins, then the maxs, end the file
        value = {"nan_min": np.nan, "inf_max": np.inf, "max_below_min": -1e9}[where]
        at = mins_at if where == "nan_min" else mins_at + 8 * d
        blob[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="scaler"):
            load_attacker(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "attacker.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_attacker(path)

    def test_truncated(self, tmp_path, rng, corrupt_net_params):
        X, y = separable_features(rng, n_per_side=10)
        attacker = mi.fit_logistic_attacker(X, y)
        path = tmp_path / "attacker.ckpt"
        save_attacker(attacker, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                load_attacker(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(DataError):
            load_attacker(path)
        # and a [3, 2] net, whose sizes and scaler fit but whose output is
        # two wide, not one
        two_wide = struct.pack("<3I", 2, 3, 2) + bytes(64) + struct.pack("<I", 3) + bytes(48)
        for params in [*corrupt_net_params, two_wide]:
            path.write_bytes(ATTACKER_MAGIC + struct.pack("<IB", 1, 0) + params)
            with pytest.raises(DataError, match=re.escape(str(path))):
                load_attacker(path)


class TestFeatureDump:
    def test_roundtrip(self, tmp_path, rng):
        X = rng.normal(0, 1, (8, 5))
        ids = list(range(8))
        members = [i % 2 == 0 for i in range(8)]
        path = tmp_path / "features.csv"
        write_feature_dump(path, ids, X, members)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["sample_id", "f0", "f1", "f2", "f3", "f4", "is_member"]
        assert [int(row[0]) for row in rows] == ids
        assert np.array_equal(np.array([[float(v) for v in row[1:-1]] for row in rows]), X)
        assert [row[-1] for row in rows] == [str(int(m)) for m in members]

    def test_length_mismatch(self, tmp_path, rng):
        with pytest.raises(ShapeError):
            write_feature_dump(tmp_path / "f.csv", [0, 1], rng.normal(0, 1, (3, 2)), [True, False, True])
