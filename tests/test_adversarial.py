"""Projections, the adaptive ascent engine, and the minimum-distance search."""

import csv
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miaudit as mi
from miaudit.adversarial import (
    INITIAL_STEP_FRACTION,
    MOMENTUM,
    _checkpoint_iterations,
    dump_trace_csv,
    find_adversarial_rows,
    first_run_traces,
    project_l1_ball,
)
from miaudit.attack_models import BinaryNet, attacker_scores
from miaudit.errors import ConfigError, InvalidInputError, ShapeError
from miaudit.nn_core import PROB_FLOOR, loss_and_grads, row_backward, sample_evaluation

INF = math.inf


def feasible(point, center, p, eps, lo=0.0, hi=1.0, tol=1e-9):
    v = point - center
    return (
        mi.lp_norm(v, p) <= eps + tol
        and np.min(point) >= lo - 1e-12
        and np.max(point) <= hi + 1e-12
    )


def first_run_trace(model, x, y, cfg):
    """The one-row ApgdTrace of the search's first run, the one started at x."""
    return first_run_traces(model, x[None, :], [y], cfg)


class TestLpNorm:
    def test_frozen_values(self):
        v = np.array([3.0, -4.0])
        assert mi.lp_norm(v, 1) == 7.0
        assert mi.lp_norm(v, 2) == 5.0
        assert mi.lp_norm(v, INF) == 4.0

    def test_zero_vector(self):
        z = np.zeros(4)
        for p in (1, 2, INF):
            assert mi.lp_norm(z, p) == 0.0


class TestProjections:
    def test_frozen_linf_wide_box(self):
        # clamp each coordinate into [-eps, eps] around the center
        out = mi.project_lp_box(np.array([2.0, -3.0]), np.zeros(2), INF, 1.0, lo=-10, hi=10)
        assert np.allclose(out, [1.0, -1.0], atol=1e-12)

    def test_frozen_l2_wide_box(self):
        out = mi.project_lp_box(np.array([3.0, 4.0]), np.zeros(2), 2, 1.0, lo=-10, hi=10)
        assert np.allclose(out, [0.6, 0.8], atol=1e-12)

    def test_frozen_l1_wide_box(self):
        out = mi.project_lp_box(np.array([0.8, 0.6]), np.zeros(2), 1, 1.0, lo=-10, hi=10)
        assert np.allclose(out, [0.6, 0.4], atol=1e-12)

    def test_box_clip_applies(self):
        # ball projection alone would land outside the unit box
        out = mi.project_lp_box(np.array([1.9, 0.5]), np.array([0.9, 0.5]), INF, 1.0)
        assert np.allclose(out, [1.0, 0.5], atol=1e-12)

    def test_inside_point_unchanged(self):
        cand = np.array([0.4, 0.45])
        out = mi.project_lp_box(cand, np.array([0.5, 0.5]), 2, 0.3)
        assert np.allclose(out, cand, atol=1e-12)

    def test_l1_ball_interior_identity(self):
        v = np.array([0.2, -0.1, 0.05])
        assert np.allclose(project_l1_ball(v, 1.0), v, atol=1e-15)

    def test_validation_errors(self):
        c = np.zeros(2)
        with pytest.raises(ConfigError):
            mi.project_lp_box(c, c, 3, 1.0)
        with pytest.raises(ConfigError):
            mi.project_lp_box(c, c, 2, 0.0)
        with pytest.raises(ConfigError):
            mi.project_lp_box(c, c, 2, 1.0, lo=1.0, hi=0.0)
        with pytest.raises(ConfigError):
            mi.project_lp_box(np.zeros(3), c, 2, 1.0)
        with pytest.raises(InvalidInputError):
            mi.project_lp_box(np.array([np.nan, 0.0]), c, 2, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 6),
        p=st.sampled_from([1.0, 2.0, INF]),
        eps=st.floats(0.05, 2.0),
    )
    def test_output_always_feasible(self, data, dim, p, eps):
        cand = np.array(
            data.draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
        )
        ctr = np.array(
            data.draw(st.lists(st.floats(0, 1), min_size=dim, max_size=dim))
        )
        out = mi.project_lp_box(cand, ctr, p, eps)
        assert feasible(out, ctr, p, eps)

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_block_rows_equal_one_row_calls(self, rng, p):
        for dim in (1, 4, 24):
            cand = rng.uniform(-2, 3, (40, dim))
            ctr = rng.uniform(0, 1, (40, dim))
            cand[:5] = ctr[:5] + 0.01  # inside the ball: left as they are
            block = mi.project_lp_box(cand, ctr, p, 0.6)
            norms = mi.lp_norm(block - ctr, p)
            for i in range(40):
                one = mi.project_lp_box(cand[i], ctr[i], p, 0.6)
                assert block[i].tobytes() == one.tobytes()
                assert norms[i] == mi.lp_norm(one - ctr[i], p)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        dim=st.integers(1, 5),
        p=st.sampled_from([1.0, 2.0, INF]),
    )
    def test_idempotent(self, data, dim, p):
        cand = np.array(
            data.draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim))
        )
        ctr = np.array(
            data.draw(st.lists(st.floats(0, 1), min_size=dim, max_size=dim))
        )
        once = mi.project_lp_box(cand, ctr, p, 0.7)
        twice = mi.project_lp_box(once, ctr, p, 0.7)
        assert np.allclose(once, twice, atol=1e-9)


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            mi.AttackConfig(p=3)
        with pytest.raises(ConfigError):
            mi.AttackConfig(epsilon=-1)
        with pytest.raises(ConfigError):
            mi.AttackConfig(n_iter=0)
        for bad in (0, -1):
            with pytest.raises(ConfigError, match="attack.n_restarts"):
                mi.AttackConfig(n_restarts=bad)

    def test_defaults(self):
        cfg = mi.AttackConfig()
        assert cfg.p == INF and cfg.epsilon == 1.0 and cfg.n_restarts == 1
        assert (INITIAL_STEP_FRACTION, MOMENTUM) == (2.0, 0.75)


class TestCheckpointSchedule:
    def test_sorted_unique_in_range(self):
        for n in (1, 2, 5, 17, 100, 1000):
            pts = _checkpoint_iterations(n)
            assert pts == sorted(set(pts))
            assert all(1 <= k <= n for k in pts)

    def test_frozen_n100(self):
        assert _checkpoint_iterations(100) == [22, 42, 57, 69, 78, 85, 90, 94, 97]


class TestApgd:
    def test_trace_shape_and_feasibility(self, tiny_model, rng):
        x = rng.uniform(0.2, 0.8, 4)
        cfg = mi.AttackConfig(p=INF, epsilon=0.3, n_iter=25, seed=1)
        trace = first_run_trace(tiny_model, x, 0, cfg)
        assert trace.points.shape == (26, 1, 4)
        assert trace.losses.shape == trace.predictions.shape == (26, 1)
        assert trace.predictions.dtype == np.int64
        assert trace.center.shape == (1, 4)
        assert np.allclose(trace.points[0, 0], x)
        for pt in trace.points[:, 0]:
            assert feasible(pt, x, INF, 0.3)
        assert trace.losses.max() >= trace.losses[0, 0]

    def test_seeded_start_reproducible(self, tiny_model, rng):
        x = rng.uniform(0.2, 0.8, 4)
        cfg = mi.AttackConfig(p=2, epsilon=0.5, n_iter=15, n_restarts=3, seed=42)
        a = mi.find_adversarial(tiny_model, x, 0, cfg)
        b = mi.find_adversarial(tiny_model, x, 0, cfg)
        assert np.array_equal(a.v, b.v)
        assert a.distance == b.distance and a.success == b.success

    @pytest.mark.parametrize("p", [INF, 2.0])
    def test_matches_grid_search_on_2d(self, p):
        # fixed linear 2-class model; the continuum maximum is estimated on
        # a fine grid over the feasible square
        model = mi.MLPClassifier(
            [2, 2],
            [np.array([[3.0, -3.0], [2.0, -2.0]])],
            [np.array([0.2, -0.2])],
        )
        x = np.array([0.55, 0.45])
        eps = 0.3
        cfg = mi.AttackConfig(p=p, epsilon=eps, n_iter=80, seed=0)
        trace = first_run_trace(model, x, 0, cfg)

        axis = np.linspace(-eps, eps, 401)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.stack([x[0] + gx.ravel(), x[1] + gy.ravel()], axis=1)
        if p == 2:
            keep = np.sqrt(np.sum((pts - x) ** 2, axis=1)) <= eps
            pts = pts[keep]
        pts = np.clip(pts, 0.0, 1.0)
        logits = pts @ model.weights[0] + model.biases[0]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        grid_best = float(np.max(-np.log(np.clip(probs[:, 0], 1e-12, 1.0))))

        assert trace.losses.max() >= 0.98 * grid_best
        assert trace.losses.max() <= grid_best * 1.02

    def test_loss_never_below_start_after_restart(self, tiny_model, rng):
        # halving restarts from the best iterate, so the final best can
        # never undercut the starting loss
        for seed in range(5):
            x = rng.uniform(0.1, 0.9, 4)
            cfg = mi.AttackConfig(p=1, epsilon=0.8, n_iter=40, seed=seed)
            trace = first_run_trace(tiny_model, x, int(rng.integers(3)), cfg)
            assert trace.losses.max() >= trace.losses[0, 0] - 1e-12


class TestFindAdversarial:
    def test_misclassified_input_returns_zero(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        (probs,) = mi.forward_predict(tiny_model, x[None, :])
        wrong = int(np.argmin(probs))
        out = mi.find_adversarial(tiny_model, x, wrong, mi.AttackConfig(n_iter=5))
        assert out.success
        assert out.distance == 0.0
        assert np.all(out.v == 0.0)
        assert out.iterations_used == 0

    def test_failure_reports_epsilon(self):
        # zero weights pin the prediction to class 0; label 0 cannot flip
        model = mi.MLPClassifier(
            [2, 2],
            [np.zeros((2, 2))],
            [np.zeros(2)],
        )
        cfg = mi.AttackConfig(p=INF, epsilon=0.2, n_iter=10, seed=0)
        out = mi.find_adversarial(model, np.array([0.5, 0.5]), 0, cfg)
        assert not out.success
        assert out.distance == 0.2
        assert feasible(np.array([0.5, 0.5]) + out.v, np.array([0.5, 0.5]), INF, 0.2)

    def test_success_point_misclassifies_and_is_feasible(self, rng):
        model = mi.build_mlp([3, 16, 3], seed=5)
        hits = 0
        for _ in range(20):
            x = rng.uniform(0, 1, 3)
            y = int(np.argmax(mi.forward_predict(model, x[None, :])[0]))
            cfg = mi.AttackConfig(p=2, epsilon=1.2, n_iter=30, seed=3)
            out = mi.find_adversarial(model, x, y, cfg)
            if out.success:
                hits += 1
                adv = x + out.v
                assert int(np.argmax(mi.forward_predict(model, adv[None, :])[0])) != y
                assert feasible(adv, x, 2, 1.2)
                assert abs(mi.lp_norm(out.v, 2) - out.distance) < 1e-9
        assert hits > 0

    def test_restarts_add_iterations(self, tiny_model, rng):
        x = rng.uniform(0.2, 0.8, 4)
        y = int(np.argmax(mi.forward_predict(tiny_model, x[None, :])[0]))
        one = mi.find_adversarial(tiny_model, x, y, mi.AttackConfig(n_iter=8, n_restarts=1))
        three = mi.find_adversarial(tiny_model, x, y, mi.AttackConfig(n_iter=8, n_restarts=3))
        assert one.iterations_used == 8
        assert three.iterations_used == 24


class TestTraceDump:
    def test_csv_round_shape(self, tmp_path, tiny_model, rng):
        x = rng.uniform(0.2, 0.8, 4)
        trace = first_run_trace(tiny_model, x, 0, mi.AttackConfig(n_iter=12, epsilon=0.4))
        path = tmp_path / "trace.csv"
        dump_trace_csv(trace, 0, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loss", "distance", "predicted_class"]
        assert len(rows) == 14
        assert float(rows[1][2]) == 0.0
        best = max(float(r[1]) for r in rows[1:])
        assert abs(best - trace.losses.max()) < 1e-15

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_block_row_file_is_the_one_row_file(self, tmp_path, tiny_model, rng, p):
        X = rng.uniform(0.2, 0.8, (5, 4))
        Y = rng.integers(3, size=5)
        cfg = mi.AttackConfig(p=p, n_iter=12, epsilon=0.4)
        trace = first_run_traces(tiny_model, X, Y, cfg)
        for i in range(len(X)):
            dump_trace_csv(trace, i, tmp_path / "block.csv")
            dump_trace_csv(first_run_trace(tiny_model, X[i], int(Y[i]), cfg), 0, tmp_path / "one.csv")
            assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


# ---------------------------------------------------------------------------
# Block search
# ---------------------------------------------------------------------------


def _reference_project(cand, ctr, p, eps):
    """One-vector lp-ball projection followed by the unit-box clip."""
    v = cand - ctr
    if p == INF:
        v = np.clip(v, -eps, eps)
    elif p == 2:
        norm = float(np.sqrt(np.sum(v * v)))
        if norm > eps:
            v = v * (eps / norm)
    else:
        a = np.abs(v)
        if a.sum() > eps:
            u = np.sort(a)[::-1]
            css = np.cumsum(u)
            k = np.arange(1, u.size + 1)
            rho = int(k[u * k > (css - eps)][-1])
            v = np.sign(v) * np.maximum(a - (css[rho - 1] - eps) / rho, 0.0)
    return np.clip(ctr + v, 0.0, 1.0)


def _reference_evaluate(model, x, y):
    loss, _, g, probs = loss_and_grads(
        model, x[None, :], np.array([y]), need_input=True
    )
    return loss, probs[0], g[0]


def _reference_ascent(model, x, y, cfg, start=None):
    """One-sample APGD run as a plain loop: (points, losses, predictions)."""
    p, eps = cfg.p, cfg.epsilon
    eta = INITIAL_STEP_FRACTION * eps
    checkpoints = set(_checkpoint_iterations(cfg.n_iter))
    cur = x if start is None else _reference_project(start, x, p, eps)
    loss, probs, grad = _reference_evaluate(model, cur, y)
    points, losses, preds = [cur], [loss], [int(np.argmax(probs))]
    prev = cur
    best_x, best_loss, best_grad = cur, loss, grad
    eta_at_ck, best_at_ck = eta, best_loss
    improved = last_ck = 0
    for k in range(1, cfg.n_iter + 1):
        if p == INF:
            direction = np.sign(grad)
        else:
            gnorm = float(np.sqrt(np.sum(grad * grad)))
            direction = grad / gnorm if gnorm > 1e-30 else np.zeros_like(grad)
        z = _reference_project(cur + eta * direction, x, p, eps)
        blend = MOMENTUM if k > 1 else 1.0
        nxt = _reference_project(cur + blend * (z - cur) + (1.0 - blend) * (cur - prev), x, p, eps)
        prev, cur = cur, nxt
        new_loss, probs, grad = _reference_evaluate(model, cur, y)
        improved += new_loss > loss
        loss = new_loss
        points.append(cur)
        losses.append(loss)
        preds.append(int(np.argmax(probs)))
        if loss > best_loss:
            best_x, best_loss, best_grad = cur, loss, grad
        if k in checkpoints:
            stalled = eta == eta_at_ck and best_loss == best_at_ck
            if improved < 0.75 * (k - last_ck) or stalled:
                eta *= 0.5
                cur, prev = best_x, best_x
                loss, grad = best_loss, best_grad
            eta_at_ck, best_at_ck = eta, best_loss
            improved = 0
            last_ck = k
    return np.array(points), np.array(losses), np.array(preds)


def _reference_search(model, x, y, cfg):
    """One-sample search as a plain loop over restarts and iterates."""
    probs0 = model.forward(x[None, :])[2][0]
    (loss0,) = mi.cross_entropy_loss(probs0[None, :], [y])
    if int(np.argmax(probs0)) != y:
        return mi.AdversarialOutcome(np.zeros_like(x), 0.0, True, 0, loss0)
    rng = np.random.default_rng(cfg.seed)
    best_dist, best_point = INF, None
    best_loss, best_loss_point = loss0, x
    for run in range(cfg.n_restarts):
        start = None
        if run:
            start = rng.uniform(np.maximum(0.0, x - cfg.epsilon), np.minimum(1.0, x + cfg.epsilon))
            if cfg.p != INF:
                start = _reference_project(start, x, cfg.p, cfg.epsilon)
        points, losses, preds = _reference_ascent(model, x, y, cfg, start)
        if losses.max() > best_loss:
            best_loss, best_loss_point = float(losses.max()), points[int(np.argmax(losses))]
        for pt, pred in zip(points, preds):
            d = mi.lp_norm(pt - x, cfg.p)
            if pred != y and d < best_dist:
                best_dist, best_point = d, pt
    iterations = cfg.n_iter * cfg.n_restarts
    if best_point is not None:
        return mi.AdversarialOutcome(best_point - x, best_dist, True, iterations, best_loss)
    return mi.AdversarialOutcome(best_loss_point - x, cfg.epsilon, False, iterations, best_loss)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def row_outcome(block, i):
    """Row i of a block AdversarialOutcome."""
    return mi.AdversarialOutcome(
        block.v[i], block.distance[i], block.success[i], block.iterations_used[i], block.best_loss[i]
    )


def assert_same_outcome(a, b):
    assert a.v.tobytes() == b.v.tobytes()
    assert _bits(a.distance) == _bits(b.distance)
    assert _bits(a.best_loss) == _bits(b.best_loss)
    assert (a.success, a.iterations_used) == (b.success, b.iterations_used)


class TestBlockSearch:
    """Each row of the lock-step block search is bitwise its one-row call
    and the one-sample reference loop, whatever its block mates."""

    @pytest.fixture(scope="class")
    def block(self):
        model = mi.build_mlp([4, 8, 3], seed=7)
        X = np.random.default_rng(2022).uniform(0, 1, (14, 4))
        X[12], X[13] = 0.0, 1.0  # box corners
        probs = mi.forward_predict(model, X)
        Y = np.argmax(probs, axis=1)
        Y[:3] = np.argmin(probs[:3], axis=1)  # already misclassified
        seeds = [1000 + i for i in range(len(X))]
        return model, X, Y, seeds

    @pytest.mark.parametrize("n_restarts", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_rows_match_one_row_calls(self, block, p, n_restarts):
        model, X, Y, seeds = block
        cfg = mi.AttackConfig(p=p, epsilon=0.1, n_iter=12, n_restarts=n_restarts)
        outcome = find_adversarial_rows(model, X, Y, cfg, seeds)
        n = len(X)
        assert outcome.v.shape == X.shape
        assert outcome.distance.shape == outcome.best_loss.shape == (n,)
        assert outcome.success.dtype == bool and outcome.success.shape == (n,)
        assert outcome.iterations_used.dtype.kind == "i" and outcome.iterations_used.shape == (n,)
        misclassified = outcome.success & (outcome.iterations_used == 0)
        found = outcome.success & (outcome.iterations_used > 0)
        assert misclassified.any() and found.any() and not outcome.success.all()
        assert np.all(outcome.v[misclassified] == 0.0) and not np.signbit(outcome.v[misclassified]).any()
        for i in range(n):
            out = row_outcome(outcome, i)
            row_cfg = replace(cfg, seed=seeds[i])
            assert_same_outcome(out, mi.find_adversarial(model, X[i], int(Y[i]), row_cfg))
            assert_same_outcome(out, _reference_search(model, X[i], int(Y[i]), row_cfg))
        order = np.random.default_rng(5).permutation(n)
        for part in [order, *np.array_split(order, 2)]:
            got = find_adversarial_rows(model, X[part], Y[part], cfg, [seeds[i] for i in part])
            for j, i in enumerate(part):
                assert_same_outcome(row_outcome(got, j), row_outcome(outcome, i))

    def test_one_row_call_returns_plain_values(self, block):
        model, X, Y, _ = block
        cfg = mi.AttackConfig(p=2.0, epsilon=0.1, n_iter=12, n_restarts=2)
        for i in (0, 5):  # misclassified, searched
            out = mi.find_adversarial(model, X[i], int(Y[i]), cfg)
            assert out.v.shape == X[i].shape
            assert (type(out.distance), type(out.success)) == (float, bool)
            assert (type(out.iterations_used), type(out.best_loss)) == (int, float)

    @pytest.mark.parametrize("n_restarts", [1, 2])
    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_first_run_traces_match_one_row_runs(self, block, p, n_restarts):
        model, X, Y, seeds = block
        cfg = mi.AttackConfig(p=p, epsilon=0.1, n_iter=12, n_restarts=n_restarts)
        trace = first_run_traces(model, X, Y, cfg)
        # misclassified rows included
        assert trace.points.shape == (cfg.n_iter + 1, *X.shape)
        assert trace.losses.shape == trace.predictions.shape == (cfg.n_iter + 1, len(X))
        assert trace.predictions.dtype == np.int64
        assert trace.center.tobytes() == X.tobytes()
        for i in range(len(X)):
            one = first_run_trace(model, X[i], int(Y[i]), cfg)
            points, losses, preds = _reference_ascent(model, X[i], int(Y[i]), cfg)
            for got, row in ((trace, i), (one, 0)):
                assert got.points[:, row].tobytes() == points.tobytes()
                assert got.losses[:, row].tobytes() == losses.tobytes()
                assert got.predictions[:, row].tobytes() == preds.astype(np.int64).tobytes()
                assert got.center[row].tobytes() == X[i].tobytes()


def _reference_row(model, x, y):
    """The scores and features of one sample as plain one-sample code: the
    one-row training pass (`np.matmul`, batch gradients of that row alone)
    and a loop over the classes."""
    _, grads, g_in, probs = loss_and_grads(model, x[None, :], np.array([y]), need_input=True)
    _, acts, _ = model.forward(x[None, :])
    p = probs[0]
    (loss,) = mi.cross_entropy_loss(probs, [y])
    log_p = np.log(np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR))
    log_1mp = np.log(np.clip(1.0 - p, PROB_FLOOR, 1.0 - PROB_FLOOR))
    mentr = -(1.0 - p[y]) * log_p[y]
    mentr -= float(np.sum([p[j] * log_1mp[j] for j in range(len(p)) if j != y]))
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    flat = np.concatenate([g.ravel() for g in grads])
    onehot = np.eye(model.n_classes)[y]
    wb = np.concatenate([grads[-2].ravel(), grads[-1], [loss], p, acts[-1][0], onehot])
    return {
        "softmax": float(np.max(p)),
        "mentr": -float(mentr),
        "loss": -loss,
        "grad_w_norm": -total,
        "grad_x_norm": -float(np.sqrt(np.sum(g_in[0] * g_in[0]))),
        mi.extract_grad_w_stats: mi.gradient_statistics(flat[None, :])[0],
        mi.extract_grad_x_stats: mi.gradient_statistics(g_in)[0],
        mi.extract_intermediate_outputs: np.concatenate([p, acts[-1][0]]),
        mi.extract_wb_features: wb,
    }


# Summed per layer from the factor sums of `row_gradient_factors`, not over a
# flat gradient: they match the one-sample reference within criterion 8's gap.
FACTORISED_CALLS = ("grad_w_norm", mi.extract_grad_w_stats)


class _OnWhiteBoxFeatures:
    """A scorer of the white-box features of a block.  `make` builds it
    once per model, from the features of the first block it sees: in
    `TestBlockScores`, the fixture's whole block."""

    def __init__(self, name, make):
        self.__name__ = name
        self.make = make
        self.scorers = {}

    def __call__(self, model, X, Y):
        features = mi.extract_wb_features(model, X, Y)
        if model not in self.scorers:
            self.scorers[model] = self.make(features)
        return self.scorers[model](features)


def _fitted_scores(fit):
    """`attacker_scores` of the attacker that `fit` trains on a block of
    features labelled 0, 1, 0, 1, ..."""
    return lambda F: partial(attacker_scores, fit(F, np.arange(len(F)) % 2))


BLOCK_CALLS = (
    *mi.THRESHOLD_STRATEGIES,
    mi.extract_grad_w_stats,
    mi.extract_grad_x_stats,
    mi.extract_intermediate_outputs,
    mi.extract_wb_features,
    _OnWhiteBoxFeatures(
        "BinaryNet.scores", lambda F: BinaryNet.build([F.shape[1], 64, 32, 1], seed=2).scores
    ),
    _OnWhiteBoxFeatures(
        "logistic_attacker_scores", _fitted_scores(lambda F, y: mi.fit_logistic_attacker(F, y, max_steps=3))
    ),
    _OnWhiteBoxFeatures(
        "mlp_attacker_scores", _fitted_scores(lambda F, y: mi.fit_mlp_attacker(F, y, seed=1, epochs=5))
    ),
)


class TestBlockScores:
    """Every threshold score, feature extractor and attacker score takes a
    block and gives each row bitwise what its one-row block gives, whatever
    its block mates."""

    @pytest.fixture(scope="class", params=[[24, 128, 128, 10], [6, 16, 3], [4, 8, 3], [3, 5, 5, 2]])
    def block(self, request):
        dims = request.param
        model = mi.build_mlp(dims, seed=dims[1])
        # a dead ReLU: its zero activations and masked deltas give -0.0 terms,
        # which an outer product and a gemm sum to different signed zeros
        model.biases[0][0] = -100.0
        X = np.random.default_rng(dims[0]).uniform(0, 1, (40, dims[0]))
        probs = mi.forward_predict(model, X)
        Y = np.argmax(probs, axis=1)
        Y[:4] = np.argmin(probs[:4], axis=1)  # already misclassified
        return model, X, Y

    @staticmethod
    def call(fn, model, X, Y):
        if callable(fn):
            return fn(model, X, Y)
        return mi.compute_score(model, X, Y, fn, mi.AttackConfig(epsilon=0.2, n_iter=6, seed=3))

    @pytest.mark.parametrize("fn", BLOCK_CALLS, ids=lambda f: getattr(f, "__name__", f))
    def test_rows_match_one_row_calls(self, block, fn):
        model, X, Y = block
        got = self.call(fn, model, X, Y)
        assert got.shape[0] == len(X)
        ones = [self.call(fn, model, X[i : i + 1], Y[i : i + 1]) for i in range(len(X))]
        for i, one in enumerate(ones):
            assert one.shape == (1, *got.shape[1:])
            assert _bits(one) == _bits(got[i])
            want = _reference_row(model, X[i], int(Y[i])).get(fn)
            if fn in FACTORISED_CALLS:
                assert np.max(np.abs(np.asarray(one) - want)) <= 1e-9
            elif want is not None:
                assert _bits(one) == _bits(want)
        order = np.random.default_rng(8).permutation(len(X))
        assert _bits(self.call(fn, model, X[order], Y[order])) == _bits(got[order])
        parts = [self.call(fn, model, X[part], Y[part]) for part in np.array_split(order, 3)]
        assert _bits(np.concatenate(parts)) == _bits(got[order])

    def test_block_has_signed_zero_gradients(self, block):
        model, X, Y = block
        _, _, _, deltas, _ = row_backward(model, X, Y)
        assert any(np.any(np.signbit(d) & (d == 0.0)) for d in deltas)


def _labels_for(X):
    """One label per row; one label for a 1-D X, as the one-row form took."""
    return np.zeros(len(np.atleast_2d(X)), dtype=np.int64)


def _block_only_calls():
    """Every block-only function as (call on a block X, the width X must
    have, or None where any width is valid)."""
    model = mi.build_mlp([4, 8, 3], seed=0)
    attack = mi.AttackConfig(epsilon=0.2, n_iter=6, seed=3)

    def on_model(fn):
        return lambda X: fn(model, X, _labels_for(X)), 4

    features = np.random.default_rng(0).uniform(0, 1, (10, 4))
    labels = np.arange(10) % 2
    return {
        "forward_predict": on_model(lambda m, X, Y: mi.forward_predict(m, X)),
        "row_backward": on_model(lambda m, X, Y: row_backward(m, X, Y)[2]),
        "sample_evaluation": on_model(lambda m, X, Y: sample_evaluation(m, X, Y)[0]),
        "modified_entropy": on_model(mi.modified_entropy),
        "softmax_response": on_model(mi.softmax_response),
        "mentr_score": on_model(mi.mentr_score),
        "loss_score": on_model(mi.loss_score),
        "grad_w_norm_score": on_model(mi.grad_w_norm_score),
        "grad_x_norm_score": on_model(mi.grad_x_norm_score),
        "adv_dist_score": on_model(lambda m, X, Y: mi.adv_dist_score(m, X, Y, attack)),
        "compute_score": on_model(lambda m, X, Y: mi.compute_score(m, X, Y, "loss")),
        "extract_grad_w_stats": on_model(mi.extract_grad_w_stats),
        "extract_grad_x_stats": on_model(mi.extract_grad_x_stats),
        "extract_intermediate_outputs": on_model(mi.extract_intermediate_outputs),
        "extract_wb_features": on_model(mi.extract_wb_features),
        "cross_entropy_loss": (lambda P: mi.cross_entropy_loss(P, _labels_for(P)), None),
        "gradient_statistics": (mi.gradient_statistics, None),
        "MinMaxScaler.transform": (mi.MinMaxScaler.fit(features).transform, 4),
        "BinaryNet.scores": (BinaryNet.build([4, 3, 1], seed=0).scores, 4),
        "attacker_scores": (
            lambda X: attacker_scores(mi.fit_logistic_attacker(features, labels, max_steps=2), X),
            4,
        ),
    }


BLOCK_ONLY = _block_only_calls()


class TestMalformedBlocks:
    """A block-only function takes (n, d) blocks: a 1-D input or a block of
    the wrong width is a ShapeError (an AuditError), never numpy's own."""

    @pytest.mark.parametrize("name", BLOCK_ONLY)
    def test_one_row_block_is_accepted(self, name):
        fn, width = BLOCK_ONLY[name]
        assert len(fn(np.full((1, width or 3), 0.5))) == 1

    @pytest.mark.parametrize("name", BLOCK_ONLY)
    def test_1d_input_rejected(self, name):
        fn, width = BLOCK_ONLY[name]
        for bad in (np.full(width or 3, 0.5), np.float64(0.5)):  # and a 0-d input
            with pytest.raises(ShapeError):
                fn(bad)

    @pytest.mark.parametrize("name", [n for n, (_, width) in BLOCK_ONLY.items() if width])
    def test_wrong_width_rejected(self, name):
        fn, width = BLOCK_ONLY[name]
        with pytest.raises(ShapeError):
            fn(np.full((2, width + 2), 0.5))
