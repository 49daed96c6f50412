"""Acceptance gate: nine checks, one pass/fail line per criterion.

Each test prints `ACCEPTANCE <n> <name>: PASS` on success; under pytest -v
the test id itself serves as the per-criterion line.  Oracles here are coded
independently of the library paths they check.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import miaudit as mi
from miaudit.attack_models import ENSEMBLE_FEATURE_ORDER, GRAD_STAT_NAMES, attacker_scores
from miaudit.cli_runner import ExperimentConfig, run_pipeline
from miaudit.nn_core import sample_evaluation


def _announce(n, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {n} {name}: PASS{suffix}")


# -------------------------------------------------------------------------
# 1. analytic gradients match central finite differences
# -------------------------------------------------------------------------


def test_criterion_1_gradients_match_finite_differences():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    step = 1e-6
    worst = 0.0

    def rel(a, fd):
        return abs(a - fd) / max(abs(a), abs(fd), 1e-5)

    for trial in range(50):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        hidden = [int(rng.integers(4, 11)) for _ in range(int(rng.integers(1, 3)))]
        model = mi.build_mlp([d, *hidden, k], seed=int(rng.integers(10_000)))
        x = rng.uniform(0.05, 0.95, d)
        y = int(rng.integers(k))
        param_grads, g_in = mi.backward_gradients(model, x, y)

        def loss_at_x(xv):
            return mi.cross_entropy_loss(mi.forward_predict(model, xv[None, :]), [y])[0]

        for tensors, grads in (
            (model.weights, param_grads[0::2]),
            (model.biases, param_grads[1::2]),
        ):
            for tensor, grad in zip(tensors, grads):
                flat_vals = tensor.ravel()
                flat_grad = grad.ravel()
                for i in range(flat_vals.size):
                    old = flat_vals[i]
                    flat_vals[i] = old + step
                    hi = loss_at_x(x)
                    flat_vals[i] = old - step
                    lo = loss_at_x(x)
                    flat_vals[i] = old
                    fd = (hi - lo) / (2 * step)
                    err = rel(flat_grad[i], fd)
                    worst = max(worst, err)
                    assert err <= 1e-4, f"trial {trial} param grad off by {err}"
        for i in range(d):
            old = x[i]
            x[i] = old + step
            hi = loss_at_x(x)
            x[i] = old - step
            lo = loss_at_x(x)
            x[i] = old
            fd = (hi - lo) / (2 * step)
            err = rel(g_in[i], fd)
            worst = max(worst, err)
            assert err <= 1e-4, f"trial {trial} input grad off by {err}"

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(1, "gradients-vs-finite-differences", f"50 models, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. AUROC equals the tie-aware pairwise-comparison statistic
# -------------------------------------------------------------------------


def test_criterion_2_auroc_matches_rank_statistic():
    started = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(200):
        n_m = int(rng.integers(1, 201))
        n_n = int(rng.integers(1, 201))
        # mix a small lattice (guaranteed ties) with continuous draws
        if trial % 2 == 0:
            m = rng.choice(np.linspace(-1, 1, 9), size=n_m)
            n = rng.choice(np.linspace(-1, 1, 9), size=n_n)
        else:
            m = rng.normal(0.3, 1.0, n_m)
            n = rng.normal(0.0, 1.0, n_n)
        got = mi.auroc(m, n)
        wins = np.sum(m[:, None] > n[None, :], dtype=np.float64)
        ties = np.sum(m[:, None] == n[None, :], dtype=np.float64)
        want = (wins + 0.5 * ties) / (n_m * n_n)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12, f"trial {trial}: {got} vs {want}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(2, "auroc-vs-pair-statistic", f"200 sets, worst gap {worst:.1e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 3. projections: closed forms, grid oracle, and search feasibility fuzz
# -------------------------------------------------------------------------


def _grid_project_l1(cand, ctr, eps):
    """Two-stage grid argmin of ||r - cand||_2 over the l1 ball (wide box)."""
    d = cand.shape[0]
    if np.sum(np.abs(cand - ctr)) <= eps:
        return cand.copy()
    lo = ctr - eps
    hi = ctr + eps
    coarse = 81 if d == 2 else 41
    fine = 41 if d == 2 else 21
    best = None
    window = (lo, hi)
    for level, pts in ((0, coarse), (1, fine), (2, fine)):
        axes = [np.linspace(window[0][i], window[1][i], pts) for i in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        keep = np.sum(np.abs(grid - ctr), axis=1) <= eps
        grid = grid[keep]
        dist = np.sum((grid - cand) ** 2, axis=1)
        best = grid[int(np.argmin(dist))]
        span = (window[1] - window[0]) / (pts - 1)
        window = (best - 2 * span, best + 2 * span)
    return best


def test_criterion_3_projections_and_search_feasibility():
    started = time.monotonic()
    rng = np.random.default_rng(31)

    # closed forms, frozen
    out = mi.project_lp_box(np.array([2.0, -3.0]), np.zeros(2), math.inf, 1.0, lo=-9, hi=9)
    assert np.allclose(out, [1.0, -1.0], atol=1e-12)
    out = mi.project_lp_box(np.array([3.0, 4.0]), np.zeros(2), 2.0, 1.0, lo=-9, hi=9)
    assert np.allclose(out, [0.6, 0.8], atol=1e-12)
    out = mi.project_lp_box(np.array([0.8, 0.6]), np.zeros(2), 1.0, 1.0, lo=-9, hi=9)
    assert np.allclose(out, [0.6, 0.4], atol=1e-12)

    # closed forms, randomized (composition: ball projection then box clip)
    for _ in range(300):
        d = int(rng.integers(1, 7))
        cand = rng.uniform(-2.5, 2.5, d)
        ctr = rng.uniform(0, 1, d)
        eps = float(rng.uniform(0.05, 1.5))
        got_inf = mi.project_lp_box(cand, ctr, math.inf, eps)
        want_inf = np.clip(np.clip(cand, ctr - eps, ctr + eps), 0.0, 1.0)
        assert np.allclose(got_inf, want_inf, atol=1e-12)
        got_l2 = mi.project_lp_box(cand, ctr, 2.0, eps)
        v = cand - ctr
        nv = np.linalg.norm(v)
        want_l2 = np.clip(ctr + (v if nv <= eps else v * (eps / nv)), 0.0, 1.0)
        assert np.allclose(got_l2, want_l2, atol=1e-12)

    # l1 projection against the refining grid oracle (wide box isolates
    # the ball step)
    worst_l1 = 0.0
    for d in (2, 3):
        cases = 20 if d == 2 else 10
        for _ in range(cases):
            cand = rng.uniform(-2, 2, d)
            ctr = rng.uniform(0, 1, d)
            eps = float(rng.uniform(0.3, 1.2))
            got = mi.project_lp_box(cand, ctr, 1.0, eps, lo=-50.0, hi=50.0)
            want = _grid_project_l1(cand, ctr, eps)
            gap = float(np.max(np.abs(got - want)))
            worst_l1 = max(worst_l1, gap)
            assert gap <= 1e-3, f"l1 grid oracle disagrees by {gap}"

    # feasibility fuzz over the whole search path
    models = [
        mi.build_mlp([3, 8, 2], seed=1),
        mi.build_mlp([4, 6, 3], seed=2),
        mi.build_mlp([2, 5, 5, 2], seed=3),
    ]
    norms = (1.0, 2.0, math.inf)
    checked = 0
    for trial in range(10_000):
        model = models[trial % len(models)]
        d = model.input_dim
        x = rng.uniform(0, 1, d)
        y = int(rng.integers(model.n_classes))
        p = norms[trial % 3]
        eps = float(rng.uniform(0.05, 1.5))
        cfg = mi.AttackConfig(p=p, epsilon=eps, n_iter=5, n_restarts=1, seed=trial)
        out = mi.find_adversarial(model, x, y, cfg)
        adv = x + out.v
        assert mi.lp_norm(out.v, p) <= eps + 1e-9, f"trial {trial}: ball violated"
        assert adv.min() >= -1e-12 and adv.max() <= 1.0 + 1e-12, f"trial {trial}: box violated"
        assert 0.0 <= out.distance <= eps + 1e-9
        if out.success:
            if out.distance > 0.0:
                assert int(np.argmax(mi.forward_predict(model, adv[None, :])[0])) != y
                assert abs(mi.lp_norm(out.v, p) - out.distance) <= 1e-9
        else:
            assert out.distance == eps
        checked += 1

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(
        3,
        "projection-oracles-and-feasibility",
        f"l1 grid gap {worst_l1:.1e}, {checked} fuzzed searches, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 4. search never undercuts the exact margin of a linear model
# -------------------------------------------------------------------------


def test_criterion_4_linear_margin_soundness():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    successes = 0
    for trial in range(100):
        d = int(rng.integers(2, 7))
        model = mi.build_mlp([d, 2], seed=int(rng.integers(100_000)))
        x = rng.uniform(0, 1, d)
        y = int(np.argmax(mi.forward_predict(model, x[None, :])[0]))
        W = model.weights[0]
        b = model.biases[0]
        w = W[:, 1] - W[:, 0]
        c = b[1] - b[0]
        margin = abs(float(x @ w + c)) / float(np.linalg.norm(w))
        cfg = mi.AttackConfig(p=2.0, epsilon=2.0, n_iter=50, n_restarts=2, seed=trial)
        out = mi.find_adversarial(model, x, y, cfg)
        if out.success:
            successes += 1
            assert out.distance >= margin - 1e-6, (
                f"trial {trial}: distance {out.distance} beats exact margin {margin}"
            )
    assert successes >= 80, f"only {successes}/100 linear attacks succeeded"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(4, "linear-margin-lower-bound", f"{successes}/100 succeeded, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 5. desk-scale audit: memorization gap and six informative strategies
# -------------------------------------------------------------------------


def test_criterion_5_desk_scale_attack_trend(desk_audit):
    runs, fixture_elapsed = desk_audit
    min_auroc = {name: 1.0 for name in mi.THRESHOLD_STRATEGIES}
    for run in runs:
        assert run["train_accuracy"] >= 0.99, f"seed {run['seed']} failed to memorize"
        assert run["train_accuracy"] - run["heldout_accuracy"] >= 0.3, (
            f"seed {run['seed']}: no generalization gap to attack"
        )
        for name in mi.THRESHOLD_STRATEGIES:
            val = mi.auroc(run["member"][name], run["nonmember"][name])
            min_auroc[name] = min(min_auroc[name], val)
            floor = 0.65 if name == "adv_dist" else 0.60
            assert val >= floor, f"seed {run['seed']} {name} auroc {val:.3f} < {floor}"
    assert fixture_elapsed < 900.0, f"budget exceeded: {fixture_elapsed:.0f}s"
    summary = ", ".join(f"{k}>={v:.3f}" for k, v in min_auroc.items())
    _announce(5, "desk-scale-trend", f"5 seeds, worst aurocs {summary}, {fixture_elapsed:.0f}s")


# -------------------------------------------------------------------------
# 6. AUROC is stable across member:nonmember ratios
# -------------------------------------------------------------------------


def test_criterion_6_ratio_stability(desk_audit):
    runs, _ = desk_audit
    started = time.monotonic()
    run0 = runs[0]
    member = run0["member"]["adv_dist"]
    nonmember = run0["nonmember"]["adv_dist"][:100]
    out = mi.ratio_robustness_experiment(
        member, nonmember, ratios=((5, 1), (1, 1), (1, 5)), repeats=40, seed=9
    )
    values = list(out.values())
    spread = max(values) - min(values)
    assert set(out) == {"5:1", "1:1", "1:5"}
    assert spread <= 0.06, f"ratio spread {spread:.4f} exceeds 0.06: {out}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    detail = ", ".join(f"{k}={v:.4f}" for k, v in out.items())
    _announce(6, "ratio-stability", f"{detail}, spread {spread:.4f}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 7. the six-score ensemble holds up against the best single strategy
# -------------------------------------------------------------------------


def test_criterion_7_ensemble_vs_best_single(desk_audit):
    runs, _ = desk_audit
    started = time.monotonic()
    ens_aurocs = []
    best_aurocs = []
    for run in runs:
        seed = run["seed"]
        feats_m = np.stack([run["member"][k] for k in ENSEMBLE_FEATURE_ORDER], axis=1)
        feats_n = np.stack([run["nonmember"][k] for k in ENSEMBLE_FEATURE_ORDER], axis=1)
        rng = np.random.default_rng(seed + 500)
        perm_m = rng.permutation(feats_m.shape[0])
        perm_n = rng.permutation(feats_n.shape[0])
        half_m = feats_m.shape[0] // 2
        half_n = feats_n.shape[0] // 2
        X_train = np.vstack([feats_m[perm_m[:half_m]], feats_n[perm_n[:half_n]]])
        y_train = np.r_[np.ones(half_m), np.zeros(half_n)]
        attacker = mi.build_and_train_ensemble(X_train, y_train, seed=seed + 900)
        assert attacker.net.layer_dims == [6, 40, 40, 20, 10, 1]
        s_m = attacker_scores(attacker, feats_m[perm_m[half_m:]])
        s_n = attacker_scores(attacker, feats_n[perm_n[half_n:]])
        ens = mi.auroc(s_m, s_n)
        best = 0.0
        for name in mi.THRESHOLD_STRATEGIES:
            single = mi.auroc(
                run["member"][name][perm_m[half_m:]],
                run["nonmember"][name][perm_n[half_n:]],
            )
            best = max(best, single)
        ens_aurocs.append(ens)
        best_aurocs.append(best)
        assert ens >= best - 0.05, f"seed {seed}: ensemble {ens:.3f} vs best single {best:.3f}"
    mean_ens = float(np.mean(ens_aurocs))
    mean_best = float(np.mean(best_aurocs))
    assert mean_ens >= mean_best - 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(
        7,
        "ensemble-vs-best-single",
        f"mean ensemble {mean_ens:.4f} vs best single {mean_best:.4f}, {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 8. score formulas agree with direct reimplementations
# -------------------------------------------------------------------------


def test_criterion_8_formula_oracles():
    started = time.monotonic()
    rng = np.random.default_rng(88)
    models = [
        mi.build_mlp([3, 6, 3], seed=11),
        mi.build_mlp([4, 5, 2], seed=12),
        mi.build_mlp([5, 7, 4], seed=13),
    ]
    delta = 1e-12

    def clamp(v):
        return min(max(v, delta), 1.0 - delta)

    worst = 0.0
    for trial in range(1000):
        model = models[trial % len(models)]
        x = rng.uniform(0, 1, model.input_dim)
        y = int(rng.integers(model.n_classes))
        X, Y = x[None, :], [y]
        (loss,), (probs,), (g_in,) = sample_evaluation(model, X, Y)
        param_grads, _ = mi.backward_gradients(model, x, y)

        # modified entropy, term by term in pure python
        want_mentr = -(1.0 - probs[y]) * math.log(clamp(probs[y]))
        for i, p_i in enumerate(probs):
            if i != y:
                want_mentr -= p_i * math.log(clamp(1.0 - p_i))
        (got,) = mi.mentr_score(model, X, Y)
        worst = max(worst, abs(got + want_mentr))
        assert abs(got + want_mentr) <= 1e-9

        # loss score
        want_loss = -math.log(min(max(probs[y], delta), 1.0))
        (got,) = mi.loss_score(model, X, Y)
        worst = max(worst, abs(got + want_loss))
        assert abs(got + want_loss) <= 1e-9

        # softmax response
        (got,) = mi.softmax_response(model, X)
        worst = max(worst, abs(got - max(float(v) for v in probs)))
        assert abs(got - max(float(v) for v in probs)) <= 1e-9

        # squared parameter-gradient norm
        total = 0.0
        for g in param_grads[0::2] + param_grads[1::2]:
            for v in g.ravel():
                total += float(v) * float(v)
        (got,) = mi.grad_w_norm_score(model, X, Y)
        worst = max(worst, abs(got + total))
        assert abs(got + total) <= 1e-9

        # input-gradient l2 norm (not squared)
        acc = 0.0
        for v in g_in:
            acc += float(v) * float(v)
        (got,) = mi.grad_x_norm_score(model, X, Y)
        worst = max(worst, abs(got + math.sqrt(acc)))
        assert abs(got + math.sqrt(acc)) <= 1e-9

        # the seven gradient statistics
        flat_grad = np.concatenate([g.ravel() for g in param_grads])
        vals = [float(v) for v in flat_grad]
        n = len(vals)
        mean = sum(vals) / n
        m2 = sum((v - mean) ** 2 for v in vals) / n
        if m2 < 1e-24:
            skew = kurt = 0.0
        else:
            skew = (sum((v - mean) ** 3 for v in vals) / n) / m2**1.5
            kurt = (sum((v - mean) ** 4 for v in vals) / n) / m2**2 - 3.0
        stats = dict(zip(GRAD_STAT_NAMES, mi.gradient_statistics(flat_grad[None, :])[0]))
        for got_v, want_v in (
            (stats["l1_norm"], sum(abs(v) for v in vals)),
            (stats["l2_norm"], math.sqrt(sum(v * v for v in vals))),
            (stats["max_value"], max(vals)),
            (stats["mean"], mean),
            (stats["skewness"], skew),
            (stats["kurtosis"], kurt),
            (stats["abs_min"], min(abs(v) for v in vals)),
        ):
            worst = max(worst, abs(got_v - want_v))
            assert abs(got_v - want_v) <= 1e-9

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"
    _announce(8, "score-formula-oracles", f"1000 inputs, worst gap {worst:.1e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 9. the pipeline is byte-deterministic, including under parallelism
# -------------------------------------------------------------------------


def test_criterion_9_pipeline_byte_determinism(tmp_path):
    config = ExperimentConfig(
        {
            "seed": "3",
            "dataset.n_per_class": "8",
            "dataset.classes": "3",
            "dataset.dim": "6",
            "dataset.heldout_per_class": "8",
            "target.hidden_dims": "16",
            "target.epochs": "25",
            "attack.n_iter": "8",
            "strategies": "loss,adv_dist,attacker_ensemble",
            "protocol.repeats": "4",
            "protocol.ratios": "2:1,1:1,1:2",
            "protocol.ratio_repeats": "4",
            "protocol.fpr_grid_points": "21",
        }
    )
    saved = os.environ.pop("MIAUDIT_WORKERS", None)
    try:
        t0 = time.monotonic()
        _, out_a = run_pipeline(config, out_dir=tmp_path / "a")
        first_run = time.monotonic() - t0
        t0 = time.monotonic()
        _, out_b = run_pipeline(config, out_dir=tmp_path / "b")
        os.environ["MIAUDIT_WORKERS"] = "2"
        _, out_c = run_pipeline(config, out_dir=tmp_path / "c")
        rerun_time = time.monotonic() - t0
    finally:
        if saved is None:
            os.environ.pop("MIAUDIT_WORKERS", None)
        else:
            os.environ["MIAUDIT_WORKERS"] = saved

    names = sorted(p.name for p in out_a.iterdir() if p.is_file())
    assert "report.json" in names
    compared = 0
    for name in names:
        blob_a = (out_a / name).read_bytes()
        assert blob_a == (out_b / name).read_bytes(), f"{name} differs across reruns"
        assert blob_a == (out_c / name).read_bytes(), f"{name} differs with 2 workers"
        compared += 1
    payload = json.loads((out_a / "report.json").read_text())
    assert payload["schema_version"] == 1
    assert rerun_time < 2 * first_run + 10.0, (
        f"determinism reruns took {rerun_time:.1f}s vs first run {first_run:.1f}s"
    )
    _announce(
        9,
        "pipeline-byte-determinism",
        f"{compared} files identical across reruns and 2 workers",
    )
