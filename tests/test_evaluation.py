"""ROC construction, threshold selection, and the evaluation protocols."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miaudit as mi
from miaudit.cli_runner.config import ExperimentConfig, stage_seed
from miaudit.cli_runner.pipeline import _pool_plan, build_report
from miaudit.errors import ConfigError, EvaluationError
from miaudit.evaluation import (
    DEFAULT_FPR_GRID_POINTS,
    HistogramResult,
    _SortedPools,
    decision_rates,
    default_fpr_grid,
)

MEM = np.array([0.9, 0.8, 0.4])
NON = np.array([0.7, 0.3, 0.1])


def pair_count_auc(member, nonmember):
    """Independent oracle: P(member > nonmember) + 0.5 P(tie)."""
    m = np.asarray(member)[:, None]
    n = np.asarray(nonmember)[None, :]
    wins = np.sum(m > n, dtype=np.float64)
    ties = np.sum(m == n, dtype=np.float64)
    return (wins + 0.5 * ties) / (m.size * n.size)


def pool_entry_points(member, nonmember):
    """Call every evaluation function that takes the two score pools."""
    yield lambda: mi.roc_curve(member, nonmember)
    yield lambda: mi.auroc(member, nonmember)
    yield lambda: mi.best_threshold_accuracy(member, nonmember)
    yield lambda: decision_rates(member, nonmember, 0.5)
    yield lambda: mi.holdout_threshold_eval(member, nonmember)
    yield lambda: mi.score_histogram(member, nonmember, 4, (0.0, 1.0))
    yield lambda: mi.ratio_robustness_experiment(member, nonmember, ratios=((1, 1),))


class TestScoreSet:
    """Every evaluation function takes (member scores, nonmember scores)
    and checks both pools alike."""

    def test_empty_rejected(self):
        for member, nonmember in (([], []), ([], [0.2, 0.3]), ([0.1, 0.4], [])):
            for call in pool_entry_points(np.array(member), np.array(nonmember)):
                with pytest.raises(EvaluationError):
                    call()

    def test_non_finite_rejected(self):
        good = np.linspace(0.1, 0.9, 5)
        for bad in (np.nan, np.inf, -np.inf):
            for member, nonmember in ((np.append(good, bad), good), (good, np.append(good, bad))):
                for call in pool_entry_points(member, nonmember):
                    with pytest.raises(EvaluationError):
                        call()


class TestRocCurve:
    def test_endpoints_and_monotonicity(self, rng):
        for _ in range(20):
            curve = mi.roc_curve(rng.normal(1, 1, 12), rng.normal(0, 1, 9))
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert np.all(np.diff(curve.thresholds) < 0)
            assert curve.thresholds[0] == math.inf

    def test_ties_collapse_to_one_point(self):
        # two members and one nonmember share a score; the tie group moves
        # diagonally in a single step
        curve = mi.roc_curve([1.0, 1.0], [1.0, 0.0])
        assert np.allclose(curve.fpr, [0.0, 0.5, 1.0])
        assert np.allclose(curve.tpr, [0.0, 1.0, 1.0])

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            mi.roc_curve(np.array([1.0, 2.0]), np.array([]))


class TestAuroc:
    def test_frozen_example(self):
        assert abs(mi.auroc(MEM, NON) - 8.0 / 9.0) < 1e-12

    def test_perfect_reversed_chance(self):
        assert mi.auroc([0.8, 0.9], [0.1, 0.2]) == 1.0
        assert mi.auroc([0.1, 0.2], [0.8, 0.9]) == 0.0
        assert mi.auroc([0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_matches_pair_count_oracle(self, rng):
        for _ in range(40):
            m = rng.choice(np.linspace(0, 1, 7), size=int(rng.integers(2, 30)))
            n = rng.choice(np.linspace(0, 1, 7), size=int(rng.integers(2, 30)))
            assert abs(mi.auroc(m, n) - pair_count_auc(m, n)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
        n=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
    )
    def test_negation_symmetry(self, m, n):
        fwd = mi.auroc(m, n)
        rev = mi.auroc([-v for v in m], [-v for v in n])
        assert abs(fwd + rev - 1.0) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
        n=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
    )
    def test_monotone_transform_invariance(self, m, n):
        # replace scores by their ranks: strictly monotone, tie-preserving
        levels = np.unique(np.concatenate([m, n]))
        rank = {v: i for i, v in enumerate(levels)}
        base = mi.auroc(m, n)
        moved = mi.auroc([rank[v] for v in m], [rank[v] for v in n])
        assert abs(base - moved) < 1e-12


class TestBestThreshold:
    def test_frozen_example(self):
        tau, acc = mi.best_threshold_accuracy(MEM, NON)
        assert abs(acc - 5.0 / 6.0) < 1e-12
        assert abs(tau - 0.35) < 1e-12

    def test_smallest_tau_wins_ties(self):
        # boundaries after 0.9 and after the 0.5 tie group both give 0.75
        tau, acc = mi.best_threshold_accuracy([0.9, 0.5], [0.5, 0.1])
        assert abs(acc - 0.75) < 1e-12
        assert abs(tau - 0.3) < 1e-12

    def test_threshold_reproduces_accuracy(self, rng):
        for _ in range(25):
            m = rng.choice(np.linspace(0, 1, 9), size=int(rng.integers(2, 20)))
            n = rng.choice(np.linspace(0, 1, 9), size=int(rng.integers(2, 20)))
            tau, acc = mi.best_threshold_accuracy(m, n)
            preds = np.array([mi.membership_decision(s, tau) for s in np.concatenate([m, n])])
            truth = np.arange(m.size + n.size) < m.size
            assert abs(np.mean(preds == truth) - acc) < 1e-12

    def test_beats_majority_baseline(self, rng):
        for _ in range(10):
            m = rng.normal(0.6, 0.3, 14)
            n = rng.normal(0.4, 0.3, 6)
            _, acc = mi.best_threshold_accuracy(m, n)
            assert acc >= 14.0 / 20.0 - 1e-12

    def test_perfect_separation_inner_threshold(self):
        tau, acc = mi.best_threshold_accuracy([0.9, 0.7], [0.3, 0.1])
        assert acc == 1.0
        assert abs(tau - 0.5) < 1e-12


class TestDecisionRates:
    def test_known_rates(self):
        bal, fpr, tpr = decision_rates(MEM, NON, 0.35)
        assert tpr == 1.0
        assert abs(fpr - 1.0 / 3.0) < 1e-12
        assert abs(bal - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_extreme_taus(self):
        bal_lo, fpr_lo, tpr_lo = decision_rates(MEM, NON, -math.inf)
        assert (tpr_lo, fpr_lo, bal_lo) == (1.0, 1.0, 0.5)
        bal_hi, fpr_hi, tpr_hi = decision_rates(MEM, NON, math.inf)
        assert (tpr_hi, fpr_hi, bal_hi) == (0.0, 0.0, 0.5)


def mask_holdout_eval(member, nonmember, fraction, seed, fixed_tau):
    """Reference for holdout_threshold_eval on one concatenated score vector
    and a membership mask: each class's indices are found with np.nonzero
    and permuted, members first; tau comes from a stable sort of the
    selection side and a sweep of its tie groups."""
    scores = np.concatenate([member, nonmember]).astype(np.float64)
    mask = np.arange(scores.size) < len(member)
    rng = np.random.default_rng(seed)
    sel, ev = [], []
    for cls in (True, False):
        idx = np.nonzero(mask == cls)[0]
        idx = idx[rng.permutation(idx.shape[0])]
        cut = int(round(fraction * idx.shape[0]))
        sel.append(idx[:cut])
        ev.append(idx[cut:])
    sel, ev = np.concatenate(sel), np.concatenate(ev)
    if fixed_tau is None:
        order = np.argsort(-scores[sel], kind="stable")
        ss, mm = scores[sel][order], mask[sel][order]
        ends = np.append(np.nonzero(np.diff(ss) != 0)[0], ss.shape[0] - 1)
        members = np.cumsum(mm)[ends]
        tp = np.concatenate([[0], members]).astype(np.float64)
        fp = np.concatenate([[0], ends + 1 - members]).astype(np.float64)
        boundaries = np.concatenate([[0], ends + 1])
        rate = 0.5 * (tp / tp[-1] + (fp[-1] - fp) / fp[-1])
        j = int(boundaries[np.nonzero(rate == rate.max())[0][-1]])
        if j == 0:
            tau = math.inf
        elif j == ss.shape[0]:
            tau = -math.inf
        else:
            tau = float(0.5 * (ss[j - 1] + ss[j]))
    else:
        tau = float(fixed_tau)
    pred = scores[ev] >= tau
    tpr = float(pred[mask[ev]].mean())
    fpr = float(pred[~mask[ev]].mean())
    return 0.5 * (tpr + (1.0 - fpr)), fpr


class TestHoldoutEval:
    def test_separable_scores_score_perfectly(self, rng):
        m = rng.uniform(0.7, 1.0, 40)
        n = rng.uniform(0.0, 0.3, 40)
        bal, fpr = mi.holdout_threshold_eval(m, n, seed=3)
        assert bal == 1.0 and fpr == 0.0

    def test_fixed_tau_skips_sweep(self, rng):
        m = rng.uniform(0.6, 1.0, 25)
        n = rng.uniform(0.0, 0.4, 25)
        bal, fpr = mi.holdout_threshold_eval(m, n, seed=1, fixed_tau=0.5)
        assert bal == 1.0 and fpr == 0.0
        # a fixed threshold above every score predicts nonmember everywhere
        bal2, fpr2 = mi.holdout_threshold_eval(m, n, seed=1, fixed_tau=2.0)
        assert bal2 == 0.5 and fpr2 == 0.0

    def test_deterministic_and_seed_sensitive(self, rng):
        pools = rng.normal(1, 1, 30), rng.normal(0, 1, 30)
        a = mi.holdout_threshold_eval(*pools, seed=5)
        b = mi.holdout_threshold_eval(*pools, seed=5)
        assert a == b

    def test_fraction_validation(self, rng):
        pools = rng.normal(1, 1, 10), rng.normal(0, 1, 10)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                mi.holdout_threshold_eval(*pools, holdout_fraction=bad)

    def test_threshold_between_huge_scores(self):
        # the two scores sum past float64's maximum
        assert mi.holdout_threshold_eval(np.full(10, 1.7e308), np.full(10, 1.5e308), 0.5, 0) == (1.0, 0.0)

    def test_degenerate_split_rejected(self):
        with pytest.raises(EvaluationError):
            mi.holdout_threshold_eval([1.0], [0.0, 0.1], holdout_fraction=0.8)

    @pytest.mark.parametrize("fixed_tau", [None, 0.5])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_mask_based_protocol(self, rng, ties, fixed_tau):
        for seed in range(25):
            m = rng.normal(0.6, 0.3, int(rng.integers(3, 40)))
            n = rng.normal(0.4, 0.3, int(rng.integers(3, 40)))
            if ties:
                m, n = np.round(m, 1), np.round(n, 1)
            fraction = float(rng.choice([0.5, 0.7, 0.8]))
            got = mi.holdout_threshold_eval(m, n, fraction, seed, fixed_tau=fixed_tau)
            want = mask_holdout_eval(m, n, fraction, seed, fixed_tau)
            assert np.array(got).tobytes() == np.array(want).tobytes()


class TestAveragedRoc:
    def test_identical_curves_zero_std(self, rng):
        curve = mi.roc_curve(rng.normal(1, 1, 15), rng.normal(0, 1, 15))
        grid = default_fpr_grid(51)
        mean, std = mi.averaged_roc_on_grid([curve, curve, curve], grid)
        assert mean.shape == (51,) and std.shape == (51,)
        assert np.all(std < 1e-12)
        assert mean[0] == curve.tpr[np.searchsorted(curve.fpr, 0.0, side="right") - 1]
        assert mean[-1] == 1.0

    def test_duplicate_fpr_keeps_max_tpr(self):
        # the vertical segment at fpr 0 collapses to its top before interp
        curve = mi.roc_curve([0.9, 0.4], [0.7, 0.6])
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        mean, _ = mi.averaged_roc_on_grid([curve], grid)
        assert np.allclose(mean, [0.5, 0.5, 0.5, 0.75, 1.0], atol=1e-12)

    def test_grid_validation(self, rng):
        curve = mi.roc_curve(rng.normal(1, 1, 5), rng.normal(0, 1, 5))
        with pytest.raises(ConfigError):
            mi.averaged_roc_on_grid([curve], np.array([0.5, 0.4]))
        with pytest.raises(ConfigError):
            mi.averaged_roc_on_grid([curve], np.array([-0.1, 0.5]))
        with pytest.raises(ConfigError):
            mi.averaged_roc_on_grid([curve], np.array([]))
        with pytest.raises(ConfigError):
            mi.averaged_roc_on_grid([], default_fpr_grid(11))

    def test_default_grid(self):
        grid = default_fpr_grid()
        assert grid.shape == (201,)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        with pytest.raises(ConfigError):
            default_fpr_grid(1)


def subset_size(n_m, n_n, member_subset_size=0):
    """Members per draw that the default config's rule gives these pools."""
    cfg = ExperimentConfig({"protocol.member_subset_size": str(member_subset_size)})
    return cfg.member_subset_size(n_m, n_n)


def analysis1_report(member, nonmember, subset, repeats):
    """build_report's analysis1 section and ROC grid of each strategy, with
    `subset` members per draw, and the experiment run that it reports."""
    cfg = ExperimentConfig({
        "strategies": ",".join(member),
        "protocol.ratio_strategies": "",
        "protocol.member_subset_size": str(subset),
        "protocol.repeats": str(repeats),
    })
    report = build_report(cfg, member, nonmember, {}, {}, {})
    out = mi.repeated_subset_experiment(member, nonmember, subset, repeats, stage_seed(cfg.seed, "analysis1"))
    sections = {name: report.strategies[name]["analysis1"] for name in member}
    return out, sections, report.roc_grids


class TestProtocolConfig:
    """The `protocol` section's rule for the members per draw of analysis1."""

    def test_resolved_subset_size(self):
        def resolved(n_m, n_n, ratio="1:1", member_subset_size=0):
            cfg = ExperimentConfig({
                "protocol.ratio": ratio,
                "protocol.member_subset_size": str(member_subset_size),
            })
            return cfg.member_subset_size(n_m, n_n)

        assert resolved(30, 10) == 10
        assert resolved(30, 10, ratio="2:1") == 20
        assert resolved(30, 10, member_subset_size=7) == 7
        # caps at the member pool when the ratio wants more
        assert resolved(12, 10, ratio="2:1") == 12


class TestPoolPlan:
    """`_pool_plan`, the one pool-size check of analysis1 and the ratio sweep,
    against the experiments it plans on every pair of pool sizes 1..30."""

    @pytest.mark.parametrize(
        "settings",
        [
            {},
            {"protocol.ratio": "1:3", "protocol.ratios": "1:1,1:10"},
            {"protocol.ratio": "5:2", "protocol.ratios": "10:1,1:1"},
            {"protocol.ratio": "1:20", "protocol.ratios": "3:7,7:3"},
            {"protocol.member_subset_size": "7", "protocol.ratios": "20:1,1:1"},
            {"protocol.member_subset_size": "40", "protocol.ratio_strategies": ""},
        ],
        ids=["defaults", "few_members", "many_members", "odd_ratios", "fixed_subset", "no_sweep"],
    )
    def test_plans_what_the_experiments_run(self, rng, settings):
        cfg = ExperimentConfig({
            "strategies": "loss,softmax", "protocol.ratio_strategies": "loss",
            "protocol.repeats": "2", "protocol.ratio_repeats": "2", **settings,
        })
        outcomes = set()
        for n_m in range(1, 31):
            for n_n in range(1, 31):
                member = {"loss": rng.normal(1, 1, n_m), "softmax": rng.normal(1, 1, n_m)}
                nonmember = {"loss": rng.normal(0, 1, n_n), "softmax": rng.normal(0, 1, n_n)}
                try:
                    size, base = _pool_plan(cfg, n_m, n_n)
                except ConfigError as exc:
                    with pytest.raises(ConfigError) as raised:
                        build_report(cfg, member, nonmember, {}, {}, {})
                    assert str(raised.value) == str(exc)
                    outcomes.add(str(exc).split("]")[0] + "]")
                    continue
                mi.repeated_subset_experiment(member, nonmember, size, 2)
                assert (base is None) == (not cfg.ratio_strategies())
                if base is not None:
                    mi.ratio_robustness_experiment(member["loss"], nonmember["loss"][:base], cfg.ratios(), 2)
                outcomes.add("planned")
        # every setting plans some pools; those with a sweep also reject some
        assert "planned" in outcomes
        assert len(outcomes) > 1 or not cfg.ratio_strategies()


class TestRepeatedSubset:
    def _pools(self, rng, n_m=30, n_n=10):
        member = {"loss": rng.normal(1, 1, n_m), "softmax": rng.normal(2, 1, n_m)}
        nonmember = {"loss": rng.normal(0, 1, n_n), "softmax": rng.normal(0, 1, n_n)}
        return member, nonmember

    def test_same_subsets_across_strategies(self, rng):
        member, nonmember = self._pools(rng)
        member["softmax"] = member["loss"].copy()
        nonmember["softmax"] = nonmember["loss"].copy()
        out = mi.repeated_subset_experiment(member, nonmember, 10, 6, seed=4)
        for a, b in zip(out["loss"], out["softmax"]):
            assert np.array_equal(a, b)

    def test_population_std_and_shapes(self, rng):
        member, nonmember = self._pools(rng)
        out, sections, _ = analysis1_report(member, nonmember, 10, 5)
        for name, (aurocs, accuracies, grid_rows) in out.items():
            assert aurocs.shape == accuracies.shape == (5,)
            assert grid_rows.shape == (5, DEFAULT_FPR_GRID_POINTS)
            sec = sections[name]
            assert (sec["repeats"], sec["member_subset_size"]) == (5, 10)
            assert abs(sec["auroc_std"] - float(np.std(aurocs))) < 1e-15
            assert abs(sec["auroc_mean"] - float(np.mean(aurocs))) < 1e-15
            assert abs(sec["accuracy_std"] - float(np.std(accuracies))) < 1e-15
            assert abs(sec["accuracy_mean"] - float(np.mean(accuracies))) < 1e-15
            assert sec["aurocs"] == aurocs.tolist() and sec["accuracies"] == accuracies.tolist()

    def test_single_repeat_zero_std(self, rng):
        member, nonmember = self._pools(rng)
        out, sections, _ = analysis1_report(member, nonmember, 10, 1)
        assert out["loss"][0].shape == (1,)
        assert sections["loss"]["auroc_std"] == 0.0
        assert sections["loss"]["accuracy_std"] == 0.0

    def test_deterministic(self, rng):
        member, nonmember = self._pools(rng)
        a = mi.repeated_subset_experiment(member, nonmember, 10, 4, seed=9)
        b = mi.repeated_subset_experiment(member, nonmember, 10, 4, seed=9)
        for name in member:
            for x, y in zip(a[name], b[name]):
                assert x.tobytes() == y.tobytes()

    def test_strategy_key_mismatch(self, rng):
        member, nonmember = self._pools(rng)
        del nonmember["softmax"]
        with pytest.raises(ConfigError, match="different strategies"):
            mi.repeated_subset_experiment(member, nonmember, 10, 20)

    def test_pool_size_mismatch(self, rng):
        for side in (0, 1):  # one pool length per side
            pools = self._pools(rng)
            pools[side]["softmax"] = pools[side]["softmax"][:-1]
            with pytest.raises(ConfigError, match="differ in length"):
                mi.repeated_subset_experiment(*pools, 9, 20)

    @pytest.mark.parametrize(
        "subset, repeats, message",
        [(0, 20, "subset size 0"), (31, 20, "subset size 31"), (10, 0, "repeats")],
        ids=["subset_0", "subset_over_pool", "repeats_0"],
    )
    def test_argument_checks(self, rng, subset, repeats, message):
        member, nonmember = self._pools(rng)
        with pytest.raises(ConfigError, match=message):
            mi.repeated_subset_experiment(member, nonmember, subset, repeats)

    def test_empty_tables(self):
        assert mi.repeated_subset_experiment({}, {}, 5, 20) == {}

    @pytest.mark.parametrize(
        "n_n, member_subset_size, sweeps_per_strategy",
        [
            (10, 0, 6),  # derived: 10 of 30
            (10, 29, 6),
            (10, 30, 1),
            (40, 0, 1),  # derived: the whole pool
        ],
        ids=["derived_subset", "proper_subset", "whole_pool", "derived_whole_pool"],
    )
    def test_whole_pool_is_swept_once(self, rng, monkeypatch, n_n, member_subset_size, sweeps_per_strategy):
        member, nonmember = self._pools(rng, n_m=30, n_n=n_n)
        size = subset_size(30, n_n, member_subset_size)
        calls = []
        sweep = _SortedPools.sweep

        def counted(pools, member_idx=None):
            calls.append(member_idx)
            return sweep(pools, member_idx)

        monkeypatch.setattr(_SortedPools, "sweep", counted)
        mi.repeated_subset_experiment(member, nonmember, size, 6)
        assert len(calls) == sweeps_per_strategy * len(member)
        monkeypatch.undo()
        out, sections, grids = analysis1_report(member, nonmember, size, 6)
        for name, (aurocs, accuracies, grid_rows) in out.items():
            assert aurocs.shape == accuracies.shape == (sweeps_per_strategy,)
            assert grid_rows.shape == (sweeps_per_strategy, DEFAULT_FPR_GRID_POINTS)
            sec, (_, tpr_mean, tpr_std) = sections[name], grids[name]
            # every repeat is listed, each draw once per repeat it stands for
            assert sec["aurocs"] == np.repeat(aurocs, 6 // sweeps_per_strategy).tolist()
            assert sec["accuracies"] == np.repeat(accuracies, 6 // sweeps_per_strategy).tolist()
            if sweeps_per_strategy == 1:
                assert (sec["auroc_mean"], sec["auroc_std"]) == (aurocs[0], 0.0)
                assert (sec["accuracy_mean"], sec["accuracy_std"]) == (accuracies[0], 0.0)
                assert tpr_mean.tobytes() == grid_rows[0].tobytes()
                assert not np.any(tpr_std)
            else:
                assert sec["auroc_mean"] == float(np.mean(aurocs))
                assert sec["auroc_std"] == float(np.std(aurocs))
                assert sec["accuracy_mean"] == float(np.mean(accuracies))
                assert sec["accuracy_std"] == float(np.std(accuracies))
                assert tpr_mean.tobytes() == grid_rows.mean(axis=0).tobytes()
                assert tpr_std.tobytes() == grid_rows.std(axis=0).tobytes()


class TestRatioRobustness:
    def test_exact_pool_single_shot(self, rng):
        m = rng.normal(1, 1, 20)
        n = rng.normal(0, 1, 20)
        out = mi.ratio_robustness_experiment(m, n, ratios=((1, 1),), repeats=3, seed=0)
        assert set(out) == {"1:1"}
        assert out["1:1"] == mi.auroc(m, n)

    def test_subsampled_mean_bounded(self, rng):
        m = rng.normal(1, 1, 100)
        n = rng.normal(0, 1, 20)
        out = mi.ratio_robustness_experiment(
            m, n, ratios=((5, 1), (1, 1), (1, 5)), repeats=8, seed=2
        )
        assert set(out) == {"5:1", "1:1", "1:5"}
        for v in out.values():
            assert 0.0 <= v <= 1.0

    def test_infeasible_ratio_rejected(self, rng):
        m = rng.normal(1, 1, 20)
        n = rng.normal(0, 1, 20)
        with pytest.raises(ConfigError):
            mi.ratio_robustness_experiment(m, n, ratios=((5, 1),))

    def test_tiny_ratio_leaves_no_members(self, rng):
        m = rng.normal(1, 1, 5)
        n = rng.normal(0, 1, 2)
        with pytest.raises(ConfigError):
            mi.ratio_robustness_experiment(m, n, ratios=((1, 5),))

    def test_deterministic(self, rng):
        m = rng.normal(1, 1, 50)
        n = rng.normal(0, 1, 10)
        a = mi.ratio_robustness_experiment(m, n, ratios=((2, 1),), repeats=5, seed=7)
        b = mi.ratio_robustness_experiment(m, n, ratios=((2, 1),), repeats=5, seed=7)
        assert a == b


def unique_grid_row(curve, grid):
    """A curve's TPR on the grid, reduced with np.unique and searchsorted:
    the highest TPR at each distinct FPR, linearly interpolated."""
    uniq = np.unique(curve.fpr)
    idx = np.searchsorted(curve.fpr, uniq, side="right") - 1
    return np.interp(grid, uniq, curve.tpr[idx])


class TestSortOnceOracle:
    """The protocols sort each pool once and sweep it filtered per draw;
    every draw must be bitwise what a fresh sort of its own subset gives."""

    def _pools(self, rng, n_m=60, n_n=40):
        def streams(n, shift):
            z = rng.normal(shift, 1, n)
            return {
                "coarse": np.round(z, 1),  # many ties across both pools
                "clipped": np.clip(0.45 + 0.3 * z, 0.0, 1.0),  # ties at both ends
                "signed_zero": np.where(z < 0, -0.0, np.where(z > 1, 0.0, z)),
                "smooth": z,
            }

        return streams(n_m, 0.5), streams(n_n, 0.0)

    @pytest.mark.parametrize(
        "n_m, n_n, subset",
        [
            pytest.param(60, 40, 0, id="0"),  # derived: 40 of 60
            pytest.param(60, 40, 17, id="17"),
            pytest.param(60, 40, 60, id="60"),  # the whole pool, set explicitly
            pytest.param(40, 60, 0, id="derived_whole_pool"),  # 40 of 40, as in the default audit
        ],
    )
    def test_repeats_match_a_fresh_sort_of_each_subset(self, rng, n_m, n_n, subset):
        member, nonmember = self._pools(rng, n_m, n_n)
        size = subset_size(n_m, n_n, subset)
        out = mi.repeated_subset_experiment(member, nonmember, size, 7, seed=3, fpr_grid_points=33)
        grid = default_fpr_grid(33)
        draws = 1 if size == n_m else 7  # the whole pool is one draw
        for name in member:
            aurocs, accuracies, grid_rows = out[name]
            assert aurocs.shape == (draws,)
            rows = []
            for r in range(draws):
                idx = np.random.default_rng([3, r]).choice(n_m, size=size, replace=False)
                pools = member[name][idx], nonmember[name]
                curve = mi.roc_curve(*pools)
                rows.append(unique_grid_row(curve, grid))
                assert aurocs[r] == mi.auroc(*pools)
                assert aurocs[r] == pytest.approx(
                    pair_count_auc(member[name][idx], nonmember[name]), abs=1e-12
                )
                assert accuracies[r] == mi.best_threshold_accuracy(*pools)[1]
            assert grid_rows.tobytes() == np.vstack(rows).tobytes()

    def test_ratio_draws_match_a_fresh_sort_of_each_draw(self, rng):
        member, nonmember = self._pools(rng)
        ratios = ((3, 1), (2, 1), (1, 1), (1, 4))  # 3:1 takes the whole member pool
        for name in member:
            ms, ns = member[name], nonmember[name][:20]
            out = mi.ratio_robustness_experiment(ms, ns, ratios=ratios, repeats=6, seed=11)
            for a, b in ratios:
                need = int(round(ns.size * a / b))
                if need == ms.size:
                    assert out[f"{a}:{b}"] == mi.auroc(ms, ns)
                    continue
                vals = np.zeros(6)
                for r in range(6):
                    sub = np.random.default_rng([11, a, b, r]).choice(ms.size, size=need, replace=False)
                    vals[r] = mi.auroc(ms[sub], ns)
                assert out[f"{a}:{b}"] == float(vals.mean())

    def test_averaged_roc_matches_the_unique_reduction(self, rng):
        member, nonmember = self._pools(rng)
        grid = default_fpr_grid(41)
        curves = [mi.roc_curve(member[n], nonmember[n]) for n in member]
        mean, std = mi.averaged_roc_on_grid(curves, grid)
        rows = np.vstack([unique_grid_row(c, grid) for c in curves])
        assert mean.tobytes() == rows.mean(axis=0).tobytes()
        assert std.tobytes() == rows.std(axis=0).tobytes()


class TestScoreHistogram:
    def test_counts_and_clamping(self):
        hist = mi.score_histogram([-5.0, 0.2, 0.8, 9.0], [0.5, 0.5], 4, (0.0, 1.0))
        assert isinstance(hist, HistogramResult)
        assert hist.member_counts.sum() == 4
        assert hist.nonmember_counts.sum() == 2
        assert hist.member_counts[0] == 2  # -5.0 clamps into the first bin
        assert hist.member_counts[-1] == 2  # 9.0 clamps into the last bin
        assert hist.nonmember_counts[2] == 2
        assert hist.edges.shape == (5,)

    def test_matches_np_histogram_of_the_clipped_scores(self, rng):
        for _ in range(20):
            m = rng.normal(0.6, 0.4, int(rng.integers(1, 60)))
            n = np.round(rng.normal(0.4, 0.4, int(rng.integers(1, 60))), 1)
            n_bins = int(rng.integers(1, 12))
            lo, hi = sorted(rng.uniform(-0.5, 1.5, 2))
            hist = mi.score_histogram(m, n, n_bins, (lo, hi))
            clipped = np.clip(np.concatenate([m, n]), lo, hi)
            member = np.arange(clipped.size) < m.size
            want_m, edges = np.histogram(clipped[member], bins=n_bins, range=(lo, hi))
            want_n, _ = np.histogram(clipped[~member], bins=n_bins, range=(lo, hi))
            assert hist.edges.tobytes() == edges.tobytes()
            assert hist.member_counts.tobytes() == want_m.astype(np.int64).tobytes()
            assert hist.nonmember_counts.tobytes() == want_n.astype(np.int64).tobytes()

    def test_range_wider_than_float64(self):
        # hi - lo overflows: the edges are those of the halved range, doubled
        hist = mi.score_histogram([-1e308, 3e307], [1e308, 1e308], 4, (-1e308, 1e308))
        assert hist.edges.tobytes() == (np.linspace(-5e307, 5e307, 5) * 2).tobytes()
        assert (hist.edges[0], hist.edges[-1]) == (-1e308, 1e308)
        assert (np.diff(hist.edges / 2) > 0).all()
        assert hist.member_counts.tolist() == [1, 0, 1, 0]
        assert hist.nonmember_counts.tolist() == [0, 0, 0, 2]

    def test_validation(self):
        pools = [0.1], [0.9]
        with pytest.raises(ConfigError):
            mi.score_histogram(*pools, 0, (0, 1))
        with pytest.raises(ConfigError):
            mi.score_histogram(*pools, 4, (1, 1))
        with pytest.raises(ConfigError):
            mi.score_histogram(*pools, 4, (0, math.inf))


class TestStrategyRepeats:
    """The per-strategy statistics that the report takes over the draws."""

    def test_mean_std_fields(self, rng, monkeypatch):
        import miaudit.cli_runner.pipeline as pipeline

        def two_draws(member, nonmember, *args):
            grid_rows = np.zeros((2, DEFAULT_FPR_GRID_POINTS))
            return {name: (np.array([0.5, 0.7]), np.array([0.6, 0.8]), grid_rows) for name in member}

        monkeypatch.setattr(pipeline, "repeated_subset_experiment", two_draws)
        member, nonmember = {"loss": rng.normal(1, 1, 30)}, {"loss": rng.normal(0, 1, 10)}
        cfg = ExperimentConfig({
            "strategies": "loss", "protocol.ratio_strategies": "", "protocol.repeats": "2",
        })
        sec = build_report(cfg, member, nonmember, {}, {}, {}).strategies["loss"]["analysis1"]
        assert sec["auroc_mean"] == pytest.approx(0.6)
        assert sec["auroc_std"] == pytest.approx(0.1)
        assert sec["accuracy_mean"] == pytest.approx(0.7)
        assert sec["accuracy_std"] == pytest.approx(0.1)
