"""ROC construction, threshold selection, and the evaluation protocols."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import miaudit as mi
from miaudit.errors import ConfigError, EvaluationError
from miaudit.evaluation import (
    HistogramResult,
    StrategyRepeats,
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


def spools(member, nonmember):
    return mi.LabeledScoreSet.from_pools(member, nonmember)


class TestScoreSet:
    def test_from_pools_layout(self):
        ss = spools(MEM, NON)
        assert ss.scores.shape == (6,)
        assert list(ss.is_member) == [True] * 3 + [False] * 3

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            mi.LabeledScoreSet.from_arrays(np.zeros(3), np.array([True, False]))

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            mi.LabeledScoreSet.from_arrays(np.array([]), np.array([], dtype=bool))

    def test_non_finite_rejected(self):
        with pytest.raises(EvaluationError):
            spools(np.array([0.1, np.nan]), np.array([0.2]))


class TestRocCurve:
    def test_endpoints_and_monotonicity(self, rng):
        for _ in range(20):
            ss = spools(rng.normal(1, 1, 12), rng.normal(0, 1, 9))
            curve = mi.roc_curve(ss)
            assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
            assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            assert np.all(np.diff(curve.thresholds) < 0)
            assert curve.thresholds[0] == math.inf

    def test_ties_collapse_to_one_point(self):
        # two members and one nonmember share a score; the tie group moves
        # diagonally in a single step
        curve = mi.roc_curve(spools([1.0, 1.0], [1.0, 0.0]))
        assert np.allclose(curve.fpr, [0.0, 0.5, 1.0])
        assert np.allclose(curve.tpr, [0.0, 1.0, 1.0])

    def test_single_class_rejected(self):
        with pytest.raises(EvaluationError):
            mi.roc_curve(mi.LabeledScoreSet.from_arrays(np.array([1.0, 2.0]), np.array([True, True])))


class TestAuroc:
    def test_frozen_example(self):
        assert abs(mi.auroc(spools(MEM, NON)) - 8.0 / 9.0) < 1e-12

    def test_perfect_reversed_chance(self):
        assert mi.auroc(spools([0.8, 0.9], [0.1, 0.2])) == 1.0
        assert mi.auroc(spools([0.1, 0.2], [0.8, 0.9])) == 0.0
        assert mi.auroc(spools([0.5, 0.5], [0.5, 0.5])) == 0.5

    def test_matches_pair_count_oracle(self, rng):
        for _ in range(40):
            m = rng.choice(np.linspace(0, 1, 7), size=int(rng.integers(2, 30)))
            n = rng.choice(np.linspace(0, 1, 7), size=int(rng.integers(2, 30)))
            assert abs(mi.auroc(spools(m, n)) - pair_count_auc(m, n)) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        m=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
        n=st.lists(st.floats(-5, 5), min_size=1, max_size=15),
    )
    def test_negation_symmetry(self, m, n):
        fwd = mi.auroc(spools(m, n))
        rev = mi.auroc(spools([-v for v in m], [-v for v in n]))
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
        base = mi.auroc(spools(m, n))
        moved = mi.auroc(spools([rank[v] for v in m], [rank[v] for v in n]))
        assert abs(base - moved) < 1e-12


class TestBestThreshold:
    def test_frozen_example(self):
        tau, acc = mi.best_threshold_accuracy(spools(MEM, NON))
        assert abs(acc - 5.0 / 6.0) < 1e-12
        assert abs(tau - 0.35) < 1e-12

    def test_smallest_tau_wins_ties(self):
        # boundaries after 0.9 and after the 0.5 tie group both give 0.75
        tau, acc = mi.best_threshold_accuracy(spools([0.9, 0.5], [0.5, 0.1]))
        assert abs(acc - 0.75) < 1e-12
        assert abs(tau - 0.3) < 1e-12

    def test_threshold_reproduces_accuracy(self, rng):
        for _ in range(25):
            m = rng.choice(np.linspace(0, 1, 9), size=int(rng.integers(2, 20)))
            n = rng.choice(np.linspace(0, 1, 9), size=int(rng.integers(2, 20)))
            ss = spools(m, n)
            tau, acc = mi.best_threshold_accuracy(ss)
            preds = np.array([mi.membership_decision(s, tau) for s in ss.scores])
            assert abs(np.mean(preds == ss.is_member) - acc) < 1e-12

    def test_beats_majority_baseline(self, rng):
        for _ in range(10):
            m = rng.normal(0.6, 0.3, 14)
            n = rng.normal(0.4, 0.3, 6)
            _, acc = mi.best_threshold_accuracy(spools(m, n))
            assert acc >= 14.0 / 20.0 - 1e-12

    def test_perfect_separation_inner_threshold(self):
        tau, acc = mi.best_threshold_accuracy(spools([0.9, 0.7], [0.3, 0.1]))
        assert acc == 1.0
        assert abs(tau - 0.5) < 1e-12


class TestDecisionRates:
    def test_known_rates(self):
        bal, fpr, tpr = decision_rates(spools(MEM, NON), 0.35)
        assert tpr == 1.0
        assert abs(fpr - 1.0 / 3.0) < 1e-12
        assert abs(bal - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_extreme_taus(self):
        ss = spools(MEM, NON)
        bal_lo, fpr_lo, tpr_lo = decision_rates(ss, -math.inf)
        assert (tpr_lo, fpr_lo, bal_lo) == (1.0, 1.0, 0.5)
        bal_hi, fpr_hi, tpr_hi = decision_rates(ss, math.inf)
        assert (tpr_hi, fpr_hi, bal_hi) == (0.0, 0.0, 0.5)


class TestHoldoutEval:
    def test_separable_scores_score_perfectly(self, rng):
        m = rng.uniform(0.7, 1.0, 40)
        n = rng.uniform(0.0, 0.3, 40)
        bal, fpr = mi.holdout_threshold_eval(spools(m, n), seed=3)
        assert bal == 1.0 and fpr == 0.0

    def test_fixed_tau_skips_sweep(self, rng):
        m = rng.uniform(0.6, 1.0, 25)
        n = rng.uniform(0.0, 0.4, 25)
        bal, fpr = mi.holdout_threshold_eval(spools(m, n), seed=1, fixed_tau=0.5)
        assert bal == 1.0 and fpr == 0.0
        # a fixed threshold above every score predicts nonmember everywhere
        bal2, fpr2 = mi.holdout_threshold_eval(spools(m, n), seed=1, fixed_tau=2.0)
        assert bal2 == 0.5 and fpr2 == 0.0

    def test_deterministic_and_seed_sensitive(self, rng):
        ss = spools(rng.normal(1, 1, 30), rng.normal(0, 1, 30))
        a = mi.holdout_threshold_eval(ss, seed=5)
        b = mi.holdout_threshold_eval(ss, seed=5)
        assert a == b

    def test_fraction_validation(self, rng):
        ss = spools(rng.normal(1, 1, 10), rng.normal(0, 1, 10))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigError):
                mi.holdout_threshold_eval(ss, holdout_fraction=bad)

    def test_degenerate_split_rejected(self):
        with pytest.raises(EvaluationError):
            mi.holdout_threshold_eval(spools([1.0], [0.0, 0.1]), holdout_fraction=0.8)


class TestAveragedRoc:
    def test_identical_curves_zero_std(self, rng):
        ss = spools(rng.normal(1, 1, 15), rng.normal(0, 1, 15))
        curve = mi.roc_curve(ss)
        grid = default_fpr_grid(51)
        mean, std = mi.averaged_roc_on_grid([curve, curve, curve], grid)
        assert mean.shape == (51,) and std.shape == (51,)
        assert np.all(std < 1e-12)
        assert mean[0] == curve.tpr[np.searchsorted(curve.fpr, 0.0, side="right") - 1]
        assert mean[-1] == 1.0

    def test_duplicate_fpr_keeps_max_tpr(self):
        # the vertical segment at fpr 0 collapses to its top before interp
        curve = mi.roc_curve(spools([0.9, 0.4], [0.7, 0.6]))
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        mean, _ = mi.averaged_roc_on_grid([curve], grid)
        assert np.allclose(mean, [0.5, 0.5, 0.5, 0.75, 1.0], atol=1e-12)

    def test_grid_validation(self, rng):
        curve = mi.roc_curve(spools(rng.normal(1, 1, 5), rng.normal(0, 1, 5)))
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


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            mi.ProtocolConfig(0, 10)
        with pytest.raises(ConfigError):
            mi.ProtocolConfig(10, 10, repeats=0)
        with pytest.raises(ConfigError):
            mi.ProtocolConfig(10, 10, member_subset_size=11)
        with pytest.raises(ConfigError):
            mi.ProtocolConfig(10, 10, ratio=(0, 1))
        with pytest.raises(ConfigError):
            mi.ProtocolConfig(10, 10, holdout_fraction=1.0)

    def test_resolved_subset_size(self):
        assert mi.ProtocolConfig(30, 10).resolved_subset_size() == 10
        assert mi.ProtocolConfig(30, 10, ratio=(2, 1)).resolved_subset_size() == 20
        assert mi.ProtocolConfig(30, 10, member_subset_size=7).resolved_subset_size() == 7
        # caps at the member pool when the ratio wants more
        assert mi.ProtocolConfig(12, 10, ratio=(2, 1)).resolved_subset_size() == 12


class TestRepeatedSubset:
    def _pools(self, rng, n_m=30, n_n=10):
        member = {"a": rng.normal(1, 1, n_m), "b": rng.normal(2, 1, n_m)}
        nonmember = {"a": rng.normal(0, 1, n_n), "b": rng.normal(0, 1, n_n)}
        return member, nonmember

    def test_same_subsets_across_strategies(self, rng):
        member, nonmember = self._pools(rng)
        member["b"] = member["a"].copy()
        nonmember["b"] = nonmember["a"].copy()
        proto = mi.ProtocolConfig(30, 10, repeats=6, seed=4)
        out = mi.repeated_subset_experiment(member, nonmember, proto)
        assert np.array_equal(out["a"].aurocs, out["b"].aurocs)
        assert np.array_equal(out["a"].accuracies, out["b"].accuracies)

    def test_population_std_and_shapes(self, rng):
        member, nonmember = self._pools(rng)
        proto = mi.ProtocolConfig(30, 10, repeats=5, seed=1)
        out = mi.repeated_subset_experiment(member, nonmember, proto)
        for rep in out.values():
            assert rep.aurocs.shape == (5,)
            assert rep.grid_rows.shape == (5, proto.fpr_grid_points)
            assert abs(rep.auroc_std - float(np.std(rep.aurocs))) < 1e-15
            assert abs(rep.auroc_mean - float(np.mean(rep.aurocs))) < 1e-15

    def test_single_repeat_zero_std(self, rng):
        member, nonmember = self._pools(rng)
        proto = mi.ProtocolConfig(30, 10, repeats=1, seed=0)
        out = mi.repeated_subset_experiment(member, nonmember, proto)
        assert out["a"].auroc_std == 0.0

    def test_deterministic(self, rng):
        member, nonmember = self._pools(rng)
        proto = mi.ProtocolConfig(30, 10, repeats=4, seed=9)
        a = mi.repeated_subset_experiment(member, nonmember, proto)
        b = mi.repeated_subset_experiment(member, nonmember, proto)
        assert np.array_equal(a["a"].aurocs, b["a"].aurocs)

    def test_strategy_key_mismatch(self, rng):
        member, nonmember = self._pools(rng)
        del nonmember["b"]
        with pytest.raises(ConfigError):
            mi.repeated_subset_experiment(member, nonmember, mi.ProtocolConfig(30, 10))

    def test_pool_size_mismatch(self, rng):
        member, nonmember = self._pools(rng)
        with pytest.raises(ConfigError):
            mi.repeated_subset_experiment(member, nonmember, mi.ProtocolConfig(29, 10))

    def test_empty_tables(self):
        assert mi.repeated_subset_experiment({}, {}, mi.ProtocolConfig(5, 5)) == {}


class TestRatioRobustness:
    def test_exact_pool_single_shot(self, rng):
        m = rng.normal(1, 1, 20)
        n = rng.normal(0, 1, 20)
        out = mi.ratio_robustness_experiment(m, n, ratios=((1, 1),), repeats=3, seed=0)
        assert set(out) == {"1:1"}
        assert out["1:1"] == mi.auroc(spools(m, n))

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

    @pytest.mark.parametrize("subset", [0, 17, 60])
    def test_repeats_match_a_fresh_sort_of_each_subset(self, rng, subset):
        member, nonmember = self._pools(rng)
        proto = mi.ProtocolConfig(60, 40, member_subset_size=subset, repeats=7, seed=3,
                                  fpr_grid_points=33)
        out = mi.repeated_subset_experiment(member, nonmember, proto)
        grid = default_fpr_grid(33)
        size = proto.resolved_subset_size()
        for name in member:
            rows = []
            for r in range(proto.repeats):
                idx = np.random.default_rng([proto.seed, r]).choice(60, size=size, replace=False)
                sset = spools(member[name][idx], nonmember[name])
                curve = mi.roc_curve(sset)
                rows.append(unique_grid_row(curve, grid))
                assert out[name].aurocs[r] == mi.auroc(sset)
                assert out[name].aurocs[r] == pytest.approx(
                    pair_count_auc(member[name][idx], nonmember[name]), abs=1e-12
                )
                assert out[name].accuracies[r] == mi.best_threshold_accuracy(sset)[1]
            assert out[name].grid_rows.tobytes() == np.vstack(rows).tobytes()

    def test_ratio_draws_match_a_fresh_sort_of_each_draw(self, rng):
        member, nonmember = self._pools(rng)
        ratios = ((3, 1), (2, 1), (1, 1), (1, 4))  # 3:1 takes the whole member pool
        for name in member:
            ms, ns = member[name], nonmember[name][:20]
            out = mi.ratio_robustness_experiment(ms, ns, ratios=ratios, repeats=6, seed=11)
            for a, b in ratios:
                need = int(round(ns.size * a / b))
                if need == ms.size:
                    assert out[f"{a}:{b}"] == mi.auroc(spools(ms, ns))
                    continue
                vals = np.zeros(6)
                for r in range(6):
                    sub = np.random.default_rng([11, a, b, r]).choice(ms.size, size=need, replace=False)
                    vals[r] = mi.auroc(spools(ms[sub], ns))
                assert out[f"{a}:{b}"] == float(vals.mean())

    def test_averaged_roc_matches_the_unique_reduction(self, rng):
        member, nonmember = self._pools(rng)
        grid = default_fpr_grid(41)
        curves = [mi.roc_curve(spools(member[n], nonmember[n])) for n in member]
        mean, std = mi.averaged_roc_on_grid(curves, grid)
        rows = np.vstack([unique_grid_row(c, grid) for c in curves])
        assert mean.tobytes() == rows.mean(axis=0).tobytes()
        assert std.tobytes() == rows.std(axis=0).tobytes()


class TestScoreHistogram:
    def test_counts_and_clamping(self):
        ss = spools([-5.0, 0.2, 0.8, 9.0], [0.5, 0.5])
        hist = mi.score_histogram(ss, 4, (0.0, 1.0))
        assert isinstance(hist, HistogramResult)
        assert hist.member_counts.sum() == 4
        assert hist.nonmember_counts.sum() == 2
        assert hist.member_counts[0] == 2  # -5.0 clamps into the first bin
        assert hist.member_counts[-1] == 2  # 9.0 clamps into the last bin
        assert hist.nonmember_counts[2] == 2
        assert hist.edges.shape == (5,)

    def test_validation(self):
        ss = spools([0.1], [0.9])
        with pytest.raises(ConfigError):
            mi.score_histogram(ss, 0, (0, 1))
        with pytest.raises(ConfigError):
            mi.score_histogram(ss, 4, (1, 1))
        with pytest.raises(ConfigError):
            mi.score_histogram(ss, 4, (0, math.inf))


class TestStrategyRepeats:
    def test_mean_std_fields(self):
        rep = StrategyRepeats(np.array([0.5, 0.7]), np.array([0.6, 0.8]), [])
        assert rep.auroc_mean == pytest.approx(0.6)
        assert rep.auroc_std == pytest.approx(0.1)
        assert rep.accuracy_mean == pytest.approx(0.7)
        assert rep.accuracy_std == pytest.approx(0.1)
