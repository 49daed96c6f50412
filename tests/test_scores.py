"""Per-sample membership scores: formulas, orientation, CSV round trips."""

import math

import numpy as np
import pytest

import miaudit as mi
from miaudit.errors import DataError
from miaudit.nn_core import classification_accuracy
from miaudit.scores import read_score_records, write_score_records
from test_nn_core import make_blobs


def fixed_prob_model(probs):
    """Zero-weight net whose bias logits reproduce the given distribution."""
    probs = np.asarray(probs, dtype=np.float64)
    logits = np.where(probs > 0, np.log(np.maximum(probs, 1e-300)), -800.0)
    k = probs.shape[0]
    return mi.MLPClassifier(
        [1, k],
        [np.zeros((1, k))],
        [logits],
    )


X0 = np.array([0.3])


class TestModifiedEntropy:
    def test_frozen_example(self):
        model = fixed_prob_model([0.7, 0.2, 0.1])
        got = mi.modified_entropy(model, X0, 0)
        want = 0.3 * -math.log(0.7) + 0.2 * -math.log(0.8) + 0.1 * -math.log(0.9)
        assert abs(got - want) < 1e-12
        assert abs(mi.mentr_score(model, X0, 0) + 0.16217) < 1e-4

    def test_confident_correct_is_zero(self):
        model = fixed_prob_model([1.0, 0.0])
        assert mi.forward_predict(model, X0)[0] == 1.0
        assert mi.modified_entropy(model, X0, 0) == 0.0

    def test_confident_wrong_is_large(self):
        model = fixed_prob_model([1.0, 0.0])
        assert mi.mentr_score(model, X0, 1) <= -25.0

    def test_nonnegative(self, tiny_model, rng):
        for _ in range(30):
            x = rng.uniform(0, 1, 4)
            assert mi.modified_entropy(model=tiny_model, x=x, y=int(rng.integers(3))) >= 0.0


class TestSimpleScores:
    def test_softmax_response_range(self, tiny_model, rng):
        for _ in range(20):
            s = mi.softmax_response(tiny_model, rng.uniform(0, 1, 4))
            assert 1.0 / 3 - 1e-12 <= s <= 1.0

    def test_softmax_response_is_max_prob(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        assert mi.softmax_response(tiny_model, x) == float(
            np.max(mi.forward_predict(tiny_model, x))
        )

    def test_loss_score_is_negated_loss(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        loss = mi.cross_entropy_loss(mi.forward_predict(tiny_model, x), 1)
        assert mi.loss_score(tiny_model, x, 1) == -loss

    def test_grad_w_score_is_negated_squared_norm(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        grads, _ = mi.backward_gradients(tiny_model, x, 2)
        total = 0.0
        for g in grads:
            total += float(np.sum(np.square(g)))
        assert abs(mi.grad_w_norm_score(tiny_model, x, 2) + total) < 1e-12

    def test_grad_x_score_is_negated_l2_not_squared(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        _, g_in = mi.backward_gradients(tiny_model, x, 0)
        norm = float(np.sqrt(np.sum(np.square(g_in))))
        assert abs(mi.grad_x_norm_score(tiny_model, x, 0) + norm) < 1e-12

    def test_adv_dist_score_in_budget(self, tiny_model, rng):
        cfg = mi.AttackConfig(p=math.inf, epsilon=0.5, n_iter=10, seed=0)
        for _ in range(10):
            s = mi.adv_dist_score(tiny_model, rng.uniform(0, 1, 4), int(rng.integers(3)), cfg)
            assert 0.0 <= s <= 0.5

    def test_adv_dist_matches_search(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        cfg = mi.AttackConfig(p=2, epsilon=0.8, n_iter=12, seed=4)
        out = mi.find_adversarial(tiny_model, x, 1, cfg)
        assert mi.adv_dist_score(tiny_model, x, 1, cfg) == out.distance


class TestDecision:
    def test_threshold_rule(self):
        assert mi.membership_decision(0.5, 0.5)
        assert mi.membership_decision(0.6, 0.5)
        assert not mi.membership_decision(0.4999, 0.5)


class TestDispatch:
    def test_all_strategies_covered(self, tiny_model, rng):
        x = rng.uniform(0, 1, 4)
        cfg = mi.AttackConfig(n_iter=5)
        for name in mi.THRESHOLD_STRATEGIES:
            val = mi.compute_score(tiny_model, x, 1, name, cfg)
            assert math.isfinite(val)

    def test_adv_dist_needs_config(self, tiny_model):
        with pytest.raises(DataError):
            mi.compute_score(tiny_model, np.full(4, 0.5), 0, "adv_dist")

    def test_unknown_strategy(self, tiny_model):
        with pytest.raises(DataError):
            mi.compute_score(tiny_model, np.full(4, 0.5), 0, "nope")

    def test_strategy_tuple_frozen(self):
        assert mi.THRESHOLD_STRATEGIES == (
            "softmax",
            "mentr",
            "loss",
            "grad_w_norm",
            "grad_x_norm",
            "adv_dist",
        )


class TestOrientation:
    def test_members_score_higher_on_average(self):
        # every strategy is oriented so larger means member; pooled over a
        # few interpolated targets the member mean must exceed the
        # nonmember mean for all six
        pooled = {name: ([], []) for name in mi.THRESHOLD_STRATEGIES}
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X, y = make_blobs(rng, 8, 4, 8, sep=0.5)
            Xh, yh = make_blobs(np.random.default_rng(seed + 50), 8, 4, 8, sep=0.5)
            model = mi.build_mlp([8, 48, 4], seed=seed)
            mi.train(
                model,
                X,
                y,
                mi.TrainConfig(epochs=400, batch_size=8, learning_rate=0.004, seed=seed),
            )
            assert classification_accuracy(model, X, y) == 1.0
            cfg = mi.AttackConfig(p=math.inf, epsilon=1.0, n_iter=15, seed=seed)
            for name in mi.THRESHOLD_STRATEGIES:
                mem, non = pooled[name]
                mem.extend(mi.compute_score(model, X[i], int(y[i]), name, cfg) for i in range(len(y)))
                non.extend(
                    mi.compute_score(model, Xh[i], int(yh[i]), name, cfg) for i in range(len(yh))
                )
        for name, (mem, non) in pooled.items():
            assert np.mean(mem) > np.mean(non), name


class TestScoreRecords:
    def test_roundtrip_exact(self, tmp_path):
        ids, scores, members = [0, 1, 2], [-0.123456789012345, -2.5e-17, 0.75], [True, False, True]
        path = tmp_path / "scores.csv"
        write_score_records(path, "loss", ids, scores, members)
        back = read_score_records(path, "loss")
        assert [c.tolist() for c in back] == [ids, scores, members]

    def test_repr_floats_preserved(self, tmp_path, rng):
        scores = rng.normal(0, 1, 50)
        path = tmp_path / "scores.csv"
        write_score_records(path, "softmax", np.arange(50), scores, np.arange(50) % 2 == 1)
        assert read_score_records(path, "softmax")[1].tobytes() == scores.tobytes()

    def test_strategy_column_must_name_the_strategy(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,1.0,0\n1,mentr,1.0,1\n")
        with pytest.raises(DataError, match="row 3"):
            read_score_records(path, "loss")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,strategy,score\n0,loss,1.0\n")
        with pytest.raises(DataError):
            read_score_records(path, "loss")

    def test_bad_field_count(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,1.0\n")
        with pytest.raises(DataError) as err:
            read_score_records(path, "loss")
        assert "row 2" in str(err.value)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,nan,1\n")
        with pytest.raises(DataError):
            read_score_records(path, "loss")

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,strategy,score,is_member\n0,loss,abc,1\n")
        with pytest.raises(DataError):
            read_score_records(path, "loss")

    @pytest.mark.parametrize("flag", ["2", "-1", "7", "yes", ""])
    def test_bad_member_flag_rejected(self, tmp_path, flag):
        path = tmp_path / "scores.csv"
        path.write_text(f"sample_id,strategy,score,is_member\n0,loss,1.0,0\n1,loss,1.0,{flag}\n")
        with pytest.raises(DataError, match="row 3"):
            read_score_records(path, "loss")
