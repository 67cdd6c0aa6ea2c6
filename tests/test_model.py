"""Logistic-regression core: gradients, convergence, ranking, persistence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import finhyp.model as model_mod
from finhyp.model import (
    LogRegModel,
    TrainConfig,
    grid_search,
    load_model,
    loss_and_grad,
    loss_value,
    predict_proba,
    rank_labels,
    save_model,
    train,
)


def finite_diff(W, b, X, y, c, eps=1e-5):
    """Central-difference gradient of the training objective."""
    gw = np.zeros_like(W)
    gb = np.zeros_like(b)
    for idx in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += eps
        Wm[idx] -= eps
        gw[idx] = (loss_value(Wp, b, X, y, c) - loss_value(Wm, b, X, y, c)) / (2 * eps)
    for i in range(b.shape[0]):
        bp, bm = b.copy(), b.copy()
        bp[i] += eps
        bm[i] -= eps
        gb[i] = (loss_value(W, bp, X, y, c) - loss_value(W, bm, X, y, c)) / (2 * eps)
    return gw, gb


def rel_err(analytic, numeric):
    scale = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / scale))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            n, d, k = rng.integers(2, 20), rng.integers(1, 10), rng.integers(2, 5)
            X = rng.normal(size=(n, d))
            y = rng.integers(0, k, size=n)
            W = rng.normal(scale=0.5, size=(k, d))
            b = rng.normal(scale=0.5, size=k)
            c = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
            loss, gw, gb = loss_and_grad(W, b, X, y, c)
            assert loss == pytest.approx(loss_value(W, b, X, y, c))
            fw, fb = finite_diff(W, b, X, y, c)
            assert rel_err(gw, fw) <= 1e-5
            assert rel_err(gb, fb) <= 1e-5

    def test_bias_not_penalized(self):
        X = np.zeros((2, 1))
        y = np.array([0, 1])
        W = np.zeros((2, 1))
        b = np.array([3.0, -3.0])
        # with X=0 and symmetric labels, the data term is flat in W only
        base = loss_value(W, b, X, y, 1.0)
        assert loss_value(W, b + 1.0, X, y, 1.0) == pytest.approx(base)
        assert loss_value(W + 1.0, b, X, y, 1.0) > base


class TestTrain:
    def test_bias_only_optimum_two_thirds(self):
        # three identical inputs, labels 0,0,1: optimum predicts (2/3, 1/3)
        X = np.zeros((3, 1))
        y = np.array([0, 0, 1])
        m = train(X, y, ("a", "b"), c=1.0)
        probs = predict_proba(m, np.zeros(1))
        assert probs == pytest.approx([2 / 3, 1 / 3], abs=1e-6)
        expected_loss = -(2 * math.log(2 / 3) + math.log(1 / 3))
        assert loss_value(m.weights, m.bias, X, y, 1.0) == pytest.approx(
            expected_loss, abs=1e-9
        )

    def test_balanced_contradiction_is_uniform(self):
        X = np.zeros((4, 3))
        y = np.array([0, 1, 0, 1])
        m = train(X, y, ("a", "b"), c=0.5)
        assert predict_proba(m, np.zeros(3)) == pytest.approx([0.5, 0.5])

    def test_separable_data_learned(self):
        X = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        y = np.array([0, 0, 1, 1])
        m = train(X, y, ("a", "b"), c=10.0)
        assert predict_proba(m, X).argmax(axis=1).tolist() == [0, 0, 1, 1]

    def test_objective_monotone_decreasing(self, monkeypatch):
        losses = []
        original = loss_and_grad

        def recorder(W, b, X, y, c):
            out = original(W, b, X, y, c)
            losses.append(out[0])
            return out

        monkeypatch.setattr(model_mod, "loss_and_grad", recorder)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        train(X, y, ("a", "b", "c"), c=1.0)
        assert len(losses) > 2
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_reaches_grad_tol_on_17_class_problem(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(350, 76))
        y = rng.integers(0, 17, size=350)
        cfg = TrainConfig()
        m = train(X, y, tuple(f"k{i}" for i in range(17)), 10.0, cfg)
        assert m.converged
        assert 0 < m.iterations < cfg.max_iter
        _, gw, gb = loss_and_grad(m.weights, m.bias, X, y, 10.0)
        assert max(np.abs(gw).max(), np.abs(gb).max()) == m.grad_max
        assert m.grad_max <= cfg.grad_tol

    def test_stall_exit_on_tiny_c_large_loss(self, monkeypatch):
        # loss ~5500 and C=1e-5: near the optimum a step's first-order
        # decrease drops below float64 resolution long before grad_tol
        losses = []
        original = loss_and_grad

        def recorder(W, b, X, y, c):
            out = original(W, b, X, y, c)
            losses.append(out[0])
            return out

        monkeypatch.setattr(model_mod, "loss_and_grad", recorder)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4000, 8))
        y = rng.integers(0, 4, size=4000)
        cfg = TrainConfig()
        m = train(X, y, ("a", "b", "c", "d"), 1e-5, cfg)
        assert not m.converged
        assert m.iterations < cfg.max_iter // 10
        assert cfg.grad_tol < m.grad_max < 1e-3
        assert len(losses) == m.iterations + 1
        assert np.all(np.diff(losses) <= 0)

    def test_ascent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # a direction with g'p >= 0 must never be searched along
        monkeypatch.setattr(model_mod, "_lbfgs_direction", lambda g, memory: g.copy())
        X = np.zeros((3, 1))
        y = np.array([0, 0, 1])
        m = train(X, y, ("a", "b"), c=1.0)
        assert m.converged
        assert predict_proba(m, np.zeros(1)) == pytest.approx([2 / 3, 1 / 3], abs=1e-6)

    def test_weight_norm_grows_with_c(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        norms = [
            float(np.linalg.norm(train(X, y, ("a", "b"), c).weights))
            for c in (0.001, 0.1, 10.0)
        ]
        assert norms[0] < norms[1] < norms[2]

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(25, 4))
        y = rng.integers(0, 3, size=25)
        m1 = train(X, y, ("a", "b", "c"), c=0.1)
        m2 = train(X, y, ("a", "b", "c"), c=0.1)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            train(np.zeros((2, 2)), np.array([0, 5]), ("a", "b"), 1.0)
        with pytest.raises(ValueError):
            train(np.array([[np.inf, 0.0]]), np.array([0]), ("a", "b"), 1.0)
        with pytest.raises(ValueError):
            train(np.zeros((2, 2)), np.array([0]), ("a", "b"), 1.0)


class TestPredict:
    def make_model(self):
        return LogRegModel(
            weights=np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            bias=np.array([0.0, 0.1, 0.0]),
            c=1.0,
            labels=("x", "y", "z"),
        )

    def test_probabilities_sum_to_one(self):
        m = self.make_model()
        p = predict_proba(m, np.array([0.3, -0.2]))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)

    def test_batch_rows_equal_single_rows(self):
        # a term's probabilities must not depend on the terms scored with it
        rng = np.random.default_rng(8)
        m = LogRegModel(rng.normal(size=(7, 40)), rng.normal(size=7), 1.0, "abcdefg")
        X = rng.normal(size=(50, 40))
        batch = predict_proba(m, X)
        for i in range(len(X)):
            assert batch[i].tobytes() == predict_proba(m, X[i]).tobytes()
            assert batch[i].tobytes() == predict_proba(m, X[i : i + 1])[0].tobytes()

    def test_extreme_logits_stable(self):
        m = LogRegModel(
            weights=np.array([[500.0], [-500.0]]),
            bias=np.zeros(2),
            c=1.0,
            labels=("a", "b"),
        )
        p = predict_proba(m, np.array([2.0]))
        assert not np.any(np.isnan(p))
        assert p.sum() == pytest.approx(1.0)

    def test_dim_checked(self):
        with pytest.raises(ValueError):
            predict_proba(self.make_model(), np.zeros(5))

    def test_rank_labels_descending_and_truncated(self):
        ranked = rank_labels(np.array([[0.1, 0.5, 0.2, 0.2]]))
        assert ranked.dtype == np.int64
        assert ranked.tolist() == [[1, 2, 3]]

    def test_rank_ties_keep_label_order(self):
        assert rank_labels(np.array([[0.25, 0.25, 0.25, 0.25]])).tolist() == [[0, 1, 2]]

    def test_rank_shorter_than_three(self):
        assert rank_labels(np.array([[0.4, 0.6], [0.5, 0.5]])).tolist() == [[1, 0], [0, 1]]

    def test_rank_of_predicted_matrix(self):
        m = self.make_model()
        X = np.array([[1.0, 0.0], [0.0, 3.0]])
        p = predict_proba(m, X)
        ranked = rank_labels(p)
        assert [m.labels[i] for i in ranked[:, 0]] == ["x", "y"]
        top = np.take_along_axis(p, ranked, axis=1)
        assert np.all(np.diff(top, axis=1) <= 0)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 6)),
            # few distinct values, so all-equal rows and tied pairs are common
            elements=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_per_row_stable_sort(self, probs):
        expected = [
            sorted(range(len(row)), key=lambda j: -row[j])[:3] for row in probs.tolist()
        ]
        assert rank_labels(probs).tolist() == expected


class TestPersistence:
    def train_small(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 3, size=20)
        return train(X, y, ("alpha", "beta", "gamma"), c=0.1), X

    def test_round_trip_bitwise(self, tmp_path):
        m, X = self.train_small()
        path = tmp_path / "model.txt"
        save_model(m, path)
        again = load_model(path)
        assert again.labels == m.labels
        assert again.c == m.c
        assert np.array_equal(again.weights, m.weights)
        assert np.array_equal(again.bias, m.bias)
        assert np.array_equal(predict_proba(again, X), predict_proba(m, X))

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("not-a-model\n")
        with pytest.raises(ValueError):
            load_model(p)

    def test_truncated(self, tmp_path):
        m, _ = self.train_small()
        p = tmp_path / "m.txt"
        save_model(m, p)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(ValueError):
            load_model(p)


class TestGridSearch:
    def test_tie_selects_smallest_c(self):
        # all-zero features make every C equivalent
        X = np.zeros((12, 2))
        y = np.array([0, 1] * 6)
        cfg = TrainConfig(c_grid=(0.01, 1.0, 100.0), folds=3, seed=0)
        result = grid_search(X, y, ("a", "b"), cfg)
        assert result.best_c == 0.01
        assert result.model.c == 0.01

    def test_rows_in_grid_order_and_aligned_oof(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        cfg = TrainConfig(c_grid=(1.0, 0.001), folds=5, seed=4)
        result = grid_search(X, y, ("a", "b"), cfg)
        assert [r.c for r in result.rows] == [1.0, 0.001]
        for preds in result.oof_predictions.values():
            assert len(preds) == 30
            assert all(len(p) == 2 for p in preds)
        assert len(result.folds) == 5
        assert np.array_equal(
            np.sort(np.concatenate(result.folds)), np.arange(30)
        )

    def test_fold_metrics_have_fold_arity(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2))
        y = rng.integers(0, 2, size=20)
        cfg = TrainConfig(c_grid=(0.1,), folds=4, seed=0)
        result = grid_search(X, y, ("a", "b"), cfg)
        row = result.rows[0]
        assert len(row.fold_mean_ranks) == 4
        assert len(row.fold_accuracies) == 4
        assert row.mean_rank == pytest.approx(np.mean(row.fold_mean_ranks))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(24, 3))
        y = rng.integers(0, 3, size=24)
        cfg = TrainConfig(c_grid=(0.1, 1.0), folds=3, seed=9)
        r1 = grid_search(X, y, ("a", "b", "c"), cfg)
        r2 = grid_search(X, y, ("a", "b", "c"), cfg)
        assert r1.best_c == r2.best_c
        assert np.array_equal(r1.model.weights, r2.model.weights)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(c_grid=())
        with pytest.raises(ValueError):
            TrainConfig(c_grid=(0.0,))
        with pytest.raises(ValueError):
            TrainConfig(folds=1)
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=0.0)

    def test_default_grid(self):
        assert TrainConfig().c_grid == (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
