"""Logistic-regression core: gradients, convergence, ranking, persistence."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import finhyp.model as model_mod
from finhyp.fileio import atomic_write
from finhyp.model import (
    LogRegModel,
    TrainConfig,
    grid_search,
    load_model,
    loss_and_grad,
    loss_value,
    model_text,
    predict_proba,
    rank_labels,
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


def record_accepted_losses(monkeypatch):
    """A list that train fills with the loss at its zero start, then the loss
    of each point the line search accepts: one per iteration."""
    losses = []
    original = model_mod._backtrack

    def recorder(f, theta, p, loss, slope):
        if not losses:
            losses.append(loss)
        accepted = original(f, theta, p, loss, slope)
        if accepted is not None:
            losses.append(accepted[1])
        return accepted

    monkeypatch.setattr(model_mod, "_backtrack", recorder)
    return losses


def row_major_loss_and_grad(W, b, X, y, c):
    """The objective on (N, K) logits X @ W.T + b, the layout loss_and_grad
    used before it went class-major: the reference it is checked against."""
    z = X @ W.T + b
    zmax = z.max(axis=1)
    e = np.exp(z - zmax[:, None])
    s = e.sum(axis=1)
    loss = float(np.sum(np.log(s) + zmax - z[np.arange(len(y)), y]))
    loss += 0.5 / c * float(np.sum(W * W))
    g = e / s[:, None]
    g[np.arange(len(y)), y] -= 1.0
    return loss, g.T @ X + W / c, g.sum(axis=0)


def matrix_grad(theta, X, y, c):
    """loss_and_grad's gradient at theta = [W | b], as one (K, D+1) matrix."""
    d = X.shape[1]
    _, gw, gb = loss_and_grad(theta[:, :d], theta[:, d], X, y, c)
    return np.column_stack([gw, gb])


def step_operators(theta, X, c):
    """The Hessian-vector product at theta = [W | b] and the preconditioner
    matrix A there, built as a Newton step of train builds them: from
    Xa = [X | 1], its contiguous transpose and the penalty's diagonal (1/C
    on the W columns, 0 on the bias column)."""
    Xa = np.column_stack([X, np.ones(len(X))])
    Xat = np.ascontiguousarray(Xa.T)
    pen = np.full(Xa.shape[1], 1.0 / c)
    pen[-1] = 0.0
    P = model_mod._softmax(theta @ Xat, axis=0)
    return (
        model_mod._hessian_product(P, Xa, Xat, pen),
        model_mod._input_gram(P, Xa, pen),
    )


def count_calls(monkeypatch, names):
    """A dict of call counts, one per module-level function of finhyp.model
    named in names, that the wrapped functions fill."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(model_mod, name)

        def wrapper(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(model_mod, name, wrapper)
    return calls


def record_builds(monkeypatch):
    """Record each preconditioner build of train as (the number of Newton
    steps before it, the A^-1 it returned, None for plain CG)."""
    inverse_of = model_mod._inverse
    direction = model_mod._newton_direction
    solves = []
    built_at = []

    def recorded(A):
        inverse = inverse_of(A)
        built_at.append((len(solves), inverse))
        return inverse

    def counted(*args):
        solves.append(None)
        return direction(*args)

    monkeypatch.setattr(model_mod, "_inverse", recorded)
    monkeypatch.setattr(model_mod, "_newton_direction", counted)
    return built_at


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
            assert loss == loss_value(W, b, X, y, c)
            fw, fb = finite_diff(W, b, X, y, c)
            assert rel_err(gw, fw) <= 1e-5
            assert rel_err(gb, fb) <= 1e-5

    def test_matches_row_major_objective(self):
        rng = np.random.default_rng(7)
        for n, d, k in [(1, 1, 2), (3, 5, 2), (233, 76, 17), (40, 3, 6), (7, 20, 9)]:
            X = rng.normal(size=(n, d))
            y = rng.integers(0, k, size=n)
            for scale in (0.0, 0.5, 5.0):
                W = rng.normal(scale=scale, size=(k, d))
                b = rng.normal(scale=scale, size=k)
                c = float(rng.choice([0.001, 1.0, 100.0]))
                loss, gw, gb = loss_and_grad(W, b, X, y, c)
                ref_loss, ref_gw, ref_gb = row_major_loss_and_grad(W, b, X, y, c)
                assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
                for got, ref in ((gw, ref_gw), (gb, ref_gb)):
                    assert got.shape == ref.shape
                    scale = max(np.abs(ref).max(), 1.0)
                    assert np.abs(got - ref).max() <= 1e-12 * scale

    def test_bias_not_penalized(self):
        X = np.zeros((2, 1))
        y = np.array([0, 1])
        W = np.zeros((2, 1))
        b = np.array([3.0, -3.0])
        # with X=0 and symmetric labels, the data term is flat in W only
        base = loss_value(W, b, X, y, 1.0)
        assert loss_value(W, b + 1.0, X, y, 1.0) == pytest.approx(base)
        assert loss_value(W + 1.0, b, X, y, 1.0) > base


class TestNewtonStep:
    def hessian_setup(self, rng, n, d, k, c):
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        theta = rng.normal(scale=0.5, size=(k, d + 1))
        hv, _ = step_operators(theta, X, c)
        return X, y, theta, hv

    @pytest.mark.parametrize("c", [1e-3, 1.0, 100.0])
    def test_hessian_product_matches_finite_differences(self, c):
        # central differences of loss_and_grad's gradient along V, which
        # covers the bias column and the penalty's V / C
        rng = np.random.default_rng(31)
        for n, d, k in [(40, 5, 3), (25, 3, 6), (60, 8, 4)]:
            X, y, theta, hv = self.hessian_setup(rng, n, d, k, c)
            for _ in range(3):
                v = rng.normal(size=theta.shape)
                v /= np.linalg.norm(v)
                eps = 1e-5
                numeric = (
                    matrix_grad(theta + eps * v, X, y, c)
                    - matrix_grad(theta - eps * v, X, y, c)
                ) / (2 * eps)
                assert rel_err(hv(v), numeric) <= 1e-6

    @pytest.mark.parametrize("c", [1e-3, 1.0, 100.0])
    def test_bias_shift_is_the_only_flat_direction(self, c):
        # adding the same constant to every bias leaves the softmax as it
        # is, so H (0, 1_K) = 0; every direction orthogonal to it curves up
        rng = np.random.default_rng(32)
        n, d, k = 50, 6, 5
        X, y, theta, hv = self.hessian_setup(rng, n, d, k, c)
        flat = np.zeros_like(theta)
        flat[:, d] = 1.0
        assert np.abs(hv(flat)).max() <= 1e-12 * n
        unit = flat / np.linalg.norm(flat)
        for _ in range(20):
            v = rng.normal(size=theta.shape)
            v -= np.vdot(v, unit) * unit
            assert np.vdot(v, hv(v)) > 0

    def test_direction_meets_forcing_term_or_step_cap(self):
        # on a symmetric positive definite H, CG stops once the residual is
        # within min(0.5, sqrt(||g||)) ||g||, which asks for more steps as g
        # shrinks; at a tiny g rounding holds it back, and it stops after
        # g.size products
        rng = np.random.default_rng(33)
        n = 30
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        a = (q * np.logspace(-1, 1, n)) @ q.T
        for scale in (1e3, 1.0, 1e-4, 1e-12):
            g = rng.normal(size=n) * scale
            products = []
            p, used = model_mod._newton_direction(
                g, lambda v: products.append(v) or a @ v
            )
            assert used == len(products)
            gnorm = np.linalg.norm(g)
            if scale > 1e-12:
                assert len(products) < n
                assert np.linalg.norm(a @ p + g) <= min(0.5, math.sqrt(gnorm)) * gnorm
            else:
                assert len(products) == n
            assert g @ p < 0

    def test_exact_preconditioner_solves_in_one_product(self):
        # with M = H, the first preconditioned direction is the Newton step
        rng = np.random.default_rng(34)
        n = 30
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        a = (q * np.logspace(-2, 2, n)) @ q.T
        g = rng.normal(size=n)
        p, used = model_mod._newton_direction(g, lambda v: a @ v, np.linalg.inv(a))
        assert used == 1
        assert p == pytest.approx(np.linalg.solve(a, -g), rel=1e-9)
        _, plain = model_mod._newton_direction(g, lambda v: a @ v)
        assert plain > 1

    def test_direction_ends_on_curvature_that_is_not_positive(self):
        # on the first CG step that leaves -g, later the iterate so far, and
        # no division by the curvature warns
        g = np.array([1e-4, 1e-4])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bad in (0.0, -1.0, np.nan, np.inf):
                p, used = model_mod._newton_direction(g, lambda v: bad * v)
                assert p.tolist() == (-g).tolist()
                assert used == 1
                # H = diag(1, 2) for the first product, bad I after it: one
                # CG step along -g, of length g'g / g'Hg = 2/3, and no more
                products = []

                def product(v):
                    products.append(v)
                    return v * [1.0, 2.0] if len(products) == 1 else bad * v

                p, used = model_mod._newton_direction(g, product)
                assert len(products) == used == 2
                assert p == pytest.approx(-2 / 3 * g, rel=1e-15)

    def test_direction_ends_on_curvature_whose_step_overflows(self):
        # a positive subnormal curvature: g'g / g'Hg is beyond float64, and
        # a step of that length would make inf * 0 = NaN in the direction
        g = np.array([1.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p, used = model_mod._newton_direction(g, lambda v: 1e-310 * v)
        assert p.tolist() == (-g).tolist()
        assert used == 1


class TestPreconditioner:
    def test_input_gram_is_symmetric_positive_definite(self):
        # 17 classes and the desk feature width, at a point with spread-out
        # and with nearly saturated probabilities
        rng = np.random.default_rng(35)
        X = rng.uniform(-1, 1, size=(233, 76))
        for scale in (0.1, 5.0):
            theta = rng.normal(scale=scale, size=(17, 77))
            for c in (1e-3, 1.0, 100.0):
                _, A = step_operators(theta, X, c)
                assert A.shape == (77, 77)
                assert np.array_equal(A, A.T)
                assert np.linalg.eigvalsh(A).min() > 0
                inverse = model_mod._inverse(A)
                assert np.abs(A @ inverse - np.eye(77)).max() <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 77, 109])
    def test_blocked_triangular_inverse(self, n):
        # the blocks split at n // 2 down to TRI_BLOCK rows; A^-1 from the
        # inverse Cholesky factor matches the general inverse and is
        # exactly symmetric
        rng = np.random.default_rng(n)
        B = rng.normal(size=(2 * n, n))
        A = B.T @ B + np.eye(n)
        L = np.linalg.cholesky(A)
        inverse = model_mod._lower_inverse(L)
        assert np.abs(inverse @ L - np.eye(n)).max() <= 1e-12
        a_inverse = model_mod._inverse(A)
        assert np.array_equal(a_inverse, a_inverse.T)
        assert np.abs(a_inverse - np.linalg.inv(A)).max() <= 1e-12

    def test_input_gram_matches_its_definition(self):
        rng = np.random.default_rng(36)
        X = rng.normal(size=(40, 5))
        theta = rng.normal(size=(4, 6))
        _, A = step_operators(theta, X, 0.5)
        Xa = np.column_stack([X, np.ones(40)])
        p = model_mod._softmax(theta @ Xa.T, axis=0)
        s = (p * (1 - p)).mean(axis=0)
        expected = Xa.T @ np.diag(s) @ Xa + np.diag([2.0] * 5 + [0.0])
        assert np.abs(A - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_singular_or_non_finite_gram_falls_back_to_plain_cg(self):
        # saturated probabilities (exactly 0 and 1) on an all-zero feature
        # matrix: every s_i is 0, so A's bias entry is 0 and A is singular;
        # A with an infinite or NaN entry has no usable inverse either
        X = np.zeros((3, 1))
        theta = np.array([[0.0, 400.0], [0.0, -400.0]])
        hv, A = step_operators(theta, X, 1.0)
        assert A.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert model_mod._inverse(A) is None
            for bad in (np.inf, np.nan):
                broken = np.eye(2)
                broken[0, 1] = broken[1, 0] = bad
                assert model_mod._inverse(broken) is None
            # nearly saturated: s_i = 4e-18 leaves A positive definite, but
            # with a pivot below epsilon times the largest
            near = np.array([[0.0, 20.0], [0.0, -20.0]])
            assert model_mod._inverse(step_operators(near, X, 1.0)[1]) is None
            # the plain-CG step: the bias gradient (1, -1) meets zero
            # curvature, so the direction is -g
            g = matrix_grad(theta, X, np.array([0, 0, 1]), 1.0)
            p, used = model_mod._newton_direction(g, hv, None)
        assert p.tolist() == (-g).tolist()
        assert used == 1

    def test_fit_through_a_singular_gram_converges(self, monkeypatch):
        # a start with nearly saturated probabilities on an all-zero X: the
        # first Newton step's A is singular in float64, so it takes plain
        # CG and the next step builds A^-1 again; the later steps are
        # preconditioned, and the fit reaches the bias-only optimum
        # (2/3, 1/3) without a RuntimeWarning
        built_at = record_builds(monkeypatch)
        start = LogRegModel(np.zeros((2, 1)), np.array([20.0, -20.0]), 1.0, "ab")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = train(np.zeros((3, 1)), np.array([0, 0, 1]), "ab", 1.0, start=start)
        assert m.converged
        fallbacks = [inverse is None for _, inverse in built_at]
        assert fallbacks[0] and not all(fallbacks)
        assert [step for step, _ in built_at[:2]] == [0, 1]
        assert m.preconditioners == len(fallbacks) <= m.iterations
        probs = predict_proba(m, np.zeros(1))
        assert probs == pytest.approx([2 / 3, 1 / 3], abs=1e-6)

    def test_rising_product_counts_rebuild_after_every_reuse(self, monkeypatch):
        # every solve reports one product more than the one before, so the
        # second solve under each A^-1 needs more than its first did, and
        # the next step builds again: each A^-1 serves two steps, the
        # fewest that a usable A^-1 can serve
        built_at = record_builds(monkeypatch)
        original = model_mod._newton_direction
        solves = []

        def rising(g, hessian_product, inverse):
            p, _ = original(g, hessian_product, inverse)
            solves.append(inverse)
            return p, len(solves)

        monkeypatch.setattr(model_mod, "_newton_direction", rising)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        m = train(X, y, ("a", "b", "c"), c=1.0)
        assert m.converged and m.iterations > 3
        assert [step for step, _ in built_at] == list(range(0, m.iterations, 2))
        assert m.preconditioners == len(built_at)
        # each solve ran under the A^-1 of the latest build
        for step, inverse in built_at:
            assert solves[step] is inverse
            if step + 1 < len(solves):
                assert solves[step + 1] is inverse

    def test_fallback_at_every_step_rebuilds_at_every_step(self, monkeypatch):
        # the worst case: when no A^-1 is usable, every step builds again
        # and runs plain CG
        builds = []

        def unusable(A):
            builds.append(A)
            return None

        monkeypatch.setattr(model_mod, "_inverse", unusable)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        m = train(X, y, ("a", "b", "c"), c=1.0)
        assert m.converged
        assert m.preconditioners == len(builds) == m.iterations > 1


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
        losses = record_accepted_losses(monkeypatch)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, size=30)
        m = train(X, y, ("a", "b", "c"), c=1.0)
        assert len(losses) == m.iterations + 1 > 2
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)

    def test_reaches_grad_tol_on_17_class_problem(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(350, 76))
        y = rng.integers(0, 17, size=350)
        cfg = TrainConfig()
        m = train(X, y, tuple(f"k{i}" for i in range(17)), 10.0, cfg)
        assert m.converged
        assert 0 < m.iterations < model_mod.MAX_ITER
        # at least one CG product per Newton step, at most K (D+1)
        assert m.iterations <= m.hessian_products <= m.iterations * 17 * 77
        # A^-1 is kept across steps while CG does not slow down
        assert 0 < m.preconditioners < m.iterations
        _, gw, gb = loss_and_grad(m.weights, m.bias, X, y, 10.0)
        assert max(np.abs(gw).max(), np.abs(gb).max()) == m.grad_max
        assert m.grad_max <= cfg.grad_tol

    def test_converges_on_tiny_c_large_loss(self, monkeypatch):
        # loss ~5500 and C=1e-5: a step's first-order decrease near the
        # optimum is below float64 resolution of the loss, so gradient steps
        # stall before grad_tol; Newton steps converge first
        losses = record_accepted_losses(monkeypatch)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4000, 8))
        y = rng.integers(0, 4, size=4000)
        cfg = TrainConfig()
        m = train(X, y, ("a", "b", "c", "d"), 1e-5, cfg)
        assert m.converged
        assert m.grad_max <= cfg.grad_tol
        assert 0 < m.iterations < model_mod.MAX_ITER // 10
        assert len(losses) == m.iterations + 1
        assert np.all(np.diff(losses) <= 0)

    def test_stall_exit_on_tiny_c_large_loss(self, monkeypatch):
        # the same fit, but after two Newton steps the direction gains a
        # component orthogonal to g, 1e8 times its length: the slope stays
        # -g'g, but the curvature along it allows only a step whose
        # first-order decrease is below float64 resolution of the loss
        losses = record_accepted_losses(monkeypatch)
        calls = count_calls(monkeypatch, ["loss_and_grad"])
        original = model_mod._newton_direction
        directions = []

        def skewed(g, hessian_product, inverse):
            directions.append(g)
            p, used = original(g, hessian_product, inverse)
            if len(directions) <= 2:
                return p, used
            u = np.roll(g, 1)
            u -= np.vdot(u, g) / np.vdot(g, g) * g
            return -g + 1e8 * np.linalg.norm(g) / np.linalg.norm(u) * u, used

        monkeypatch.setattr(model_mod, "_newton_direction", skewed)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4000, 8))
        y = rng.integers(0, 4, size=4000)
        cfg = TrainConfig()
        m = train(X, y, ("a", "b", "c", "d"), 1e-5, cfg)
        assert not m.converged
        assert m.iterations == 2
        assert len(directions) == 3
        assert m.grad_max > cfg.grad_tol
        assert len(losses) == m.iterations + 1
        assert np.all(np.diff(losses) <= 0)
        # backtracking halved until step * |slope| <= STALL * |loss|
        assert 3 + 20 < calls["loss_and_grad"] < 3 + 100

    @pytest.mark.parametrize("c", [1e-5, 0.001, 1.0, 100.0])
    def test_one_evaluation_per_trial(self, monkeypatch, c):
        # every objective evaluation is one loss_and_grad call: one at the
        # start and one per line-search trial, whose gradient is kept
        trials = []
        original = model_mod._backtrack

        def counted_backtrack(f, theta, p, loss, slope):
            return original(lambda t: trials.append(t) or f(t), theta, p, loss, slope)

        rng = np.random.default_rng(1 if c == 1e-5 else 4)
        n, d, k = (4000, 8, 4) if c == 1e-5 else (300, 20, 6)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        calls = count_calls(monkeypatch, ["loss_value", "loss_and_grad"])
        monkeypatch.setattr(model_mod, "_backtrack", counted_backtrack)
        m = train(X, y, tuple("abcdef"[:k]), c)
        assert m.converged
        assert calls == {"loss_value": 0, "loss_and_grad": len(trials) + 1}
        assert len(trials) >= m.iterations > 0

    def test_ascent_direction_falls_back_to_steepest_descent(self, monkeypatch):
        # a direction whose slope g'p is not finite and negative must never
        # be searched along: along a NaN or -inf slope backtracking would
        # halve the step forever, so a call counter makes that fail
        calls = []
        original = model_mod.loss_and_grad

        def counted(*args):
            calls.append(None)
            if len(calls) > 1000:
                raise AssertionError("the line search did not end")
            return original(*args)

        monkeypatch.setattr(model_mod, "loss_and_grad", counted)
        X = np.zeros((3, 1))
        y = np.array([0, 0, 1])
        for direction in (
            lambda g: g.copy(),
            lambda g: np.full_like(g, np.nan),
            # g'p = -inf: infinities against g's nonzero entries only
            lambda g: np.where(g > 0, -np.inf, np.where(g < 0, np.inf, 0.0)),
        ):
            monkeypatch.setattr(
                model_mod, "_newton_direction", lambda g, hv, inv: (direction(g), 1)
            )
            calls.clear()
            m = train(X, y, ("a", "b"), c=1.0)
            assert m.converged
            probs = predict_proba(m, np.zeros(1))
            assert probs == pytest.approx([2 / 3, 1 / 3], abs=1e-6)

    @pytest.mark.parametrize("c_start", [0.01, 100.0])
    def test_warm_start_reaches_the_cold_optimum(self, c_start):
        # the objective is strictly convex in W and convex in b, so a fit
        # started at another C's optimum ends where the zero start does
        rng = np.random.default_rng(12)
        X = rng.normal(size=(300, 20))
        y = rng.integers(0, 6, size=300)
        labels = tuple("abcdef")
        cold = train(X, y, labels, 1.0)
        start = train(X, y, labels, c_start)
        warm = train(X, y, labels, 1.0, start=start)
        assert cold.converged and warm.converged
        assert warm.iterations < cold.iterations
        assert np.array_equal(
            rank_labels(predict_proba(warm, X)), rank_labels(predict_proba(cold, X))
        )
        cold_loss = loss_value(cold.weights, cold.bias, X, y, 1.0)
        warm_loss = loss_value(warm.weights, warm.bias, X, y, 1.0)
        assert abs(warm_loss - cold_loss) <= 1e-9 * cold_loss

    def test_saturated_start_converges(self):
        # biases +-373 make the first Newton step so long that trials along
        # it overflow the loss; such a trial fails like any other, without
        # a RuntimeWarning, and the fit still reaches (2/3, 1/3)
        start = LogRegModel(np.zeros((2, 1)), np.array([373.0, -373.0]), 1.0, "ab")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            m = train(np.zeros((3, 1)), np.array([0, 0, 1]), "ab", 1.0, start=start)
        assert m.converged
        probs = predict_proba(m, np.zeros(1))
        assert probs == pytest.approx([2 / 3, 1 / 3], abs=1e-6)

    def test_start_must_match_labels_and_width(self):
        start = LogRegModel(np.zeros((2, 3)), np.zeros(2), 1.0, "ab")
        y = np.array([0, 1, 0, 1])
        for X, labels in ((np.zeros((4, 2)), "ab"), (np.zeros((4, 3)), "ba")):
            with pytest.raises(ValueError, match="start model has other labels"):
                train(X, y, labels, 1.0, start=start)
        assert train(np.zeros((4, 3)), y, "ab", 1.0, start=start).converged

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
        atomic_write(path, model_text(m))
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
        atomic_write(p, model_text(m))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(ValueError):
            load_model(p)


    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_c_line_rejected(self, tmp_path, token):
        m, _ = self.train_small()
        p = tmp_path / "m.txt"
        atomic_write(p, model_text(m))
        lines = p.read_text().splitlines()
        assert lines[1] == "C 0.1"
        lines[1] = f"C {token}"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="C must be finite and positive"):
            load_model(p)

    @pytest.mark.parametrize("token", ["corrupt", "broken"])
    def test_bad_weight_is_corrupt_whatever_its_text(self, tmp_path, token):
        m, _ = self.train_small()
        p = tmp_path / "m.txt"
        atomic_write(p, model_text(m))
        lines = p.read_text().splitlines()
        w = lines.index("W")
        lines[w + 1] = lines[w + 1].split(" ", 1)[0] + " " + token
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^model file corrupt: .*'{token}'"):
            load_model(p)

    def test_structural_errors_are_not_wrapped(self, tmp_path):
        m, _ = self.train_small()
        p = tmp_path / "m.txt"
        atomic_write(p, model_text(m))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines).replace("\nW\n", "\nX\n") + "\n")
        with pytest.raises(ValueError, match="^model file corrupt: missing W section$"):
            load_model(p)
        lines[4] = "name alpha"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^model file corrupt at line 5$"):
            load_model(p)

    @pytest.mark.parametrize(
        "index, line", [(1, "gamma 7.0"), (2, "width 3"), (3, "labels 3"), (1, "C")]
    )
    def test_header_keys_checked(self, tmp_path, index, line):
        # a header line is read only under its own key: "gamma 7.0" in
        # place of "C 0.1" must not load as C = 7.0
        m, _ = self.train_small()
        p = tmp_path / "m.txt"
        lines = model_text(m).splitlines()
        assert lines[1:4] == ["C 0.1", "dim 3", "classes 3"]
        lines[index] = line
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^model file corrupt at line {index + 1}$"):
            load_model(p)


class TestGridSearch:
    def test_tie_selects_smallest_c(self):
        # all-zero features make every C equivalent
        X = np.zeros((12, 2))
        y = np.array([0, 1] * 6)
        cfg = TrainConfig(c_grid=(0.01, 1.0, 100.0), folds=3, seed=0)
        result = grid_search(X, y, ("a", "b"), cfg)
        assert result.best_c == 0.01
        assert train(X, y, ("a", "b"), result.best_c, cfg).c == 0.01

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

    def test_each_fold_walks_the_grid_in_ascending_c(self, monkeypatch):
        # every fold fits each C once, smallest first, each fit starting
        # from the fold's previous one; the first fit of a fold starts cold
        calls = []
        original = model_mod.train

        def recorded(X, y, labels, c, cfg=None, start=None):
            calls.append((len(y), c, start))
            calls[-1] += (original(X, y, labels, c, cfg, start=start),)
            return calls[-1][-1]

        monkeypatch.setattr(model_mod, "train", recorded)
        rng = np.random.default_rng(22)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 3, size=30)
        cfg = TrainConfig(c_grid=(1.0, 0.001, 100.0), folds=3, seed=4)
        result = grid_search(X, y, ("a", "b", "c"), cfg)
        assert [c for _, c, _, _ in calls] == [0.001, 1.0, 100.0] * 3
        for i, (n, _, start, _) in enumerate(calls):
            assert start is (None if i % 3 == 0 else calls[i - 1][3])
            assert n == 30 - len(result.folds[i // 3])
        assert [r.c for r in result.rows] == [1.0, 0.001, 100.0]

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
        m1 = train(X, y, ("a", "b", "c"), r1.best_c, cfg)
        m2 = train(X, y, ("a", "b", "c"), r2.best_c, cfg)
        assert np.array_equal(m1.weights, m2.weights)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(c_grid=())
        with pytest.raises(ValueError):
            TrainConfig(c_grid=(0.0,))
        with pytest.raises(ValueError):
            TrainConfig(folds=1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError):
            TrainConfig(grad_tol=0.0)

    @pytest.mark.parametrize("grid", [(1.0, 1.0), (0.1, 10.0, 0.1), (1, 1.0)])
    def test_repeated_c_rejected(self, grid):
        # a repeated C would be fitted twice and write two grid rows that
        # share one set of out-of-fold predictions
        with pytest.raises(ValueError, match="C grid repeats a value"):
            TrainConfig(c_grid=grid)

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_non_finite_c_rejected(self, c):
        # NaN passes a "c <= 0" check; every way a C enters must refuse it
        with pytest.raises(ValueError, match="C must be finite and positive"):
            TrainConfig(c_grid=(1.0, c))
        with pytest.raises(ValueError, match="C must be finite and positive"):
            train(np.zeros((2, 1)), np.array([0, 1]), ("a", "b"), c)
        with pytest.raises(ValueError, match="C must be finite and positive"):
            LogRegModel(np.zeros((2, 1)), np.zeros(2), c, ("a", "b"))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_grad_tol_must_be_finite_and_positive(self, tol):
        # NaN would return the all-zero start after 0 iterations, and
        # infinity would report convergence there
        with pytest.raises(ValueError, match="grad_tol must be finite and positive"):
            TrainConfig(grad_tol=tol)

    def test_default_grid(self):
        assert TrainConfig().c_grid == (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
