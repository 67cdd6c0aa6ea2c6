"""L2-regularized multinomial logistic regression, trained from scratch.

The objective is

    L(W, b) = ||W||^2 / (2C) + sum_i -log softmax(W x_i + b)[y_i]

with the bias unpenalized, so C keeps its conventional meaning: larger C,
weaker regularization. It is computed class-major: the logits are the
(K, N) matrix W X' + b, max-shifted per column before exponentiation, so
every reduction over the classes runs along axis 0.

It is minimized by a line-search truncated Newton method (Nocedal &
Wright, Numerical Optimization, sec. 7.1; the trust-region form is Lin,
Weng & Keerthi 2008, the solver of LIBLINEAR). The parameters are one
(K, D+1) matrix [W | b], which the solver works on against Xa = [X | 1]
and its contiguous transpose Xa', both made once per fit; loss_and_grad is
handed the W and b views of it and the X' rows of Xa', so every logit
product of a fit runs against a contiguous matrix. Each Newton step solves
H p = -g approximately by conjugate gradients, with Hessian-vector
products taken from the softmax at the current point (see
``_hessian_product``), so the Hessian is never formed. That softmax is the
one loss_and_grad wrote when it scored the point, as the accepted trial
of the previous step's line search (or as the start), so a point's
logits are computed once. CG is preconditioned by I_K (x) A, where
A = Xa' diag(s) Xa + diag(pen) is the input factor of a Kronecker-factored
curvature (Martens & Grosse 2015), built from a step's softmax with
s_i = mean_k p_ik (1 - p_ik), and pen is 1/C on the W columns and 0 on the
bias column; where A is singular or not finite the step runs plain CG.
Like K-FAC, which refreshes its factor inverses only every few iterations
(ibid., sec. 8), a fit keeps A^-1 from step to step and builds it again,
from the current softmax, only at the step after one whose A^-1 was
unusable or whose CG solve took more Hessian-vector products than the
first solve under that A^-1 did.
The step is found by backtracking (halving, Armijo constant 1e-4) with
each trial point scored by ``loss_and_grad``; the accepted trial's
gradient and softmax start the next step, so the objective is evaluated
once per trial. A fit also stops, as not converged, after MAX_ITER Newton
steps or once backtracking shrinks the decrease a step promises below
float64 resolution of the loss (STALL).

A fit starts from zero, or from the parameters of another model
(``start``). ``grid_search`` uses that for a warm start along the
regularization path (Chu, Ho, Tsai, Lin & Lin 2015): each fold fits the
C grid in ascending order, each fit starting from the fold's fit at the
next smaller C.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .evaluation import accuracy, mean_rank, stratified_kfold

ARMIJO = 1e-4
STALL = 1e-15  # relative loss change below which a step cannot register
MAX_ITER = 100  # Newton steps before a fit stops, not converged
GRAD_TOL = 1e-6  # gradient infinity-norm at which a fit has converged
EPS = np.finfo(np.float64).eps
TRI_BLOCK = 32  # rows of the triangular blocks that _lower_inverse inverts whole
MODEL_MAGIC = "finhyp-logreg v1"
DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass
class TrainConfig:
    # GRAD_TOL under the name of the field it replaced, for code that still
    # reads the tolerance from a config
    grad_tol: ClassVar[float] = GRAD_TOL
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        self.c_grid = tuple(map(as_float, self.c_grid))
        if not self.c_grid:
            raise ValueError("empty C grid")
        for c in self.c_grid:
            _check_c(c)
        if len(set(self.c_grid)) < len(self.c_grid):
            raise ValueError(f"C grid repeats a value: {self.c_grid}")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        # numpy's generator refuses a negative seed, but only once folds are drawn
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class LogRegModel:
    weights: np.ndarray  # (K, D)
    bias: np.ndarray  # (K,)
    c: float
    labels: tuple[str, ...]
    # optimizer diagnostics set by train; a loaded model keeps the defaults
    iterations: int = 0
    hessian_products: int = 0  # CG steps over all Newton steps
    preconditioners: int = 0  # A^-1 builds (calls of _inverse)
    grad_max: float = float("nan")  # final gradient infinity-norm
    converged: bool = False  # grad_max reached GRAD_TOL

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.labels = tuple(self.labels)
        k = len(self.labels)
        if self.weights.ndim != 2 or self.weights.shape[0] != k:
            raise ValueError("weight matrix must be K x D")
        if self.bias.shape != (k,):
            raise ValueError("bias must have length K")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("non-finite model parameters")
        _check_c(self.c)

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def as_float(x) -> float:
    """float(x), with an int beyond float64's range taken as +-inf, so a
    finiteness check refuses it rather than float() raise OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_c(c) -> None:
    # NaN fails every comparison, so "c <= 0" alone would let it through;
    # a C whose reciprocal overflows makes the penalty at W = 0 inf * 0 = NaN
    if not (math.isfinite(c) and c > 0 and math.isfinite(1.0 / float(c))):
        raise ValueError(f"C must be finite and positive, got {c!r}")


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)
    return p / p.sum(axis=axis, keepdims=True)


def _check_xy(X, y, n_classes):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature values")
    if y.shape != (X.shape[0],):
        raise ValueError("y must align with X rows")
    if y.min() < 0 or y.max() >= n_classes:
        raise ValueError(f"label index outside [0, {n_classes})")
    return X, y


def _penalty(W, c) -> float:
    w = W.ravel()
    return 0.5 / c * float(w @ w)


def loss_value(W, b, X, y, c) -> float:
    """The objective value of loss_and_grad, without the rest."""
    return loss_and_grad(W, b, X, y, c)[0]


def loss_and_grad(W, b, X, y, c, xt=None, softmax=None):
    """Objective value with its analytic gradient (see module docstring).
    The logits are W X' + b against xt, X's contiguous transpose, which a
    caller that evaluates many points of one X makes once; without it the
    copy is made here, so the arithmetic, and every bit of the result, is
    the same either way. A (K, N) softmax array, when given, receives the
    softmax at the point."""
    if xt is None:
        xt = np.ascontiguousarray(X.T)
    n = len(y)
    e = W @ xt  # the class-major (K, N) logits
    e += b[:, None]
    gold = y * n  # the flat positions of the gold logits
    gold += np.arange(n)
    zmax = e.max(axis=0)
    zgold = e.take(gold)
    e -= zmax
    np.exp(e, out=e)
    s = e.sum(axis=0)
    data = float((np.log(s) + zmax - zgold).sum())
    e /= s  # the (K, N) softmax
    if softmax is not None:
        np.copyto(softmax, e)
    e.ravel()[gold] -= 1.0  # e is contiguous, so ravel is a view
    grad_w = e @ X
    grad_w += W / c
    return data + _penalty(W, c), grad_w, e.sum(axis=1)


def _hessian_product(P, Xa, Xat, pen):
    """V -> HV for the Hessian H of the loss at the point whose (K, N)
    softmax is P, with V and HV (K, D+1) matrices laid out like the
    parameters [W | b], Xa = [X | 1] and Xat its contiguous transpose, and
    pen the penalty's diagonal: 1/C on the W columns and 0 on the bias
    column. With dz = V Xa':

        r = P * (dz - 1 1'(P * dz)),  HV = r Xa + V * pen

    so a product costs two (K, N)-sized matrix products."""

    def product(V):
        r = V @ Xat
        r -= (P * r).sum(axis=0)
        r *= P
        hv = r @ Xa
        hv += V * pen
        return hv

    return product


def _input_gram(P, Xa, pen):
    """The (D+1, D+1) matrix A = Xa' diag(s) Xa + diag(pen), with
    s_i = mean_k p_ik (1 - p_ik) from the (K, N) softmax P: the input
    factor of the Kronecker-factored Hessian approximation I_K (x) A
    (Martens & Grosse 2015) that preconditions a Newton step's CG. It is
    formed as B'B with B = diag(sqrt(s)) Xa, so it is exactly symmetric."""
    s = (P * (1.0 - P)).mean(axis=0)
    B = Xa * np.sqrt(s)[:, None]
    A = B.T @ B
    A.flat[:: A.shape[0] + 1] += pen
    return A


def _lower_inverse(L):
    """L^-1 of a lower-triangular L, from the block form

        [L11, 0; L21, L22]^-1 = [L11^-1, 0; -L22^-1 L21 L11^-1, L22^-1]

    down to blocks of at most TRI_BLOCK rows, which np.linalg.inv inverts.
    numpy has no triangular inverse, and np.linalg.inv of a whole
    77 x 77 or 109 x 109 matrix (one BLAS thread, Xeon) takes about twice
    as long as this and the product L^-T L^-1 together."""
    n = len(L)
    if n <= TRI_BLOCK:
        return np.linalg.inv(L)
    h = n // 2
    inverse = np.zeros_like(L)
    top = inverse[:h, :h] = _lower_inverse(L[:h, :h])
    bottom = inverse[h:, h:] = _lower_inverse(L[h:, h:])
    inverse[h:, :h] = -(bottom @ L[h:, :h]) @ top
    return inverse


def _inverse(A):
    """A^-1 of a symmetric A, or None when A is not finite, not positive
    definite in float64 (its Cholesky factorisation fails) or singular in
    float64: a squared Cholesky pivot at or below machine epsilon times the
    largest, so that A's condition number is at least 1/epsilon. With
    A = LL', A^-1 = L^-T L^-1, which is exactly symmetric."""
    if not np.isfinite(A).all():
        return None
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    pivots = L.diagonal() ** 2
    if pivots.min() <= EPS * pivots.max():
        return None
    inverse = _lower_inverse(L)
    return inverse.T @ inverse


def _newton_direction(g, hessian_product, inverse=None):
    """An approximate solution of H p = -g by conjugate gradients from p = 0,
    preconditioned by M = I_K (x) A, applied as R -> R A^-1 with
    inverse = A^-1, or plain CG when inverse is None (Nocedal & Wright,
    Algorithm 7.1 with the preconditioning of Algorithm 5.3). Returns the
    direction and the number of Hessian-vector products it took. Stops once
    the residual norm drops to min(0.5, sqrt(||g||)) ||g||, after g.size
    steps, CG's bound in exact arithmetic, or on a curvature d'Hd that is
    not positive and finite, or so small that the step length overflows,
    where it returns the iterate so far, or -g on the first step.
    H is only positive semi-definite: the unpenalized bias leaves the
    direction n = (0, 1_K) flat. g is orthogonal to n, and so is every
    residual, as Hn = 0; a component along n, which a preconditioned
    direction can pick up, changes neither a curvature nor the loss."""
    gnorm = math.sqrt(float(np.vdot(g, g)))
    tol = min(0.5, math.sqrt(gnorm)) * gnorm
    p = np.zeros_like(g)
    r = -g
    z = r if inverse is None else r @ inverse
    d = z.copy()  # updated in place, and z may be r
    rz = float(np.vdot(r, z))
    for step in range(g.size):
        q = hessian_product(d)
        curvature = float(np.vdot(d, q))
        alpha = rz / curvature if 0 < curvature < math.inf else math.inf
        if not alpha < math.inf:
            return (p if step else -g), step + 1
        p += alpha * d
        r -= alpha * q
        if math.sqrt(float(np.vdot(r, r))) <= tol:
            break
        z = r if inverse is None else r @ inverse
        rz_new = float(np.vdot(r, z))
        d *= rz_new / rz
        d += z
        rz = rz_new
    return p, step + 1


def _backtrack(f, theta, p, loss: float, slope: float):
    """Armijo backtracking along p from a unit step, halving on failure.
    f maps a point to its (loss, gradient, softmax). A trial whose loss is
    not finite fails, and its overflow raises no warning. Returns the
    accepted point with its loss, gradient and softmax, or None once the
    first-order decrease step * |slope| falls to STALL * |loss|."""
    step = 1.0
    while True:
        # far along a long first step, from a saturated start, the loss
        # overflows to inf (or NaN); the comparison below rejects both
        with np.errstate(over="ignore", invalid="ignore"):
            trial = theta + step * p
            trial_loss, trial_g, trial_p = f(trial)
        if trial_loss <= loss + ARMIJO * step * slope:
            return trial, trial_loss, trial_g, trial_p
        step *= 0.5
        if step * -slope <= STALL * abs(loss):
            return None


def train(
    X,
    y,
    labels,
    c: float,
    start: LogRegModel | None = None,
) -> LogRegModel:
    """Minimize the regularized log-loss by preconditioned truncated
    Newton-CG from zero parameters, or from those of start, a model with
    the same labels and feature dimension.

    The preconditioner's A^-1 is built at the first step and kept until CG
    slows down: it is built again at the step after one whose A^-1 came
    back None (that step ran plain CG), or whose solve took more
    Hessian-vector products than the first solve under the current A^-1.

    Stops, converged, when the gradient infinity-norm drops to
    GRAD_TOL. Stops, not converged, after MAX_ITER Newton steps, or
    when backtracking shrinks the first-order decrease step * |g'p| to
    STALL * |loss|, where float64 can no longer resolve the change. The
    model records iterations (Newton steps), hessian_products (CG steps),
    preconditioners (A^-1 builds), grad_max and converged. Identical
    inputs produce bitwise-identical parameters; the Armijo backtracking,
    which scores each trial with loss_and_grad, guarantees the objective
    never increases between steps. A trial whose loss overflows fails like
    any other, without a warning.
    """
    labels = tuple(labels)
    _check_c(c)
    X, y = _check_xy(X, y, len(labels))
    k, d = len(labels), X.shape[1]
    Xa = np.column_stack([X, np.ones(len(y))])
    Xat = np.ascontiguousarray(Xa.T)
    pen = np.full(d + 1, 1.0 / c)
    pen[d] = 0.0
    if start is None:
        theta = np.zeros((k, d + 1))
    elif start.labels == labels and start.dim == d:
        theta = np.column_stack([start.weights, start.bias])
    else:
        raise ValueError("start model has other labels or another feature width")

    xt = Xat[:d]  # X', contiguous

    def evaluate(t):
        # positional, so a wrapper that takes *args sees every call
        P = np.empty((k, len(y)))
        loss, gw, gb = loss_and_grad(t[:, :d], t[:, d], X, y, c, xt, P)
        return loss, np.column_stack([gw, gb]), P

    loss, g, P = evaluate(theta)
    iterations = products = builds = 0
    rebuild = True
    while iterations < MAX_ITER and np.abs(g).max() > GRAD_TOL:
        if rebuild:
            inverse = _inverse(_input_gram(P, Xa, pen))
            builds += 1
        p, used = _newton_direction(g, _hessian_product(P, Xa, Xat, pen), inverse)
        products += used
        if rebuild:
            first = used
        # keep A^-1 while CG needs no more products than its first solve did
        rebuild = inverse is None or used > first
        slope = float(np.vdot(g, p))
        # rounding broke the descent property, or the slope is NaN or
        # infinite, along which backtracking would halve the step forever
        # (NaN fails both comparisons): fall back to steepest descent
        if not -math.inf < slope < 0:
            p = -g
            slope = -float(np.vdot(g, g))
        accepted = _backtrack(evaluate, theta, p, loss, slope)
        if accepted is None:
            break  # stalled
        theta, loss, g, P = accepted
        iterations += 1
    grad_max = float(np.abs(g).max())
    return LogRegModel(
        theta[:, :d].copy(),
        theta[:, d].copy(),
        c,
        labels,
        iterations=iterations,
        hessian_products=products,
        preconditioners=builds,
        grad_max=grad_max,
        converged=grad_max <= GRAD_TOL,
    )


def predict_proba(model: LogRegModel, x) -> np.ndarray:
    """softmax(Wx + b) of one row x or of each row of a matrix x; rows sum to
    1 and never contain NaN. Rows are multiplied one at a time (a stacked
    product), so a row's probabilities are the same bits in any batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.dim:
        raise ValueError(f"feature length {x.shape[-1]} != model dim {model.dim}")
    logits = (x[..., None, :] @ model.weights.T)[..., 0, :]
    return _softmax(logits + model.bias)


def rank_labels(probs) -> np.ndarray:
    """(N, min(3, K)) label indices of each row of an (N, K) probability
    matrix, by descending probability. The sort is stable, so exact ties
    keep label-set order."""
    probs = np.asarray(probs)
    return np.argsort(-probs, axis=1, kind="stable")[:, :3]


@dataclass
class GridRow:
    c: float
    mean_rank: float
    accuracy: float
    fold_mean_ranks: tuple[float, ...]
    fold_accuracies: tuple[float, ...]


@dataclass
class GridSearchResult:
    best_c: float
    rows: list[GridRow]
    folds: list[np.ndarray]
    # out-of-fold (N, min(3, K)) top-3 arrays per C, aligned with the input rows
    oof_predictions: dict[float, np.ndarray] = field(repr=False, default_factory=dict)


def grid_search(X, y, labels, cfg: TrainConfig) -> GridSearchResult:
    """Pick C by stratified k-fold CV.

    Every C is scored on the same folds; mean rank decides, accuracy breaks
    ties, then the smaller C. Each fold fits the grid in ascending C, each
    fit starting from the fold's fit at the next smaller C (a warm start
    along the regularization path), so a fit's parameters depend on the
    other C values only within GRAD_TOL. Rows come back in grid order.
    """
    labels = tuple(labels)
    X, y = _check_xy(X, y, len(labels))
    folds = stratified_kfold(y.tolist(), cfg.folds, cfg.seed)
    all_idx = np.arange(len(y))
    oof = {
        c: np.empty((len(y), min(3, len(labels))), dtype=np.int64)
        for c in cfg.c_grid
    }
    fold_mrs: dict[float, list[float]] = {c: [] for c in cfg.c_grid}
    fold_accs: dict[float, list[float]] = {c: [] for c in cfg.c_grid}
    for test_idx in folds:
        train_mask = np.ones(len(y), dtype=bool)
        train_mask[test_idx] = False
        train_idx = all_idx[train_mask]
        X_train, y_train = X[train_idx], y[train_idx]
        X_test, y_test = X[test_idx], y[test_idx]
        m = None
        for c in sorted(cfg.c_grid):
            m = train(X_train, y_train, labels, c, start=m)
            preds = oof[c][test_idx] = rank_labels(predict_proba(m, X_test))
            fold_mrs[c].append(mean_rank(preds, y_test))
            fold_accs[c].append(accuracy(preds, y_test))
    rows = [
        GridRow(
            c=c,
            mean_rank=float(np.mean(fold_mrs[c])),
            accuracy=float(np.mean(fold_accs[c])),
            fold_mean_ranks=tuple(fold_mrs[c]),
            fold_accuracies=tuple(fold_accs[c]),
        )
        for c in cfg.c_grid
    ]
    best = min(rows, key=lambda r: (r.mean_rank, -r.accuracy, r.c))
    return GridSearchResult(best.c, rows, folds, oof)


def model_text(model: LogRegModel) -> str:
    """Versioned plain-text form of a model; floats via repr so a reload
    reproduces identical predictions."""
    lines = [MODEL_MAGIC]
    lines.append(f"C {repr(float(model.c))}")
    lines.append(f"dim {model.dim}")
    lines.append(f"classes {len(model.labels)}")
    for lab in model.labels:
        lines.append(f"label {lab}")
    lines.append("W")
    for row in model.weights:
        lines.append(" ".join(repr(float(v)) for v in row))
    lines.append("b")
    lines.append(" ".join(repr(float(v)) for v in model.bias))
    return "\n".join(lines) + "\n"


def load_model(path) -> LogRegModel:
    """The model that model_text wrote to path; ValueError on any other file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"not a model file (expected header {MODEL_MAGIC!r})")
    header = [line.split(" ", 1) for line in lines[1:4]]
    if len(header) < 3:
        raise ValueError("model file corrupt: truncated")
    for lineno, (key, parts) in enumerate(zip(("C", "dim", "classes"), header), 2):
        if parts[0] != key or len(parts) != 2:
            raise ValueError(f"model file corrupt at line {lineno}")
    try:
        c, dim, k = float(header[0][1]), int(header[1][1]), int(header[2][1])
    except ValueError as exc:
        raise ValueError(f"model file corrupt: {exc}") from exc
    # k label lines, "W", k weight rows, "b", the bias row
    if len(lines) < 2 * k + 7:
        raise ValueError("model file corrupt: truncated")
    for pos in range(4, 4 + k):
        if not lines[pos].startswith("label "):
            raise ValueError(f"model file corrupt at line {pos + 1}")
    if lines[4 + k] != "W":
        raise ValueError("model file corrupt: missing W section")
    if lines[5 + 2 * k] != "b":
        raise ValueError("model file corrupt: missing b section")
    labels = [line[len("label ") :] for line in lines[4 : 4 + k]]
    try:
        weights = np.array(
            [[float(v) for v in line.split()] for line in lines[5 + k : 5 + 2 * k]]
        )
        bias = np.array([float(v) for v in lines[6 + 2 * k].split()])
    except ValueError as exc:
        raise ValueError(f"model file corrupt: {exc}") from exc
    if weights.shape != (k, dim) or bias.shape != (k,):
        raise ValueError("model file corrupt: shape mismatch")
    return LogRegModel(weights, bias, c, tuple(labels))
