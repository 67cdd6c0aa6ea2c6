"""L2-regularized multinomial logistic regression, trained from scratch.

The objective is

    L(W, b) = ||W||^2 / (2C) + sum_i -log softmax(W x_i + b)[y_i]

with the bias unpenalized, so C keeps its conventional meaning: larger C,
weaker regularization. Logits are max-shifted before exponentiation.

It is minimized by deterministic full-batch L-BFGS (Liu & Nocedal 1989;
Nocedal & Wright, Numerical Optimization, ch. 7): the two-loop recursion
over the last MEMORY curvature pairs, keeping a pair only when s'y > 0.
Each step is found by backtracking (halving, Armijo constant 1e-4) with
trial points scored by ``loss_value`` alone; ``loss_and_grad`` runs only
at accepted points. A fit also stops, as not converged, once backtracking
shrinks the decrease a step promises below float64 resolution of the loss
(STALL).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .evaluation import accuracy, mean_rank, stratified_kfold
from .fileio import atomic_write

ARMIJO = 1e-4
MEMORY = 10  # L-BFGS curvature pairs kept
STALL = 1e-15  # relative loss change below which a step cannot register
MODEL_MAGIC = "finhyp-logreg v1"


@dataclass
class TrainConfig:
    c_grid: tuple[float, ...] = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
    max_iter: int = 1000
    grad_tol: float = 1e-6
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        self.c_grid = tuple(float(c) for c in self.c_grid)
        if not self.c_grid:
            raise ValueError("empty C grid")
        if any(c <= 0 for c in self.c_grid):
            raise ValueError("C values must be positive")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class LogRegModel:
    weights: np.ndarray  # (K, D)
    bias: np.ndarray  # (K,)
    c: float
    labels: tuple[str, ...]
    # optimizer diagnostics set by train; a loaded model keeps the defaults
    iterations: int = 0
    grad_max: float = float("nan")  # final gradient infinity-norm
    converged: bool = False  # grad_max reached TrainConfig.grad_tol

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
        if self.c <= 0:
            raise ValueError("C must be positive")

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    return p / p.sum(axis=-1, keepdims=True)


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


def loss_value(W, b, X, y, c) -> float:
    z = X @ W.T + b
    zmax = z.max(axis=1)
    logsum = np.log(np.exp(z - zmax[:, None]).sum(axis=1)) + zmax
    data = float(np.sum(logsum - z[np.arange(len(y)), y]))
    return data + 0.5 / c * float(np.sum(W * W))


def loss_and_grad(W, b, X, y, c):
    """Objective value with its analytic gradient (see module docstring)."""
    z = X @ W.T + b
    zmax = z.max(axis=1)
    e = np.exp(z - zmax[:, None])
    s = e.sum(axis=1)
    loss = float(np.sum(np.log(s) + zmax - z[np.arange(len(y)), y]))
    loss += 0.5 / c * float(np.sum(W * W))
    g = e / s[:, None]
    g[np.arange(len(y)), y] -= 1.0
    grad_w = g.T @ X + W / c
    grad_b = g.sum(axis=0)
    return loss, grad_w, grad_b


def _lbfgs_direction(g, memory) -> np.ndarray:
    """-H g by the two-loop recursion, H the inverse-Hessian estimate from
    the (s, y, 1 / s'y) pairs in memory, scaled by s'y / y'y of the newest."""
    q = g.copy()
    alphas = []
    for s, yv, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * yv
        alphas.append(a)
    if memory:
        s, yv, rho = memory[-1]
        q *= 1.0 / (rho * float(yv @ yv))
    for (s, yv, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * float(yv @ q)) * s
    return -q


def _backtrack(f, theta, p, loss: float, slope: float):
    """Armijo backtracking along p from a unit step, halving on failure.
    Returns the accepted point, or None once the first-order decrease
    step * |slope| falls to STALL * |loss|."""
    step = 1.0
    while True:
        trial = theta + step * p
        if f(trial) <= loss + ARMIJO * step * slope:
            return trial
        step *= 0.5
        if step * -slope <= STALL * abs(loss):
            return None


def train(X, y, labels, c: float, cfg: TrainConfig | None = None) -> LogRegModel:
    """Minimize the regularized log-loss by L-BFGS from a zero start.

    Stops, converged, when the gradient infinity-norm drops to
    cfg.grad_tol. Stops, not converged, after cfg.max_iter iterations, or
    when backtracking shrinks the first-order decrease step * |g'p| to
    STALL * |loss|, where float64 can no longer resolve the change. The
    model records iterations, grad_max and converged. Identical inputs
    produce bitwise-identical parameters; the Armijo backtracking on
    loss_value guarantees the objective never increases between iterations.
    """
    if cfg is None:
        cfg = TrainConfig()
    labels = tuple(labels)
    if c <= 0:
        raise ValueError("C must be positive")
    X, y = _check_xy(X, y, len(labels))
    k, d = len(labels), X.shape[1]

    def unpack(t):
        return t[: k * d].reshape(k, d), t[k * d :]

    def value(t):
        return loss_value(*unpack(t), X, y, c)

    def value_and_grad(t):
        loss, gw, gb = loss_and_grad(*unpack(t), X, y, c)
        return loss, np.concatenate([gw.ravel(), gb])

    theta = np.zeros(k * d + k)
    loss, g = value_and_grad(theta)
    memory: deque = deque(maxlen=MEMORY)
    iterations = 0
    while iterations < cfg.max_iter and np.abs(g).max() > cfg.grad_tol:
        p = _lbfgs_direction(g, memory)
        slope = float(g @ p)
        if slope >= 0:
            # rounding broke the descent property: restart from steepest descent
            memory.clear()
            p = -g
            slope = -float(g @ g)
        trial = _backtrack(value, theta, p, loss, slope)
        if trial is None:
            break  # stalled
        loss, g_new = value_and_grad(trial)
        s, yv = trial - theta, g_new - g
        sy = float(s @ yv)
        if sy > 0:
            memory.append((s, yv, 1.0 / sy))
        theta, g = trial, g_new
        iterations += 1
    W, b = unpack(theta)
    grad_max = float(np.abs(g).max())
    return LogRegModel(
        W,
        b,
        c,
        labels,
        iterations=iterations,
        grad_max=grad_max,
        converged=grad_max <= cfg.grad_tol,
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
    model: LogRegModel
    folds: list[np.ndarray]
    # out-of-fold (N, min(3, K)) top-3 arrays per C, aligned with the input rows
    oof_predictions: dict[float, np.ndarray] = field(repr=False, default_factory=dict)


def grid_search(X, y, labels, cfg: TrainConfig) -> GridSearchResult:
    """Pick C by stratified k-fold CV, then refit on the full data.

    Every C is scored on the same folds; mean rank decides, accuracy breaks
    ties, then the smaller C. Rows come back in grid order.
    """
    labels = tuple(labels)
    X, y = _check_xy(X, y, len(labels))
    folds = stratified_kfold(y.tolist(), cfg.folds, cfg.seed)
    all_idx = np.arange(len(y))
    rows: list[GridRow] = []
    oof: dict[float, np.ndarray] = {}
    for c in cfg.c_grid:
        preds = oof[c] = np.empty((len(y), min(3, len(labels))), dtype=np.int64)
        fold_mrs = []
        fold_accs = []
        for test_idx in folds:
            train_mask = np.ones(len(y), dtype=bool)
            train_mask[test_idx] = False
            train_idx = all_idx[train_mask]
            m = train(X[train_idx], y[train_idx], labels, c, cfg)
            preds[test_idx] = rank_labels(predict_proba(m, X[test_idx]))
            fold_mrs.append(mean_rank(preds[test_idx], y[test_idx]))
            fold_accs.append(accuracy(preds[test_idx], y[test_idx]))
        rows.append(
            GridRow(
                c=c,
                mean_rank=float(np.mean(fold_mrs)),
                accuracy=float(np.mean(fold_accs)),
                fold_mean_ranks=tuple(fold_mrs),
                fold_accuracies=tuple(fold_accs),
            )
        )
    best = min(rows, key=lambda r: (r.mean_rank, -r.accuracy, r.c))
    model = train(X, y, labels, best.c, cfg)
    return GridSearchResult(best.c, rows, model, folds, oof)


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


def save_model(model: LogRegModel, path) -> None:
    """Write model_text(model) to path atomically."""
    atomic_write(path, model_text(model))


def load_model(path) -> LogRegModel:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"not a model file (expected header {MODEL_MAGIC!r})")
    try:
        c = float(lines[1].split(" ", 1)[1])
        dim = int(lines[2].split(" ", 1)[1])
        k = int(lines[3].split(" ", 1)[1])
        labels = []
        pos = 4
        for _ in range(k):
            if not lines[pos].startswith("label "):
                raise ValueError(f"model file corrupt at line {pos + 1}")
            labels.append(lines[pos][len("label ") :])
            pos += 1
        if lines[pos] != "W":
            raise ValueError("model file corrupt: missing W section")
        pos += 1
        weights = np.array(
            [[float(v) for v in lines[pos + i].split()] for i in range(k)]
        )
        pos += k
        if lines[pos] != "b":
            raise ValueError("model file corrupt: missing b section")
        bias = np.array([float(v) for v in lines[pos + 1].split()])
    except (IndexError, ValueError) as exc:
        if isinstance(exc, ValueError) and "corrupt" in str(exc):
            raise
        raise ValueError(f"model file corrupt: {exc}") from exc
    if weights.shape != (k, dim) or bias.shape != (k,):
        raise ValueError("model file corrupt: shape mismatch")
    return LogRegModel(weights, bias, c, tuple(labels))
