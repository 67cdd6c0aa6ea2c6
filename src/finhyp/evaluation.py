"""Task metrics and stratified k-fold splitting.

Predictions are an (N, <=3) integer array of ranked label indices, one row
per term; equal-length lists work too. Accuracy reads the rank-1 column;
mean rank uses the 1-based position of the gold label in the row, or 4 when
absent; macro F1 averages per-class F1 over every configured class, counting
classes the split never saw as 0. Integer totals are divided once, so
accuracy and mean rank are the exact ratios rounded to float.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _aligned(preds, gold):
    """Predictions and gold as int arrays, checked to align and be non-empty."""
    preds = np.asarray(preds, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if len(preds) != len(gold):
        raise ValueError("predictions and gold must align")
    if len(gold) == 0:
        raise ValueError("empty input")
    return preds, gold


def accuracy(preds, gold) -> float:
    """Fraction of rows whose rank-1 prediction equals the gold label."""
    preds, gold = _aligned(preds, gold)
    return int(np.count_nonzero(preds[:, 0] == gold)) / len(gold)


def mean_rank(preds, gold) -> float:
    """Average 1-based rank of the gold label in the top-3 list, 4 if absent."""
    preds, gold = _aligned(preds, gold)
    hit = preds[:, :3] == gold[:, None]
    ranks = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, 4)
    return int(ranks.sum()) / len(gold)


def confusion_matrix(preds, gold, n_classes: int) -> np.ndarray:
    """Counts indexed [gold, rank-1 prediction]."""
    preds, gold = _aligned(preds, gold)
    top = preds[:, 0]
    if min(gold.min(), top.min()) < 0 or max(gold.max(), top.max()) >= n_classes:
        raise ValueError(f"label index outside [0, {n_classes})")
    cells = np.bincount(gold * n_classes + top, minlength=n_classes**2)
    return cells.reshape(n_classes, n_classes)


def macro_f1(preds, gold, n_classes: int):
    """Unweighted mean of per-class F1 over all n_classes.

    Per class, precision and recall come from rank-1 predictions; a class
    with zero precision+recall denominator contributes F1 = 0. Returns
    (macro, per-class array).
    """
    conf = confusion_matrix(preds, gold, n_classes)
    tp = np.diag(conf)
    # 2tp + fp + fn: the class's column total plus its row total
    denom = conf.sum(axis=0) + conf.sum(axis=1)
    per_class = np.zeros(n_classes)
    np.divide(2 * tp, denom, out=per_class, where=denom > 0)
    return float(per_class.mean()), per_class


def stratified_kfold(labels, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index folds with per-class counts differing by at most 1.

    Classes are taken in sorted label order, and the j-th member of a
    class's seeded shuffle goes to fold (j + offset) % k, where offset is
    the member count of the classes before it, so overall fold sizes stay
    balanced. Deterministic under a
    fixed seed. Classes with fewer than k members land in only some folds.
    """
    n = len(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k = {k} exceeds sample count {n}")
    _, classes = np.unique(np.asarray(labels), return_inverse=True)
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=np.int64)
    offset = 0
    for c in range(classes.max() + 1):
        idx = np.flatnonzero(classes == c)
        rng.shuffle(idx)
        fold[idx] = (np.arange(len(idx)) + offset) % k
        offset = (offset + len(idx)) % k
    return [np.flatnonzero(fold == f) for f in range(k)]


@dataclass(frozen=True)
class EvalReport:
    """Metrics of one evaluation split. ``to_text`` gives report.txt, and
    ``vars`` the payload of report.json, whose tuples json.dumps writes as
    lists."""

    labels: tuple[str, ...]
    n: int
    accuracy: float
    mean_rank: float
    macro_f1: float
    per_class_f1: tuple[float, ...]
    confusion: tuple[tuple[int, ...], ...]

    def to_text(self) -> str:
        lines = [
            f"n: {self.n}",
            f"accuracy: {self.accuracy:.6f}",
            f"mean_rank: {self.mean_rank:.6f}",
            f"macro_f1: {self.macro_f1:.6f}",
        ]
        for lab, f1 in zip(self.labels, self.per_class_f1):
            lines.append(f"f1[{lab}]: {f1:.6f}")
        for lab, row in zip(self.labels, self.confusion):
            lines.append(f"confusion[{lab}]: " + " ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def evaluate(preds, gold, labels) -> EvalReport:
    """Full report over top-3 predictions and gold label indices."""
    labels = tuple(labels)
    k = len(labels)
    macro, per_class = macro_f1(preds, gold, k)
    conf = confusion_matrix(preds, gold, k)
    return EvalReport(
        labels=labels,
        n=len(gold),
        accuracy=accuracy(preds, gold),
        mean_rank=mean_rank(preds, gold),
        macro_f1=macro,
        per_class_f1=tuple(float(v) for v in per_class),
        confusion=tuple(tuple(int(v) for v in row) for row in conf),
    )
