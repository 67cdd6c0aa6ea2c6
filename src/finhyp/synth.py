"""Synthetic dataset generator for desk-scale end-to-end runs.

Each class gets a unit-norm anchor direction; token vectors are the anchor
plus Gaussian noise, and a term is 1-3 tokens from its class pool. Class
sizes follow the default 17-class frequency profile rescaled to n. The
generator can plant an indicator substring (" Inc.") on one class while
sampling that class's token vectors around a neighboring class's anchor,
so the two classes are separable only through surface features.
"""
from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingStore, save_embeddings
from .fileio import atomic_open

# Default class profile: (label, weight) in descending frequency order.
CLASS_PROFILE: tuple[tuple[str, int], ...] = (
    ("Equity Index", 286),
    ("Regulatory Agency", 205),
    ("Credit Index", 129),
    ("Central Securities Depository", 107),
    ("Debt pricing and yields", 58),
    ("Bonds", 55),
    ("Swap", 36),
    ("Stock Corporation", 25),
    ("Option", 24),
    ("Funds", 22),
    ("Future", 19),
    ("Credit Events", 18),
    ("Stocks", 17),
    ("MMIs", 17),
    ("Parametric schedules", 15),
    ("Forward", 9),
    ("Securities restrictions", 8),
)

POOL_SIZE = 12  # tokens per class
PLANT_SUFFIX = " Inc."


def apportion(weights, n: int) -> list[int]:
    """Largest-remainder apportionment of n items over positive weights.

    Every class receives at least one item (n >= len(weights) required), so
    rescaling never drops a class.
    """
    k = len(weights)
    if k == 0:
        raise ValueError("no weights")
    if any(w <= 0 for w in weights):
        raise ValueError("weights must be positive")
    if n < k:
        raise ValueError(f"cannot place {n} items into {k} non-empty classes")
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    leftover = n - sum(counts)
    for i in sorted(range(k), key=lambda i: (-remainders[i], i))[:leftover]:
        counts[i] += 1
    # Pull singletons out of the biggest classes for any class rounded to 0.
    for i in range(k):
        while counts[i] == 0:
            donor = max(range(k), key=lambda j: (counts[j], -j))
            if counts[donor] <= 1:
                raise ValueError("not enough items to cover every class")
            counts[donor] -= 1
            counts[i] += 1
    return counts


def _slug(label: str) -> str:
    return "".join(ch for ch in label.lower() if ch.isalnum())


def plant_class_index(k: int) -> int:
    """Class that carries the planted indicator substring."""
    return min(7, k - 1)


@dataclass(frozen=True)
class SynthData:
    rows: list  # (term, label) pairs
    labels: list  # class names in profile order
    store: EmbeddingStore


def generate(
    k_classes: int,
    n: int,
    seed: int,
    sigma: float = 0.1,
    dim: int = 32,
    plant_substrings: bool = False,
    typo_rate: float = 0.05,
) -> SynthData:
    """Build n labeled terms over k_classes plus a matching embedding store.

    Anchors are orthonormal when k_classes <= dim (QR of a Gaussian matrix),
    otherwise independent unit-norm directions. typo_rate is the per-token
    chance of appending "s" in the term text only, which makes that token
    out-of-vocabulary by exactly one edit.
    """
    if not 2 <= k_classes <= len(CLASS_PROFILE):
        raise ValueError(
            f"k_classes must be in [2, {len(CLASS_PROFILE)}], got {k_classes}"
        )
    if n < k_classes:
        raise ValueError(f"need n >= k_classes, got n={n}, k={k_classes}")
    if dim < 1 or sigma < 0 or not 0 <= typo_rate <= 1:
        raise ValueError("invalid dim, sigma, or typo_rate")

    labels = [name for name, _ in CLASS_PROFILE[:k_classes]]
    weights = [w for _, w in CLASS_PROFILE[:k_classes]]
    counts = apportion(weights, n)
    rng = np.random.default_rng(seed)

    if k_classes <= dim:
        q, _ = np.linalg.qr(rng.standard_normal((dim, k_classes)))
        anchors = q.T.copy()
    else:
        anchors = rng.standard_normal((k_classes, dim))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)

    planted = plant_class_index(k_classes) if plant_substrings else -1
    confuser = (planted + 1) % k_classes

    tokens: list[str] = []
    vectors: list[np.ndarray] = []
    pools: list[list[str]] = []
    for c, label in enumerate(labels):
        # Planted-class vectors come from the confuser's anchor, so the
        # embedding alone cannot tell the two classes apart.
        center = anchors[confuser] if c == planted else anchors[c]
        pool = [f"{_slug(label)}tok{j:02d}" for j in range(POOL_SIZE)]
        pools.append(pool)
        tokens.extend(pool)
        vectors.append(center + rng.normal(0.0, sigma, (POOL_SIZE, dim)))
    store = EmbeddingStore(tokens, np.concatenate(vectors, axis=0))

    rows: list[tuple[str, str]] = []
    for c, label in enumerate(labels):
        for _ in range(counts[c]):
            n_tokens = int(rng.integers(1, 4))
            picks = rng.choice(POOL_SIZE, size=n_tokens, replace=False)
            parts = []
            for j in picks:
                name = pools[c][int(j)]
                if typo_rate > 0 and rng.random() < typo_rate:
                    name += "s"
                parts.append(name)
            term = " ".join(parts)
            if c == planted:
                term += PLANT_SUFFIX
            rows.append((term, label))
    order = rng.permutation(len(rows))
    rows = [rows[int(i)] for i in order]
    return SynthData(rows=rows, labels=labels, store=store)


def write_dataset(data: SynthData, out_dir) -> tuple[str, str]:
    """Write terms.csv and embeddings.txt under out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(os.fspath(out_dir), "terms.csv")
    emb_path = os.path.join(os.fspath(out_dir), "embeddings.txt")
    with atomic_open(csv_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["term", "label"])
        writer.writerows(data.rows)
    save_embeddings(data.store, emb_path)
    return csv_path, emb_path
