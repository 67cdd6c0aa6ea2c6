"""Feature blocks and scaling.

A full feature row is [embedding | 10 hand-crafted | K cosine | K edit
distance] in that fixed order, min-max scaled to [-1, 1] column-wise.
Hand-crafted features read the original term; the embedding and both
distance blocks read the (possibly definition-augmented) text.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distance
from .embeddings import EmbeddingStore, TermTokens, embed_term

DEFAULT_INDICATORS = ("Inc.", "Corp", "Ltd", "Bank", "Index", "Rate", "%")
HANDCRAFTED_WIDTH = 10


@dataclass(frozen=True)
class HandcraftedConfig:
    """Seven indicator substrings plus the three casing/length counters."""

    indicator_substrings: tuple[str, ...] = DEFAULT_INDICATORS

    def __post_init__(self):
        if len(self.indicator_substrings) != 7:
            raise ValueError(
                f"exactly 7 indicator substrings required, "
                f"got {len(self.indicator_substrings)}"
            )


def handcrafted(term_raw: str, cfg: HandcraftedConfig | None = None) -> np.ndarray:
    """The 10 hand-crafted features of the original term string.

    Positions 0-6: indicator substring present (case-sensitive). 7: character
    count. 8: upper-case letter count. 9: upper/lower ratio with the
    denominator floored at 1 (all-caps terms would otherwise divide by zero).
    """
    if cfg is None:
        cfg = HandcraftedConfig()
    out = np.zeros(HANDCRAFTED_WIDTH)
    for i, sub in enumerate(cfg.indicator_substrings):
        if sub in term_raw:
            out[i] = 1.0
    upper = sum(1 for ch in term_raw if ch.isupper())
    lower = sum(1 for ch in term_raw if ch.islower())
    out[7] = len(term_raw)
    out[8] = upper
    out[9] = upper / max(lower, 1)
    return out


class LabelSet:
    """Ordered class labels with their embedding vectors.

    The order is fixed at construction and shared by the classifier, the
    metrics and the distance features.
    """

    def __init__(self, labels, vectors):
        labels = tuple(labels)
        if len(labels) < 2:
            raise ValueError("at least 2 labels required")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.shape[0] != len(labels):
            raise ValueError("label/vector count mismatch")
        self.labels = labels
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def build(cls, labels, store: EmbeddingStore, resolver=None) -> "LabelSet":
        vecs = [
            embed_term(store, TermTokens.from_raw(lab), resolver) for lab in labels
        ]
        return cls(labels, np.vstack(vecs))

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms > 0.0, norms, 1.0)


def cosine_features(vecs, labels: LabelSet) -> np.ndarray:
    """(N, K) cosine distances, 1 - cosine similarity clipped to [0, 2], from
    each term vector to each label vector. A zero-norm term or label stays a
    zero row after normalisation, so its distances are exactly 1.

    The product is stacked as N one-row products, not one (N, D) @ (D, K)
    GEMM, whose blocking makes a row's rounding depend on the rows batched
    with it; this way a row's features are the same bits in any batch.
    """
    unit = _unit_rows(np.asarray(vecs, dtype=np.float64))
    sim = (unit[:, None, :] @ _unit_rows(labels.vectors).T)[:, 0, :]
    return np.clip(1.0 - sim, 0.0, 2.0)


def edit_features(texts, labels: LabelSet) -> np.ndarray:
    """(N, K) edit distances from each lowercased text to each lowercased label."""
    return distance.levenshtein_matrix(
        [t.lower() for t in texts], [lab.lower() for lab in labels.labels]
    ).astype(float)


class MinMaxScaler:
    """Column-wise affine map onto [-1, 1] learned from a training matrix.

    Constant columns map to 0. Values outside the fitted range extend
    beyond [-1, 1]; nothing is clipped.
    """

    def __init__(self):
        self.mins = None
        self.maxs = None

    def fit(self, matrix) -> "MinMaxScaler":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] < 1:
            raise ValueError("fit requires a 2-D matrix with at least one row")
        self.mins = matrix.min(axis=0)
        self.maxs = matrix.max(axis=0)
        return self

    @property
    def n_features(self) -> int:
        if self.mins is None:
            raise ValueError("scaler not fitted")
        return self.mins.shape[0]

    def transform(self, matrix) -> np.ndarray:
        matrix = np.asarray(matrix, dtype=np.float64)
        one_row = matrix.ndim == 1
        if one_row:
            matrix = matrix[None, :]
        if matrix.shape[1] != self.n_features:
            raise ValueError(
                f"column count {matrix.shape[1]} != fitted {self.n_features}"
            )
        span = self.maxs - self.mins
        safe = span > 0
        out = np.zeros_like(matrix)
        out[:, safe] = -1.0 + 2.0 * (matrix[:, safe] - self.mins[safe]) / span[safe]
        return out[0] if one_row else out

    def fit_transform(self, matrix) -> np.ndarray:
        return self.fit(matrix).transform(matrix)

    def state(self) -> dict:
        """JSON-safe fitted parameters; from_state() restores them exactly."""
        if self.mins is None:
            raise ValueError("scaler not fitted")
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_state(cls, state: dict) -> "MinMaxScaler":
        scaler = cls()
        scaler.mins = np.asarray(state["mins"], dtype=np.float64)
        scaler.maxs = np.asarray(state["maxs"], dtype=np.float64)
        if scaler.mins.ndim != 1 or scaler.mins.shape != scaler.maxs.shape:
            raise ValueError("mins and maxs must be 1-D and aligned")
        return scaler


@dataclass(frozen=True)
class FeatureConfig:
    """Which optional blocks to stack next to the embedding."""

    handcrafted: HandcraftedConfig | None = None
    cosine: bool = False
    edit: bool = False


def feature_width(dim: int, n_labels: int, fcfg: FeatureConfig) -> int:
    width = dim
    if fcfg.handcrafted is not None:
        width += HANDCRAFTED_WIDTH
    if fcfg.cosine:
        width += n_labels
    if fcfg.edit:
        width += n_labels
    return width


def assemble_features(
    raw_terms,
    texts,
    store: EmbeddingStore,
    resolver,
    labels: LabelSet,
    fcfg: FeatureConfig,
) -> np.ndarray:
    """Unscaled feature matrix, one row per term.

    raw_terms carry the casing/length signals; texts are what gets embedded
    and measured against the labels (identical to raw_terms when no
    augmentation ran).
    """
    if len(raw_terms) != len(texts):
        raise ValueError("raw_terms and texts must align")
    if len(raw_terms) == 0:
        raise ValueError("empty dataset")
    vecs = np.vstack(
        [embed_term(store, TermTokens.from_raw(text), resolver) for text in texts]
    )
    blocks = [vecs]
    if fcfg.handcrafted is not None:
        hcfg = fcfg.handcrafted
        blocks.append(np.vstack([handcrafted(raw, hcfg) for raw in raw_terms]))
    if fcfg.cosine:
        blocks.append(cosine_features(vecs, labels))
    if fcfg.edit:
        blocks.append(edit_features(texts, labels))
    return np.hstack(blocks)


def build_features(
    raw_terms,
    texts,
    store: EmbeddingStore,
    resolver,
    labels: LabelSet,
    fcfg: FeatureConfig,
):
    """Scaled training matrix plus the fitted scaler (reuse it for test rows)."""
    matrix = assemble_features(raw_terms, texts, store, resolver, labels, fcfg)
    scaler = MinMaxScaler().fit(matrix)
    return scaler.transform(matrix), scaler
