"""Feature blocks and scaling.

A full feature row is [embedding | 10 hand-crafted | K cosine | K edit
distance] in that fixed order, min-max scaled to [-1, 1] column-wise.
Hand-crafted features read the original term; the embedding and both
distance blocks read the (possibly definition-augmented) text. The labels
are plain strings, in the order the classifier and the metrics share.
"""
from __future__ import annotations

import sys

import numpy as np

from . import distance
from .embeddings import TokenTable, embed_term

INDICATORS = ("Inc.", "Corp", "Ltd", "Bank", "Index", "Rate", "%")
HANDCRAFTED_WIDTH = 10


def handcrafted(terms) -> np.ndarray:
    """The (N, 10) block of hand-crafted features of a sequence of N
    original term strings; a bare ``str`` raises TypeError.

    Positions 0-6: substring INDICATORS[i] present (case-sensitive). 7:
    character count. 8: upper-case letter count. 9: upper/lower ratio with
    the denominator floored at 1 (all-caps terms would otherwise divide by
    zero). The letter counts test each distinct character once and sum the
    tests per term.
    """
    if isinstance(terms, str):
        raise TypeError("terms must be a sequence of str, not a str")
    terms = list(terms)
    lens = np.array([len(t) for t in terms], dtype=np.intp)
    out = np.zeros((len(terms), HANDCRAFTED_WIDTH))
    for i, sub in enumerate(INDICATORS):
        out[:, i] = [sub in t for t in terms]
    chars, inverse = np.unique(distance.codes("".join(terms)), return_inverse=True)
    owner = np.repeat(np.arange(len(terms)), lens)

    def count(test) -> np.ndarray:
        """Characters of each term that pass test."""
        passed = np.array([test(chr(c)) for c in chars.tolist()], dtype=bool)
        return np.bincount(owner[passed[inverse]], minlength=len(terms))

    upper, lower = count(str.isupper), count(str.islower)
    out[:, 7] = lens
    out[:, 8] = upper
    out[:, 9] = upper / np.maximum(lower, 1)
    return out


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms > 0.0, norms, 1.0)


def cosine_features(vecs, label_vecs) -> np.ndarray:
    """(N, K) cosine distances, 1 - cosine similarity clipped to [0, 2], from
    each term vector to each of the (K, D) label vectors. A zero-norm term
    or label stays a zero row after normalisation, so its distances are
    exactly 1.

    The product is stacked as N one-row products, not one (N, D) @ (D, K)
    GEMM, whose blocking makes a row's rounding depend on the rows batched
    with it; this way a row's features are the same bits in any batch.
    """
    unit = _unit_rows(np.asarray(vecs, dtype=np.float64))
    unit_labels = _unit_rows(np.asarray(label_vecs, dtype=np.float64))
    sim = (unit[:, None, :] @ unit_labels.T)[:, 0, :]
    return np.clip(1.0 - sim, 0.0, 2.0)


def edit_features(texts, labels) -> np.ndarray:
    """(N, K) edit distances from each lowercased text to each of the K
    lowercased label strings."""
    return distance.levenshtein_matrix(
        [t.lower() for t in texts], [lab.lower() for lab in labels]
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
        """The rows of a 2-D matrix mapped by the fitted columns."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("transform requires a 2-D matrix")
        if matrix.shape[1] != self.n_features:
            raise ValueError(
                f"column count {matrix.shape[1]} != fitted {self.n_features}"
            )
        span = self.maxs - self.mins
        safe = span > 0
        out = np.zeros_like(matrix)
        out[:, safe] = -1.0 + 2.0 * (matrix[:, safe] - self.mins[safe]) / span[safe]
        return out

    def state(self) -> dict:
        """JSON-safe fitted parameters; from_state() restores them exactly."""
        if self.mins is None:
            raise ValueError("scaler not fitted")
        return {"mins": self.mins.tolist(), "maxs": self.maxs.tolist()}

    @classmethod
    def from_state(cls, state) -> "MinMaxScaler":
        """The scaler whose state() gave state. ValueError unless state is a
        dict whose mins and maxs are equal-length lists of finite numbers."""
        bounds = state if isinstance(state, dict) else {}
        mins, maxs = bounds.get("mins"), bounds.get("maxs")
        if not (
            _finite_numbers(mins) and _finite_numbers(maxs) and len(mins) == len(maxs)
        ):
            raise ValueError(
                "scaler mins and maxs must be equal-length lists of finite numbers"
            )
        scaler = cls()
        scaler.mins = np.array(mins, dtype=np.float64)
        scaler.maxs = np.array(maxs, dtype=np.float64)
        return scaler


def _finite_numbers(value) -> bool:
    """A JSON list of numbers, not bools, that float64 holds as finite
    values (NaN fails the comparison, and so does an int beyond its range)."""
    return isinstance(value, list) and all(
        isinstance(v, (int, float))
        and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
        for v in value
    )


def assemble_features(
    raw_terms,
    texts,
    table: TokenTable,
    labels,
    *,
    hand: bool = False,
    cosine: bool = False,
    edit: bool = False,
) -> np.ndarray:
    """Unscaled feature matrix, one row per term: the embedding, then each
    optional block that is switched on (hand-crafted, cosine, edit).

    raw_terms carry the casing/length signals; texts are what gets embedded
    and measured against the label strings (identical to raw_terms when no
    augmentation ran). The table must hold the tokens of the texts and of
    the labels, which are embedded from it only for the cosine block.
    """
    if len(raw_terms) != len(texts):
        raise ValueError("raw_terms and texts must align")
    if len(raw_terms) == 0:
        raise ValueError("empty dataset")
    vecs = embed_term(table, texts)
    blocks = [vecs]
    if hand:
        blocks.append(handcrafted(raw_terms))
    if cosine:
        blocks.append(cosine_features(vecs, embed_term(table, labels)))
    if edit:
        blocks.append(edit_features(texts, labels))
    return np.hstack(blocks)

