"""Out-of-vocabulary token resolution.

Three strategies: keep the zero vector, substitute the vocabulary word at
minimal edit distance, or substitute the best character-n-gram Jaccard match
(with an edit-distance fallback when no n-gram is shared). All string
comparison is lowercase-normalized; resolution is pure and memoized per run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distance
from .distance import _find, codes
from .embeddings import EmbeddingStore

levenshtein = distance.levenshtein

VARIANTS = ("zero", "levenshtein", "ngram")


def char_ngrams(text: str, n_min: int, n_max: int) -> frozenset[str]:
    """All contiguous substrings of text with length in [n_min, n_max]."""
    out = set()
    for n in range(n_min, n_max + 1):
        for i in range(len(text) - n + 1):
            out.add(text[i : i + n])
    return frozenset(out)


def _first(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted a that differ from their predecessor."""
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return first


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """Distinct values of a, ascending: one sort and an adjacent-difference
    mask (numpy 2's hash-based ``np.unique`` is several times slower here)."""
    a = np.sort(a)
    return a[_first(a)]


def _rank(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a, ascending, and each entry's index among them."""
    order = np.argsort(a)
    a = a[order]
    first = _first(a)
    rank = np.empty(len(a), dtype=np.int64)
    rank[order] = np.cumsum(first) - 1
    return a[first], rank


class NgramIndex:
    """Inverted index from character n-grams to entry ids, as flat arrays.

    Entries are lowercased and mapped to a dense alphabet of ``A`` symbols.
    Every n-gram gets an exact integer id by prefix extension: its key is
    ``prefix_id * A + last_symbol``, where ``prefix_id`` is the id of its
    (n-1)-prefix, and its id is the key's rank among the level's sorted
    distinct keys (``keys[n]``; a 1-gram's id is its symbol). Keys stay
    below (distinct (n-1)-grams) * A, so they never overflow int64. Grams of
    length ngram_min..ngram_max get global ids ``offset[n] + id``; entry ids
    of gram g are ``post[indptr[g]:indptr[g + 1]]``, ascending, and
    ``count[i]`` is the number of distinct grams of entry i. Immutable after
    build.
    """

    def __init__(self, entries, ngram_min: int = 3, ngram_max: int = 6):
        if not (1 <= ngram_min <= ngram_max):
            raise ValueError("require 1 <= ngram_min <= ngram_max")
        self.entries = list(entries)
        self.entries_lower = [e.lower() for e in self.entries]
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        n_entries = len(self.entries_lower)
        stride = max(n_entries, 1)
        lens = np.array([len(e) for e in self.entries_lower], dtype=np.int64)
        self.alphabet, sym = np.unique(
            codes("".join(self.entries_lower)), return_inverse=True
        )
        sym = sym.astype(np.int64)
        width = len(self.alphabet)
        entry = np.repeat(np.arange(n_entries), lens)
        # characters left in the entry from each position, itself included
        left = np.repeat(np.cumsum(lens), lens) - np.arange(len(sym))
        self.keys = {1: np.arange(width)}
        self.offset: dict[int, int] = {}
        pairs, n_grams = [], 0
        starts, ids = np.arange(len(sym)), sym
        for n in range(1, ngram_max + 1):
            if n > 1:
                keep = left[starts] >= n
                starts = starts[keep]
                key = ids[keep] * width + sym[starts + n - 1]
                self.keys[n], ids = _rank(key)
            if n >= ngram_min:
                self.offset[n] = n_grams
                pairs.append((n_grams + ids) * stride + entry[starts])
                n_grams += len(self.keys[n])
        pairs = _sorted_unique(np.concatenate(pairs))
        gram, self.post = np.divmod(pairs, stride)
        self.indptr = np.zeros(n_grams + 1, dtype=np.int64)
        np.cumsum(np.bincount(gram, minlength=n_grams), out=self.indptr[1:])
        self.count = np.bincount(self.post, minlength=n_entries)

    def gram_ids(self, text: str) -> np.ndarray:
        """Global ids of the distinct indexed n-grams of text (lowercased),
        ascending; grams absent from the index are left out."""
        q = codes(text.lower())
        ids = sym = _find(self.alphabet, q)
        out = []
        for n in range(1, min(self.ngram_max, len(q)) + 1):
            if n > 1:
                prev, last = ids[:-1], sym[n - 1 :]
                key = prev * len(self.alphabet) + last
                ids = np.where(
                    (prev >= 0) & (last >= 0), _find(self.keys[n], key), -1
                )
            if n >= self.ngram_min:
                out.append(self.offset[n] + ids[ids >= 0])
        return _sorted_unique(np.concatenate(out)) if out else np.zeros(0, np.int64)


def build_ngram_index(store: EmbeddingStore, strategy: "OOVStrategy") -> NgramIndex:
    return NgramIndex(store.vocab, strategy.ngram_min, strategy.ngram_max)


def resolve_levenshtein(token: str, store: EmbeddingStore, vocab=None) -> str:
    """Vocabulary word at minimal edit distance from the lowercased token.

    Ties go to the shorter word, then the lexicographically smaller one.
    ``vocab`` is ``store.vocab_lower`` packed as a ``distance.PackedWords``,
    when the caller keeps one for repeated scans.
    """
    if len(store) == 0:
        raise ValueError("empty vocabulary")
    i, _ = distance.nearest(
        token.lower(), store.vocab_lower if vocab is None else vocab
    )
    return store.vocab[i]


def best_ngram_match(text: str, index: NgramIndex):
    """Entry sharing the most n-gram mass with text, as (entry_id, jaccard).

    Returns None when text shares no n-gram with any entry. Ties are broken
    by smaller edit distance, then shorter entry, then lexicographic order.
    """
    grams = index.gram_ids(text)
    if not len(grams):
        return None
    low = text.lower()
    size = len(char_ngrams(low, index.ngram_min, index.ngram_max))
    # concatenated posting lists of the shared grams, one bincount over them
    lo, hi = index.indptr[grams], index.indptr[grams + 1]
    span = hi - lo
    at = np.arange(span.sum()) + np.repeat(lo - np.cumsum(span) + span, span)
    shared = np.bincount(index.post[at])
    ids = np.flatnonzero(shared)
    inter = shared[ids]
    scores = inter / (size + index.count[ids] - inter)
    best_score = float(scores.max())
    best = min(
        ids[scores == best_score].tolist(),
        key=lambda i: (
            levenshtein(low, index.entries_lower[i]),
            len(index.entries_lower[i]),
            index.entries_lower[i],
        ),
    )
    return best, best_score


def resolve_ngram(token: str, index: NgramIndex, store: EmbeddingStore) -> str:
    """Best n-gram Jaccard match from the vocabulary, falling back to the
    nearest-edit-distance word when no n-gram is shared."""
    if len(store) == 0:
        raise ValueError("empty vocabulary")
    match = best_ngram_match(token, index)
    if match is None:
        return resolve_levenshtein(token, store)
    return store.vocab[match[0]]


@dataclass
class OOVStrategy:
    """Configured OOV behaviour, bound lazily to a store.

    The n-gram index and the per-token memo are rebuilt whenever the
    strategy is used against a different store; the packed vocabulary is
    built for it on the first edit-distance scan, which the n-gram variant
    needs only for tokens that share no n-gram. Memo insertion is
    idempotent, so concurrent lookups of the same token are safe.
    """

    variant: str = "zero"
    ngram_min: int = 3
    ngram_max: int = 6
    _store: EmbeddingStore | None = field(
        default=None, repr=False, compare=False, init=False
    )
    _index: NgramIndex | None = field(
        default=None, repr=False, compare=False, init=False
    )
    _vocab: distance.PackedWords | None = field(
        default=None, repr=False, compare=False, init=False
    )
    _memo: dict = field(default_factory=dict, repr=False, compare=False, init=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown OOV variant {self.variant!r}")
        if not (1 <= self.ngram_min <= self.ngram_max):
            raise ValueError("require 1 <= ngram_min <= ngram_max")

    def resolve(self, token: str, store: EmbeddingStore) -> str | None:
        """Vocabulary substitute for an OOV token, or None for zero-vector."""
        if self.variant == "zero":
            return None
        if store is not self._store:
            self._store = store
            self._memo = {}
            self._vocab = None
            self._index = (
                build_ngram_index(store, self) if self.variant == "ngram" else None
            )
        if token in self._memo:
            return self._memo[token]
        match = None if self._index is None else best_ngram_match(token, self._index)
        if match is not None:
            sub = store.vocab[match[0]]
        else:
            if self._vocab is None:
                self._vocab = distance.PackedWords(store.vocab_lower)
            sub = resolve_levenshtein(token, store, self._vocab)
        self._memo[token] = sub
        return sub
