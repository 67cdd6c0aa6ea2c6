"""Out-of-vocabulary token resolution.

Three strategies: keep the zero vector, substitute the vocabulary word at
minimal edit distance, or substitute the best character-n-gram Jaccard match
(with an edit-distance fallback when no n-gram is shared). All string
comparison is lowercase-normalized; resolution is pure and memoized per run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import distance
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


class NgramIndex:
    """Inverted index from character n-grams to entry ids.

    Entries are lowercased before indexing; immutable after build.
    """

    def __init__(self, entries, ngram_min: int = 3, ngram_max: int = 6):
        if not (1 <= ngram_min <= ngram_max):
            raise ValueError("require 1 <= ngram_min <= ngram_max")
        self.entries = list(entries)
        self.entries_lower = [e.lower() for e in self.entries]
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        self.entry_grams: list[frozenset[str]] = []
        self.grams: dict[str, set[int]] = {}
        for i, low in enumerate(self.entries_lower):
            gs = char_ngrams(low, ngram_min, ngram_max)
            self.entry_grams.append(gs)
            for g in gs:
                self.grams.setdefault(g, set()).add(i)


def build_ngram_index(store: EmbeddingStore, strategy: "OOVStrategy") -> NgramIndex:
    return NgramIndex(store.vocab, strategy.ngram_min, strategy.ngram_max)


def resolve_levenshtein(token: str, store: EmbeddingStore, vocab=None) -> str:
    """Vocabulary word at minimal edit distance from the lowercased token.

    Ties go to the shorter word, then the lexicographically smaller one.
    ``vocab`` is ``store.vocab_lower`` as ``distance.pack`` returned it, when
    the caller keeps one for repeated scans.
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
    query = char_ngrams(text.lower(), index.ngram_min, index.ngram_max)
    if not query:
        return None
    ids: set[int] = set()
    for g in query:
        hits = index.grams.get(g)
        if hits:
            ids |= hits
    if not ids:
        return None
    scored = []
    for i in sorted(ids):
        gs = index.entry_grams[i]
        inter = len(query & gs)
        union = len(query | gs)
        scored.append((inter / union, i))
    best_score = max(s for s, _ in scored)
    low = text.lower()
    best = min(
        (i for s, i in scored if s == best_score),
        key=lambda i: (
            levenshtein(low, index.entries_lower[i]),
            len(index.entries_lower[i]),
            index.entries_lower[i],
        ),
    )
    return best, best_score


def resolve_ngram(
    token: str, index: NgramIndex, store: EmbeddingStore, vocab=None
) -> str:
    """Best n-gram Jaccard match from the vocabulary, falling back to the
    nearest-edit-distance word when no n-gram is shared. ``vocab`` is as in
    resolve_levenshtein."""
    if len(store) == 0:
        raise ValueError("empty vocabulary")
    match = best_ngram_match(token, index)
    if match is None:
        return resolve_levenshtein(token, store, vocab)
    return store.vocab[match[0]]


@dataclass
class OOVStrategy:
    """Configured OOV behaviour, bound lazily to a store.

    The packed vocabulary, the n-gram index and the per-token memo are
    rebuilt whenever the strategy is used against a different store. Memo
    insertion is idempotent, so concurrent lookups of the same token are
    safe.
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
    _vocab: object = field(default=None, repr=False, compare=False, init=False)
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
            self._vocab = distance.pack(store.vocab_lower)
            self._index = (
                build_ngram_index(store, self) if self.variant == "ngram" else None
            )
        if token in self._memo:
            return self._memo[token]
        if self.variant == "levenshtein":
            sub = resolve_levenshtein(token, store, self._vocab)
        else:
            sub = resolve_ngram(token, self._index, store, self._vocab)
        self._memo[token] = sub
        return sub
