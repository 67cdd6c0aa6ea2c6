"""Out-of-vocabulary token resolution.

Three strategies: keep the zero vector, substitute the vocabulary word at
minimal edit distance, or substitute the best character-n-gram Jaccard match
(with an edit-distance fallback when no n-gram is shared). All string
comparison is lowercase-normalized, and resolution is a pure function of
the tokens and the store. Grams run from ``NGRAM_MIN`` to ``NGRAM_MAX``
characters, 3 to 6, fastText's subword range; every index uses that range.

One walk, ``_walk``, lists n-grams for every use: a prefix extension over
the concatenated symbols of some texts, which ranks each level's gram keys
to build an ``NgramIndex`` and looks them up in one to query it.
``best_ngram_matches`` scores a batch of texts in one numpy pass: a query
walk finds their indexed grams, a build walk over the texts alone counts
each one's distinct grams, one sort of (text, entry) keys counts the shared
postings, and one ``maximum.reduceat`` takes each text's best Jaccard
score. The edit-distance tie-break runs only for a text whose best score
two or more entries share. A run resolves all of its OOV tokens in one call.

Two caches of a store loaded from a file sit beside that file: its n-gram
index, ``<store>.finhyp-ngram-3-6.npz``, and its lowercased vocabulary
packed for ``distance.nearest``, ``<store>.finhyp-pack.npz``. One path,
``_cached``, reads or builds each. A cache is an uncompressed numpy archive
of records (a format version, for the index the gram range, the entry count,
the store file's SHA-256, ``EmbeddingStore.sha256``, which also keys the
store's own sidecar, and the interpreter's Unicode version, as
``str.lower()`` depends on it), then the structure's ``arrays``:
``_MEMBERS`` for the index, ``_PACK_MEMBERS`` for the pack. A cache whose
records all match, and whose arrays pass the structure's own checks,
``NgramIndex.from_arrays`` or ``distance.PackedWords.from_arrays``, is used
in place of a build; the index or pack is the same arrays either way. Any
other cache is rebuilt and rewritten, so a rewrite of the store file that
changes only its vectors rebuilds each once. The index is read or written
only by ``build_ngram_index`` and the pack only by ``pack_vocabulary``, so a
run touches a cache only when it needs what it holds. A failed write is
ignored, so deleting a cache is always safe. A store without a digest (read
from a pipe, built in memory, or changed while it was parsed) is indexed and
packed in memory only.
"""
from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import distance
from .distance import _find, _first, _sorted_unique, codes
from .embeddings import EmbeddingStore
from .fileio import read_cache, write_cache

VARIANTS = ("zero", "levenshtein", "ngram")

# The lengths of the grams that are indexed and matched.
NGRAM_MIN, NGRAM_MAX = 3, 6

INDEX_SUFFIX = f".finhyp-ngram-{NGRAM_MIN}-{NGRAM_MAX}.npz"
# Bump when the index's arrays, or the build that makes them, change.
_INDEX_VERSION = 3
# Names of the arrays an index is made of, in the order of its cache.
_MEMBERS = [
    "alphabet",
    *(f"keys{n}" for n in range(2, NGRAM_MAX + 1)),
    "indptr",
    "post",
    "count",
]
PACK_SUFFIX = ".finhyp-pack.npz"
# Bump when the pack's arrays, or the build that makes them, change.
_PACK_VERSION = 1
_PACK_MEMBERS = ["alphabet", "order", "sizes", "symbols"]
# Most postings one pass of ``best_ngram_matches`` expands; a text with more
# has a pass of its own.
_POSTINGS = 1 << 14


def _rank(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a, ascending, and each entry's index among them."""
    order = np.argsort(a)
    a = a[order]
    first = _first(a)
    rank = np.empty(len(a), dtype=np.int64)
    rank[order] = np.cumsum(first) - 1
    return a[first], rank


def _walk(lows: list[str], index=None):
    """Alphabet and keys, then the gram and text arrays of the distinct
    (gram, text) pairs of the texts lows, sorted by gram, then text.

    A character's symbol is its index in alphabet (sorted code points), and
    a 1-gram's id is its symbol. An n-gram's key is ``prefix_id * A +
    last_symbol``, A = len(alphabet), and its id is the key's index in
    ``keys[n]``, the level's sorted distinct keys. Without an index the
    walk builds: alphabet is the texts' own, and it ranks every level's
    keys into a new dict. With one it queries: it takes the index's
    alphabet and keys and looks each key up, and a gram that is absent
    leaves the walk with every gram that extends it; a character outside
    alphabet ends every gram that reaches it. Grams of length
    NGRAM_MIN..NGRAM_MAX are paired by global id: their id plus
    ``len(keys[m])`` for each level m from NGRAM_MIN below theirs.
    """
    build = index is None
    points = codes("".join(lows))
    alphabet = _sorted_unique(points) if build else index.alphabet
    keys = {1: np.arange(len(alphabet))} if build else index.keys
    lens = np.array([len(low) for low in lows], dtype=np.int64)
    sym = _find(alphabet, points)
    text = np.repeat(np.arange(len(lows)), lens)
    # where the grams from each position must stop: the end of its text or
    # its text's next character outside alphabet
    ends = np.sort(np.concatenate((np.cumsum(lens), np.flatnonzero(sym < 0))))
    left = np.repeat(ends, np.diff(ends, prepend=0)) - np.arange(len(sym))
    width = len(alphabet)
    starts = np.flatnonzero(sym >= 0)
    ids, grams, texts, n_grams = sym[starts], [], [], 0
    for n in range(1, NGRAM_MAX + 1):
        if n > 1:
            keep = left[starts] >= n
            starts = starts[keep]
            key = ids[keep] * width + sym[starts + n - 1]
            if build:
                keys[n], ids = _rank(key)
            else:
                ids = _find(keys[n], key)
                starts, ids = starts[ids >= 0], ids[ids >= 0]
        if n >= NGRAM_MIN:
            grams.append(n_grams + ids)
            texts.append(text[starts])
            n_grams += len(keys[n])
    stride = max(len(lows), 1)
    pairs = _sorted_unique(np.concatenate(grams) * stride + np.concatenate(texts))
    return (alphabet, keys, *np.divmod(pairs, stride))


class NgramIndex:
    """Inverted index from character n-grams to entry ids, as flat arrays.

    A build walk (``_walk``) over the lowercased entries gives ``alphabet``
    and each level's keys ``keys[n]``, which stay below (distinct
    (n-1)-grams) * len(alphabet), so never overflow int64. Grams of length
    n in NGRAM_MIN..NGRAM_MAX get global ids: their id plus ``len(keys[m])``
    for each level m from NGRAM_MIN below n. Entry ids of gram g are
    ``post[indptr[g]:indptr[g + 1]]``, ascending, and ``count[i]`` is the
    number of distinct grams of entry i. The index keeps the entries as
    given. ``_assign`` alone sets these attributes, and ``arrays``, their
    dict by ``_MEMBERS`` name, for a build and a cache (``from_arrays``)
    alike. Immutable after build.
    """

    def __init__(self, entries):
        entries = list(entries)
        lower = [e.lower() for e in entries]
        alphabet, keys, gram, post = _walk(lower)
        n_grams = sum(len(keys[n]) for n in range(NGRAM_MIN, NGRAM_MAX + 1))
        indptr = np.zeros(n_grams + 1, dtype=np.int64)
        np.cumsum(np.bincount(gram, minlength=n_grams), out=indptr[1:])
        count = np.bincount(post, minlength=len(entries))
        arrays = {f"keys{n}": keys[n] for n in range(2, NGRAM_MAX + 1)}
        arrays.update(alphabet=alphabet, indptr=indptr, post=post, count=count)
        self._assign(entries, arrays)

    def _assign(self, entries: list, arrays: dict):
        """Make this the index of entries whose arrays, by ``_MEMBERS``
        name, are arrays."""
        self.entries = entries
        self.arrays = arrays
        self.alphabet = arrays["alphabet"]
        self.keys = {1: np.arange(len(self.alphabet))}
        self.keys.update({n: arrays[f"keys{n}"] for n in range(2, NGRAM_MAX + 1)})
        self.indptr = arrays["indptr"]
        self.post = arrays["post"]
        self.count = arrays["count"]

    @classmethod
    def from_arrays(cls, arrays: dict, entries) -> NgramIndex | None:
        """The index of entries whose arrays, by ``_MEMBERS`` name, are
        arrays, if they are consistent, else None."""
        if any(a.ndim != 1 for a in arrays.values()):
            return None
        if arrays["alphabet"].dtype != np.int32:
            return None
        if any(arrays[name].dtype != np.int64 for name in _MEMBERS[1:]):
            return None
        # _find looks symbols and keys up by searchsorted
        if any(np.any(arrays[n][1:] <= arrays[n][:-1]) for n in _MEMBERS[:NGRAM_MAX]):
            return None
        index = cls.__new__(cls)
        index._assign(list(entries), arrays)
        indptr, post = index.indptr, index.post
        n_grams = sum(len(index.keys[n]) for n in range(NGRAM_MIN, NGRAM_MAX + 1))
        # Every gram id that best_ngram_matches can look up indexes indptr,
        # every posting indexes the entries, and count is what the build would
        # have made.
        if len(indptr) != n_grams + 1 or indptr[0] != 0 or indptr[-1] != len(post):
            return None
        if np.any(indptr[1:] < indptr[:-1]):
            return None
        if np.any(post < 0) or np.any(post >= len(entries)):
            return None
        if not np.array_equal(index.count, np.bincount(post, minlength=len(entries))):
            return None
        return index


def build_ngram_index(store: EmbeddingStore) -> NgramIndex:
    """The n-gram index of the store's vocabulary, read from its cache beside
    the store file when that is valid, else built (and, for a store with a
    digest, cached); see the module docstring."""
    read = partial(NgramIndex.from_arrays, entries=store.vocab)
    build = partial(NgramIndex, store.vocab)
    ngrams = np.array([NGRAM_MIN, NGRAM_MAX], dtype=np.int64)
    return _cached(
        store, INDEX_SUFFIX, _INDEX_VERSION, _MEMBERS, read, build, ngrams=ngrams
    )


def pack_vocabulary(store: EmbeddingStore) -> distance.PackedWords:
    """The store's lowercased vocabulary packed for ``distance.nearest``, read
    from its cache beside the store file when that is valid, else packed
    (and, for a store with a digest, cached); see the module docstring."""
    read = partial(distance.PackedWords.from_arrays, count=len(store))

    def build():
        return distance.PackedWords([t.lower() for t in store.vocab])

    return _cached(store, PACK_SUFFIX, _PACK_VERSION, _PACK_MEMBERS, read, build)


def _cached(store: EmbeddingStore, suffix, version, members, read, build, **extra):
    """read(arrays) of the cache at the store's path plus suffix if valid,
    else build(), written there in members order; see the module docstring."""
    if store.sha256 is None:
        return build()
    path = store.path + suffix
    records = {
        "version": np.array([version], dtype=np.int64),
        **extra,
        "entries": np.array([len(store)], dtype=np.int64),
        "sha256": np.frombuffer(store.sha256, dtype=np.uint8),
        "unicode": np.frombuffer(unicodedata.unidata_version.encode(), np.uint8),
    }
    cached = read_cache(path, records, members, read)
    if cached is None:
        cached = build()
        write_cache(path, {**records, **{n: cached.arrays[n] for n in members}})
    return cached


def best_ngram_matches(texts, index: NgramIndex) -> list:
    """Entry sharing the most n-gram mass with each text, as (entry_id,
    jaccard), or None for a text that shares no n-gram with any entry.

    Ties are broken by smaller edit distance to the lowercased entry, then
    shorter entry, then lexicographic order, then smaller id. Every text is
    scored in one numpy pass: each is lowercased on its own (a final sigma
    lowercases by context), its (text, entry) posting pairs are counted by
    one sort, and the best score of each text is one ``maximum.reduceat``.
    The postings are expanded in passes of whole texts of at most
    ``_POSTINGS`` postings each, or of one text that has more on its own.
    """
    lows = [t.lower() for t in texts]
    out = [None] * len(lows)
    _, _, gram, text = _walk(lows, index)
    if not len(text):
        return out
    order = np.argsort(text, kind="stable")
    text, gram = text[order], gram[order]
    # each text's distinct grams, indexed or not
    own = _walk(lows)[3]
    size = np.bincount(own, minlength=len(lows))
    lo = index.indptr[gram]
    span = index.indptr[gram + 1] - lo
    # first pair of each text, and the postings before it
    bounds = np.searchsorted(text, np.arange(len(lows) + 1))
    before = np.concatenate(([0], np.cumsum(span)))[bounds]
    t = 0
    while t < len(lows):
        # the whole texts from t whose postings fit in _POSTINGS, at least one
        end = np.searchsorted(before, before[t] + _POSTINGS, "right") - 1
        end = max(int(end), t + 1)
        part = slice(bounds[t], bounds[end])
        t = end
        if part.start == part.stop:
            continue
        tid, entry, scores = _jaccard(text[part], lo[part], span[part], size, index)
        seg = np.flatnonzero(_first(tid))
        best = np.maximum.reduceat(scores, seg)
        top = scores == np.repeat(best, np.diff(np.append(seg, len(tid))))
        tied = np.split(entry[top], np.flatnonzero(_first(tid[top]))[1:])
        for i, score, ids in zip(tid[seg].tolist(), best.tolist(), tied):
            ids = ids.tolist()
            out[i] = (ids[0] if len(ids) == 1 else _closest(lows[i], ids, index)), score
    return out


def _jaccard(text, lo, span, size, index: NgramIndex):
    """Distinct (text, entry) pairs of the postings of the (text, gram) pairs
    whose posting lists start at lo and hold span entries, sorted, and each
    pair's Jaccard score: shared grams / (text's grams + entry's - shared)."""
    at = np.arange(span.sum()) + np.repeat(lo - np.cumsum(span) + span, span)
    n_entries = len(index.count)
    key = np.sort(np.repeat(text, span) * n_entries + index.post[at])
    runs = np.flatnonzero(_first(key))
    inter = np.diff(np.append(runs, len(key)))
    tid, entry = np.divmod(key[runs], n_entries)
    return tid, entry, inter / (size[tid] + index.count[entry] - inter)


def _closest(low: str, ids: list[int], index: NgramIndex) -> int:
    """The id among ascending ids whose lowercased entry comes first by
    (edit distance to low, length, entry); the smaller id on a tie.

    The length gap |len(low) - len(entry)| is a lower bound on the edit
    distance, so the candidates are visited in order of (gap, length,
    entry, id), and the scan stops at the first whose (gap, length, entry)
    is not below the best key found so far: neither it nor any later
    candidate can come first. Candidates with an equal key share their gap,
    so they are visited in id order and the first one found is kept."""
    words = ((index.entries[i].lower(), i) for i in ids)
    candidates = sorted((abs(len(w) - len(low)), len(w), w, i) for w, i in words)
    best = (math.inf,)
    for gap, size, word, i in candidates:
        if (gap, size, word) >= best:
            break
        key = (distance.levenshtein(low, word), size, word)
        if key < best:
            best, closest = key, i
    return closest


@dataclass(frozen=True)
class OOVStrategy:
    """Configured OOV behaviour; the package's only OOV resolver.
    ``levenshtein`` substitutes the vocabulary word nearest the lowercased
    token by edit distance (``distance.nearest``), ``ngram`` the best n-gram
    match (``best_ngram_matches``), or that word when none exists.

    A strategy holds its settings only, so ``resolve_all`` is a function of
    its arguments. A run calls it once with all of its OOV tokens, so that
    the run's n-gram matching is one ``best_ngram_matches`` call and its
    edit-distance scan one ``distance.nearest`` call; ``resolve`` is
    ``resolve_all`` of one token. A call with no token to resolve never
    touches the store, so a run without OOV tokens builds no index; on an
    empty store a call raises ValueError, before any index is built. The
    index comes from ``build_ngram_index``, which caches it beside the store
    file; only the n-gram variant reads or writes that cache. The packed
    vocabulary comes from ``pack_vocabulary``, which caches it beside the
    store file too, and is needed only for tokens that get an edit-distance
    scan: the zero variant, and an n-gram call whose tokens all share an
    n-gram with some entry, never read or write that cache.
    """

    variant: str = "zero"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"OOV variant must be one of {', '.join(VARIANTS)}, "
                f"got {self.variant!r}"
            )

    def resolve(self, token: str, store: EmbeddingStore) -> str | None:
        """Vocabulary substitute for an OOV token, or None for zero-vector."""
        return self.resolve_all([token], store)[0]

    def resolve_all(self, tokens, store: EmbeddingStore) -> list:
        """The substitute of each OOV token of tokens, None under ``zero``.
        Under ``ngram`` the distinct tokens are matched in one
        ``best_ngram_matches`` call, and those without an n-gram match are
        scanned in one ``distance.nearest`` call over their lowercased
        forms."""
        tokens = list(tokens)
        if self.variant == "zero" or not tokens:
            return [None] * len(tokens)
        if len(store) == 0:
            raise ValueError("empty vocabulary")
        found = dict.fromkeys(tokens)
        scan = list(found)
        if self.variant == "ngram":
            index = build_ngram_index(store)
            for token, match in zip(scan, best_ngram_matches(scan, index)):
                if match is not None:
                    found[token] = store.vocab[match[0]]
            scan = [t for t in scan if found[t] is None]
        if scan:
            near = distance.nearest([t.lower() for t in scan], pack_vocabulary(store))
            for token, (i, _) in zip(scan, near):
                found[token] = store.vocab[i]
        return [found[t] for t in tokens]
