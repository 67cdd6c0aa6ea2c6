"""Edit distance: Myers' bit-parallel algorithm.

Myers' algorithm (Myers 1999, *JACM* 46:395, in the form of Hyyrö 2001)
keeps one column of the DP between a pattern and a text as two bit vectors,
the +1 and -1 vertical deltas, and advances it by one text character in a
few word operations. A text's distance is its length plus the deltas summed
down the last column.

``levenshtein_matrix`` (the edit-feature block) and ``nearest`` (the OOV
scans of a vocabulary packed once per store, ``PackedWords``) run it in
numpy: each pattern of at most 64 characters is one uint64 word, the texts
are the lanes of the vector axis, the patterns a second axis, and the loop
runs over text positions. Texts are mapped to a dense alphabet of small
unsigned symbols; a pattern character outside it matches nothing. The
scalar ``levenshtein`` runs the algorithm on Python ints, which have no
width limit: the n-gram tie-breaks call it, and so does each pair of
``levenshtein_matrix`` whose pattern is longer than 64 characters.

``nearest`` takes all of a run's queries at once. It scans the packed
vocabulary's length groups in rings r = 0, 1, 2, ... of |length - len(query)|,
and at each ring scans a group once, in one Myers pass whose patterns are
every open query at that gap; a longer query is a lane instead, with the
group's words as patterns. A pass holds at most ``_CHUNK`` lanes x
patterns; a larger one is split. A bare ``str`` is not a batch of queries,
and raises TypeError.
"""
from __future__ import annotations

import numpy as np

# The edit-distance implementation in use. perfbench records it with every
# result, and its compare.py refuses to compare results whose values differ.
BACKEND = "python"

# Longest pattern that fits one uint64 word of Myers' algorithm.
_WORD = 64
# Most lanes x patterns in one Myers pass, and symbols x patterns in one
# ``levenshtein_matrix`` match table: each uint64 array holds at most 8 MiB.
_CHUNK = 1 << 20
_ONE = np.uint64(1)
_PAIRS = np.uint64(0x5555555555555555)
_NIBBLES = np.uint64(0x3333333333333333)
_BYTES = np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTE_SUM = np.uint64(0x0101010101010101)


def codes(text: str) -> np.ndarray:
    """Code points of text as a read-only int32 array, accepting every ``str``
    (code points stop at 0x10FFFF, so int32 holds them all)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<i4")


def levenshtein(a: str, b: str) -> int:
    """Minimal number of single-character edits turning ``a`` into ``b``."""
    # The longer string is the pattern, of any length, so the loop runs over
    # the shorter.
    if len(a) < len(b):
        a, b = b, a
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | 1 << i
    mask = (1 << len(a)) - 1
    pv, mv = mask, 0
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = (mv | ~(xh | pv)) << 1 | 1
        mh = (pv & xh) << 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return len(b) + pv.bit_count() - (mv & mask).bit_count()


def _find(keys: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Index of each key in the sorted distinct keys, or -1 where absent."""
    at = np.searchsorted(keys, key)
    hit = at < len(keys)
    hit[hit] = keys[at[hit]] == key[hit]
    return np.where(hit, at, -1)


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


def _alphabet(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct code points of points, and a table from each code
    point up to the largest to its symbol, its index among them. The table
    has the smallest unsigned dtype that also holds their count: the pack
    cache's ``symbols`` has that dtype, and ``oov._read_pack`` checks it."""
    alphabet = _sorted_unique(points)
    size = int(alphabet[-1]) + 1 if len(alphabet) else 0
    table = np.zeros(size, dtype=np.min_scalar_type(len(alphabet)))
    table[alphabet] = np.arange(len(alphabet))
    return alphabet, table


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a uint64 array, as int64 (numpy 1.x has no
    bitwise_count). Bit counts are summed in pairs, nibbles and bytes; the
    multiply adds the eight byte counts into the top byte."""
    x = x - ((x >> _ONE) & _PAIRS)
    x = (x & _NIBBLES) + ((x >> np.uint64(2)) & _NIBBLES)
    x = (x + (x >> np.uint64(4))) & _BYTES
    return ((x * _BYTE_SUM) >> np.uint64(56)).astype(np.int64)


def _myers(peq: np.ndarray, sym_t: np.ndarray, active, mask) -> np.ndarray:
    """Summed vertical deltas of the last DP column of each lane.

    ``peq[s]`` holds the match bits of symbol s for each pattern (shape
    (A,) or (A, K)); ``sym_t`` is (L, n), lane r's text down column r. Step
    j advances only the first ``active[j]`` lanes, so a lane whose text is
    shorter than L must come after every longer one, and its vectors stay
    as its last character left them. ``mask`` has the low m bits set for a
    pattern of m characters.
    """
    shape = (sym_t.shape[1],) + peq.shape[1:]
    pv = np.empty(shape, dtype=np.uint64)
    pv[...] = mask
    mv = np.zeros(shape, dtype=np.uint64)
    for j, n in enumerate(active):
        eq = peq[sym_t[j, :n]]
        p, m = pv[:n], mv[:n]
        xv = eq | m
        xh = (((eq & p) + p) ^ p) | eq
        # The top row of a global distance grows by 1 per text character.
        ph = ((m | ~(xh | p)) << _ONE) | _ONE
        mh = (p & xh) << _ONE
        p[...] = mh | ~(xv | ph)
        m[...] = ph & xv
    return _popcount(pv & mask) - _popcount(mv & mask)


def _peq(alphabet: np.ndarray, patterns) -> tuple[np.ndarray, np.ndarray]:
    """(A, K) match bits of K patterns of at most 64 characters over the
    alphabet, and their (K,) masks."""
    lens = np.array([len(p) for p in patterns], dtype=np.intp)
    sym = _find(alphabet, codes("".join(patterns)))
    pattern = np.repeat(np.arange(len(patterns)), lens)
    bit = np.arange(len(sym)) - np.repeat(np.cumsum(lens) - lens, lens)
    hit = sym >= 0
    peq = np.zeros((len(alphabet), len(patterns)), dtype=np.uint64)
    np.bitwise_or.at(
        peq, (sym[hit], pattern[hit]), _ONE << bit[hit].astype(np.uint64)
    )
    # 2**64 - 1 is computed exactly in Python; a uint64 shift by 64 is not.
    masks = np.array([2**m - 1 for m in lens.tolist()], dtype=np.uint64)
    return peq, masks


def levenshtein_matrix(texts, targets) -> np.ndarray:
    """(N, K) int32 distances from each of N texts to each of K targets.

    The texts are the lanes, longest first, and the targets of at most 64
    characters the patterns of Myers passes over text positions, sliced to
    stay within ``_CHUNK``; a longer target's column comes from ``levenshtein``.
    """
    texts = list(texts)
    targets = list(targets)
    lens = np.array([len(t) for t in texts], dtype=np.intp)
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    width = int(lens[0]) if len(texts) else 0
    points = codes("".join(texts[i] for i in order.tolist()))
    alphabet, table = _alphabet(points)
    sym_t = np.zeros((width, len(texts)), dtype=table.dtype)
    sym_t.T[np.arange(width) < lens[:, None]] = table[points]
    # lanes still inside their text at each position
    active = len(texts) - np.searchsorted(lens[::-1], np.arange(width), side="right")
    out = np.empty((len(texts), len(targets)), dtype=np.int32)
    short = [k for k, t in enumerate(targets) if len(t) <= _WORD]
    step = max(1, _CHUNK // max(len(texts), len(alphabet), 1))
    for at in range(0, len(short), step):
        part = short[at : at + step]
        peq, masks = _peq(alphabet, [targets[k] for k in part])
        deltas = _myers(peq, sym_t, active.tolist(), masks)
        out[order[:, None], part] = lens[:, None] + deltas
    for k, target in enumerate(targets):
        if len(target) > _WORD:
            out[:, k] = [levenshtein(t, target) for t in texts]
    return out


class PackedWords:
    """A word list packed once for repeated ``nearest`` scans.

    Four flat arrays hold the pack: ``alphabet``, the words' sorted distinct
    code points (int32); ``order``, the words' positions in the list sorted
    by length, ascending within a length (int64); ``sizes``, the number of
    words of each length (int64, indexed by length); and ``symbols``, each
    character's index in alphabet, in the smallest unsigned dtype that also
    holds len(alphabet). ``buckets`` maps each length with words to a view
    of its ids, a slice of order, and of its (length, n) symbol matrix, one
    word per column, a slice of symbols. ``_assign`` alone sets these
    attributes, for a build and a cache alike.
    """

    def __init__(self, words):
        words = list(words)
        lens = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
        points = codes("".join(words))
        alphabet, table = _alphabet(points)
        sym = table[points]
        # numpy's stable argsort is a radix sort on keys of 16 bits or less
        key = lens.astype(np.min_scalar_type(lens.max(initial=0)))
        order = np.argsort(key, kind="stable")
        sizes = np.bincount(lens).astype(np.int64, copy=False)
        starts = np.cumsum(lens) - lens
        symbols = np.empty_like(sym)
        start = at = 0
        for length in np.flatnonzero(sizes).tolist():
            size = int(sizes[length])
            ids = order[start : start + size]
            # word ids' characters, position-major: one column per word
            block = sym[starts[ids] + np.arange(length)[:, None]]
            symbols[at : at + size * length] = block.reshape(-1)
            start += size
            at += size * length
        self._assign(
            words,
            {"alphabet": alphabet, "order": order, "sizes": sizes, "symbols": symbols},
        )

    def _assign(self, words: list, arrays) -> None:
        """Make this the pack of words whose four arrays, by name, are
        arrays."""
        self.words = words
        self.alphabet = arrays["alphabet"]
        self.order = arrays["order"]
        self.sizes = arrays["sizes"]
        self.symbols = arrays["symbols"]
        self.buckets = {}
        start = at = 0
        for length in np.flatnonzero(self.sizes).tolist():
            size = int(self.sizes[length])
            block = self.symbols[at : at + size * length].reshape(length, size)
            self.buckets[length] = (self.order[start : start + size], block)
            start += size
            at += size * length


def nearest(queries, candidates: PackedWords) -> list[tuple[int, int]]:
    """Index and distance of the word of ``candidates`` closest to each query.

    Ties go to the shorter word, then the lexicographically smaller one,
    then the earlier position. Raises ValueError when ``candidates`` holds
    no word, and TypeError when ``queries`` is one ``str`` rather than a
    sequence of them. Pack a word list into ``PackedWords`` once and pass
    the pack to every scan of it.

    The queries are scanned together, in rings r = 0, 1, 2, ... of
    |length - len(query)|, which bounds a length group's distances from
    below. A query leaves the scan once r exceeds its best distance or no
    group is left at that gap. At each ring, a group is scanned once for all
    open queries that need it: one Myers pass with those of at most 64
    characters as its patterns, split so that lanes x patterns stays within
    ``_CHUNK``, and one ``levenshtein_matrix`` from the longer ones to the
    group's words. Duplicate queries are scanned once.
    """
    if isinstance(queries, str):
        raise TypeError("queries must be a sequence of str, not a str")
    queries = list(queries)
    words = candidates.words
    if not words:
        raise ValueError("empty candidate list")
    unique = list(dict.fromkeys(queries))
    lq = np.array([len(q) for q in unique], dtype=np.intp)
    # A query longer than a word gets an unused placeholder column.
    peq, masks = _peq(
        candidates.alphabet, [q if len(q) <= _WORD else "" for q in unique]
    )
    lengths = np.array(sorted(candidates.buckets), dtype=np.intp)
    # the widest gap at which each query has a group left
    reach = np.maximum(lq - lengths[0], lengths[-1] - lq)
    best_i = [-1] * len(unique)
    best_d = np.full(len(unique), -1, dtype=np.int64)

    def keep(k: int, length: int, ids: np.ndarray, dist: np.ndarray) -> None:
        """Take group length's nearest word for query k if it beats the best."""
        d = int(dist.min())
        if best_d[k] >= 0 and (
            d > best_d[k] or (d == best_d[k] and length >= len(words[best_i[k]]))
        ):
            return
        # ids ascend, so min() keeps the earliest of equal words
        best_i[k] = min(ids[dist == d].tolist(), key=words.__getitem__)
        best_d[k] = d

    r = 0
    while True:
        live = (r <= reach) & ((best_d < 0) | (r <= best_d))
        if not live.any():
            break
        at_gap = (np.abs(lq - lengths[:, None]) == r) & live
        for g in np.flatnonzero(at_gap.any(axis=1)).tolist():
            length = int(lengths[g])
            ids, sym_t = candidates.buckets[length]
            cols = np.flatnonzero(at_gap[g])
            short = cols[lq[cols] <= _WORD]
            step = max(1, _CHUNK // len(ids))
            for at in range(0, len(short), step):
                part = short[at : at + step]
                deltas = _myers(peq[:, part], sym_t, [len(ids)] * length, masks[part])
                for j, k in enumerate(part.tolist()):
                    keep(k, length, ids, length + deltas[:, j])
            longer = cols[lq[cols] > _WORD].tolist()
            if longer:
                group = [words[i] for i in ids.tolist()]
                dists = levenshtein_matrix([unique[k] for k in longer], group)
                for k, dist in zip(longer, dists):
                    keep(k, length, ids, dist)
        r += 1
    index = {q: k for k, q in enumerate(unique)}
    return [(best_i[index[q]], int(best_d[index[q]])) for q in queries]
