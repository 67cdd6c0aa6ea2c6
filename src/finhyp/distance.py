"""Edit distance: Myers' bit-parallel algorithm, with a DP beyond 64 characters.

Myers' algorithm (Myers 1999, *JACM* 46:395, in the form of Hyyrö 2001)
keeps one column of the DP between a pattern and a text as two bit vectors,
the +1 and -1 vertical deltas, and advances it by one text character in a
few word operations. A text's distance is its length plus the deltas summed
down the last column.

``levenshtein_matrix`` (the edit-feature block) and ``nearest`` (the OOV
scans of a vocabulary packed once per store) run it in numpy: each pattern
of at most 64 characters is one uint64 word, the texts are the vector axis,
and the loop runs over text positions. Texts are mapped to a dense alphabet
of small unsigned symbols; a pattern character outside it matches nothing.
A pattern longer than 64 characters runs a numpy DP over the same symbols
instead. The scalar ``levenshtein``, for the n-gram tie-breaks, runs the
algorithm on Python ints, which have no width limit.
"""
from __future__ import annotations

import numpy as np

# The edit-distance implementation in use. perfbench records it with every
# result, and its compare.py refuses to compare results whose values differ.
BACKEND = "python"

# Longest pattern that fits one uint64 word of Myers' algorithm.
_WORD = 64
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
    # The longer string is the pattern, so the loop runs over the shorter.
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


def _alphabet(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct code points of text, and a table from each code point
    up to the largest to its symbol, its index among them. The table has the
    smallest unsigned dtype that also holds their count, the DP's symbol for
    a character outside them."""
    alphabet = codes("".join(sorted(set(text))))
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


def _dp_row(alphabet: np.ndarray, pattern: str) -> np.ndarray:
    """Symbols of pattern for ``_last_row``; a character outside the
    alphabet gets len(alphabet), which no text symbol equals."""
    sym = _find(alphabet, codes(pattern))
    return np.where(sym >= 0, sym, len(alphabet))


def _last_row(cols: np.ndarray, row: np.ndarray, bound: int = -1):
    """Final DP row of ``row`` against every line of ``cols`` (n, m).

    Entry [r, j] is the distance from ``row`` to the first j characters of
    line r. With bound >= 0, returns None as soon as every entry of a row
    exceeds bound (row minima never decrease, so no line can come back).
    """
    n, m = cols.shape
    steps = np.arange(m + 1, dtype=np.int32)
    prev = np.repeat(steps[None, :], n, axis=0)
    curr = np.empty_like(prev)
    for i, ch in enumerate(row.tolist(), 1):
        curr[:, 0] = i
        # substitution (or match) and deletion
        np.minimum(prev[:, :-1] + (cols != ch), prev[:, 1:] + 1, out=curr[:, 1:])
        # insertion: curr[j] = min over k <= j of curr[k] + (j - k)
        curr -= steps
        np.minimum.accumulate(curr, axis=1, out=curr)
        curr += steps
        if bound >= 0 and curr.min() > bound:
            return None
        prev, curr = curr, prev
    return prev


def levenshtein_matrix(texts, targets) -> np.ndarray:
    """(N, K) int32 distances from each of N texts to each of K targets.

    The texts are the lanes, longest first, and the targets of at most 64
    characters are the patterns of one Myers pass over text positions.
    """
    texts = list(texts)
    targets = list(targets)
    lens = np.array([len(t) for t in texts], dtype=np.intp)
    order = np.argsort(-lens, kind="stable")
    lens = lens[order]
    width = int(lens[0]) if len(texts) else 0
    joined = "".join(texts[i] for i in order.tolist())
    alphabet, table = _alphabet(joined)
    sym_t = np.zeros((width, len(texts)), dtype=table.dtype)
    sym_t.T[np.arange(width) < lens[:, None]] = table[codes(joined)]
    # lanes still inside their text at each position
    active = len(texts) - np.searchsorted(lens[::-1], np.arange(width), side="right")
    out = np.empty((len(texts), len(targets)), dtype=np.int32)
    short = [k for k, t in enumerate(targets) if len(t) <= _WORD]
    if short:
        peq, masks = _peq(alphabet, [targets[k] for k in short])
        deltas = _myers(peq, sym_t, active.tolist(), masks)
        out[order[:, None], short] = lens[:, None] + deltas
    rows = np.arange(len(texts))
    for k, target in enumerate(targets):
        if len(target) > _WORD:
            last = _last_row(sym_t.T, _dp_row(alphabet, target))
            out[order, k] = last[rows, lens]
    return out


class PackedWords:
    """A word list packed once for repeated ``nearest`` scans.

    The words are mapped to a dense alphabet and grouped by length; each
    group is the words' positions in the list, ascending, and an
    (length, n) matrix of their symbols, one word per column.
    """

    def __init__(self, words):
        self.words = list(words)
        lens = np.array([len(w) for w in self.words], dtype=np.intp)
        order = np.argsort(lens, kind="stable")
        joined = "".join(self.words[i] for i in order.tolist())
        self.alphabet, table = _alphabet(joined)
        sym = table[codes(joined)]
        sizes = np.bincount(lens)
        self.buckets = {}
        start = at = 0
        for length in np.flatnonzero(sizes).tolist():
            size = int(sizes[length])
            block = sym[at : at + size * length].reshape(size, length)
            self.buckets[length] = (order[start : start + size], block.T.copy())
            start += size
            at += size * length


def nearest(query: str, candidates) -> tuple[int, int]:
    """Index and distance of the candidate closest to ``query``.

    Ties go to the shorter candidate, then the lexicographically smaller
    one, then the earlier position. Raises ValueError on an empty list.
    ``candidates`` is a sequence of strings, packed on the spot, or a
    ``PackedWords`` kept for repeated scans of one list.

    Length groups are scanned in order of |length - len(query)|, which
    bounds each group's distances from below; the scan stops once that gap
    exceeds the best distance found.
    """
    if not isinstance(candidates, PackedWords):
        candidates = PackedWords(candidates)
    words = candidates.words
    if not words:
        raise ValueError("empty candidate list")
    lq = len(query)
    if lq <= _WORD:
        peq, masks = _peq(candidates.alphabet, [query])
        peq, mask = peq[:, 0], masks[0]
    else:
        row = _dp_row(candidates.alphabet, query)
    best_i, best_d, best_len = -1, -1, -1
    for length in sorted(candidates.buckets, key=lambda n: (abs(n - lq), n)):
        if best_d >= 0 and abs(length - lq) > best_d:
            break
        ids, sym_t = candidates.buckets[length]
        if lq <= _WORD:
            dist = length + _myers(peq, sym_t, [len(ids)] * length, mask)
        else:
            last = _last_row(sym_t.T, row, best_d)
            if last is None:
                continue
            dist = last[:, length]
        d = int(dist.min())
        if best_d >= 0 and (d > best_d or (d == best_d and length >= best_len)):
            continue
        hits = ids[dist == d].tolist()
        # ids ascend, so min() keeps the earliest of equal words
        best_i = min(hits, key=words.__getitem__)
        best_d, best_len = d, length
    return best_i, best_d
