"""Edit distance: Myers' bit-parallel algorithm.

Myers' algorithm (Myers 1999, *JACM* 46:395, in the form of Hyyrö 2001)
keeps one column of the DP between a pattern and a text as two bit vectors,
the +1 and -1 vertical deltas, and advances it by one text character in a
few word operations. A text's distance is its length plus the deltas summed
down the last column.

``levenshtein_matrix`` (the edit-feature block) and ``nearest`` (the OOV
scans of a vocabulary packed once per store, ``PackedWords``) run it in
numpy: the texts are the lanes of the vector axis, uint64 words of pattern
bits a second axis, and the loop runs over text positions, in place on
buffers allocated once per pass. ``levenshtein_matrix`` packs several
targets into one word, the multiple-pattern form of Hyyrö, Fredriksson &
Navarro (2005, *ACM JEA* 10). In target order, a target of m <= 63
characters takes m bits and one zero gap bit above them in the current
word if they fit, else in a new word; a 64-character target fills a word
of its own (``_layout``). Each step ORs the low bit of every pattern into
the horizontal +1 vector where a lone pattern ORs 1, and ANDs the vertical
+1 vector with the word's pattern bits, so no carry or shift crosses a gap
into the next pattern, and each target's distance is read under its own
bits. The 17 labels of the synthetic set, 226 bits with their gaps, take 4
words instead of 17. ``nearest``'s pairwise passes run the same kernel with
one pattern per lane, at bit 0. Texts are mapped to a dense alphabet of small
unsigned symbols; a pattern character outside it matches nothing. The
scalar ``levenshtein`` runs the algorithm on Python ints, which have no
width limit: the n-gram tie-breaks call it, and so does each pair of
``levenshtein_matrix`` whose pattern is longer than 64 characters.

``nearest`` takes all of a run's queries at once. It visits (query, word)
pairs in increasing order of a cheap lower bound on their distance, a
character-set form of the count filter (Jokinen, Tarhio & Ukkonen 1996):
the larger of the length gap and the number of signature bits that either
side has and the other lacks. A signature holds bit s % 63 of each symbol
s, and bit 63 for any query character outside the alphabet. At step t = 0,
1, 2, ... each length group gets at most one Myers pass, whose lanes are
its (query, word) pairs at bound t, each scored against its own query, and
a query is settled once its best distance is at most t, so a word that
cannot win is never scanned and no pair is scanned twice. A query longer
than 64 characters is a lane instead, with its words as patterns. A pass
holds at most ``_CHUNK`` symbols, and a bound array at most ``_CHUNK``
queries x words; a larger one is split. A bare ``str`` is not a batch of
queries, and raises TypeError.
"""
from __future__ import annotations

import numpy as np

# The edit-distance implementation in use. perfbench records it with every
# result, and its compare.py refuses to compare results whose values differ.
BACKEND = "python"

# Longest pattern that fits one uint64 word of Myers' algorithm.
_WORD = 64
# Most lanes x uint64 words in one Myers pass, symbols x uint64 words in one
# ``levenshtein_matrix`` match table, queries x words in one ``nearest``
# bound array and text symbols in one ``nearest`` pass of (query, word)
# pairs: each 8-byte array holds at most 8 MiB.
_CHUNK = 1 << 20
# Most patterns whose match bits ``_peq`` sets at once: it makes about eight
# 8-byte temporaries per character, at most 4 MiB for 1024 of 64 characters.
_PEQ_PATTERNS = 1 << 10
# A distance or bound above any other: no best word yet, no step left.
_NONE = np.iinfo(np.int64).max
_ONE = np.uint64(1)


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
    has the smallest unsigned dtype that also holds their count: a pack's
    ``symbols`` has that dtype, and ``PackedWords.from_arrays`` checks it."""
    alphabet = _sorted_unique(points)
    size = int(alphabet[-1]) + 1 if len(alphabet) else 0
    table = np.zeros(size, dtype=np.min_scalar_type(len(alphabet)))
    table[alphabet] = np.arange(len(alphabet))
    return alphabet, table


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each entry of a uint64 array, as int64."""
    return np.bitwise_count(x).astype(np.int64)


def _myers(peq: np.ndarray, sym_t: np.ndarray, active, mask):
    """The +1 and -1 vertical delta vectors, (pv, mv), of the last DP column
    of each lane.

    ``peq[s]`` holds the match bits of symbol s in each word (shape (A,) or
    (A, W)); ``sym_t`` is (L, n), lane r's text down column r. Step j
    advances only the first ``active[j]`` lanes, so a lane whose text is
    shorter than L must come after every longer one, and its vectors stay
    as its last character left them. ``mask`` broadcasts against the lanes'
    words and has the bits of each pattern of each word set; a pattern of m
    characters holds m bits, with a zero gap bit above them unless it ends
    the word. The low bit of each run of mask bits, ``starts``, takes the
    place of the single pattern's ``| 1``, and pv is ANDed with mask, so no
    carry or shift crosses from one pattern into the next. A pattern's
    summed deltas are the set bits of pv less those of mv under its own
    bits. The step works in place on buffers allocated once.
    """
    shape = (sym_t.shape[1],) + peq.shape[1:]
    mask = np.broadcast_to(mask, shape)
    # The top row of a global distance grows by 1 per text character.
    starts = mask & ~(mask << _ONE)
    pv = mask.copy()
    mv = np.zeros(shape, dtype=np.uint64)
    buffers = [np.empty(shape, dtype=np.uint64) for _ in range(4)]
    lanes = -1
    for j, n in enumerate(active):
        if n != lanes:
            # views of the first n lanes, made again only when n changes
            p, m, k, s, eq, xv, xh, ph = (a[:n] for a in (pv, mv, mask, starts, *buffers))
            lanes = n
        peq.take(sym_t[j, :n], axis=0, out=eq, mode="clip")
        np.bitwise_or(eq, m, xv)
        # xh = (((eq & pv) + pv) ^ pv) | eq
        np.bitwise_and(eq, p, xh)
        np.add(xh, p, xh)
        np.bitwise_xor(xh, p, xh)
        np.bitwise_or(xh, eq, xh)
        # ph = ((mv | ~(xh | pv)) << 1) | starts
        np.bitwise_or(xh, p, ph)
        np.invert(ph, ph)
        np.bitwise_or(ph, m, ph)
        np.left_shift(ph, _ONE, ph)
        np.bitwise_or(ph, s, ph)
        # mh = (pv & xh) << 1, kept in xh
        np.bitwise_and(p, xh, xh)
        np.left_shift(xh, _ONE, xh)
        # pv = (mh | ~(xv | ph)) & mask; mv = ph & xv
        np.bitwise_or(xv, ph, p)
        np.invert(p, p)
        np.bitwise_or(p, xh, p)
        np.bitwise_and(p, k, p)
        np.bitwise_and(ph, xv, m)
    return pv, mv


def _layout(lens) -> tuple[np.ndarray, np.ndarray]:
    """Word and first bit of each pattern of lengths lens, each at most 64,
    packed in order: a pattern takes its m bits and a zero gap bit above
    them in the current word if they fit, else starts a new word. A
    64-character pattern has no room for the gap and fills a word."""
    word = np.empty(len(lens), dtype=np.intp)
    shift = np.empty(len(lens), dtype=np.intp)
    at, used = -1, _WORD
    for k, m in enumerate(lens):
        size = min(m + 1, _WORD)
        if used + size > _WORD:
            at, used = at + 1, 0
        word[k], shift[k] = at, used
        used += size
    return word, shift


def _peq(alphabet: np.ndarray, patterns, layout=None) -> tuple[np.ndarray, np.ndarray]:
    """(A, W) match bits of a list of K patterns of at most 64 characters
    over the alphabet, and each pattern's own bits, (K,). Pattern k starts
    at bit ``shift[k]`` of word ``word[k]``, where layout is (word, shift)
    (``_layout``); without one, each pattern has a word of its own, at bit
    0. The bits are set for slices of at most ``_PEQ_PATTERNS`` patterns at
    a time."""
    lens = np.array([len(p) for p in patterns], dtype=np.intp)
    if layout is None:
        layout = (np.arange(len(patterns)), np.zeros(len(patterns), dtype=np.intp))
    word, shift = layout
    peq = np.zeros((len(alphabet), int(word[-1]) + 1 if len(word) else 0), np.uint64)
    for at in range(0, len(patterns), _PEQ_PATTERNS):
        part = lens[at : at + _PEQ_PATTERNS]
        sym = _find(alphabet, codes("".join(patterns[at : at + _PEQ_PATTERNS])))
        pattern = np.repeat(np.arange(at, at + len(part)), part)
        bit = np.arange(len(sym)) - np.repeat(np.cumsum(part) - part, part)
        bit += shift[pattern]
        hit = sym >= 0
        np.bitwise_or.at(
            peq, (sym[hit], word[pattern[hit]]), _ONE << bit[hit].astype(np.uint64)
        )
    # 2**64 - 1 is computed exactly in Python; a uint64 shift by 64 is not.
    bits = np.array(
        [2**m - 1 << s for m, s in zip(lens.tolist(), shift.tolist())], dtype=np.uint64
    )
    return peq, bits


def levenshtein_matrix(texts, targets) -> np.ndarray:
    """(N, K) int32 distances from each of N texts to each of K targets.

    The texts are the lanes, longest first. The targets of at most 64
    characters are packed into words (``_layout``), the words the patterns
    of Myers passes over text positions, sliced to stay within ``_CHUNK``;
    a longer target's column comes from ``levenshtein``.
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
    word, shift = _layout([len(targets[k]) for k in short])
    step = max(1, _CHUNK // max(len(texts), len(alphabet), 1))
    # the first target of each pass of at most step words
    firsts = np.searchsorted(word, np.arange(0, word[-1] + 1 if short else 0, step))
    for a, b in zip(firsts.tolist(), firsts[1:].tolist() + [len(short)]):
        part = short[a:b]
        at = word[a:b] - word[a]
        peq, bits = _peq(alphabet, [targets[k] for k in part], (at, shift[a:b]))
        masks = np.zeros(peq.shape[1], dtype=np.uint64)
        np.bitwise_or.at(masks, at, bits)
        pv, mv = _myers(peq, sym_t, active.tolist(), masks)
        deltas = _popcount(pv[:, at] & bits) - _popcount(mv[:, at] & bits)
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
    word per column, a slice of symbols. The pack keeps no strings: symbols
    ascend with code points, so comparing two words' symbol columns orders
    them as comparing the words does. ``_assign`` alone sets these
    attributes, and ``arrays``, the four by name, for a build and a cache
    (``from_arrays``) alike.
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
            {"alphabet": alphabet, "order": order, "sizes": sizes, "symbols": symbols}
        )

    def _assign(self, arrays: dict) -> None:
        """Make this the pack whose four arrays, by name, are arrays."""
        self.arrays = arrays
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

    @classmethod
    def from_arrays(cls, arrays: dict, count: int) -> PackedWords | None:
        """The pack of count words whose four arrays, by name, are arrays,
        if they are consistent, else None."""
        if any(a.ndim != 1 for a in arrays.values()):
            return None
        alphabet, order = arrays["alphabet"], arrays["order"]
        sizes, symbols = arrays["sizes"], arrays["symbols"]
        if alphabet.dtype != np.int32 or np.any(alphabet[1:] <= alphabet[:-1]):
            return None
        if order.dtype != np.int64 or sizes.dtype != np.int64:
            return None
        if symbols.dtype != np.min_scalar_type(len(alphabet)):
            return None
        if np.any((sizes < 0) | (sizes > count)) or sizes.sum() != count:
            return None
        # order lists every word once, by length, then ascending, as
        # nearest's tie-break needs; each bucket's symbols fill its
        # (length, n) matrix; and every symbol indexes the alphabet.
        if len(order) != count or np.any(order < 0):
            return None
        if not np.all(np.bincount(order, minlength=count) == 1):
            return None
        length = np.repeat(np.arange(len(sizes)), sizes)
        if np.any(np.diff(length * count + order) <= 0):
            return None
        if len(symbols) != np.arange(len(sizes)) @ sizes:
            return None
        if len(symbols) and symbols.max() >= len(alphabet):
            return None
        packed = cls.__new__(cls)
        packed._assign(arrays)
        return packed


def _spell(alphabet: np.ndarray, sym_t: np.ndarray) -> list[str]:
    """The words whose (length, n) symbol matrix is sym_t, one per column."""
    length, n = sym_t.shape
    if not length:
        return [""] * n
    points = alphabet[sym_t.T].astype("<i4", copy=False).tobytes()
    text = points.decode("utf-32-le", "surrogatepass")
    return [text[at : at + length] for at in range(0, length * n, length)]


def _bits(alphabet: np.ndarray) -> np.ndarray:
    """Signature bit of each symbol of the alphabet, s % 63, and last that
    of every character outside it, 63 (``_find``'s -1 picks it)."""
    return _ONE << np.append(np.arange(len(alphabet)) % 63, 63).astype(np.uint64)


def _query_signatures(alphabet: np.ndarray, texts: list) -> np.ndarray:
    """The set of signature bits of each text's characters, as a uint64."""
    lens = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    sig = np.zeros(len(texts), dtype=np.uint64)
    sym = _find(alphabet, codes("".join(texts)))
    owner = np.repeat(np.arange(len(texts)), lens)
    np.bitwise_or.at(sig, owner, _bits(alphabet)[sym])
    return sig


def _word_signatures(alphabet: np.ndarray, sym_t: np.ndarray) -> np.ndarray:
    """The set of signature bits of each column of a (length, n) symbol
    matrix, one row at a time."""
    bits = _bits(alphabet)
    sig = np.zeros(sym_t.shape[1], dtype=np.uint64)
    for row in sym_t:
        sig |= bits[row]
    return sig


def _bound(w_sig: np.ndarray, q_sig: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """(K, n) lower bounds on the edit distances of K queries and n words,
    from their signatures and the K gaps of the queries' lengths to the
    words': an edit removes at most one character and adds at most one, so
    it takes at least as many edits as either side has signature bits the
    other lacks."""
    common = _popcount(q_sig[:, None] & w_sig)
    own = np.maximum(_popcount(q_sig)[:, None], _popcount(w_sig))
    return np.maximum(own - common, gap[:, None])


def _runs(a: np.ndarray):
    """(value, start, stop) of each run of equal entries of a."""
    starts = np.flatnonzero(_first(a))
    stops = np.append(starts[1:], len(a))
    return zip(a[starts].tolist(), starts.tolist(), stops.tolist())


def nearest(queries, candidates: PackedWords) -> list[tuple[int, int]]:
    """Index and distance of the word of ``candidates`` closest to each query.

    Ties go to the shorter word, then the lexicographically smaller one,
    then the earlier position. Raises ValueError when ``candidates`` holds
    no word, and TypeError when ``queries`` is one ``str`` rather than a
    sequence of them. Pack a word list into ``PackedWords`` once and pass
    the pack to every scan of it.

    The (query, word) pairs are scanned in steps t of a lower bound on their
    distance (``_bound``), taking only the steps at which some pair has its
    bound. At step t the length groups are taken shortest first, each once,
    for the open queries that have words at bound t there, less those whose
    best word so far lies at distance t and is shorter than the group's
    words. Their bounds are computed in slices of at most ``_CHUNK``
    queries x words, which also give the next step at which each of them
    has words in the group, and each pair at bound t is one lane of one
    Myers pass, scored against its own query: at most ``_CHUNK`` symbols
    per pass, more passes for more. A query longer than 64 characters takes
    its words in one ``levenshtein_matrix`` call instead. A query is settled
    after step t once its best distance is at most t. Duplicate queries are
    scanned once.
    """
    if isinstance(queries, str):
        raise TypeError("queries must be a sequence of str, not a str")
    queries = list(queries)
    if not candidates.buckets:
        raise ValueError("empty candidate list")
    alphabet = candidates.alphabet
    unique = list(dict.fromkeys(queries))
    lq = np.array([len(q) for q in unique], dtype=np.intp)
    # A query longer than a word gets an unused placeholder column.
    peq, masks = _peq(alphabet, [q if len(q) <= _WORD else "" for q in unique])
    flat = peq.reshape(-1)
    q_sig = _query_signatures(alphabet, unique)
    lengths = sorted(candidates.buckets)
    # The next step at which each group has words at each query's bound;
    # a bound is never below the gap of their lengths.
    upcoming = np.abs(np.array(lengths, dtype=np.int64)[:, None] - lq)
    w_sigs = {}
    # Each query's best key, (distance, length, symbols, id), and its first
    # two entries as arrays; no best yet compares above every pair.
    best = [None] * len(unique)
    best_d = np.full(len(unique), _NONE)
    best_len = np.zeros(len(unique), dtype=np.intp)

    def keep(k: int, length: int, ids: np.ndarray, sym_t: np.ndarray, dist) -> None:
        """Take the nearest of a group's words for query k if it beats the best."""
        d = int(dist.min())
        if (d, length) > (best_d[k], best_len[k]):
            return
        # the first of the nearest words by spelling, then by id
        tied = np.flatnonzero(dist == d)
        for row in sym_t:
            if len(tied) == 1:
                break
            tied = tied[row[tied] == row[tied].min()]
        key = (d, length, sym_t[:, tied[0]].tolist(), int(ids[tied[0]]))
        if best[k] is None or key < best[k]:
            best[k] = key
            best_d[k] = d
            best_len[k] = length

    t = int(upcoming.min(initial=_NONE))
    while t < _NONE:
        for g in np.flatnonzero((upcoming[:, best_d >= t] == t).any(axis=1)).tolist():
            length = lengths[g]
            cols = np.flatnonzero(
                (upcoming[g] == t)
                & ((best_d > t) | ((best_d == t) & (best_len >= length)))
            )
            if not len(cols):
                continue
            ids, sym_t = candidates.buckets[length]
            if length not in w_sigs:
                w_sigs[length] = _word_signatures(alphabet, sym_t)
            hits = []
            step = max(1, _CHUNK // len(ids))
            for at in range(0, len(cols), step):
                part = cols[at : at + step]
                gap = np.abs(length - lq[part])
                bound = _bound(w_sigs[length], q_sig[part], gap)
                upcoming[g, part] = bound.min(axis=1, initial=_NONE, where=bound > t)
                k, w = np.nonzero(bound == t)
                hits.append((part[k], w))
            # the pairs at bound t, by query, ascending ids within each
            k, w = map(np.concatenate, zip(*hits))
            longer = lq[k] > _WORD
            for q, a, b in _runs(k[longer]):
                lanes = w[longer][a:b]
                lane_sym = sym_t[:, lanes]
                dist = levenshtein_matrix([unique[q]], _spell(alphabet, lane_sym))[0]
                keep(q, length, ids[lanes], lane_sym, dist)
            k, w = k[~longer], w[~longer]
            step = max(1, _CHUNK // max(length, 1))
            for at in range(0, len(k), step):
                pattern, lanes = k[at : at + step], w[at : at + step]
                lane_sym = sym_t[:, lanes]
                # each lane's characters index its own query's match bits
                pairs = lane_sym.astype(np.intp) * len(unique) + pattern
                pv, mv = _myers(flat, pairs, [len(lanes)] * length, masks[pattern])
                dist = length + _popcount(pv) - _popcount(mv)
                for q, a, b in _runs(pattern):
                    keep(q, length, ids[lanes[a:b]], lane_sym[:, a:b], dist[a:b])
        t = int(upcoming[:, best_d > t].min(initial=_NONE))
    index = {q: k for k, q in enumerate(unique)}
    return [(best[index[q]][3], best[index[q]][0]) for q in queries]
