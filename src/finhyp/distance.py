"""Edit distance: a scalar DP for one pair, numpy DPs for one string
against many.

Each numpy DP measures one string against a whole set of strings in one
pass: the rows run over the one string's characters, the set is the vector
axis. Strings are int32 code points (lone surrogates included), distances
int32. ``levenshtein_matrix`` serves the edit-feature block (one DP per
class label over all texts) and ``nearest`` the OOV scans of a vocabulary
packed once per store. The scalar ``levenshtein`` stays in pure Python for
the n-gram tie-breaks, which measure a few pairs at a time: one pair costs
less there than through a one-pair numpy call.
"""
from __future__ import annotations

import numpy as np

# The edit-distance implementation in use. perfbench records it with every
# result, and its compare.py refuses to compare results whose values differ.
BACKEND = "python"


def codes(text: str) -> np.ndarray:
    """Code points of text as a read-only int32 array, accepting every ``str``
    (code points stop at 0x10FFFF, so int32 holds them all)."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<i4")


def levenshtein(a: str, b: str) -> int:
    """Minimal number of single-character edits turning ``a`` into ``b``."""
    # Two-row DP over the shorter string.
    if len(a) > len(b):
        a, b = b, a
    la = len(a)
    prev = list(range(la + 1))
    curr = [0] * (la + 1)
    for i, cb in enumerate(b, 1):
        curr[0] = i
        for j in range(1, la + 1):
            v = prev[j - 1]
            if a[j - 1] != cb:
                v += 1
            ins = curr[j - 1] + 1
            if ins < v:
                v = ins
            dele = prev[j] + 1
            if dele < v:
                v = dele
            curr[j] = v
        prev, curr = curr, prev
    return prev[la]


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

    The texts are packed once, padded to the longest; one DP per target reads
    each text's answer at that text's own length.
    """
    texts = list(texts)
    lens = np.array([len(t) for t in texts], dtype=np.intp)
    width = int(lens.max()) if len(texts) else 0
    packed = np.zeros((len(texts), width), dtype=np.int32)
    packed[np.arange(width) < lens[:, None]] = codes("".join(texts))
    rows = np.arange(len(texts))
    out = np.empty((len(texts), len(targets)), dtype=np.int32)
    for k, target in enumerate(targets):
        out[:, k] = _last_row(packed, codes(target))[rows, lens]
    return out


class PackedWords:
    """A word list packed once for repeated ``nearest`` scans.

    Words are grouped by length; each group is an (n, length) int32 matrix
    with the words' positions in the list, ascending.
    """

    def __init__(self, words):
        self.words = list(words)
        groups: dict[int, list[int]] = {}
        for i, w in enumerate(self.words):
            groups.setdefault(len(w), []).append(i)
        self.buckets = {
            length: (
                np.array(ids, dtype=np.intp),
                codes("".join(self.words[i] for i in ids)).reshape(len(ids), length),
            )
            for length, ids in groups.items()
        }


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
    q = codes(query)
    best_i, best_d, best_len = -1, -1, -1
    for length in sorted(candidates.buckets, key=lambda n: (abs(n - lq), n)):
        if best_d >= 0 and abs(length - lq) > best_d:
            break
        ids, cols = candidates.buckets[length]
        last = _last_row(cols, q, best_d)
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
