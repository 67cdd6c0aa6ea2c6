"""Edit-distance backend selection.

The compiled kernel (``finhyp._editdist``) is picked when it was built;
otherwise the pure-Python twin takes over. Set FINHYP_PURE_PYTHON=1 to force
the fallback, e.g. when benchmarking one backend against the other.

Without the compiled kernel, the batch entry points (``levenshtein_matrix``,
and ``nearest`` over a ``pack``-ed word list) run numpy DPs that measure one
string against many per pass; the scalar ``levenshtein`` and ``nearest`` over
a plain list stay the pure-Python reference. With it, they loop the kernel,
which is faster still.
"""
import os

import numpy as np

from . import _editdist_np, _editdist_py

if os.environ.get("FINHYP_PURE_PYTHON") == "1":
    _impl = _editdist_py
else:
    try:
        from . import _editdist as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _editdist_py

BACKEND = "python" if _impl is _editdist_py else "c"

levenshtein = _impl.levenshtein


def levenshtein_matrix(texts, targets) -> np.ndarray:
    """(N, K) int32 edit distances from each of N texts to each of K targets."""
    if BACKEND == "c":
        return np.array(
            [[_impl.levenshtein(t, g) for g in targets] for t in texts], dtype=np.int32
        ).reshape(len(texts), len(targets))
    return _editdist_np.levenshtein_matrix(texts, targets)


def pack(words):
    """The word list in the form ``nearest`` scans fastest; pack a vocabulary
    once and pass the result to every ``nearest`` call against it."""
    return words if BACKEND == "c" else _editdist_np.PackedWords(words)


def nearest(query: str, candidates) -> tuple[int, int]:
    """Index and distance of the candidate closest to ``query``.

    Ties go to the shorter candidate, then the lexicographically smaller
    one, then the earlier position. Raises ValueError on an empty list.
    ``candidates`` is a sequence of strings or what ``pack`` returned.
    """
    if isinstance(candidates, _editdist_np.PackedWords):
        return candidates.nearest(query)
    return _impl.nearest(query, candidates)
