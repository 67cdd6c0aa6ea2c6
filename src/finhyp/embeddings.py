"""Word2vec text-format embedding store with OOV-aware term embedding.

The text is parsed in one pass, in chunks of lines whose values numpy's C
parser reads, split at any whitespace str.split() splits at; only a chunk
with a defect is walked line by line, with str.split() and float().

A store is immutable after load; lookups are read-only and safe to run from
multiple workers. Multi-word terms embed as the sum of their token vectors,
read from a ``TokenTable``: one per run, mapping each distinct token of the
run's texts to a store row, a substitute's row or the zero vector.

Loading a regular file keeps a binary copy of the parsed store beside it,
``<store>.finhyp-cache.npz`` (next to the file the path resolves to, after
symlinks). The copy is an uncompressed numpy archive of the tokens (UTF-8,
newline-joined), the float64 vectors, a format version and the SHA-256 of
the store's bytes, so it takes about 8 x rows x dim bytes plus the tokens.
A later load uses the copy only if its version and digest match the
store's; the vectors are the same bits either way. Nothing is written for a
pipe or other non-regular file, for a store that fails to load, for a file
that changed while it was parsed, or when the write itself fails (a
read-only directory, a full disk); the load succeeds regardless. A missing,
stale or unreadable copy just means the text is parsed again, so deleting
it is always safe.

The digest comes from the store's stat record (see ``finhyp.fileio``),
``<store>.finhyp-stat``, when that holds the open file's stat; otherwise
the store is hashed, and a load that succeeds records the hash under the
record's rule.

The sidecar has a stat record of its own, written only after a read that
checked its CRC-32s and every store check. A read that record vouches for
maps the vectors (``fileio.read_cache``) rather than reading them: the
store skips its check of every value, and ``EmbeddingStore.rows`` checks
each row that a ``TokenTable`` copies, so a run reads only the rows it
uses. Mapped pages that a run touches count toward its RSS.

A store loaded from a regular file, parsed or from the sidecar, records
that file's path after symlinks as ``EmbeddingStore.path`` and the SHA-256
of its bytes as ``EmbeddingStore.sha256``, so that caches derived from the
store (the n-gram index of ``finhyp.oov``) sit beside it under the same
key. Both are None for a pipe, a store built in memory, or a file that
changed while it was parsed, whose digest may not be of what was parsed.
"""
from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import re
import stat
import string
import time
from collections import Counter

import numpy as np

from .fileio import STAT_SUFFIX  # re-exported: the suffix of the store's record
from .fileio import _read_stat, _recordable, _stat_key, _write_stat
from .fileio import atomic_write, read_cache, write_cache

# Body lines per np.loadtxt call: small enough that a chunk's strings and
# block add little to peak memory, large enough to amortise the call.
_CHUNK_LINES = 512
_WHITESPACE = re.compile(r"\s")

SIDECAR_SUFFIX = ".finhyp-cache.npz"
# Bump when the sidecar's layout or the parse it records changes.
_SIDECAR_VERSION = 1
_HASH_BLOCK = 1 << 20


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates the text format."""


class EmbeddingStore:
    """Vocabulary of unique tokens, each with a dense vector of length dim."""

    def __init__(self, tokens, vectors):
        vectors = np.asanyarray(vectors, dtype=np.float64)
        # The file that vectors map (a warm load's sidecar), whose rows
        # ``rows`` checks as it copies them, in place of the check below.
        self._mapped = vectors.filename if isinstance(vectors, np.memmap) else None
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if vectors.shape[0] != len(tokens):
            raise ValueError("token/vector count mismatch")
        if vectors.shape[1] < 1:
            raise ValueError("vector dimension must be positive")
        if self._mapped is None and not np.all(np.isfinite(vectors)):
            raise ValueError("vectors contain non-finite values")
        self.vocab: list[str] = list(tokens)
        self._index: dict[str, int] = dict(zip(self.vocab, range(len(self.vocab))))
        if len(self._index) != len(self.vocab):
            seen: set[str] = set()
            for tok in self.vocab:
                if tok in seen:
                    raise ValueError(f"duplicate token {tok!r}")
                seen.add(tok)
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.dim: int = vectors.shape[1]
        # The file the store was loaded from, symlinks resolved, and the
        # SHA-256 of its bytes; None for a pipe or a store built in memory.
        self.path: str | None = None
        self.sha256: bytes | None = None

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def vector(self, token: str) -> np.ndarray:
        return self.rows([self._index[token]])[0]

    def rows(self, ids: list) -> np.ndarray:
        """A copy of the vectors' rows ids. A mapped store's rows are
        checked as they are copied: a non-finite value raises
        EmbeddingFormatError naming the mapped file."""
        rows = self.vectors[ids]
        if self._mapped is not None:
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if len(bad):
                token = self.vocab[ids[bad[0]]]
                raise EmbeddingFormatError(
                    f"{self._mapped}: non-finite value in row {token!r}"
                )
        return rows


def load_embeddings(path) -> EmbeddingStore:
    """Parse a word2vec text file: "<count> <dim>" header, then one
    "<token> <floats...>" row per line, UTF-8.

    A regular file whose sidecar (see the module docstring) matches its
    SHA-256 loads from the sidecar; otherwise the text is parsed once, and
    the parsed store written to the sidecar. The SHA-256 is read from the
    stat record beside the file when that holds the file's current stat,
    and is computed from the file's bytes, and then recorded if the file is
    old enough, otherwise. numpy's C parser reads rows separated, and
    ended, by any whitespace str.split() accepts (word2vec's and fastText's
    rows end with a space); only a chunk with a defect is walked line by
    line, raising EmbeddingFormatError at its first bad line. A stream that
    cannot seek (a pipe) is read into memory first.
    """
    with open(path, encoding="utf-8") as fh:
        key = store = None
        if fh.seekable():
            st = os.fstat(fh.fileno())
            size = st.st_size if stat.S_ISREG(st.st_mode) else None
            if size is not None:
                key = _store_key(path, fh, st)
            if key is not None:
                real, digest, to_record = key
                store = _read_sidecar(real, digest)
        else:
            data = fh.buffer.read()
            size = len(data)
            fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        if store is None:
            try:
                count, dim = _read_header(fh)
                # A row holds at least a token and dim values, each of one
                # character, and dim separators, so the byte count bounds
                # the rows whatever the header claims.
                rows = count if size is None else min(count, size // (2 * dim + 1))
                store = _parse_body(fh, count, dim, rows)
            except UnicodeDecodeError as err:
                raise _not_utf8(fh, err) from None
            # The digest is of the file as it was before the parse; a file
            # written to since may not hold what was parsed.
            if key is None or _stat_key(os.fstat(fh.fileno())) != _stat_key(st):
                return store
            _write_sidecar(real, digest, store)
        store.path, store.sha256 = real, digest
        if to_record:
            _write_stat(real, _stat_key(st), digest)
        return store


def _store_key(path, fh, st) -> tuple[str, bytes, bool] | None:
    """(path after symlinks, SHA-256 of the file, whether to record that
    digest against st) when that path names the regular file open as fh
    and stat as st, else None; fh is left at its start. The digest is the
    stat record's when it records st; otherwise the file is hashed, and
    the digest is to be recorded if st is old enough and did not change
    during the hash (see ``finhyp.fileio``).

    Resolving the path puts the sidecar beside the file itself, so a store
    opened as /dev/stdin or /proc/self/fd/N never writes under /dev."""
    real = os.path.realpath(path)
    try:
        named = os.stat(real)
    except OSError:
        return None
    if (named.st_dev, named.st_ino) != (st.st_dev, st.st_ino):
        return None
    key = _stat_key(st)
    recorded = _read_stat(real, key)
    if recorded is not None:
        return real, recorded, False
    start = time.time_ns()
    digest = hashlib.sha256()
    while block := fh.buffer.read(_HASH_BLOCK):
        digest.update(block)
    fh.seek(0)
    return real, digest.digest(), _recordable(fh.fileno(), key, start)


def _sidecar_records(digest: bytes) -> dict:
    return {
        "version": np.array([_SIDECAR_VERSION], dtype=np.int64),
        "sha256": np.frombuffer(digest, dtype=np.uint8),
    }


def _read_sidecar(real: str, digest: bytes) -> EmbeddingStore | None:
    """The store the sidecar of the file at real holds if it records this
    version and digest, else None. A trusted read maps the vectors (see
    ``fileio.read_cache``), so the store checks the rows a run copies
    rather than every value."""
    records = _sidecar_records(digest)
    names = ["tokens", "vectors"]
    return read_cache(real + SIDECAR_SUFFIX, records, names, _sidecar_store, ["vectors"])


def _sidecar_store(arrays: dict) -> EmbeddingStore | None:
    """The store of a sidecar's tokens and vectors, through the store's own
    shape, finiteness and duplicate checks; raises ValueError, or returns
    None, for a sidecar they refuse."""
    if arrays["vectors"].dtype != np.float64:
        return None
    blob = arrays["tokens"].tobytes()
    tokens = blob.decode("utf-8").split("\n") if blob else []
    return EmbeddingStore(tokens, arrays["vectors"])


def _write_sidecar(real: str, digest: bytes, store: EmbeddingStore) -> None:
    """Write the sidecar; the vectors are written from their own memory, as
    a copy of them would be the load's peak."""
    tokens = np.frombuffer("\n".join(store.vocab).encode("utf-8"), dtype=np.uint8)
    arrays = {"tokens": tokens, "vectors": store.vectors}
    write_cache(real + SIDECAR_SUFFIX, {**_sidecar_records(digest), **arrays})


def _read_header(fh) -> tuple[int, int]:
    header = fh.readline()
    try:
        count, dim = map(int, header.split())
        if count < 0 or dim < 1:
            raise ValueError
    except ValueError:
        raise EmbeddingFormatError(
            f"line 1: malformed header {header.strip()!r}"
        ) from None
    return count, dim


def _parse_body(fh, count: int, dim: int, rows: int) -> EmbeddingStore:
    """Parse the body in chunks of _CHUNK_LINES lines, raising on the first
    bad line: _read_block reads the rests after each line's token, and _walk
    a chunk that it refuses or that holds a blank or short row, a duplicate
    token or a row beyond the header count."""
    tokens: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((rows, dim), dtype=np.float64)
    lineno = 2
    while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
        n, pairs = len(tokens), [line.split(None, 1) for line in chunk]
        block = None
        if n + len(pairs) <= count and min(map(len, pairs)) == 2:
            heads = {p[0] for p in pairs}
            if len(heads) == len(pairs) and seen.isdisjoint(heads):
                block = _read_block([p[1] for p in pairs], dim)
        if block is None:
            _walk(chunk, lineno, count, dim, tokens, seen, vectors)
        else:
            vectors[n : n + len(pairs)] = block
            tokens.extend(p[0] for p in pairs)
            seen |= heads
        lineno += len(chunk)
    del seen  # before the store builds its own index of the tokens
    if len(tokens) != count:
        raise EmbeddingFormatError(f"expected {count} rows, found {len(tokens)}")
    return EmbeddingStore(tokens, vectors)


def _read_block(rests: list[str], dim: int) -> np.ndarray | None:
    """np.loadtxt's rows of rests, split at whitespace as str.split() splits,
    or None unless they are len(rests) rows of dim finite values."""
    try:
        block = np.loadtxt(rests, delimiter=None, comments=None, quotechar=None, ndmin=2)
    except ValueError:
        return None
    ok = block.shape == (len(rests), dim) and np.isfinite(block).all()
    return block if ok else None


def _walk(lines, lineno: int, count: int, dim: int, tokens, seen, vectors) -> None:
    """Add the rows of lines, the body lines from lineno on, to tokens, seen
    and vectors, reading each line with str.split() and float(); raises on
    the first bad line."""
    for lineno, line in enumerate(lines, start=lineno):
        fields = line.split()
        if not fields:
            continue
        token, values = fields[0], fields[1:]
        if len(values) != dim:
            raise EmbeddingFormatError(
                f"line {lineno}: row length {len(values)} != dim {dim}"
            )
        if token in seen:
            raise EmbeddingFormatError(f"line {lineno}: duplicate token {token!r}")
        if len(tokens) >= count:
            raise EmbeddingFormatError(
                f"line {lineno}: more rows than header count {count}"
            )
        try:
            row = list(map(float, values))
        except ValueError:
            raise EmbeddingFormatError(
                f"line {lineno}: unparseable float in row {token!r}"
            ) from None
        if not all(map(math.isfinite, row)):
            raise EmbeddingFormatError(
                f"line {lineno}: non-finite value in row {token!r}"
            )
        vectors[len(tokens)] = row
        seen.add(token)
        tokens.append(token)


def _not_utf8(fh, err: UnicodeDecodeError) -> EmbeddingFormatError:
    """The error naming the first line, counted as text mode counts lines,
    that UTF-8 cannot decode."""
    fh.seek(0)
    lineno = 0
    for raw in fh.buffer:
        for line in raw.splitlines():
            lineno += 1
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as line_err:
                return EmbeddingFormatError(f"line {lineno}: not UTF-8: {line_err}")
    return EmbeddingFormatError(f"not UTF-8: {err}")


def save_embeddings(store: EmbeddingStore, path) -> None:
    """Write the store in the same text format load_embeddings reads.

    Floats are written with repr, so a load round-trips bit-exactly. A
    token that is empty or holds whitespace would not read back as one
    token; it raises ValueError before anything is written.
    """
    for tok in store.vocab:
        if tok == "" or _WHITESPACE.search(tok):
            raise ValueError(f"token {tok!r} is empty or holds whitespace")
    lines = [f"{len(store)} {store.dim}\n"]
    for tok, vec in zip(store.vocab, store.vectors):
        lines.append(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")
    atomic_write(path, "".join(lines))


def find(store: EmbeddingStore, token: str) -> int | None:
    """Row of the store's entry for token, or None when token is OOV.

    Exact match first, then lowercase, then both again with edge
    punctuation stripped (the "." that ends a sentence or a definition-
    augmented term).
    """
    stripped = token.strip(string.punctuation)
    for candidate in (token, token.lower(), stripped, stripped.lower()):
        i = store._index.get(candidate)
        if i is not None:
            return i
    return None


class TokenTable:
    """Each distinct whitespace token of a run's texts mapped once to a row
    of ``vectors``: row 0 is the zero vector, and the others are the store
    rows the tokens use, copied and nothing more.

    A token takes the row ``find`` gives it. Otherwise it is OOV: ``oov``
    counts its occurrences, in first-seen order, and ``substitutes`` holds
    what the resolver (an object with ``.resolve_all(tokens, store)`` ->
    one vocabulary token or None per token) gives the unstripped token, all
    OOV tokens in one call. A token takes its substitute's row, or the zero
    row when there is none. Punctuation stays attached to a token.
    """

    def __init__(self, store: EmbeddingStore, texts, resolver):
        counts = Counter(t for text in texts for t in text.split())
        found = {t: find(store, t) for t in counts}
        self.oov = {t: n for t, n in counts.items() if found[t] is None}
        self.substitutes = dict(zip(self.oov, resolver.resolve_all(self.oov, store)))
        for token, sub in self.substitutes.items():
            found[token] = None if sub is None else store._index[sub]
        used = list(dict.fromkeys(i for i in found.values() if i is not None))
        place = {i: n for n, i in enumerate(used, start=1)}
        self.rows = {t: place.get(i, 0) for t, i in found.items()}
        self.vectors = np.zeros((len(used) + 1, store.dim))
        self.vectors[1:] = store.rows(used)
        self.vectors.setflags(write=False)


def embed_term(table: TokenTable, texts) -> np.ndarray:
    """(N, dim) sums of each text's token vectors (sum, not centroid), one
    row per text; every token of texts must be in the table.

    Each text's tokens are added in sorted order onto a zero row, so the
    result is bitwise identical under any token permutation: position j of
    every text is one gather of table rows, a text with fewer tokens adding
    the zero row, which leaves its sum's bits as they are. Raises
    ValueError for a text without a token.
    """
    tokens = [sorted(text.split()) for text in texts]
    for text, toks in zip(texts, tokens):
        if not toks:
            raise ValueError(f"empty term {text!r}")
    lens = np.array([len(toks) for toks in tokens], dtype=np.intp)
    ids = np.zeros((len(tokens), max(lens, default=0)), dtype=np.intp)
    ids[np.arange(ids.shape[1]) < lens[:, None]] = [
        table.rows[t] for toks in tokens for t in toks
    ]
    total = np.zeros((len(tokens), table.vectors.shape[1]))
    for column in ids.T:
        total += table.vectors[column]
    return total
