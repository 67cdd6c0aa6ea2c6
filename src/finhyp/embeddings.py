"""Word2vec text-format embedding store with OOV-aware term embedding.

A store is immutable after load; lookups are read-only and safe to run from
multiple workers. Multi-word terms embed as the sum of their token vectors.
"""
from __future__ import annotations

import io
import itertools
import math
import os
import re
import stat
import string
from dataclasses import dataclass

import numpy as np

IN_VOCAB = "in_vocab"
REPLACED = "replaced"
ZERO = "zero"

# Body lines per np.loadtxt call: small enough that a chunk's strings and
# block add little to peak memory, large enough to amortise the call.
_CHUNK_LINES = 512
_WHITESPACE = re.compile(r"\s")


class EmbeddingFormatError(ValueError):
    """Raised when an embedding file violates the text format."""


@dataclass(frozen=True)
class Resolution:
    """How a single token was mapped to a vector."""

    kind: str  # IN_VOCAB, REPLACED or ZERO
    token: str
    substitute: str | None = None


@dataclass(frozen=True)
class TermTokens:
    """A term split on whitespace; punctuation stays attached to tokens."""

    raw: str
    tokens: tuple[str, ...]

    @classmethod
    def from_raw(cls, raw: str) -> "TermTokens":
        return cls(raw, tuple(raw.split()))


class EmbeddingStore:
    """Vocabulary of unique tokens, each with a dense vector of length dim."""

    def __init__(self, tokens, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if vectors.shape[0] != len(tokens):
            raise ValueError("token/vector count mismatch")
        if vectors.shape[1] < 1:
            raise ValueError("vector dimension must be positive")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors contain non-finite values")
        self.vocab: list[str] = list(tokens)
        self._index: dict[str, int] = {}
        for i, tok in enumerate(self.vocab):
            if tok in self._index:
                raise ValueError(f"duplicate token {tok!r}")
            self._index[tok] = i
        self.vectors = vectors
        self.vectors.setflags(write=False)
        self.dim: int = vectors.shape[1]
        self._vocab_lower: list[str] | None = None

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def row(self, token: str) -> int:
        return self._index[token]

    def vector(self, token: str) -> np.ndarray:
        return self.vectors[self._index[token]]

    @property
    def vocab_lower(self) -> list[str]:
        """Lowercased vocabulary, aligned with vocab order (cached)."""
        if self._vocab_lower is None:
            self._vocab_lower = [t.lower() for t in self.vocab]
        return self._vocab_lower


def load_embeddings(path) -> EmbeddingStore:
    """Parse a word2vec text file: "<count> <dim>" header, then one
    "<token> <floats...>" row per line, UTF-8.

    Bodies whose rows are single-space separated are parsed by numpy's C
    parser; any other body is parsed again, from its first line, by the
    per-line loop, which alone raises EmbeddingFormatError for the body.
    A stream that cannot seek (a pipe) is read into memory first.
    """
    with open(path, encoding="utf-8") as fh:
        if fh.seekable():
            st = os.fstat(fh.fileno())
            size = st.st_size if stat.S_ISREG(st.st_mode) else None
        else:
            data = fh.buffer.read()
            size = len(data)
            fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        try:
            count, dim = _read_header(fh)
            # A row holds at least a token and dim values, each of one
            # character, and dim separators, so the byte count bounds the
            # rows whatever the header claims.
            rows = count if size is None else min(count, size // (2 * dim + 1))
            body = fh.tell()
            store = _parse_body_fast(fh, count, dim, rows)
            if store is not None:
                return store
            fh.seek(body)
            return _parse_body(fh, count, dim, rows)
        except UnicodeDecodeError as err:
            raise _not_utf8(fh, err) from None


def _read_header(fh) -> tuple[int, int]:
    header = fh.readline()
    parts = header.split()
    if len(parts) != 2:
        raise EmbeddingFormatError(f"line 1: malformed header {header.strip()!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise EmbeddingFormatError(
            f"line 1: malformed header {header.strip()!r}"
        ) from None
    if count < 0 or dim < 1:
        raise EmbeddingFormatError(f"line 1: malformed header {header.strip()!r}")
    return count, dim


def _parse_body_fast(fh, count: int, dim: int, rows: int) -> EmbeddingStore | None:
    """The store np.loadtxt reads from the body, or None when some line is
    not "<token> <float> ... <float>" with single spaces, or the rows do
    not make a valid store of count x dim.

    Whatever np.loadtxt accepts here, str.split() and float() read as the
    same token and values, so the result equals _parse_body's.
    """
    tokens: list[str] = []
    vectors = np.empty((rows, dim), dtype=np.float64)
    n = 0
    while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
        pairs = [line.split(" ", 1) for line in chunk]
        if min(map(len, pairs)) < 2:
            return None
        heads = [p[0] for p in pairs]
        rests = [p[1] for p in pairs]
        # str.split() would cut a token holding whitespace; loadtxt skips
        # (and warns on) a blank rest where the loop sees a short row.
        if "" in heads or _WHITESPACE.search("".join(heads)):
            return None
        if "\n" in rests or "" in rests:
            return None
        try:
            block = np.loadtxt(
                rests,
                dtype=np.float64,
                delimiter=" ",
                comments=None,
                quotechar=None,
                ndmin=2,
            )
        except ValueError:
            return None
        if block.shape != (len(chunk), dim) or n + len(chunk) > rows:
            return None
        vectors[n : n + len(chunk)] = block
        tokens.extend(heads)
        n += len(chunk)
    if n != count:
        return None
    try:
        # Duplicate tokens and non-finite values are refused here.
        return EmbeddingStore(tokens, vectors)
    except ValueError:
        return None


def _parse_body(fh, count: int, dim: int, rows: int) -> EmbeddingStore:
    """Parse the body line by line, raising on the first bad line."""
    tokens: list[str] = []
    seen: set[str] = set()
    vectors = np.empty((rows, dim), dtype=np.float64)
    n = 0
    for lineno, line in enumerate(fh, start=2):
        if line.strip() == "":
            continue
        fields = line.split()
        token, values = fields[0], fields[1:]
        if len(values) != dim:
            raise EmbeddingFormatError(
                f"line {lineno}: row length {len(values)} != dim {dim}"
            )
        if token in seen:
            raise EmbeddingFormatError(f"line {lineno}: duplicate token {token!r}")
        if n >= count:
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
        seen.add(token)
        tokens.append(token)
        vectors[n] = row
        n += 1
    if n != count:
        raise EmbeddingFormatError(f"expected {count} rows, found {n}")
    return EmbeddingStore(tokens, vectors)


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

    Floats are written with repr, so a load round-trips bit-exactly.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(store)} {store.dim}\n")
        for tok, vec in zip(store.vocab, store.vectors):
            fh.write(tok + " " + " ".join(repr(float(v)) for v in vec) + "\n")


def lookup(store: EmbeddingStore, token: str, resolver=None):
    """Vector for one token plus a record of how it was resolved.

    Exact match first, then lowercase, then both again with edge
    punctuation stripped (the "." that ends a sentence or a definition-
    augmented term). OOV tokens go, unstripped, to the resolver (an object
    with .resolve(token, store) -> vocab token or None). A None resolver or
    a None resolution yields the zero vector.
    """
    stripped = token.strip(string.punctuation)
    for candidate in (token, token.lower(), stripped, stripped.lower()):
        i = store._index.get(candidate)
        if i is not None:
            return store.vectors[i], Resolution(IN_VOCAB, token)
    substitute = resolver.resolve(token, store) if resolver is not None else None
    if substitute is None:
        return np.zeros(store.dim), Resolution(ZERO, token)
    return store.vectors[store._index[substitute]], Resolution(
        REPLACED, token, substitute
    )


def embed_term(store: EmbeddingStore, term: TermTokens, resolver=None) -> np.ndarray:
    """Sum of the per-token vectors (sum, not centroid).

    Tokens are summed in sorted order so the result is bitwise identical
    under any token permutation.
    """
    if not term.tokens:
        raise ValueError(f"empty term {term.raw!r}")
    total = np.zeros(store.dim)
    for tok in sorted(term.tokens):
        vec, _ = lookup(store, tok, resolver)
        total += vec
    return total
