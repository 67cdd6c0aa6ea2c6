"""Embedding store: parsing, persistence, lookup and term summation."""
import math
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finhyp import embeddings
from finhyp.embeddings import (
    IN_VOCAB,
    REPLACED,
    ZERO,
    EmbeddingFormatError,
    EmbeddingStore,
    Resolution,
    TermTokens,
    embed_term,
    load_embeddings,
    lookup,
    save_embeddings,
)
from finhyp.oov import OOVStrategy


CLEAN_ROWS = b"".join(b"t%d 1 2\n" % i for i in range(3000))


def write(tmp_path, text):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_two_token_file(self, tmp_path):
        store = load_embeddings(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
        assert store.dim == 3
        assert store.vocab == ["a", "b"]
        assert np.array_equal(store.vector("b"), [0.0, 1.0, 0.0])

    def test_row_length_mismatch(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match=r"line 2.*3 != dim 2"):
            load_embeddings(write(tmp_path, "1 2\na 1 0 0\n"))

    def test_duplicate_token(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match=r"line 3.*duplicate"):
            load_embeddings(write(tmp_path, "2 2\na 1 0\na 0 1\n"))

    def test_malformed_header(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(write(tmp_path, "banana\na 1 0\n"))

    def test_non_finite_value(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match=r"line 2.*non-finite"):
            load_embeddings(write(tmp_path, "1 2\na nan 0\n"))

    def test_first_bad_line_reported_first(self, tmp_path):
        text = "3 2\na inf 0\nb 1 0\nb 0 1\n"
        with pytest.raises(EmbeddingFormatError, match=r"^line 2: non-finite"):
            load_embeddings(write(tmp_path, text))
        # within a row, an unparseable float is reported before a non-finite one
        with pytest.raises(EmbeddingFormatError, match=r"^line 2: unparseable"):
            load_embeddings(write(tmp_path, "1 2\na inf x\n"))

    def test_bad_float(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(write(tmp_path, "1 2\na one 0\n"))

    def test_missing_rows(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match="expected 3"):
            load_embeddings(write(tmp_path, "3 2\na 1 0\nb 0 1\n"))

    def test_extra_rows(self, tmp_path):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(write(tmp_path, "1 2\na 1 0\nb 0 1\n"))

    def test_header_count_beyond_file_size(self, tmp_path):
        with pytest.raises(EmbeddingFormatError, match=r"^expected 1000000000000 rows, found 1$"):
            load_embeddings(write(tmp_path, "1000000000000 3\nab 1 2 3\n"))
        with pytest.raises(EmbeddingFormatError, match=r"^line 2: row length 3 != dim 300$"):
            load_embeddings(write(tmp_path, "1000000000000 300\nab 1 2 3\n"))

    # The file is decoded in blocks, so a small file fails while its header is
    # read; past the first block the fast path or the loop meets the byte.
    @pytest.mark.parametrize(
        "body, lineno",
        [
            (b"ab\xff 1 2\ncd 1 2\n", 2),
            (b"ab 1 2\r\ncd 1 2\rx\xc3 1 2\n", 4),
            (CLEAN_ROWS + b"z\xff 1 2\n", 3002),
            (b"ab  1 2\n" + CLEAN_ROWS + b"z\xff 1 2\n", 3003),
        ],
        ids=["header-read", "universal-newlines", "fast-path", "loop"],
    )
    def test_not_utf8_names_line(self, tmp_path, body, lineno):
        path = tmp_path / "emb.txt"
        path.write_bytes(b"%d 2\n" % len(body.splitlines()) + body)
        with pytest.raises(EmbeddingFormatError, match=rf"^line {lineno}: not UTF-8: "):
            load_embeddings(path)

    def test_unicode_tokens(self, tmp_path):
        store = load_embeddings(write(tmp_path, "1 2\ncafé 1 2\n"))
        assert "café" in store

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        store = EmbeddingStore(["x", "Y", "z-1"], rng.normal(size=(3, 4)))
        path = tmp_path / "out.txt"
        save_embeddings(store, path)
        again = load_embeddings(path)
        assert again.vocab == store.vocab
        assert np.array_equal(again.vectors, store.vectors)
        save_embeddings(again, tmp_path / "twice.txt")
        assert (tmp_path / "twice.txt").read_bytes() == path.read_bytes()


def reference_load_embeddings(path) -> EmbeddingStore:
    """The per-line loader that preceded the np.loadtxt fast path, kept
    verbatim as the oracle for load_embeddings."""
    with open(path, encoding="utf-8") as fh:
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

        tokens: list[str] = []
        seen: set[str] = set()
        vectors = np.empty((count, dim), dtype=np.float64)
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


def outcome(load, path):
    """Vocabulary and vector bytes of a load, or the message it raised."""
    try:
        store = load(path)
    except EmbeddingFormatError as err:
        return ("error", str(err))
    return (store.vocab, store.vectors.shape, store.vectors.tobytes())


# Ways a row can leave the "<token> <float> ... <float>" single-space
# grammar: np.loadtxt and str.split()/float() may read each differently.
WHITESPACE = ["", "  ", "\t", " \t", "\t ", "\xa0", " \xa0", "\x85", " \x85", "　", "\x1c", "\n"]
TRAP_TOKENS = st.text(alphabet="ab\xa0\t\x85\x00 ", max_size=3)
CLEAN_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-10, 10).map(lambda v: "%.6f" % v),
    st.sampled_from(["0", "-0", "+1", ".5", "5.", "1e5", "1E-3", "-7"]),
)
TRAP_VALUES = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "Infinity", "-nan", "1_0", "１", "١", "0x1p3",
     "1d5", "x", "", "1\x00", "1,5", "1\x852", "\x852", "2\x85", " 1", "1 "]
)
TRAPS = ["token", "sep", "value", "short", "bare", "long", "lead", "trail", "blank", "dup"]


@st.composite
def store_texts(draw):
    """A valid store of single-space rows with up to three traps laid in."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    tokens = draw(st.lists(st.text(alphabet="abé漢_.", min_size=1, max_size=3),
                           min_size=n, max_size=n, unique=True))
    rows = [[tok, [" "] * dim, [draw(CLEAN_VALUES) for _ in range(dim)], "", ""]
            for tok in tokens]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(TRAPS))
        at = draw(st.integers(0, len(row[2]) - 1)) if row[2] else None
        if kind == "token":
            row[0] = draw(TRAP_TOKENS)
        elif kind == "sep" and at is not None:
            row[1][at] = draw(st.sampled_from(WHITESPACE))
        elif kind == "value" and at is not None:
            row[2][at] = draw(TRAP_VALUES)
        elif kind == "short" and at is not None:
            del row[1][at], row[2][at]
        elif kind == "bare":
            row[1:3] = [], []
            row[4] = draw(st.sampled_from([" ", " \n"]))
        elif kind == "long":
            row[1].append(" ")
            row[2].append(draw(CLEAN_VALUES))
        elif kind == "lead":
            row[3] = draw(st.sampled_from(WHITESPACE))
        elif kind == "trail":
            row[4] = draw(st.sampled_from(WHITESPACE))
        elif kind == "blank":
            row[4] += "\n" + draw(st.sampled_from(WHITESPACE))
        elif kind == "dup":
            row[0] = draw(st.sampled_from(rows))[0]
    lines = [lead + tok + "".join(s + v for s, v in zip(seps, vals)) + trail
             for tok, seps, vals, lead, trail in rows]
    count = len(rows) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n"]))
    end = draw(st.sampled_from([newline, newline, newline, ""]))
    return f"{count} {dim}\n" + newline.join(lines) + (end if lines else "")


class TestLoadOracle:
    # np.loadtxt warns on a block of blank lines; the fast path never hands it one.
    @pytest.mark.filterwarnings("error::UserWarning")
    @given(text=store_texts(), chunk=st.sampled_from([1, 2, 3, 512]))
    @settings(
        max_examples=500,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_store_or_same_message(self, tmp_path, text, chunk):
        path = tmp_path / "emb.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(embeddings, "_CHUNK_LINES", chunk):
            got = outcome(load_embeddings, path)
        assert got == outcome(reference_load_embeddings, path)

    def test_clean_stores_never_reach_the_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        tokens = [f"tok{i}" for i in range(1100)] + ["café", "漢字", "S&P_500"]
        store = EmbeddingStore(tokens, rng.normal(size=(len(tokens), 5)))
        saved = tmp_path / "saved.txt"
        save_embeddings(store, saved)
        fixed = write(tmp_path, "3 2\na 1 -2.5\nb 1e-3 .5\nc 0.000000 7\n")

        def refuse(*args):
            raise AssertionError("fast path fell back")

        monkeypatch.setattr(embeddings, "_parse_body", refuse)
        for path in (saved, fixed):
            assert outcome(load_embeddings, path) == outcome(
                reference_load_embeddings, path
            )

    def test_fifo_without_fast_path(self, tmp_path):
        got = load_through_fifo(tmp_path, b"2 2\na 1 0\nb  0 1\n")
        assert got == (["a", "b"], (2, 2), np.eye(2).tobytes())

    def test_fifo_not_utf8(self, tmp_path):
        kind, message = load_through_fifo(tmp_path, b"2 2\na 1 0\nb\xff 0 1\n")
        assert kind == "error"
        assert message.startswith(
            "line 3: not UTF-8: 'utf-8' codec can't decode byte 0xff"
        )

    def test_fifo_header_count_beyond_size(self, tmp_path):
        # the bytes read bound the rows, as a regular file's size does
        got = load_through_fifo(tmp_path, b"1000000000000 3\nab 1 2 3\n")
        assert got == ("error", "expected 1000000000000 rows, found 1")

    def test_clean_fifo_never_reaches_the_loop(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("fast path fell back")

        monkeypatch.setattr(embeddings, "_parse_body", refuse)
        got = load_through_fifo(tmp_path, b"2 2\na 1 0\nb 0 1\n")
        assert got == (["a", "b"], (2, 2), np.eye(2).tobytes())


def load_through_fifo(tmp_path, data):
    """outcome() of loading data written into a named pipe, which cannot seek."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,))
    writer.start()
    got = outcome(load_embeddings, path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    return got


class TestStore:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingStore(["a", "a"], np.zeros((2, 2)))

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            EmbeddingStore(["a"], np.zeros((1, 0)))

    def test_vectors_read_only(self, toy_store):
        with pytest.raises(ValueError):
            toy_store.vectors[0, 0] = 9.0

    def test_every_vocab_token_resolves(self, toy_store):
        for tok in toy_store.vocab:
            vec, res = lookup(toy_store, tok)
            assert res.kind == IN_VOCAB
            assert np.array_equal(vec, toy_store.vector(tok))


class TestLookup:
    def test_lowercase_fallback(self, toy_store):
        vec, res = lookup(toy_store, "BOND")
        assert res.kind == IN_VOCAB
        assert np.array_equal(vec, toy_store.vector("bond"))

    def test_zero_without_resolver(self, toy_store):
        vec, res = lookup(toy_store, "xyz")
        assert res.kind == ZERO
        assert not vec.any()

    def test_zero_strategy(self, toy_store):
        vec, res = lookup(toy_store, "xyz", OOVStrategy("zero"))
        assert res.kind == ZERO
        assert res.substitute is None

    def test_edge_punctuation_stripped(self, toy_store):
        # "term. sentence" from augmentation, or a comma-joined word
        for tok, word in (("swap.", "swap"), ("Swap,", "swap"), ("(index)", "index")):
            vec, res = lookup(toy_store, tok)
            assert res == Resolution(IN_VOCAB, tok)
            assert np.array_equal(vec, toy_store.vector(word))

    def test_stripped_oov_resolves_original_token(self, toy_store):
        seen = []

        class Recorder:
            def resolve(self, token, store):
                seen.append(token)
                return "bond"

        _, res = lookup(toy_store, "bonds.", Recorder())
        assert seen == ["bonds."]
        assert res == Resolution(REPLACED, "bonds.", "bond")
        _, res = lookup(toy_store, "...", Recorder())
        assert seen == ["bonds.", "..."]

    def test_replacement_recorded(self, toy_store):
        vec, res = lookup(toy_store, "bonds", OOVStrategy("levenshtein"))
        assert res.kind == REPLACED
        assert res.substitute == "bond"
        assert np.array_equal(vec, toy_store.vector("bond"))


class TestTermTokens:
    def test_whitespace_split_keeps_punctuation(self):
        term = TermTokens.from_raw("Interest rate swaps")
        assert term.tokens == ("Interest", "rate", "swaps")
        assert TermTokens.from_raw("t-bill").tokens == ("t-bill",)

    @given(st.lists(st.text(alphabet="abXé", min_size=1, max_size=5), min_size=1, max_size=5))
    def test_rejoin_reproduces_raw(self, tokens):
        raw = " ".join(tokens)
        assert TermTokens.from_raw(raw).tokens == tuple(tokens)


class TestEmbedTerm:
    def test_sum_not_mean(self, tmp_path):
        store = load_embeddings(write(tmp_path, "2 2\nbond 1 0\noption 0 1\n"))
        out = embed_term(store, TermTokens.from_raw("bond option"))
        assert np.array_equal(out, [1.0, 1.0])

    def test_single_token_identity(self, toy_store):
        out = embed_term(toy_store, TermTokens.from_raw("swap"))
        assert np.array_equal(out, toy_store.vector("swap"))

    def test_empty_term_rejected(self, toy_store):
        with pytest.raises(ValueError):
            embed_term(toy_store, TermTokens("", []))

    def test_repeated_token_counts_twice(self, tmp_path):
        store = load_embeddings(write(tmp_path, "1 2\nbond 1 2\n"))
        out = embed_term(store, TermTokens.from_raw("bond bond"))
        assert np.array_equal(out, [2.0, 4.0])

    @given(st.permutations(["bond", "option", "swap", "corporate", "index"]))
    def test_permutation_invariance_bitwise(self, order):
        rng = np.random.default_rng(11)
        store = EmbeddingStore(
            ["bond", "option", "swap", "corporate", "index"],
            rng.normal(size=(5, 6)),
        )
        base = embed_term(store, TermTokens.from_raw("bond option swap corporate index"))
        perm = embed_term(store, TermTokens.from_raw(" ".join(order)))
        assert np.array_equal(base, perm)
