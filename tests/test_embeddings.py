"""Embedding store: parsing, persistence, the token table and term summation."""
import errno
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import types
import zipfile
import zlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finhyp import embeddings, fileio
from finhyp.cli import main
from finhyp.embeddings import (
    EmbeddingFormatError,
    EmbeddingStore,
    TokenTable,
    embed_term,
    find,
    load_embeddings,
    save_embeddings,
)
from finhyp.fileio import atomic_open, atomic_write, read_cache, write_cache
from finhyp.oov import OOVStrategy

from conftest import Tripwire, rewrite_archive


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
    # read; past the first block the byte is met after chunks that numpy read,
    # or after a chunk walked line by line (its 1_0 only float() reads).
    @pytest.mark.parametrize(
        "body, lineno",
        [
            (b"ab\xff 1 2\ncd 1 2\n", 2),
            (b"ab 1 2\r\ncd 1 2\rx\xc3 1 2\n", 4),
            (CLEAN_ROWS + b"z\xff 1 2\n", 3002),
            (b"ab 1_0 2\n" + CLEAN_ROWS + b"z\xff 1 2\n", 3003),
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
    # np.loadtxt warns on a block of blank lines; the parser never hands it one.
    @pytest.mark.filterwarnings("error::UserWarning")
    @given(text=store_texts(), chunk=st.sampled_from([1, 2, 3, 512]))
    # word2vec's and fastText's rows end with a space; some stores use tabs
    @example(text="3 2\na 1 0 \nb 0 1 \nc 2 2 \n", chunk=2)
    @example(text="3 2\na\t1\t0\nb\t0\t1\nc\t2\t2\n", chunk=2)
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

        monkeypatch.setattr(embeddings, "_walk", refuse_walk)
        for path in (saved, fixed):
            assert outcome(load_embeddings, path) == outcome(
                reference_load_embeddings, path
            )

    @pytest.mark.parametrize(
        "layout",
        [lambda row: row + " ", lambda row: row.replace(" ", "\t")],
        ids=["trailing-space", "tabs"],
    )
    def test_other_whitespace_never_reaches_the_loop(self, tmp_path, monkeypatch, layout):
        tokens = [f"tok{i}" for i in range(1100)] + ["café", "漢字"]
        store = EmbeddingStore(tokens, np.random.default_rng(4).normal(size=(1102, 3)))
        saved = tmp_path / "saved.txt"
        save_embeddings(store, saved)
        header, *rows = saved.read_text(encoding="utf-8").splitlines()
        path = write(tmp_path, "\n".join([header] + [layout(r) for r in rows]) + "\n")
        monkeypatch.setattr(embeddings, "_walk", refuse_walk)
        got = outcome(load_embeddings, path)
        assert got == (store.vocab, store.vectors.shape, store.vectors.tobytes())

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
        monkeypatch.setattr(embeddings, "_walk", refuse_walk)
        got = load_through_fifo(tmp_path, b"2 2\na 1 0\nb 0 1\n")
        assert got == (["a", "b"], (2, 2), np.eye(2).tobytes())


def refuse_walk(*args):
    raise AssertionError("a chunk was walked line by line")


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


def sidecar_of(path):
    return path.parent / (path.name + embeddings.SIDECAR_SUFFIX)


def stat_record_of(path):
    return path.parent / (path.name + embeddings.STAT_SUFFIX)


def write_settled(tmp_path, text):
    """write(), then wait until a later write must change the file's ctime:
    the kernel stamps ctime from a clock that ticks every few milliseconds,
    so two writes within one tick can leave the same ctime."""
    path = write(tmp_path, text)
    time.sleep(0.05)
    return path


@pytest.fixture
def aged(monkeypatch):
    """A store written by write_settled is old enough for its stat to be
    recorded."""
    monkeypatch.setattr(fileio, "_STAT_MARGIN_NS", 20_000_000)


@pytest.fixture
def sha256_calls(monkeypatch):
    """The arguments of each hashlib.sha256 call made in finhyp.embeddings."""
    calls = []

    def sha256(*args):
        calls.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(embeddings, "hashlib", types.SimpleNamespace(sha256=sha256))
    return calls


SIDECAR_TOKENS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc"))
    | st.sampled_from("é漢\x00\x7f_"),
    min_size=1,
    max_size=4,
).filter(lambda tok: not embeddings._WHITESPACE.search(tok))


@st.composite
def small_stores(draw):
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(1, 3))
    tokens = draw(st.lists(SIDECAR_TOKENS, min_size=n, max_size=n, unique=True))
    values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=n * dim,
            max_size=n * dim,
        )
    )
    return EmbeddingStore(tokens, np.array(values, dtype=np.float64).reshape(n, dim))


class TestSidecar:
    @given(store=small_stores())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_warm_load_equals_cold_load(self, tmp_path, store):
        path = tmp_path / "emb.txt"
        save_embeddings(store, path)
        sidecar_of(path).unlink(missing_ok=True)
        cold = load_embeddings(path)
        assert sidecar_of(path).exists()
        with mock.patch.object(embeddings, "_read_header", side_effect=AssertionError):
            warm = load_embeddings(path)
        assert warm.vocab == cold.vocab == store.vocab
        assert warm.vectors.tobytes() == cold.vectors.tobytes() == store.vectors.tobytes()
        assert warm.vectors.shape == cold.vectors.shape
        assert not warm.vectors.flags.writeable
        assert warm.sha256 == cold.sha256 == hashlib.sha256(path.read_bytes()).digest()

    def test_same_size_rewrite_is_parsed_again(self, tmp_path):
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        load_embeddings(path)
        before = sidecar_of(path).read_bytes()
        stamp = os.stat(path)
        path.write_text("2 2\na 0 1\nb 1 0\n", encoding="utf-8")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        store = load_embeddings(path)
        assert np.array_equal(store.vectors, [[0.0, 1.0], [1.0, 0.0]])
        assert sidecar_of(path).read_bytes() != before
        with np.load(sidecar_of(path)) as archive:
            digest = archive["sha256"].tobytes()
        assert digest == hashlib.sha256(path.read_bytes()).digest()

    def test_bad_store_gets_no_record(self, tmp_path, aged):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1 2\n")
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError, match="^line 3: row length 3 != dim 2$"):
                load_embeddings(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    @pytest.mark.parametrize(
        "spoil",
        ["truncated", "garbage", "empty", "digest", "version", "pickled", "float32"],
    )
    def test_bad_sidecar_ignored_and_replaced(self, tmp_path, spoil):
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        good = load_embeddings(path)
        sidecar = sidecar_of(path)
        valid = sidecar.read_bytes()
        if spoil == "truncated":
            sidecar.write_bytes(valid[: len(valid) // 2])
        elif spoil == "garbage":
            sidecar.write_bytes(b"not an archive\n")
        elif spoil == "empty":
            sidecar.write_bytes(b"")
        elif spoil == "digest":
            rewrite_archive(sidecar, sha256=np.zeros(32, dtype=np.uint8))
        elif spoil == "version":
            rewrite_archive(sidecar, version=np.array([999], dtype=np.int64))
        elif spoil == "pickled":
            rewrite_archive(sidecar, tokens=np.array([Tripwire()], dtype=object))
        elif spoil == "float32":
            rewrite_archive(sidecar, vectors=good.vectors.astype(np.float32))
        Tripwire.unpickled.clear()
        store = load_embeddings(path)
        assert Tripwire.unpickled == []
        assert store.vocab == good.vocab
        assert store.vectors.tobytes() == good.vectors.tobytes()
        assert sidecar.read_bytes() == valid

    def test_foreign_sidecar_with_matching_digest_rechecked(self, tmp_path):
        # A sidecar is trusted for its digest only; the store checks still run.
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        load_embeddings(path)
        rewrite_archive(sidecar_of(path), tokens=np.frombuffer(b"a\na", dtype=np.uint8))
        store = load_embeddings(path)
        assert store.vocab == ["a", "b"]

    @pytest.mark.parametrize("failure", ["mkstemp", "replace", "write"])
    def test_failed_write_does_not_fail_the_load(self, tmp_path, monkeypatch, failure):
        def fail(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        if failure == "mkstemp":
            monkeypatch.setattr(tempfile, "mkstemp", fail)
        elif failure == "replace":
            monkeypatch.setattr(os, "replace", fail)
        else:
            monkeypatch.setattr(zipfile.ZipFile, "open", fail)
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        store = load_embeddings(path)
        assert store.vocab == ["a", "b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    def test_file_bytes_pinned(self, tmp_path):
        # A sidecar written by an earlier release loads only while a parse
        # writes the same bytes: a change to the arrays, their order or their
        # dtypes must bump _SIDECAR_VERSION and this digest. The rows end with
        # a space, as word2vec's and fastText's do.
        text = (
            "4 3\nbond 0.1 -2.5 1e-3 \nswap .5 7 -0.0 \n"
            "Swaption 1e+300 2.5e-320 3 \n中é- 0.000000 +1 -7 \n"
        )
        load_embeddings(write(tmp_path, text))
        digest = hashlib.sha256(sidecar_of(tmp_path / "emb.txt").read_bytes())
        assert digest.hexdigest() == (
            "41f916b4d0c4eedd31f2ce03e2dcea0b3fe93487ac0d0f1c9cd9d0bc1edcefa4"
        )

    def test_file_changed_during_parse_not_cached(self, tmp_path, monkeypatch):
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        parse = embeddings._parse_body

        def parse_then_append(fh, *args):
            store = parse(fh, *args)
            with open(path, "a", encoding="utf-8") as out:
                out.write("c 1 1\n")
            return store

        monkeypatch.setattr(embeddings, "_parse_body", parse_then_append)
        store = load_embeddings(path)
        assert store.vocab == ["a", "b"]
        assert store.path is None and store.sha256 is None
        # No cache may be keyed by a digest of bytes that were not parsed:
        # the n-gram index of this store is built in memory.
        assert OOVStrategy("ngram").resolve("aa", store) == "a"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    def test_rewrite_during_parse_with_mtime_restored_not_cached(self, tmp_path, monkeypatch):
        # The same size and mtime, but a new ctime, which no call can set.
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        parse = embeddings._parse_body

        def parse_then_rewrite(fh, *args):
            store = parse(fh, *args)
            stamp = os.stat(path)
            with open(path, "r+", encoding="utf-8") as out:
                out.write("2 2\na 0 1\nb 1 0\n")
            os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            return store

        monkeypatch.setattr(embeddings, "_parse_body", parse_then_rewrite)
        store = load_embeddings(path)
        assert np.array_equal(store.vectors, np.eye(2))
        assert store.path is None and store.sha256 is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"2 2\na 1 0\nb 0 1 2\n", "line 3: row length 3 != dim 2"),
            (b"2 2\na 1 0\na 0 1\n", "line 3: duplicate token 'a'"),
            (b"1 2\na nan 0\n", "line 2: non-finite value in row 'a'"),
            (b"2 2\na 1 0\nb\xff 0 1\n", "line 3: not UTF-8: "),
            (b"3 2\na 1 0\nb 0 1\n", "expected 3 rows, found 2"),
        ],
    )
    def test_bad_store_never_cached(self, tmp_path, body, message):
        path = tmp_path / "emb.txt"
        path.write_bytes(body)
        messages = []
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError) as err:
                load_embeddings(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    def test_symlink_caches_beside_the_file(self, tmp_path):
        target = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert load_embeddings(link).vocab == ["a", "b"]
        assert sidecar_of(target).exists()
        assert not sidecar_of(link).exists()

    @pytest.mark.parametrize("source", ["pipe", "file"])
    def test_dev_stdin_writes_nothing_under_dev(self, tmp_path, source):
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin on this platform")
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        code = (
            "from finhyp.embeddings import load_embeddings\n"
            "print(load_embeddings('/dev/stdin').vocab)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(embeddings.__file__)))
        with open(path, "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                stdin=stdin if source == "file" else None,
                input=None if source == "file" else path.read_bytes(),
                capture_output=True,
                env=env,
                timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"['a', 'b']\n"
        assert not os.path.exists("/dev/stdin" + embeddings.SIDECAR_SUFFIX)
        # A pipe has no file to cache beside; a redirected file caches beside itself.
        assert sidecar_of(path).exists() == (source == "file")


class TestStatRecord:
    def test_warm_load_computes_no_sha256(self, tmp_path, aged, sha256_calls):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        cold = load_embeddings(path)
        assert len(sha256_calls) == 1
        inode = stat_record_of(path).stat().st_ino
        for _ in range(2):
            warm = load_embeddings(path)
        assert len(sha256_calls) == 1
        assert warm.vocab == cold.vocab
        assert warm.vectors.tobytes() == cold.vectors.tobytes()
        assert warm.sha256 == cold.sha256 == hashlib.sha256(path.read_bytes()).digest()
        assert warm.path == cold.path == str(path)
        # a load that reads the record does not rewrite it
        assert stat_record_of(path).stat().st_ino == inode

    def test_record_holds_stat_and_digest(self, tmp_path, aged):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        load_embeddings(path)
        st = os.stat(path)
        fields = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert stat_record_of(path).read_bytes() == (
            "finhyp-stat 1 %d %d %d %d %d %s\n" % (*fields, digest)
        ).encode("ascii")

    def test_same_size_rewrite_with_mtime_restored(self, tmp_path, aged, sha256_calls):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        load_embeddings(path)
        old_record = stat_record_of(path).read_bytes()
        old_sidecar = sidecar_of(path).read_bytes()
        stamp = os.stat(path)
        with open(path, "r+", encoding="utf-8") as out:
            out.write("2 2\na 0 1\nb 1 0\n")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        now = os.stat(path)
        assert (now.st_ino, now.st_size, now.st_mtime_ns) == (
            stamp.st_ino,
            stamp.st_size,
            stamp.st_mtime_ns,
        )
        store = load_embeddings(path)
        assert len(sha256_calls) == 2
        assert np.array_equal(store.vectors, [[0.0, 1.0], [1.0, 0.0]])
        assert store.sha256 == hashlib.sha256(path.read_bytes()).digest()
        assert sidecar_of(path).read_bytes() != old_sidecar
        with np.load(sidecar_of(path)) as archive:
            assert archive["sha256"].tobytes() == store.sha256
        # the rewritten store's stat is recorded once it is old enough
        time.sleep(0.05)
        load_embeddings(path)
        new_record = stat_record_of(path).read_bytes()
        assert new_record != old_record
        assert new_record.endswith(store.sha256.hex().encode("ascii") + b"\n")
        hashes = len(sha256_calls)
        assert load_embeddings(path).sha256 == store.sha256
        assert len(sha256_calls) == hashes

    def test_young_store_hashed_on_every_load(self, tmp_path, monkeypatch, sha256_calls):
        monkeypatch.setattr(fileio, "_STAT_MARGIN_NS", 3600 * 10**9)
        path = write(tmp_path, "2 2\na 1 0\nb 0 1\n")
        for n in range(1, 4):
            assert load_embeddings(path).sha256 == hashlib.sha256(path.read_bytes()).digest()
            assert len(sha256_calls) == n
        assert not stat_record_of(path).exists()
        assert sidecar_of(path).exists()

    @pytest.mark.parametrize("sidecar", [False, True])
    def test_store_written_during_hash_not_recorded(self, tmp_path, aged, monkeypatch, sidecar):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        if sidecar:
            load_embeddings(path)
            stat_record_of(path).unlink()

        class RewritingHash:
            # The same bytes written again: only the file's ctime changes.
            def __init__(self):
                self.inner = hashlib.sha256()

            def update(self, block):
                self.inner.update(block)
                with open(path, "r+", encoding="utf-8") as out:
                    out.write("2 2\na 1 0\nb 0 1\n")

            def digest(self):
                return self.inner.digest()

        monkeypatch.setattr(embeddings, "hashlib", types.SimpleNamespace(sha256=RewritingHash))
        store = load_embeddings(path)
        assert store.vocab == ["a", "b"]
        assert not stat_record_of(path).exists()
        # a parse of a file written to since its hash caches nothing
        assert sidecar_of(path).exists() == sidecar
        assert (store.sha256 is None) == (not sidecar)

    def test_bad_store_gets_no_record(self, tmp_path, aged):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1 2\n")
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError, match="^line 3: row length 3 != dim 2$"):
                load_embeddings(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]

    @pytest.mark.parametrize(
        "spoil",
        ["truncated", "garbage", "empty", "tag", "version", "stat", "uppercase", "two-lines"],
    )
    def test_bad_record_ignored_and_replaced(self, tmp_path, aged, sha256_calls, spoil):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        good = load_embeddings(path)
        record = stat_record_of(path)
        valid = record.read_bytes()
        tag, version, *fields, digest = valid.split()
        ctime = str(int(fields[-1]) + 1).encode()
        record.write_bytes(
            {
                "truncated": valid[: len(valid) // 2],
                "garbage": b"\xff\x00 not a record\n",
                "empty": b"",
                "tag": b" ".join([b"finhyp-cache", version, *fields, digest]) + b"\n",
                "version": b" ".join([tag, b"2", *fields, digest]) + b"\n",
                "stat": b" ".join([tag, version, *fields[:-1], ctime, digest]) + b"\n",
                "uppercase": valid.upper().replace(b"FINHYP-STAT", b"finhyp-stat"),
                "two-lines": valid + valid,
            }[spoil]
        )
        store = load_embeddings(path)
        assert len(sha256_calls) == 2
        assert store.vocab == good.vocab
        assert store.vectors.tobytes() == good.vectors.tobytes()
        assert store.sha256 == good.sha256
        assert record.read_bytes() == valid

    @pytest.mark.parametrize(
        "fields",
        [(2**64 - 1,) * 5, (0, 2**64 - 1, 0, -1, -1), (-1,) * 5],
        ids=["max", "mixed", "negative"],
    )
    def test_stat_values_round_trip(self, tmp_path, fields):
        real = str(tmp_path / "emb.txt")
        digest = hashlib.sha256(b"store").digest()
        fileio._write_stat(real, fields, digest)
        assert fileio._read_stat(real, fields) == digest
        for i, value in enumerate(fields):
            for other in (value + 1, -value):
                if other != value:
                    changed = fields[:i] + (other,) + fields[i + 1 :]
                    assert fileio._read_stat(real, changed) is None

    @pytest.mark.parametrize("cached", [False, True])
    def test_read_only_directory_still_loads(
        self, tmp_path, monkeypatch, aged, sha256_calls, cached
    ):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        if cached:
            load_embeddings(path)
        names = sorted(p.name for p in tmp_path.iterdir())
        real_mkstemp = tempfile.mkstemp

        def mkstemp(*args, dir=None, **kwargs):
            # as for a user without write permission, which root is not
            if os.path.samefile(dir, tmp_path):
                raise PermissionError(errno.EACCES, "Permission denied", dir)
            return real_mkstemp(*args, dir=dir, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        tmp_path.chmod(0o555)
        try:
            stores = [load_embeddings(path) for _ in range(2)]
        finally:
            tmp_path.chmod(0o755)
        for store in stores:
            assert store.vocab == ["a", "b"]
            assert store.sha256 == hashlib.sha256(path.read_bytes()).digest()
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert len(sha256_calls) == (1 if cached else 2)


class TestSave:
    @pytest.mark.parametrize("token", ["a b", "", "a\tb", "a\xa0b", "x\n"])
    def test_token_that_would_not_read_back(self, tmp_path, token):
        store = EmbeddingStore([token, "c"], np.ones((2, 2)))
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            save_embeddings(store, path)
        assert list(tmp_path.iterdir()) == []

    def test_refusal_leaves_existing_file(self, tmp_path):
        path = write(tmp_path, "1 1\nkeep 1\n")
        with pytest.raises(ValueError, match="'a b'"):
            save_embeddings(EmbeddingStore(["a b"], np.ones((1, 1))), path)
        assert path.read_text(encoding="utf-8") == "1 1\nkeep 1\n"

    def test_bytes_unchanged(self, tmp_path):
        store = EmbeddingStore(["x", "é"], np.array([[0.1, -0.0], [1e300, 2.5e-320]]))
        save_embeddings(store, tmp_path / "out.txt")
        assert (tmp_path / "out.txt").read_bytes() == (
            "2 2\nx 0.1 -0.0\né 1e+300 2.5e-320\n".encode("utf-8")
        )


class TestAtomicWrite:
    def test_text_and_bytes(self, tmp_path):
        path = tmp_path / "f"
        atomic_write(path, "a\r\nb\né\n")
        assert path.read_bytes() == "a\r\nb\né\n".encode("utf-8")
        with atomic_open(path, binary=True) as fh:
            fh.write(b"\x00\xff\r\n")
        assert path.read_bytes() == b"\x00\xff\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]

    def test_failure_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "f"
        path.write_bytes(b"old")

        def fail(*args):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            atomic_write(path, "new")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]


VERSION_RECORD = {"v": np.array([1], dtype=np.int64)}


def cache_record_of(path):
    return path.parent / (path.name + fileio.STAT_SUFFIX)


@pytest.fixture
def crc32_calls(monkeypatch):
    """The length of the buffer of each zlib.crc32 call made in
    finhyp.fileio."""
    calls = []

    def crc32(data, *args):
        calls.append(len(data))
        return zlib.crc32(data, *args)

    monkeypatch.setattr(fileio, "zlib", types.SimpleNamespace(crc32=crc32))
    return calls


def flip_bit(path, data: bytes, at: int) -> None:
    """Flip the low bit of byte at of data's last copy in the file at path,
    writing the file in place."""
    with open(path, "r+b") as fh:
        offset = fh.read().rindex(data) + at
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ 1]))


def npy_bytes(header: dict, data: bytes, version=(1, 0)) -> bytes:
    """An .npy file of header and data in numpy's version 1.0 layout or, for
    any other version, in its 2.0 layout under that version number."""
    buf = io.BytesIO()
    if version == (1, 0):
        np.lib.format.write_array_header_1_0(buf, header)
    else:
        np.lib.format.write_array_header_2_0(buf, header)
    return buf.getvalue()[:6] + bytes(version) + buf.getvalue()[8:] + data


def write_members(path, spoil=None) -> None:
    """A zip of the .npy members v = [1] and a = arange(6) in shape (2, 3),
    as np.savez writes one, with member a spoiled as spoil names."""
    a = np.arange(6, dtype=np.int64)
    header = {"descr": "<i8", "fortran_order": False, "shape": (2, 3)}
    member = npy_bytes(header, a.tobytes())
    if spoil == "object":
        buf = io.BytesIO()
        np.save(buf, np.array([Tripwire()], dtype=object), allow_pickle=True)
        member = buf.getvalue()
    elif spoil == "fortran":
        member = npy_bytes({**header, "fortran_order": True}, a.tobytes())
    elif spoil == "npy-3.0":
        member = npy_bytes(header, a.tobytes(), version=(3, 0))
    elif spoil == "size":
        member += b"\0"
    compression = zipfile.ZIP_DEFLATED if spoil == "deflated" else zipfile.ZIP_STORED
    v = npy_bytes({"descr": "<i8", "fortran_order": False, "shape": (1,)}, a[1:2].tobytes())
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("v.npy", v)
        archive.writestr("a.npy", member, compress_type=compression)
    if spoil == "signature":
        with zipfile.ZipFile(path) as archive:
            offset = archive.getinfo("a.npy").header_offset
        with open(path, "r+b") as fh:
            fh.seek(offset + 3)
            fh.write(b"\x05")


class TestReadCache:
    @pytest.mark.parametrize("spoil", ["record", "missing", "pickled", "crc"])
    def test_refused(self, tmp_path, spoil):
        path = tmp_path / "c.npz"
        arrays = {"v": np.array([1], dtype=np.int64), "a": np.arange(64)}
        if spoil == "pickled":
            arrays["a"] = np.array([Tripwire()], dtype=object)
        np.savez(path, **arrays)
        if spoil == "crc":
            data = bytearray(path.read_bytes())
            data[data.rindex(np.arange(64).tobytes()) + 8] ^= 1
            path.write_bytes(bytes(data))
        records = {"v": np.array([2 if spoil == "record" else 1], dtype=np.int64)}
        names = ["a", "b"] if spoil == "missing" else ["a"]
        Tripwire.unpickled.clear()
        assert read_cache(path, records, names) is None
        assert Tripwire.unpickled == []

    def test_fortran_ordered_member_round_trips(self, tmp_path):
        path = tmp_path / "c.npz"
        a = np.asfortranarray(np.arange(6).reshape(2, 3))
        write_cache(path, {"v": np.array([1], dtype=np.int64), "a": a})
        arrays = read_cache(path, {"v": np.array([1], dtype=np.int64)}, ["a"])
        assert np.array_equal(arrays["a"], a)

    @pytest.mark.parametrize(
        "spoil", ["deflated", "object", "fortran", "npy-3.0", "size", "signature"]
    )
    def test_member_refused(self, tmp_path, spoil):
        path = tmp_path / "c.npz"
        for case in (None, spoil):
            write_members(path, spoil=case)
            Tripwire.unpickled.clear()
            arrays = read_cache(path, VERSION_RECORD, ["a"])
            if case is None:
                # the archive reads but for the spoiled member
                assert np.array_equal(arrays["a"], np.arange(6).reshape(2, 3))
            else:
                assert arrays is None
            assert Tripwire.unpickled == []

    @pytest.mark.parametrize("shape", [(0,), (0, 4)])
    def test_zero_size_member_round_trips(self, tmp_path, aged, shape):
        path = tmp_path / "c.npz"
        a = np.zeros(shape, dtype=np.float64)
        write_cache(path, {**VERSION_RECORD, "a": a, "b": np.arange(3)})
        time.sleep(0.05)
        # a read that checks the CRC-32s, then one that trusts the record
        for _ in range(2):
            arrays = read_cache(path, VERSION_RECORD, ["a", "b"])
            assert arrays["a"].shape == shape and arrays["a"].dtype == np.float64
            assert np.array_equal(arrays["b"], np.arange(3))
        assert cache_record_of(path).exists()

    def test_crc_checked_unless_recorded(self, tmp_path, aged, crc32_calls):
        path = tmp_path / "c.npz"
        members = {**VERSION_RECORD, "a": np.arange(64), "b": np.ones((2, 3))}
        write_cache(path, members)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        time.sleep(0.05)
        # one CRC-32 of each whole member, then none
        for calls in ([i.file_size for i in infos], [], []):
            arrays = read_cache(path, VERSION_RECORD, ["a", "b"])
            assert crc32_calls == calls
            assert np.array_equal(arrays["a"], members["a"])
            assert np.array_equal(arrays["b"], members["b"])
            crc32_calls.clear()
        # The record holds the cache's stat and the SHA-256 of its members'
        # CRC-32s in central-directory order.
        crcs = b"".join(i.CRC.to_bytes(4, "little") for i in infos)
        st = os.stat(path)
        fields = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        record = cache_record_of(path)
        assert record.read_bytes() == (
            "finhyp-stat 1 %d %d %d %d %d %s\n" % (*fields, hashlib.sha256(crcs).hexdigest())
        ).encode("ascii")
        # a record of the right stat but another digest is not trusted, and
        # is replaced after the check
        valid = record.read_bytes()
        record.write_bytes(valid[:-65] + b"0" * 64 + b"\n")
        assert read_cache(path, VERSION_RECORD, ["a", "b"]) is not None
        assert len(crc32_calls) == 3
        assert record.read_bytes() == valid

    def test_young_cache_checked_on_every_read(self, tmp_path, monkeypatch, crc32_calls):
        monkeypatch.setattr(fileio, "_STAT_MARGIN_NS", 3600 * 10**9)
        path = tmp_path / "c.npz"
        write_cache(path, {**VERSION_RECORD, "a": np.arange(64)})
        for n in range(1, 4):
            assert np.array_equal(read_cache(path, VERSION_RECORD, ["a"])["a"], np.arange(64))
            assert len(crc32_calls) == 2 * n
        assert not cache_record_of(path).exists()

    @pytest.mark.parametrize("spoil", ["crc", "record"])
    def test_failed_read_not_recorded(self, tmp_path, aged, spoil):
        path = tmp_path / "c.npz"
        write_cache(path, {**VERSION_RECORD, "a": np.arange(64)})
        if spoil == "crc":
            flip_bit(path, np.arange(64).tobytes(), 8)
        records = {"v": np.array([2 if spoil == "record" else 1], dtype=np.int64)}
        time.sleep(0.05)
        for _ in range(2):
            assert read_cache(path, records, ["a"]) is None
        assert not cache_record_of(path).exists()

    def test_flipped_bit_after_record_refused(self, tmp_path, aged):
        path = tmp_path / "c.npz"
        write_cache(path, {**VERSION_RECORD, "a": np.arange(64)})
        time.sleep(0.05)
        assert read_cache(path, VERSION_RECORD, ["a"]) is not None
        assert cache_record_of(path).exists()
        # in place: the same inode and size, with the old mtime put back
        stamp = os.stat(path)
        flip_bit(path, np.arange(64).tobytes(), 8)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        now = os.stat(path)
        assert (now.st_ino, now.st_size, now.st_mtime_ns) == (
            stamp.st_ino,
            stamp.st_size,
            stamp.st_mtime_ns,
        )
        assert read_cache(path, VERSION_RECORD, ["a"]) is None

    def test_failed_record_write_still_reads(self, tmp_path, aged, monkeypatch):
        path = tmp_path / "c.npz"
        write_cache(path, {**VERSION_RECORD, "a": np.arange(64)})
        time.sleep(0.05)
        attempts = []

        def mkstemp(*args, **kwargs):
            attempts.append(kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp)
        for n in range(1, 3):
            arrays = read_cache(path, VERSION_RECORD, ["a"])
            assert np.array_equal(arrays["a"], np.arange(64))
            assert len(attempts) == n
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.npz"]


@pytest.fixture
def readinto_sizes(monkeypatch):
    """The length of the buffer of each readinto call on a file that
    finhyp.fileio opens."""
    sizes = []

    class Recording:
        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def readinto(self, buf):
            sizes.append(len(buf))
            return self._fh.readinto(buf)

    monkeypatch.setattr(fileio, "open", lambda *a: Recording(open(*a)), raising=False)
    return sizes


def member_sizes(path) -> dict:
    with zipfile.ZipFile(path) as archive:
        return {i.filename[:-4]: i.file_size for i in archive.infolist()}


def load_recorded(path):
    """Load the store at path, written by write_settled under aged, twice:
    the first load writes its sidecar, and the second checks the sidecar's
    CRC-32s and records its stat, so that the next read of it is trusted."""
    cold = load_embeddings(path)
    time.sleep(0.05)
    load_embeddings(path)
    assert cache_record_of(sidecar_of(path)).exists()
    return cold


class TestMappedVectors:
    def test_trusted_load_maps_the_vectors(self, tmp_path, aged, readinto_sizes):
        path = write_settled(tmp_path, "3 2\nbond 1 0\nswap 0.5 0.25\nrate 2 2\n")
        cold = load_recorded(path)
        sizes = member_sizes(sidecar_of(path))
        readinto_sizes.clear()
        warm = load_embeddings(path)
        assert isinstance(warm.vectors, np.memmap)
        assert warm.vectors.filename == str(sidecar_of(path))
        assert not warm.vectors.flags.writeable
        assert warm.vectors.tobytes() == cold.vectors.tobytes()
        # every member but the vectors is read into a buffer
        del sizes["vectors"]
        assert sorted(readinto_sizes) == sorted(sizes.values())
        texts = ["swap Rate", "bonds swap", "zzz"]
        cold_table, warm_table = (
            TokenTable(store, texts, OOVStrategy("levenshtein")) for store in (cold, warm)
        )
        assert type(warm_table.vectors) is np.ndarray
        assert warm_table.rows == cold_table.rows
        assert warm_table.vectors.tobytes() == cold_table.vectors.tobytes()
        assert warm.vector("rate").tobytes() == cold.vector("rate").tobytes()

    def test_empty_store_loads_through_the_mapped_path(self, tmp_path, aged, readinto_sizes):
        path = write_settled(tmp_path, "0 3\n")
        load_recorded(path)
        sizes = member_sizes(sidecar_of(path))
        readinto_sizes.clear()
        warm = load_embeddings(path)
        assert warm.vocab == []
        assert warm.vectors.shape == (0, 3) and warm.vectors.dtype == np.float64
        assert not warm.vectors.flags.writeable
        del sizes["vectors"]
        assert sorted(readinto_sizes) == sorted(sizes.values())
        table = TokenTable(warm, ["bond"], OOVStrategy("zero"))
        assert table.vectors.tobytes() == np.zeros((1, 3)).tobytes()

    @pytest.mark.parametrize("case", ["young", "rewritten"])
    def test_untrusted_sidecar_read_in_full(
        self, tmp_path, monkeypatch, crc32_calls, readinto_sizes, case
    ):
        margin = 3600 * 10**9 if case == "young" else 20_000_000
        monkeypatch.setattr(fileio, "_STAT_MARGIN_NS", margin)
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        cold = load_embeddings(path)
        sidecar = sidecar_of(path)
        if case == "rewritten":
            time.sleep(0.05)
            load_embeddings(path)
            assert cache_record_of(sidecar).exists()
            # the same bytes, written in place: only the stat changes
            sidecar.write_bytes(sidecar.read_bytes())
        sizes = sorted(member_sizes(sidecar).values())
        for _ in range(2):
            crc32_calls.clear()
            readinto_sizes.clear()
            store = load_embeddings(path)
            assert type(store.vectors) is np.ndarray
            assert store.vectors.tobytes() == cold.vectors.tobytes()
            assert sorted(crc32_calls) == sorted(readinto_sizes) == sizes
        assert cache_record_of(sidecar).exists() == (case == "rewritten")

    @pytest.mark.parametrize("spoil", ["nan", "duplicate"])
    def test_refused_sidecar_gets_no_record(self, tmp_path, aged, monkeypatch, spoil):
        path = write_settled(tmp_path, "2 2\na 1 0\nb 0 1\n")
        load_embeddings(path)
        sidecar = sidecar_of(path)
        # the digest and version still match the store's
        if spoil == "nan":
            rewrite_archive(sidecar, vectors=np.array([[1.0, 0.0], [np.nan, 1.0]]))
        else:
            rewrite_archive(sidecar, tokens=np.frombuffer(b"a\na", dtype=np.uint8))
        spoiled = sidecar.read_bytes()
        # the refused sidecar stays, as it would in a read-only directory
        monkeypatch.setattr(embeddings, "write_cache", lambda *args: None)
        time.sleep(0.05)
        for _ in range(3):
            store = load_embeddings(path)
            assert store.vocab == ["a", "b"]
            assert type(store.vectors) is np.ndarray
            assert store.vectors.tobytes() == np.eye(2).tobytes()
        assert sidecar.read_bytes() == spoiled
        assert not cache_record_of(sidecar).exists()

    def test_non_finite_mapped_row_is_an_exit_2_error(self, tmp_path, aged, capsys):
        path = write_settled(tmp_path, "3 2\nbond 1 0\nswap 0.5 0.25\nrate 2 2\n")
        terms = tmp_path / "terms.csv"
        terms.write_text("term\nswap rate\n", encoding="utf-8")
        load_recorded(path)
        sidecar = sidecar_of(path)
        digest = bytes.fromhex(cache_record_of(sidecar).read_text().split()[-1])
        # Corruption that the stat record cannot show: the swap row turns
        # NaN in place, and the record is rewritten for the new stat.
        data = sidecar.read_bytes()
        at = data.rindex(np.array([0.5, 0.25]).tobytes())
        with open(sidecar, "r+b") as fh:
            fh.seek(at)
            fh.write(np.array([np.nan, 0.25]).tobytes())
        fileio._write_stat(str(sidecar), fileio._stat_key(os.stat(sidecar)), digest)
        assert isinstance(load_embeddings(path).vectors, np.memmap)
        args = ["--embeddings", str(path), "--out", str(tmp_path / "out")]
        assert main(["inspect-oov", str(terms), *args]) == 2
        assert capsys.readouterr().err == (
            f"error: {sidecar}: non-finite value in row 'swap'\n"
        )


class TestStore:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingStore(["a", "a"], np.zeros((2, 2)))

    def test_duplicate_named_at_its_first_repeat(self):
        with pytest.raises(ValueError, match="^duplicate token 'b'$"):
            EmbeddingStore(["a", "b", "c", "b", "a"], np.zeros((5, 2)))

    def test_dim_positive(self):
        with pytest.raises(ValueError):
            EmbeddingStore(["a"], np.zeros((1, 0)))

    def test_vectors_read_only(self, toy_store):
        with pytest.raises(ValueError):
            toy_store.vectors[0, 0] = 9.0

    def test_every_vocab_token_resolves(self, toy_store):
        table = TokenTable(toy_store, toy_store.vocab, OOVStrategy("zero"))
        assert table.oov == {}
        for tok in toy_store.vocab:
            assert np.array_equal(table.vectors[table.rows[tok]], toy_store.vector(tok))


def embed(store, texts, variant="zero"):
    """Each text's embedding through the table of texts."""
    return embed_term(TokenTable(store, texts, OOVStrategy(variant)), texts)


def reference_embedding(store, text, resolver) -> np.ndarray:
    """The per-term loop the table replaces: each token in sorted order
    takes its ``find`` row, else the row of the resolver's substitute for
    the unstripped token, else zeros, added onto a zero vector."""
    tokens = text.split()
    if not tokens:
        raise ValueError(f"empty term {text!r}")
    total = np.zeros(store.dim)
    for tok in sorted(tokens):
        i = find(store, tok)
        if i is None:
            sub = resolver.resolve(tok, store)
            vec = np.zeros(store.dim) if sub is None else store.vector(sub)
        else:
            vec = store.vectors[i]
        total += vec
    return total


class Recorder:
    """A resolver that records the tokens it is asked for and substitutes
    one word (None: no substitute) for each."""

    def __init__(self, word):
        self.word = word
        self.seen = []

    def resolve_all(self, tokens, store):
        tokens = list(tokens)
        self.seen.extend(tokens)
        return [self.word] * len(tokens)


class TestLookup:
    def test_lowercase_fallback(self, toy_store):
        table = TokenTable(toy_store, ["BOND"], OOVStrategy("zero"))
        assert table.oov == {}
        assert np.array_equal(embed_term(table, ["BOND"])[0], toy_store.vector("bond"))

    def test_zero_without_resolver(self, toy_store):
        # a resolver that finds no substitute leaves the zero vector
        table = TokenTable(toy_store, ["xyz"], Recorder(None))
        assert table.oov == {"xyz": 1}
        assert table.rows["xyz"] == 0
        assert not embed_term(table, ["xyz"]).any()

    def test_zero_strategy(self, toy_store):
        table = TokenTable(toy_store, ["xyz"], OOVStrategy("zero"))
        assert table.substitutes == {"xyz": None}
        assert not embed_term(table, ["xyz"]).any()

    def test_edge_punctuation_stripped(self, toy_store):
        # "term. sentence" from augmentation, or a comma-joined word
        for tok, word in (("swap.", "swap"), ("Swap,", "swap"), ("(index)", "index")):
            table = TokenTable(toy_store, [tok], Recorder(None))
            assert table.oov == {}
            assert np.array_equal(embed_term(table, [tok])[0], toy_store.vector(word))

    def test_stripped_oov_resolves_original_token(self, toy_store):
        resolver = Recorder("bond")
        table = TokenTable(toy_store, ["bonds. ...", "bonds."], resolver)
        assert resolver.seen == ["bonds.", "..."]
        assert table.oov == {"bonds.": 2, "...": 1}
        assert table.substitutes == {"bonds.": "bond", "...": "bond"}

    def test_replacement_recorded(self, toy_store):
        table = TokenTable(toy_store, ["bonds"], OOVStrategy("levenshtein"))
        assert table.substitutes == {"bonds": "bond"}
        assert np.array_equal(embed_term(table, ["bonds"])[0], toy_store.vector("bond"))


ORACLE_VOCAB = ["bond", "option", "swap", "corporate", "index", "Rate", "t-bill"]
ORACLE_STORE = EmbeddingStore(
    ORACLE_VOCAB,
    # magnitudes far apart, so that a sum in another order rounds apart
    np.random.default_rng(23).normal(size=(len(ORACLE_VOCAB), 5))
    * 10.0 ** np.arange(-3, 2)[None, :],
)
ORACLE_TOKENS = [
    # in vocabulary as written, by lowercase, or with edge punctuation off
    *ORACLE_VOCAB, "BOND", "Swap", "rate", "bond.", "(index)", "Option,", "T-BILL.",
    # OOV: replaced under levenshtein and ngram, zero under zero
    "bonds", "optoin", "swapp", "Bonds.", "indx", "zzq", "...", "%",
]


class TestTokenTable:
    @pytest.mark.parametrize("variant", ["zero", "levenshtein", "ngram"])
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(ORACLE_TOKENS), min_size=1, max_size=8),
                st.sampled_from([" ", "  ", "\t"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_table_matches_per_term_reference(self, variant, rows):
        texts = [sep.join(tokens) for tokens, sep in rows]
        got = embed(ORACLE_STORE, texts, variant)
        resolver = OOVStrategy(variant)
        want = [reference_embedding(ORACLE_STORE, t, resolver) for t in texts]
        assert got.tobytes() == np.vstack(want).tobytes()

    def test_find_once_per_distinct_token(self, toy_store, monkeypatch):
        calls = []

        def counted(store, token):
            calls.append(token)
            return find(store, token)

        monkeypatch.setattr(embeddings, "find", counted)
        TokenTable(toy_store, ["bond bonds", "bonds bond swap", "bond"], Recorder(None))
        assert sorted(calls) == ["bond", "bonds", "swap"]

    def test_holds_only_the_rows_it_uses(self, toy_store):
        table = TokenTable(toy_store, ["bond Bond", "xyz swap"], OOVStrategy("zero"))
        assert table.vectors.shape == (3, toy_store.dim)
        assert not table.vectors[0].any()
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 1.0

    def test_embedding_keeps_memory_below_a_store_copy(self):
        rng = np.random.default_rng(5)
        store = EmbeddingStore(
            [f"w{i}" for i in range(40_000)], rng.normal(size=(40_000, 64))
        )
        texts = ["w1 w2 w3", "W17 w39999 w1", "unknown w9.", "w5"]
        tracemalloc.start()
        try:
            out = embed(store, texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out[3], store.vector("w5"))
        assert peak < store.vectors.nbytes / 10


class TestTermTokens:
    def test_whitespace_split_keeps_punctuation(self, toy_store):
        table = TokenTable(toy_store, ["Interest rate swaps", "t-bill"], Recorder(None))
        assert list(table.rows) == ["Interest", "rate", "swaps", "t-bill"]

    @given(st.lists(st.text(alphabet="abXé", min_size=1, max_size=5), min_size=1, max_size=5))
    def test_rejoin_reproduces_raw(self, tokens):
        table = TokenTable(ORACLE_STORE, [" ".join(tokens)], Recorder(None))
        assert list(table.rows) == list(dict.fromkeys(tokens))
        assert table.oov == Counter(tokens)


class TestEmbedTerm:
    def test_sum_not_mean(self, tmp_path):
        store = load_embeddings(write(tmp_path, "2 2\nbond 1 0\noption 0 1\n"))
        out = embed(store, ["bond option"])
        assert np.array_equal(out, [[1.0, 1.0]])

    def test_single_token_identity(self, toy_store):
        out = embed(toy_store, ["swap"])
        assert np.array_equal(out, [toy_store.vector("swap")])

    def test_empty_term_rejected(self, toy_store):
        for blank in ("", " ", "\t "):
            with pytest.raises(ValueError, match=re.escape(f"empty term {blank!r}")):
                embed(toy_store, ["bond", blank])

    def test_repeated_token_counts_twice(self, tmp_path):
        store = load_embeddings(write(tmp_path, "1 2\nbond 1 2\n"))
        out = embed(store, ["bond bond"])
        assert np.array_equal(out, [[2.0, 4.0]])

    @given(st.permutations(["bond", "option", "swap", "corporate", "index"]))
    def test_permutation_invariance_bitwise(self, order):
        rng = np.random.default_rng(11)
        store = EmbeddingStore(
            ["bond", "option", "swap", "corporate", "index"],
            rng.normal(size=(5, 6)),
        )
        base, perm = embed(
            store, ["bond option swap corporate index", " ".join(order)]
        )
        assert base.tobytes() == perm.tobytes()
