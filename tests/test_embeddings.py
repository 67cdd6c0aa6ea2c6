"""Embedding store: parsing, persistence, lookup and term summation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
