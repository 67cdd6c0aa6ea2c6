"""OOV resolution: nearest-word optimality, n-gram matching, determinism."""
import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finhyp import distance, embeddings, oov
from finhyp.distance import levenshtein
from finhyp.embeddings import (
    EmbeddingStore,
    TokenTable,
    load_embeddings,
    save_embeddings,
)
from finhyp.oov import (
    NGRAM_MAX,
    NGRAM_MIN,
    NgramIndex,
    OOVStrategy,
    best_ngram_matches,
)

from conftest import Tripwire, make_store, rewrite_archive


def char_ngrams(text: str, n_min: int, n_max: int) -> frozenset[str]:
    """All contiguous substrings of text with length in [n_min, n_max]: the
    gram sets of the oracles below."""
    out = set()
    for n in range(n_min, n_max + 1):
        for i in range(len(text) - n + 1):
            out.add(text[i : i + n])
    return frozenset(out)


class SetNgramIndex:
    """Reference oracle: the dict-of-sets inverted index that NgramIndex's
    flat arrays replaced."""

    def __init__(self, entries):
        self.entries_lower = [e.lower() for e in entries]
        self.entry_grams = []
        self.grams = {}
        for i, low in enumerate(self.entries_lower):
            gs = char_ngrams(low, NGRAM_MIN, NGRAM_MAX)
            self.entry_grams.append(gs)
            for g in gs:
                self.grams.setdefault(g, set()).add(i)


def set_best_ngram_match(text, index):
    """The best n-gram match of text over a SetNgramIndex, computed one set at
    a time."""
    query = char_ngrams(text.lower(), NGRAM_MIN, NGRAM_MAX)
    if not query:
        return None
    ids = set()
    for g in query:
        ids |= index.grams.get(g, set())
    if not ids:
        return None
    scored = []
    for i in sorted(ids):
        gs = index.entry_grams[i]
        scored.append((len(query & gs) / len(query | gs), i))
    best_score = max(s for s, _ in scored)
    low = text.lower()
    best = min(
        (i for s, i in scored if s == best_score),
        key=lambda i: (
            levenshtein(low, index.entries_lower[i]),
            len(index.entries_lower[i]),
            index.entries_lower[i],
        ),
    )
    return best, best_score


# upper case, a non-Latin-1 letter, a CJK ideograph, a space, a lone surrogate
MIXED = "aAbBcé中 \ud800"


def words(alphabet, max_size=8):
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map("".join)


class TestCharNgrams:
    def test_known_set(self):
        assert char_ngrams("abcd", 3, 4) == frozenset({"abc", "bcd", "abcd"})

    def test_short_text_empty(self):
        assert char_ngrams("ab", 3, 6) == frozenset()

    def test_single_size(self):
        assert char_ngrams("abc", 2, 2) == frozenset({"ab", "bc"})

    @given(st.text(alphabet="abc", max_size=10))
    def test_every_gram_is_substring(self, text):
        for g in char_ngrams(text, 3, 6):
            assert 3 <= len(g) <= 6
            assert g in text


def resolve_levenshtein(token, store):
    return OOVStrategy("levenshtein").resolve(token, store)


class TestResolveLevenshtein:
    def test_fixture_from_error_analysis(self):
        store = make_store(["corporate", "bond", "swap"])
        assert resolve_levenshtein("asiacorporate", store) == "corporate"

    def test_matches_case_insensitively(self):
        store = make_store(["Corporate", "bond"])
        assert resolve_levenshtein("CORPORATE", store) == "Corporate"

    def test_tie_shorter_then_lexicographic(self):
        assert resolve_levenshtein("aa", make_store(["ba", "ab"])) == "ab"
        assert resolve_levenshtein("ab", make_store(["abc", "a"])) == "a"

    def test_empty_vocab(self):
        store = EmbeddingStore([], np.zeros((0, 3)))
        with pytest.raises(ValueError):
            resolve_levenshtein("x", store)

    def test_exhaustive_argmin_on_random_vocabs(self):
        rng = random.Random(7)
        alphabet = "abcdef-"
        for _ in range(100):
            vocab = sorted(
                {
                    "".join(rng.choices(alphabet, k=rng.randint(1, 10)))
                    for _ in range(rng.randint(1, 200))
                }
            )
            rng.shuffle(vocab)
            store = make_store(vocab)
            token = "".join(rng.choices(alphabet, k=rng.randint(0, 10)))
            got = resolve_levenshtein(token, store)
            best = min(
                (w.lower() for w in vocab),
                key=lambda w: (levenshtein(token.lower(), w), len(w), w),
            )
            assert got.lower() == best

    def test_vocab_order_irrelevant(self):
        vocab = ["gamma", "beta", "alpha", "delta"]
        store_a = make_store(vocab)
        store_b = make_store(sorted(vocab))
        for token in ["alphaa", "bet", "x", "delt"]:
            assert resolve_levenshtein(token, store_a) == resolve_levenshtein(
                token, store_b
            )


class TestNgramMatch:
    def test_shared_gram_selection(self):
        index = NgramIndex(["interest rate swap", "bond"])
        got = best_ngram_matches(["interest rate swaps"], index)[0]
        assert got is not None
        entry, score = got
        assert entry == 0
        assert 0 < score <= 1

    def test_no_shared_gram(self):
        assert best_ngram_matches(["xyz-q"], NgramIndex(["swap"]))[0] is None

    def test_score_is_jaccard(self):
        index = NgramIndex(["abcd"])
        got = best_ngram_matches(["abcx"], index)[0]
        # query {abc, bcx, abcx} vs entry {abc, bcd, abcd}: share {abc} of 5
        assert got == (0, 1 / 5)

    def test_resolver_falls_back_to_levenshtein(self):
        store = make_store(["swap", "bond"])
        assert best_ngram_matches(["xy"], NgramIndex(store.vocab))[0] is None
        got = OOVStrategy("ngram").resolve("xy", store)
        assert got == resolve_levenshtein("xy", store)

    def test_resolver_prefers_shared_grams(self):
        store = make_store(["corporate", "swap"])
        assert OOVStrategy("ngram").resolve("corporates", store) == "corporate"

    def test_tie_breaks_deterministic(self):
        # same Jaccard against both entries; levenshtein prefers "abcde"
        index = NgramIndex(["abcde", "abcdq"])
        got = best_ngram_matches(["abcd"], index)[0]
        assert got is not None and got[0] == 0


class TestNgramIndexMatchesSetOracle:
    @staticmethod
    def check(entries, queries):
        index = NgramIndex(entries)
        oracle = SetNgramIndex(entries)
        # the alphabet is the sorted distinct code points of the entries
        lowered = distance.codes("".join(e.lower() for e in entries))
        np.testing.assert_array_equal(index.alphabet, np.unique(lowered))
        for text in queries:
            assert best_ngram_matches([text], index)[0] == set_best_ngram_match(
                text, oracle
            ), (entries, text)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(words(MIXED), max_size=12),
        queries=st.lists(words(MIXED), min_size=1, max_size=6),
    )
    @example(entries=["Bond", "bond", "BONDS"], queries=["bond", "Bonds"])
    @example(entries=[], queries=["bond", ""])
    @example(entries=["", "ab"], queries=["ab", "a", ""])
    @example(entries=["abcdef"], queries=["ab", "abc"])
    @example(entries=["中é \ud800x", "É"], queries=["\ud800", "é"])
    def test_mixed_alphabet(self, entries, queries):
        self.check(entries, queries)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(words("ab", 7), min_size=1, max_size=20),
        queries=st.lists(words("ab", 7), min_size=1, max_size=6),
    )
    def test_two_letter_alphabet_ties(self, entries, queries):
        self.check(entries, queries)

    def test_keeps_no_per_gram_containers(self):
        index = NgramIndex(["bond", "swap", "Bond"])
        assert not hasattr(index, "grams")
        assert not hasattr(index, "entry_grams")
        for value in vars(index).values():
            assert not isinstance(value, (set, frozenset))


# Entries draw on ENTRY_CHARS; texts add characters outside the index
# alphabet. A capital sigma lowercases to a final sigma at the end of a word
# and to a medial one elsewhere, so a batch lowercased as one string would
# differ from its texts lowercased one by one.
ENTRY_CHARS = "aAbBΣσςé"
TEXT_CHARS = ENTRY_CHARS + "x中 \ud800"


class TestBatchedMatches:
    @staticmethod
    def check(entries, texts):
        index = NgramIndex(entries)
        oracle = SetNgramIndex(entries)
        got = best_ngram_matches(texts, index)
        assert got == [set_best_ngram_match(t, oracle) for t in texts]
        assert got == [best_ngram_matches([t], index)[0] for t in texts]
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(words(ENTRY_CHARS), max_size=12),
        texts=st.lists(words(TEXT_CHARS), max_size=10).map(lambda ts: ts + ts[:2]),
    )
    @example(entries=["bond"], texts=[])
    @example(entries=["bond", "swap"], texts=["xyz", "", "bond", "qq", "xyz"])
    @example(entries=["ΣΑΣ", "σας", "σασ"], texts=["ΣΑΣ", "ΣΑΣΣΑΣ", "σασ", "ΣΑΣ"])
    @example(entries=["abcde", "abcdq", "ABCDE"], texts=["abcd", "ABCD", "abcdE"])
    def test_equals_oracle_per_text(self, entries, texts):
        self.check(entries, texts)

    def test_greek_final_sigma_lowercased_per_text(self):
        # "ΑΑΣ" alone lowercases to "αας", but to "αασ" as the start of
        # "ΑΑΣΑ" or of the two texts joined.
        got = self.check(["αας", "αασ"], ["ΑΑΣ", "ΑΑΣΑ"])
        assert got == [(0, 1.0), (1, 1 / 3)]

    @pytest.mark.parametrize("bound", [1, 7])
    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(words("abAB", 7), min_size=1, max_size=20),
        texts=st.lists(words("abABx", 7), max_size=12),
    )
    def test_pass_bound_does_not_change_answers(self, bound, entries, texts):
        index = NgramIndex(entries)
        want = best_ngram_matches(texts, index)
        with mock.patch.object(oov, "_POSTINGS", bound):
            assert best_ngram_matches(texts, index) == want


# "İ" lowercases to "i" and a combining dot, so its lowered entry is longer:
# the length gap that orders the tie-break candidates is measured on that.
CLOSEST_CHARS = "aAbBiİ\u0307"


class TestClosest:
    """The n-gram tie-break visits candidates in order of a lower bound on
    the key and stops early; the answer is the minimum of the whole key."""

    @settings(max_examples=400, deadline=None)
    @given(
        entries=st.lists(words(CLOSEST_CHARS, 6), min_size=1, max_size=12),
        low=words(CLOSEST_CHARS, 6).map(str.lower),
        data=st.data(),
    )
    @example(entries=["Rates", "rates", "rater", "ratex"], low="rate", data=None)
    @example(entries=["", "A", "a", ""], low="", data=None)
    @example(entries=["İ", "i\u0307", "ii", "I"], low="i", data=None)
    def test_equals_minimum_of_the_full_key(self, entries, low, data):
        everyone = list(range(len(entries)))
        ids = everyone if data is None else data.draw(
            st.lists(st.sampled_from(everyone), min_size=1, unique=True).map(sorted)
        )
        lowered = [e.lower() for e in entries]

        def key(i):
            return levenshtein(low, lowered[i]), len(lowered[i]), lowered[i]

        want = min(ids, key=key)
        index = SimpleNamespace(entries=entries)
        assert oov._closest(low, ids, index) == want

    def test_stops_at_the_bound(self):
        # "rates" is one edit away at length gap 1; "ratesxx" and "r" have a
        # gap of 3, so their distances are never computed
        calls = []
        entries = ["ratesxx", "rates", "r", "Rates"]

        def counted(a, b):
            calls.append(b)
            return levenshtein(a, b)

        with mock.patch.object(distance, "levenshtein", counted):
            index = SimpleNamespace(entries=entries)
            assert oov._closest("rate", [0, 1, 2, 3], index) == 1
        assert calls == ["rates"]


class TestOOVStrategy:
    def test_variants_validated(self):
        with pytest.raises(ValueError, match="must be one of zero, levenshtein, ngram"):
            OOVStrategy("magnitude")

    def test_holds_settings_only(self):
        strat = OOVStrategy("ngram")
        names = [f.name for f in dataclasses.fields(strat)]
        assert names == ["variant"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            strat.variant = "zero"
        assert strat == OOVStrategy("ngram")

    def test_zero_returns_none(self, toy_store):
        assert OOVStrategy("zero").resolve("anything", toy_store) is None
        assert OOVStrategy("zero").resolve_all(["a", "b", "a"], toy_store) == [None] * 3

    def test_empty_store_raises_before_indexing(self, monkeypatch):
        def refuse(store):
            raise AssertionError("index built for an empty store")

        monkeypatch.setattr(oov, "build_ngram_index", refuse)
        empty = EmbeddingStore([], np.zeros((0, 3)))
        assert OOVStrategy("zero").resolve("x", empty) is None
        for variant in ("levenshtein", "ngram"):
            strat = OOVStrategy(variant)
            assert strat.resolve_all([], empty) == []
            for _ in range(2):
                with pytest.raises(ValueError, match="empty vocabulary"):
                    strat.resolve("x", empty)

    def test_in_vocab_token_resolves_to_itself(self, toy_store):
        for variant in ("zero", "levenshtein", "ngram"):
            table = TokenTable(toy_store, toy_store.vocab, OOVStrategy(variant))
            assert table.oov == {}
            for tok in toy_store.vocab:
                assert np.array_equal(
                    table.vectors[table.rows[tok]], toy_store.vector(tok)
                )

    def test_rebinds_on_new_store(self):
        strat = OOVStrategy("levenshtein")
        assert strat.resolve("bonds", make_store(["bond"])) == "bond"
        assert strat.resolve("bonds", make_store(["bands"])) == "bands"

    @pytest.mark.parametrize("variant", ["levenshtein", "ngram"])
    def test_packs_vocabulary_once_per_store(self, monkeypatch, variant):
        # once per resolve_all call: a strategy keeps no pack between calls
        packed = []

        class CountingPack(distance.PackedWords):
            def __init__(self, words):
                packed.append(list(words))
                super().__init__(words)

        monkeypatch.setattr(distance, "PackedWords", CountingPack)
        strat = OOVStrategy(variant)
        store = make_store(["bond", "swap", "option"])
        tokens = ["bonds", "swaps", "optin", "xq", "zz", "bonds"]
        assert all(sub in store.vocab for sub in strat.resolve_all(tokens, store))
        assert packed == [lowered(store)]
        other = make_store(["Bands", "yield"])
        # "qq" shares no n-gram, so the n-gram variant scans the vocabulary too
        assert strat.resolve_all(["bandz", "yields", "qq"], other) == [
            "Bands",
            "yield",
            "Bands",
        ]
        assert packed == [lowered(store), lowered(other)]

    def test_ngram_packs_no_vocabulary_when_every_token_shares_grams(
        self, monkeypatch
    ):
        def refuse(words):
            raise AssertionError("vocabulary packed")

        monkeypatch.setattr(distance, "PackedWords", refuse)
        strat = OOVStrategy("ngram")
        store = make_store(["bond", "swap", "option"])
        for token in ["bonds", "swaps", "optin", "bonds"]:
            assert strat.resolve(token, store) in store.vocab

    def test_builds_ngram_index_once_per_store(self, monkeypatch):
        # once per resolve_all call: a strategy keeps no index between calls
        built = []

        def counting_build(store):
            built.append(store)
            return real_build(store)

        real_build = oov.build_ngram_index
        monkeypatch.setattr(oov, "build_ngram_index", counting_build)
        strat = OOVStrategy("ngram")
        store = make_store(["bond", "swap", "option"])
        tokens = ["bonds", "swaps", "optin", "xq", "zz", "bonds", "opt"]
        assert all(sub in store.vocab for sub in strat.resolve_all(tokens, store))
        assert built == [store]
        other = make_store(["Bands", "yield"])
        assert strat.resolve_all(["bandz", "yields"], other) == ["Bands", "yield"]
        assert built == [store, other]

    @pytest.mark.parametrize("variant", ["levenshtein", "ngram"])
    def test_resolve_all_matches_token_by_token(self, monkeypatch, variant):
        store = make_store(["Bond", "swap", "option", "corporate", "ab", "x" * 70])
        tokens = ["bonds", "Swaps", "optin", "xq", "zz", "bonds", "CORPORATES"]
        tokens += ["", "x" * 66, "ABC"]
        strat = OOVStrategy(variant)
        single = [strat.resolve(token, store) for token in tokens]
        assert all(sub in store.vocab for sub in single)
        scans = []
        real = distance.nearest

        def counting(queries, packed):
            scans.append(list(queries))
            return real(queries, packed)

        monkeypatch.setattr(distance, "nearest", counting)
        assert strat.resolve_all(tokens, store) == single
        assert len(scans) == 1
        # the distinct tokens are scanned once each
        assert len(scans[0]) == len(set(scans[0]))

    def test_resolve_all_matches_ngrams_in_one_call(self, monkeypatch):
        calls = []
        real = oov.best_ngram_matches

        def counting(texts, index):
            calls.append(list(texts))
            return real(texts, index)

        monkeypatch.setattr(oov, "best_ngram_matches", counting)
        store = make_store(["Bond", "swap", "option"])
        strat = OOVStrategy("ngram")
        subs = strat.resolve_all(["bonds", "Swaps", "qq", "bonds", "optin"], store)
        assert calls == [["bonds", "Swaps", "qq", "optin"]]
        assert subs[0] == subs[3] == "Bond"
        assert subs[4] == "option"

    def test_resolve_all_binds_only_for_a_token_to_resolve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the store was indexed or packed")

        store = make_store(["bond", "swap"])
        strat = OOVStrategy("ngram")
        with monkeypatch.context() as patched:
            patched.setattr(oov, "build_ngram_index", refuse)
            patched.setattr(oov, "pack_vocabulary", refuse)
            assert strat.resolve_all([], store) == []
        assert strat.resolve_all(["bonds", "bonds"], store) == ["bond", "bond"]

    def test_lowercase_duplicates_resolve_to_first(self):
        store = make_store(["Bond", "bond", "swap"])
        assert OOVStrategy("levenshtein").resolve("BONDS", store) == "Bond"
        assert resolve_levenshtein("bonds", store) == "Bond"

    @settings(max_examples=50)
    @given(token=st.text(alphabet="abcd-", max_size=8))
    def test_ngram_strategy_total(self, token):
        store = make_store(["abcd", "dcba", "a-b"])
        strat = OOVStrategy("ngram")
        sub = strat.resolve(token, store)
        assert sub in store.vocab
        match = best_ngram_matches([token], NgramIndex(store.vocab))[0]
        if match is None:
            assert sub == resolve_levenshtein(token, store)
        else:
            assert sub == store.vocab[match[0]]


def lowered(store):
    """The store's vocabulary lowercased, the words its pack is built of."""
    return [t.lower() for t in store.vocab]


def index_file(store):
    return store.path + oov.INDEX_SUFFIX


def filed_store(directory, tokens):
    """A store that records a file path and digest, as load_embeddings gives
    one; only the cache beside that path is ever touched. A digest of the
    token list stands in for the file's."""
    store = make_store(tokens)
    store.path = os.path.join(directory, "emb.txt")
    store.sha256 = hashlib.sha256("\n".join(tokens).encode("utf-8")).digest()
    return store


def assert_same_index(warm, cold):
    """Every attribute equal, arrays with their dtypes, the member dict
    ``arrays`` included."""
    assert vars(warm).keys() == vars(cold).keys()
    for name, want in vars(cold).items():
        got = getattr(warm, name)
        if name in ("keys", "arrays"):
            assert got.keys() == want.keys()
            pairs = [(got[n], want[n]) for n in want]
        elif isinstance(want, np.ndarray):
            pairs = [(got, want)]
        else:
            assert got == want, name
            continue
        for a, b in pairs:
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b)


def refuse_build(*args, **kwargs):
    raise AssertionError("the n-gram index was built")


def refuse_pack(*args, **kwargs):
    raise AssertionError("a vocabulary was packed from words")


# the Unicode version record of an interpreter other than this one
OTHER_UNICODE = np.frombuffer(
    b"13.0.0" if unicodedata.unidata_version != "13.0.0" else b"14.0.0", np.uint8
)


# Store tokens: no whitespace, and UTF-8 encodable, as a loaded store's are.
STORE_WORDS = st.lists(
    st.text(alphabet="aAbBcé中-", min_size=1, max_size=8), min_size=1, max_size=12
).map(lambda ws: list(dict.fromkeys(ws)))


class TestNgramIndexCache:
    @settings(max_examples=60, deadline=None)
    @given(
        tokens=STORE_WORDS,
        queries=st.lists(words(MIXED), min_size=1, max_size=6),
    )
    def test_warm_index_equals_cold(self, tokens, queries):
        with tempfile.TemporaryDirectory() as directory:
            store = filed_store(directory, tokens)
            cold = oov.build_ngram_index(store)
            assert os.path.exists(index_file(store))
            with mock.patch.object(NgramIndex, "__init__", refuse_build):
                warm = oov.build_ngram_index(store)
                # a query must not build an index through the constructor
                for text in queries + tokens:
                    assert (
                        best_ngram_matches([text], warm)[0]
                        == best_ngram_matches([text], cold)[0]
                    )
        assert_same_index(warm, cold)
        assert_same_index(cold, NgramIndex(tokens))

    @pytest.mark.parametrize(
        "spoil",
        [
            "truncated",
            "foreign zip",
            "pickled",
            "version",
            "pair",
            "digest",
            "entries",
            "unicode",
            "indptr start",
            "indptr end",
            "decreasing indptr",
            "post above range",
            "post below zero",
            "count",
            "int32 post",
            "2-D post",
            "int64 alphabet",
            "keys length",
            "alphabet not ascending",
            "keys not ascending",
        ],
    )
    def test_spoiled_file_is_rebuilt_and_rewritten(self, tmp_path, spoil):
        tokens = ["bond", "bonds", "swap", "Swaption", "yield"]
        store = filed_store(tmp_path, tokens)
        cold = oov.build_ngram_index(store)
        path = tmp_path / os.path.basename(index_file(store))
        valid = path.read_bytes()
        with np.load(path) as archive:
            indptr, post, count = archive["indptr"], archive["post"], archive["count"]
            alphabet = archive["alphabet"]
        if spoil == "truncated":
            path.write_bytes(valid[: len(valid) // 2])
        elif spoil == "foreign zip":
            path.unlink()
            np.savez(path, indptr=indptr)
        elif spoil == "pickled":
            rewrite_archive(path, post=np.array([Tripwire()], dtype=object))
        elif spoil == "version":
            rewrite_archive(path, version=np.array([999], dtype=np.int64))
        elif spoil == "pair":
            rewrite_archive(path, ngrams=np.array([2, 4], dtype=np.int64))
        elif spoil == "digest":
            rewrite_archive(path, sha256=np.zeros(32, dtype=np.uint8))
        elif spoil == "entries":
            rewrite_archive(path, entries=np.array([4], dtype=np.int64))
        elif spoil == "unicode":
            rewrite_archive(path, unicode=OTHER_UNICODE)
        elif spoil == "indptr start":
            indptr[0] = 1
            rewrite_archive(path, indptr=indptr)
        elif spoil == "indptr end":
            indptr[-1] -= 1
            rewrite_archive(path, indptr=indptr)
        elif spoil == "decreasing indptr":
            indptr[1] = indptr[2] + 1
            rewrite_archive(path, indptr=indptr)
        elif spoil == "post above range":
            post[0] = len(tokens)
            rewrite_archive(path, post=post)
        elif spoil == "post below zero":
            post[0] = -1
            rewrite_archive(path, post=post)
        elif spoil == "count":
            count[0] += 1
            rewrite_archive(path, count=count)
        elif spoil == "int32 post":
            rewrite_archive(path, post=post.astype(np.int32))
        elif spoil == "2-D post":
            rewrite_archive(path, post=post.reshape(-1, 1))
        elif spoil == "int64 alphabet":
            rewrite_archive(path, alphabet=alphabet.astype(np.int64))
        elif spoil == "keys length":
            rewrite_archive(path, keys6=np.zeros(0, dtype=np.int64))
        elif spoil == "alphabet not ascending":
            # _find's searchsorted would then miss most symbols
            rewrite_archive(path, alphabet=alphabet[::-1].copy())
        elif spoil == "keys not ascending":
            with np.load(path) as archive:
                keys = archive["keys4"]
            rewrite_archive(path, keys4=keys[::-1].copy())
        assert_rebuilt_and_rewritten(CACHES["index"], store, cold, valid)

    def test_file_bytes_pinned(self, tmp_path):
        # A cache written by an earlier release loads without a rebuild only
        # while a build writes the same bytes: a change to the arrays, their
        # order or their dtypes must bump _INDEX_VERSION and this digest.
        # The file records the interpreter's Unicode version, fixed here so
        # that the digest is the same on every interpreter; these tokens
        # lowercase alike under every version.
        tokens = ["bond", "bonds", "swap", "Swaption", "yield", "ΣΑΣ", "中é-"]
        store = filed_store(tmp_path, tokens)
        with mock.patch.object(unicodedata, "unidata_version", "14.0.0"):
            oov.build_ngram_index(store)
        with open(index_file(store), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == (
            "5714fdc805abbe1d0a275d74503d73724c8dbe2784171eb03a56a63e00e2b1ad"
        )

    def test_warm_run_neither_parses_nor_builds(self, tmp_path):
        path = tmp_path / "emb.txt"
        tokens = ["bond", "bonds", "swap", "Swaption"]
        save_embeddings(make_store(tokens), path)
        strat = OOVStrategy("ngram")
        assert strat.resolve("swapz", load_embeddings(path)) == "swap"
        with mock.patch.object(embeddings, "_read_header", side_effect=AssertionError):
            store = load_embeddings(path)
        with mock.patch.object(NgramIndex, "__init__", refuse_build):
            warm = oov.build_ngram_index(store)
        assert_same_index(warm, NgramIndex(tokens))

    def test_vectors_only_rewrite_rebuilds_once(self, tmp_path):
        path = tmp_path / "emb.txt"
        tokens = ["bond", "bonds", "swap", "Swaption"]
        save_embeddings(make_store(tokens, seed=0), path)
        oov.build_ngram_index(load_embeddings(path))
        save_embeddings(make_store(tokens, seed=1), path)
        store = load_embeddings(path)
        index = oov.build_ngram_index(store)
        assert_same_index(index, NgramIndex(tokens))
        with np.load(index_file(store)) as archive:
            assert archive["sha256"].tobytes() == store.sha256
        with mock.patch.object(NgramIndex, "__init__", refuse_build):
            assert_same_index(oov.build_ngram_index(load_embeddings(path)), index)

    @pytest.mark.parametrize("variant", ["zero", "levenshtein"])
    def test_other_variants_write_no_index(self, tmp_path, variant):
        # levenshtein writes the vocabulary pack and nothing else; zero
        # writes nothing
        store = filed_store(tmp_path, ["bond", "swap"])
        strat = OOVStrategy(variant)
        for token in ["bonds", "swaps", "qq"]:
            strat.resolve(token, store)
        assert not list(tmp_path.glob("*.finhyp-ngram-*"))
        written = ["emb.txt" + oov.PACK_SUFFIX] if variant == "levenshtein" else []
        assert [p.name for p in tmp_path.iterdir()] == written

    @pytest.mark.parametrize("source", ["pipe", "file"])
    def test_dev_stdin(self, tmp_path, source):
        if not os.path.exists("/dev/stdin"):
            pytest.skip("no /dev/stdin on this platform")
        path = tmp_path / "emb.txt"
        path.write_text("2 2\nbond 1 0\nswap 0 1\n", encoding="utf-8")
        code = (
            "from finhyp.embeddings import load_embeddings\n"
            "from finhyp.oov import OOVStrategy\n"
            "store = load_embeddings('/dev/stdin')\n"
            "print(store.path, OOVStrategy('ngram').resolve('bonds', store))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oov.__file__)))
        with open(path, "rb") as stdin:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                stdin=stdin if source == "file" else None,
                input=None if source == "file" else path.read_bytes(),
                capture_output=True,
                cwd=tmp_path,
                env=env,
                timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        cached = "emb.txt" + oov.INDEX_SUFFIX
        assert not os.path.exists("/dev/stdin" + oov.INDEX_SUFFIX)
        # A pipe is indexed in memory; a redirected file caches beside itself.
        if source == "pipe":
            assert proc.stdout == b"None bond\n"
            assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt"]
        else:
            assert proc.stdout == f"{os.path.realpath(path)} bond\n".encode()
            assert (tmp_path / cached).exists()


def pack_file(store):
    return store.path + oov.PACK_SUFFIX


def assert_same_pack(warm, cold):
    """The same four arrays, in the member dict ``arrays`` too, and buckets,
    arrays with their dtypes."""
    assert warm.arrays.keys() == cold.arrays.keys() == set(oov._PACK_MEMBERS)
    for name in oov._PACK_MEMBERS:
        for got, want in [
            (getattr(warm, name), getattr(cold, name)),
            (warm.arrays[name], cold.arrays[name]),
        ]:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    assert warm.buckets.keys() == cold.buckets.keys()
    for length, (ids, sym) in cold.buckets.items():
        got_ids, got_sym = warm.buckets[length]
        assert got_ids.dtype == ids.dtype and got_sym.dtype == sym.dtype
        np.testing.assert_array_equal(got_ids, ids)
        np.testing.assert_array_equal(got_sym, sym)


# Store tokens of mixed lengths: non-ASCII letters, "İ" (whose lowercase is
# two code points) and sigmas (a capital one lowercases to a final sigma at
# the end of a token).
PACK_WORDS = st.lists(
    st.text(alphabet="aAbé中-İΣσς", min_size=1, max_size=10), min_size=1, max_size=14
).map(lambda ws: list(dict.fromkeys(ws)))

PACK_TOKENS = ["bond", "swap", "Bonds", "yield", "İx", "ΣΑΣ"]


class TestVocabularyPackCache:
    @settings(max_examples=60, deadline=None)
    @given(tokens=PACK_WORDS, queries=st.lists(words(MIXED), min_size=1, max_size=5))
    @example(tokens=["İİ", "ΑΣ", "σς", "x" * 70, "a"], queries=["ας", "i̇", "x" * 66])
    def test_warm_pack_equals_cold(self, tokens, queries):
        with tempfile.TemporaryDirectory() as directory:
            store = filed_store(directory, tokens)
            cold = oov.pack_vocabulary(store)
            assert os.path.exists(pack_file(store))
            with mock.patch.object(distance.PackedWords, "__init__", refuse_pack):
                warm = oov.pack_vocabulary(store)
        assert_same_pack(warm, cold)
        assert distance.nearest(queries, warm) == distance.nearest(queries, cold)

    @pytest.mark.parametrize(
        "spoil",
        [
            "truncated",
            "foreign zip",
            "pickled",
            "version",
            "digest",
            "entries",
            "unicode",
            "2-D symbols",
            "int64 alphabet",
            "alphabet not ascending",
            "int32 order",
            "int32 sizes",
            "uint16 symbols",
            "order below zero",
            "order repeats",
            "order descends in a bucket",
            "negative size",
            "sizes sum",
            "symbols length",
            "symbol above range",
        ],
    )
    def test_spoiled_file_is_rebuilt_and_rewritten(self, tmp_path, spoil):
        store = filed_store(tmp_path, PACK_TOKENS)
        cold = oov.pack_vocabulary(store)
        path = tmp_path / os.path.basename(pack_file(store))
        valid = path.read_bytes()
        with np.load(path) as archive:
            alphabet, order = archive["alphabet"], archive["order"]
            sizes, symbols = archive["sizes"], archive["symbols"]
        # lowercased lengths 4, 4, 5, 5, 3, 3: ids 4, 5 | 0, 1 | 2, 3
        assert order.tolist() == [4, 5, 0, 1, 2, 3]
        if spoil == "truncated":
            path.write_bytes(valid[: len(valid) // 2])
        elif spoil == "foreign zip":
            path.unlink()
            np.savez(path, order=order)
        elif spoil == "pickled":
            rewrite_archive(path, order=np.array([Tripwire()], dtype=object))
        elif spoil == "version":
            rewrite_archive(path, version=np.array([999], dtype=np.int64))
        elif spoil == "digest":
            rewrite_archive(path, sha256=np.zeros(32, dtype=np.uint8))
        elif spoil == "entries":
            rewrite_archive(path, entries=np.array([5], dtype=np.int64))
        elif spoil == "unicode":
            rewrite_archive(path, unicode=OTHER_UNICODE)
        elif spoil == "2-D symbols":
            rewrite_archive(path, symbols=symbols.reshape(-1, 1))
        elif spoil == "int64 alphabet":
            rewrite_archive(path, alphabet=alphabet.astype(np.int64))
        elif spoil == "alphabet not ascending":
            rewrite_archive(path, alphabet=alphabet[::-1].copy())
        elif spoil == "int32 order":
            rewrite_archive(path, order=order.astype(np.int32))
        elif spoil == "int32 sizes":
            rewrite_archive(path, sizes=sizes.astype(np.int32))
        elif spoil == "uint16 symbols":
            rewrite_archive(path, symbols=symbols.astype(np.uint16))
        elif spoil == "order below zero":
            order[0] = -1
            rewrite_archive(path, order=order)
        elif spoil == "order repeats":
            # still ascending within each bucket
            order[0] = order[2]
            rewrite_archive(path, order=order)
        elif spoil == "order descends in a bucket":
            order[2], order[3] = order[3], order[2]
            rewrite_archive(path, order=order)
        elif spoil == "negative size":
            sizes[3] -= 3
            sizes[4] += 3
            rewrite_archive(path, sizes=sizes)
        elif spoil == "sizes sum":
            sizes[4] += 1
            rewrite_archive(path, sizes=sizes)
        elif spoil == "symbols length":
            rewrite_archive(path, symbols=symbols[:-1].copy())
        elif spoil == "symbol above range":
            symbols[0] = len(alphabet)
            rewrite_archive(path, symbols=symbols)
        assert_rebuilt_and_rewritten(CACHES["pack"], store, cold, valid)

    def test_file_bytes_pinned(self, tmp_path):
        # As for the n-gram index: a change to the pack's arrays, their
        # order or their dtypes must bump _PACK_VERSION and this digest.
        store = filed_store(tmp_path, PACK_TOKENS + ["中é-"])
        with mock.patch.object(unicodedata, "unidata_version", "14.0.0"):
            oov.pack_vocabulary(store)
        with open(pack_file(store), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == (
            "285c12cb7e572e316d0f1a820d0409a81541b1daa0cf8e0bcfa54c6baa79be97"
        )

    def test_warm_levenshtein_run_packs_nothing(self, tmp_path):
        path = tmp_path / "emb.txt"
        tokens = ["bond", "bonds", "swap", "Swaption"]
        save_embeddings(make_store(tokens), path)
        strat = OOVStrategy("levenshtein")
        assert strat.resolve("swapz", load_embeddings(path)) == "swap"
        store = load_embeddings(path)
        # a new store binds the strategy anew, so it must read the pack
        with mock.patch.object(distance.PackedWords, "__init__", refuse_pack):
            assert strat.resolve_all(["swapz", "BONDZ", "qq"], store) == [
                "swap",
                "bond",
                "bond",
            ]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "emb.txt",
            "emb.txt" + embeddings.SIDECAR_SUFFIX,
            "emb.txt" + oov.PACK_SUFFIX,
        ]

    def test_ngram_run_of_shared_grams_writes_no_pack(self, tmp_path):
        store = filed_store(tmp_path, ["bond", "swap", "option"])
        strat = OOVStrategy("ngram")
        assert strat.resolve_all(["bonds", "swaps", "optin"], store) == [
            "bond",
            "swap",
            "option",
        ]
        index_name = os.path.basename(index_file(store))
        assert [p.name for p in tmp_path.iterdir()] == [index_name]
        # a token that shares no n-gram is scanned, and packs the vocabulary
        assert strat.resolve("qq", store) == "bond"
        assert (tmp_path / os.path.basename(pack_file(store))).exists()


# The two caches of a store's vocabulary: the file, the read-or-build call,
# the class a build makes and the words it is given, a stand-in for its
# constructor that refuses to build, the comparison of two builds, and the
# OOV variant that reads the cache.
CACHES = {
    "index": SimpleNamespace(
        file=index_file,
        get=lambda store: oov.build_ngram_index(store),
        cls=NgramIndex,
        words=lambda store: store.vocab,
        refuse=refuse_build,
        same=assert_same_index,
        variant="ngram",
    ),
    "pack": SimpleNamespace(
        file=pack_file,
        get=lambda store: oov.pack_vocabulary(store),
        cls=distance.PackedWords,
        words=lowered,
        refuse=refuse_pack,
        same=assert_same_pack,
        variant="levenshtein",
    ),
}


def assert_rebuilt_and_rewritten(cache, store, cold, valid):
    """The cache file of the store, spoiled, is refused without unpickling
    anything, built once from the store's words, the same as cold, and
    rewritten with the valid bytes."""
    path = Path(cache.file(store))
    assert path.read_bytes() != valid
    Tripwire.unpickled.clear()
    built = []
    real_init = cache.cls.__init__

    def counting_init(self, words):
        built.append(words)
        real_init(self, words)

    with mock.patch.object(cache.cls, "__init__", counting_init):
        rebuilt = cache.get(store)
    assert Tripwire.unpickled == []
    assert built == [cache.words(store)]
    cache.same(rebuilt, cold)
    assert path.read_bytes() == valid


@pytest.mark.parametrize("cache", CACHES.values(), ids=CACHES)
class TestVocabularyCaches:
    def test_new_vocabulary_is_built_again(self, tmp_path, cache):
        cache.get(filed_store(tmp_path, ["bond", "swap"]))
        store = filed_store(tmp_path, ["bond", "swaps"])
        built = cache.get(store)
        cache.same(built, cache.cls(cache.words(store)))
        with mock.patch.object(cache.cls, "__init__", cache.refuse):
            cache.same(cache.get(store), built)

    def test_store_without_path_is_built_in_memory(self, tmp_path, monkeypatch, cache):
        monkeypatch.chdir(tmp_path)
        store = make_store(["bond", "swap"])
        assert store.path is None
        assert OOVStrategy(cache.variant).resolve("bonds", store) == "bond"
        assert list(tmp_path.iterdir()) == []
