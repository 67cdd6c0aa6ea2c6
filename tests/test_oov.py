"""OOV resolution: nearest-word optimality, n-gram matching, determinism."""
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finhyp import distance, oov
from finhyp.distance import levenshtein
from finhyp.embeddings import EmbeddingStore, lookup
from finhyp.oov import (
    NgramIndex,
    OOVStrategy,
    best_ngram_match,
    char_ngrams,
    resolve_levenshtein,
    resolve_ngram,
)

from conftest import make_store


class SetNgramIndex:
    """Reference oracle: the dict-of-sets inverted index that NgramIndex's
    flat arrays replaced."""

    def __init__(self, entries, ngram_min=3, ngram_max=6):
        self.entries_lower = [e.lower() for e in entries]
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        self.entry_grams = []
        self.grams = {}
        for i, low in enumerate(self.entries_lower):
            gs = char_ngrams(low, ngram_min, ngram_max)
            self.entry_grams.append(gs)
            for g in gs:
                self.grams.setdefault(g, set()).add(i)


def set_best_ngram_match(text, index):
    """best_ngram_match over a SetNgramIndex, as it was computed before."""
    query = char_ngrams(text.lower(), index.ngram_min, index.ngram_max)
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


@st.composite
def gram_sizes(draw):
    ngram_min = draw(st.integers(1, 6))
    return ngram_min, draw(st.integers(ngram_min, 6))


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
        got = best_ngram_match("interest rate swaps", index)
        assert got is not None
        entry, score = got
        assert entry == 0
        assert 0 < score <= 1

    def test_no_shared_gram(self):
        assert best_ngram_match("xyz-q", NgramIndex(["swap"])) is None

    def test_score_is_jaccard(self):
        index = NgramIndex(["abcd"], ngram_min=3, ngram_max=4)
        got = best_ngram_match("abcx", index)
        # query {abc, bcx, abcx} vs entry {abc, bcd, abcd}: share {abc} of 5
        assert got == (0, 1 / 5)

    def test_resolver_falls_back_to_levenshtein(self):
        store = make_store(["swap", "bond"])
        index = NgramIndex(store.vocab)
        assert resolve_ngram("xy", index, store) == resolve_levenshtein("xy", store)

    def test_resolver_prefers_shared_grams(self):
        store = make_store(["corporate", "swap"])
        index = NgramIndex(store.vocab)
        assert resolve_ngram("corporates", index, store) == "corporate"

    def test_tie_breaks_deterministic(self):
        # same Jaccard against both entries; levenshtein prefers "abcde"
        index = NgramIndex(["abcde", "abcdq"], ngram_min=3, ngram_max=3)
        got = best_ngram_match("abcd", index)
        assert got is not None and got[0] == 0


class TestNgramIndexMatchesSetOracle:
    @staticmethod
    def check(entries, queries, sizes):
        index = NgramIndex(entries, *sizes)
        oracle = SetNgramIndex(entries, *sizes)
        # the alphabet is the sorted distinct code points of the entries
        lowered = distance.codes("".join(e.lower() for e in entries))
        np.testing.assert_array_equal(index.alphabet, np.unique(lowered))
        for text in queries:
            assert best_ngram_match(text, index) == set_best_ngram_match(
                text, oracle
            ), (entries, text, sizes)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(words(MIXED), max_size=12),
        queries=st.lists(words(MIXED), min_size=1, max_size=6),
        sizes=gram_sizes(),
    )
    @example(entries=["Bond", "bond", "BONDS"], queries=["bond", "Bonds"], sizes=(3, 6))
    @example(entries=[], queries=["bond", ""], sizes=(1, 6))
    @example(entries=["", "ab"], queries=["ab", "a", ""], sizes=(1, 2))
    @example(entries=["abcdef"], queries=["ab", "abc"], sizes=(4, 6))
    @example(entries=["中é \ud800x", "É"], queries=["\ud800", "é"], sizes=(1, 3))
    def test_mixed_alphabet(self, entries, queries, sizes):
        self.check(entries, queries, sizes)

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(words("ab", 7), min_size=1, max_size=20),
        queries=st.lists(words("ab", 7), min_size=1, max_size=6),
        sizes=gram_sizes(),
    )
    def test_two_letter_alphabet_ties(self, entries, queries, sizes):
        self.check(entries, queries, sizes)

    def test_keeps_no_per_gram_containers(self):
        index = NgramIndex(["bond", "swap", "Bond"])
        assert not hasattr(index, "grams")
        assert not hasattr(index, "entry_grams")
        for value in vars(index).values():
            assert not isinstance(value, (set, frozenset))


class TestOOVStrategy:
    def test_variants_validated(self):
        with pytest.raises(ValueError):
            OOVStrategy("magnitude")
        with pytest.raises(ValueError):
            OOVStrategy("ngram", ngram_min=4, ngram_max=3)

    def test_zero_returns_none(self, toy_store):
        assert OOVStrategy("zero").resolve("anything", toy_store) is None

    def test_in_vocab_token_resolves_to_itself(self, toy_store):
        for variant in ("zero", "levenshtein", "ngram"):
            for tok in toy_store.vocab:
                _, res = lookup(toy_store, tok, OOVStrategy(variant))
                assert res.kind == "in_vocab"
                assert res.token == tok

    def test_memo_reused_per_store(self, toy_store):
        strat = OOVStrategy("levenshtein")
        first = strat.resolve("bonds", toy_store)
        assert strat.resolve("bonds", toy_store) == first
        assert strat._memo["bonds"] == first

    def test_rebinds_on_new_store(self):
        strat = OOVStrategy("levenshtein")
        assert strat.resolve("bonds", make_store(["bond"])) == "bond"
        assert strat.resolve("bonds", make_store(["bands"])) == "bands"

    @pytest.mark.parametrize("variant", ["levenshtein", "ngram"])
    def test_packs_vocabulary_once_per_store(self, monkeypatch, variant):
        packed = []

        class CountingPack(distance.PackedWords):
            def __init__(self, words):
                packed.append(list(words))
                super().__init__(words)

        monkeypatch.setattr(distance, "PackedWords", CountingPack)
        strat = OOVStrategy(variant)
        store = make_store(["bond", "swap", "option"])
        for token in ["bonds", "swaps", "optin", "xq", "zz", "bonds"]:
            assert strat.resolve(token, store) in store.vocab
        assert packed == [store.vocab_lower]
        other = make_store(["Bands", "yield"])
        assert strat.resolve("bandz", other) == "Bands"
        assert strat.resolve("yields", other) == "yield"
        # shares no n-gram, so the n-gram variant scans the vocabulary too
        assert strat.resolve("qq", other) == "Bands"
        assert packed == [store.vocab_lower, other.vocab_lower]

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
        built = []

        def counting_build(store, strategy):
            built.append(store)
            return real_build(store, strategy)

        real_build = oov.build_ngram_index
        monkeypatch.setattr(oov, "build_ngram_index", counting_build)
        strat = OOVStrategy("ngram")
        store = make_store(["bond", "swap", "option"])
        for token in ["bonds", "swaps", "optin", "xq", "zz", "bonds", "opt"]:
            assert strat.resolve(token, store) in store.vocab
        assert built == [store]
        other = make_store(["Bands", "yield"])
        assert strat.resolve("bandz", other) == "Bands"
        assert strat.resolve("yields", other) == "yield"
        assert built == [store, other]

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
        assert sub == resolve_ngram(token, NgramIndex(store.vocab), store)
