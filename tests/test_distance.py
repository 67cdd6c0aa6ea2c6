"""Edit distance: reference oracles, metric axioms, the numpy batch DPs."""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhyp import distance
from finhyp.distance import (
    BACKEND,
    PackedWords,
    levenshtein,
    levenshtein_matrix,
    nearest,
)

# uint64 scalar arithmetic warns on overflow; the kernels must not rely on it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class _NumpyKernels:
    """The numpy batch DPs behind the scalar interface, so that every
    backend test runs on them too."""

    @staticmethod
    def levenshtein(a, b):
        return int(levenshtein_matrix([a], [b])[0, 0])

    @staticmethod
    def nearest(query, candidates):
        return nearest(query, PackedWords(candidates))


# "python": the module's API on plain values, that is the pure-Python pair DP
# and ``nearest`` packing the candidate list on the spot.
BACKENDS = [
    pytest.param(distance, id="python"),
    pytest.param(_NumpyKernels, id="numpy"),
]


def reference_levenshtein(a: str, b: str) -> int:
    """Independent full-matrix DP, written against the textbook recurrence."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(
                d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost
            )
    return d[-1][-1]


ALPHABET = "abXé中7-"
WORDS = st.text(alphabet=ALPHABET, max_size=12)


class TestLevenshtein:
    KNOWN = [
        ("kitten", "sitting", 3),
        ("", "", 0),
        ("", "abc", 3),
        ("abc", "", 3),
        ("flaw", "lawn", 2),
        ("t-bill", "treasury-bill", 7),
        ("asiacorporate", "corporate", 4),
        ("same", "same", 0),
    ]

    @pytest.mark.parametrize("impl", BACKENDS)
    @pytest.mark.parametrize("a,b,want", KNOWN)
    def test_known_pairs(self, impl, a, b, want):
        assert impl.levenshtein(a, b) == want

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_against_reference_randomized(self, impl):
        rng = random.Random(1234)
        for _ in range(1000):
            a = "".join(rng.choices(ALPHABET, k=rng.randint(0, 12)))
            b = "".join(rng.choices(ALPHABET, k=rng.randint(0, 12)))
            assert impl.levenshtein(a, b) == reference_levenshtein(a, b)

    @given(a=WORDS, b=WORDS)
    def test_symmetry_and_bounds(self, a, b):
        d = levenshtein(a, b)
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
        assert (d == 0) == (a == b)

    @given(a=WORDS, b=WORDS, c=WORDS)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def brute_nearest(query, candidates):
    best = min(
        range(len(candidates)),
        key=lambda i: (
            reference_levenshtein(query, candidates[i]),
            len(candidates[i]),
            candidates[i],
            i,
        ),
    )
    return best, reference_levenshtein(query, candidates[best])


class TestNearest:
    @pytest.mark.parametrize("impl", BACKENDS)
    def test_empty_candidates(self, impl):
        with pytest.raises(ValueError):
            impl.nearest("x", [])

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_exact_hit(self, impl):
        assert impl.nearest("swap", ["bond", "swap", "option"]) == (1, 0)

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_tie_prefers_shorter(self, impl):
        # both at distance 1
        assert impl.nearest("ab", ["abc", "a"]) == (1, 1)

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_tie_prefers_lexicographic(self, impl):
        assert impl.nearest("aa", ["ba", "ab"]) == (1, 1)

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_tie_prefers_first_position(self, impl):
        assert impl.nearest("aa", ["ab", "ab"]) == (0, 1)

    @pytest.mark.parametrize("impl", BACKENDS)
    def test_against_brute_force(self, impl):
        rng = random.Random(99)
        for _ in range(150):
            cands = [
                "".join(rng.choices(ALPHABET, k=rng.randint(0, 8)))
                for _ in range(rng.randint(1, 25))
            ]
            query = "".join(rng.choices(ALPHABET, k=rng.randint(0, 8)))
            assert impl.nearest(query, cands) == brute_nearest(query, cands)


# Lone surrogates and the last code point are valid str code points; the
# numpy kernels must take every string the scalar ones take.
EDGE_ALPHABET = ALPHABET + "\ud800\udfff\U0010ffff"
EDGE_WORDS = st.text(alphabet=EDGE_ALPHABET, max_size=10)
# Two letters make ties in distance, length and spelling common.
TIE_WORDS = st.text(alphabet="ab", max_size=5)


class TestNumpyKernels:
    @given(
        texts=st.lists(EDGE_WORDS, max_size=6),
        targets=st.lists(EDGE_WORDS, max_size=4),
    )
    def test_matrix_against_reference(self, texts, targets):
        out = levenshtein_matrix(texts, targets)
        assert out.dtype == np.int32
        assert out.shape == (len(texts), len(targets))
        assert out.tolist() == [
            [reference_levenshtein(t, g) for g in targets] for t in texts
        ]

    @given(
        query=EDGE_WORDS,
        cands=st.lists(EDGE_WORDS, min_size=1, max_size=20),
    )
    def test_nearest_against_brute_force(self, query, cands):
        assert nearest(query, PackedWords(cands)) == brute_nearest(query, cands)

    @given(query=TIE_WORDS, cands=st.lists(TIE_WORDS, min_size=1, max_size=30))
    def test_nearest_ties_against_brute_force(self, query, cands):
        assert nearest(query, PackedWords(cands)) == brute_nearest(query, cands)

    def test_lone_surrogates(self):
        a, b = "x\ud800y", "\udfffxy"
        assert _NumpyKernels.levenshtein(a, b) == reference_levenshtein(a, b) == 2
        assert _NumpyKernels.nearest("\ud800", ["\udfff", "\ud800"]) == (1, 0)

    def test_distances_beyond_int16(self):
        long_text = "ab" * 20_000
        targets = ["", "ba", "xyz"]
        out = levenshtein_matrix([long_text, ""], targets)
        assert out.tolist() == [
            [reference_levenshtein(long_text, g) for g in targets],
            [0, 2, 3],
        ]
        assert out[0, 0] == 40_000
        assert nearest("", PackedWords([long_text, "q" * 3])) == (1, 3)
        assert nearest("b", PackedWords([long_text])) == (0, 39_999)

    def test_empty_inputs(self):
        assert levenshtein_matrix([], ["ab"]).shape == (0, 1)
        assert levenshtein_matrix(["ab"], []).shape == (1, 0)
        assert levenshtein_matrix(["", ""], [""]).tolist() == [[0], [0]]
        with pytest.raises(ValueError):
            nearest("x", PackedWords([]))

    @given(
        queries=st.lists(EDGE_WORDS, min_size=1, max_size=4),
        cands=st.lists(EDGE_WORDS, min_size=1, max_size=20),
    )
    def test_packed_nearest_matches_plain_list(self, queries, cands):
        # one pack serves every scan, as OOVStrategy keeps it per store
        packed = PackedWords(cands)
        assert [nearest(q, packed) for q in queries] == [
            nearest(q, cands) for q in queries
        ]

    @given(
        texts=st.lists(EDGE_WORDS, max_size=5), targets=st.lists(EDGE_WORDS, max_size=3)
    )
    def test_backend_matrix_matches_scalar(self, texts, targets):
        assert levenshtein_matrix(texts, targets).tolist() == [
            [levenshtein(t, g) for g in targets] for t in texts
        ]


# Patterns of at most 64 characters fill one uint64 word of Myers' algorithm;
# longer ones take the DP. Labels and queries draw from characters the texts
# never hold, as well as from the texts' own.
PATTERN_ALPHABET = EDGE_ALPHABET + "Zλ"


def text_of_length(n):
    return st.text(alphabet=PATTERN_ALPHABET, min_size=n, max_size=n)


BOUNDARY_PATTERNS = st.sampled_from([0, 1, 63, 64, 65, 100]).flatmap(text_of_length)


class TestWordBoundary:
    @given(
        texts=st.lists(st.text(alphabet=EDGE_ALPHABET, max_size=80), max_size=5),
        targets=st.lists(BOUNDARY_PATTERNS, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_against_reference(self, texts, targets):
        assert levenshtein_matrix(texts, targets).tolist() == [
            [reference_levenshtein(t, g) for g in targets] for t in texts
        ]

    @given(
        query=st.integers(63, 65).flatmap(text_of_length),
        cands=st.lists(
            st.integers(58, 70).flatmap(
                lambda n: st.text(alphabet=EDGE_ALPHABET, min_size=n, max_size=n)
            ),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_nearest_against_brute_force(self, query, cands):
        assert nearest(query, PackedWords(cands)) == brute_nearest(query, cands)

    @given(
        a=st.text(alphabet=PATTERN_ALPHABET, max_size=150),
        b=st.text(alphabet=PATTERN_ALPHABET, max_size=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_against_reference(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    def test_dp_only_beyond_64(self, monkeypatch):
        calls = []
        real = distance._last_row

        def counting(cols, row, bound=-1):
            calls.append(len(row))
            return real(cols, row, bound)

        monkeypatch.setattr(distance, "_last_row", counting)
        texts = ["a" * 70, "ab", ""]
        levenshtein_matrix(texts, ["", "a", "b" * 64])
        nearest("a", texts)
        nearest("b" * 64, texts)
        assert calls == []
        levenshtein_matrix(texts, ["b" * 64, "a" * 65])
        nearest("a" * 65, texts)
        assert calls == [65, 65]


def test_backend_is_python():
    # perfbench records BACKEND with every result, and its compare.py refuses
    # to compare results recorded under different values.
    assert BACKEND == "python"
    assert levenshtein("kitten", "sitting") == 3
    assert nearest("kitten", ["sitting", "mitten"]) == (1, 1)
