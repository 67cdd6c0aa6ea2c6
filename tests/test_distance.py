"""Edit distance: reference oracles, metric axioms, the numpy batch DPs."""
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        return nearest([query], PackedWords(candidates))[0]


class _PythonKernels:
    """The pure-Python pair DP, and ``nearest`` over a fresh pack of the list."""

    levenshtein = staticmethod(levenshtein)
    nearest = staticmethod(_NumpyKernels.nearest)


BACKENDS = [
    pytest.param(_PythonKernels, id="python"),
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
        assert nearest([query], PackedWords(cands))[0] == brute_nearest(query, cands)

    @given(query=TIE_WORDS, cands=st.lists(TIE_WORDS, min_size=1, max_size=30))
    def test_nearest_ties_against_brute_force(self, query, cands):
        assert nearest([query], PackedWords(cands))[0] == brute_nearest(query, cands)

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
        assert nearest([""], PackedWords([long_text, "q" * 3]))[0] == (1, 3)
        assert nearest(["b"], PackedWords([long_text]))[0] == (0, 39_999)

    def test_empty_inputs(self):
        assert levenshtein_matrix([], ["ab"]).shape == (0, 1)
        assert levenshtein_matrix(["ab"], []).shape == (1, 0)
        assert levenshtein_matrix(["", ""], [""]).tolist() == [[0], [0]]
        with pytest.raises(ValueError):
            nearest(["x"], PackedWords([]))

    @given(words=st.lists(EDGE_WORDS, max_size=20))
    def test_pack_layout(self, words):
        # per length: the words' positions, ascending, and a (length, n)
        # matrix of their characters' indices in the sorted alphabet, one
        # word per column; every bucket a view of the pack's flat arrays
        packed = PackedWords(words)
        alphabet = sorted(set("".join(words)))
        assert packed.alphabet.dtype == np.int32
        assert packed.alphabet.tolist() == [ord(c) for c in alphabet]
        groups = {}
        for i, w in enumerate(words):
            groups.setdefault(len(w), []).append(i)
        assert sorted(packed.buckets) == sorted(groups)
        for length, (ids, sym) in packed.buckets.items():
            assert ids.dtype == np.int64 and ids.tolist() == groups[length]
            assert sym.dtype == np.min_scalar_type(len(alphabet))
            assert sym.tolist() == [
                [alphabet.index(words[i][j]) for i in ids] for j in range(length)
            ]
            assert ids.base is packed.order and sym.base is packed.symbols

    @given(
        queries=st.lists(EDGE_WORDS, min_size=1, max_size=4),
        cands=st.lists(EDGE_WORDS, min_size=1, max_size=20),
    )
    def test_packed_nearest_matches_plain_list(self, queries, cands):
        # one pack serves every scan, as OOVStrategy keeps it per store, and
        # answers as a fresh pack of the list does for each query
        packed = PackedWords(cands)
        assert [nearest([q], packed)[0] for q in queries] == [
            nearest([q], PackedWords(cands))[0] for q in queries
        ]

    @given(
        texts=st.lists(EDGE_WORDS, max_size=5), targets=st.lists(EDGE_WORDS, max_size=3)
    )
    def test_backend_matrix_matches_scalar(self, texts, targets):
        assert levenshtein_matrix(texts, targets).tolist() == [
            [levenshtein(t, g) for g in targets] for t in texts
        ]


# Patterns of at most 64 characters fill one uint64 word of Myers' algorithm;
# a longer target takes the scalar levenshtein, and a longer query is a lane
# against the words as patterns. Labels and queries draw from characters the
# texts never hold, as well as from the texts' own.
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
    # a long query's nearest words tie across the 64-character word boundary
    @example(query="a" * 65, cands=["a" * 66, "a" * 64])
    @example(query="ab" * 32 + "a", cands=["ab" * 33, "ab" * 32, "b" + "ab" * 32])
    @example(query="a" * 63 + "bc", cands=["a" * 63 + "bcd", "a" * 62 + "bc"])
    def test_nearest_against_brute_force(self, query, cands):
        assert nearest([query], PackedWords(cands))[0] == brute_nearest(query, cands)

    @given(
        a=st.text(alphabet=PATTERN_ALPHABET, max_size=150),
        b=st.text(alphabet=PATTERN_ALPHABET, max_size=150),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_against_reference(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)

    def test_scalar_only_beyond_64(self, monkeypatch):
        calls = []
        real = distance.levenshtein

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(distance, "levenshtein", counting)
        texts = ["a" * 70, "ab", ""]
        packed = PackedWords(texts)
        levenshtein_matrix(texts, ["", "a", "b" * 64])
        nearest(["a"], packed)
        nearest(["b" * 64], packed)
        nearest(["a" * 65], PackedWords(["ab", "b" * 64]))
        assert calls == []
        # a long target once per text; a long query once per long word
        levenshtein_matrix(texts, ["b" * 64, "a" * 65])
        assert calls == [(t, "a" * 65) for t in texts]
        calls.clear()
        # "z" matches nothing, so the scans visit every group
        nearest(["z" * 65, "z" * 66], PackedWords(texts + ["b" * 80]))
        assert sorted(calls) == [
            ("z" * 65, "a" * 70),
            ("z" * 65, "b" * 80),
            ("z" * 66, "a" * 70),
            ("z" * 66, "b" * 80),
        ]


# Query batches: short and long queries, "" and characters outside the
# candidates' alphabet (Z and λ), with every other query repeated.
BATCH_QUERIES = st.lists(
    st.one_of(
        st.text(alphabet=PATTERN_ALPHABET, max_size=10),
        st.sampled_from([64, 65, 70]).flatmap(text_of_length),
    ),
    max_size=8,
).map(lambda qs: qs + qs[::2])
BATCH_CANDIDATES = st.lists(
    st.text(alphabet=EDGE_ALPHABET, max_size=12), min_size=1, max_size=20
)


class TestBatchNearest:
    @given(queries=BATCH_QUERIES, cands=BATCH_CANDIDATES)
    @settings(max_examples=60, deadline=None)
    def test_batch_against_brute_force(self, queries, cands):
        assert nearest(queries, PackedWords(cands)) == [
            brute_nearest(q, cands) for q in queries
        ]

    @given(queries=BATCH_QUERIES, cands=BATCH_CANDIDATES)
    @settings(max_examples=60, deadline=None)
    def test_answer_independent_of_batch(self, queries, cands):
        packed = PackedWords(cands)
        assert nearest(queries, packed) == [nearest([q], packed)[0] for q in queries]

    @given(
        queries=st.lists(TIE_WORDS, max_size=12),
        cands=st.lists(TIE_WORDS, min_size=1, max_size=40),
    )
    def test_ties_against_brute_force(self, queries, cands):
        assert nearest(queries, PackedWords(cands)) == [
            brute_nearest(q, cands) for q in queries
        ]

    @pytest.mark.parametrize("chunk", [1, 5, 12])
    def test_split_groups_give_the_same_answers(self, monkeypatch, chunk):
        rng = random.Random(chunk)
        cands = ["".join(rng.choices("abc", k=rng.randint(2, 5))) for _ in range(60)]
        queries = ["".join(rng.choices("abcZ", k=rng.randint(0, 7))) for _ in range(30)]
        packed = PackedWords(cands)
        passes = []
        real = distance._myers

        def recording(peq, sym_t, active, mask):
            passes.append((sym_t.shape[1], peq.shape[1]))
            return real(peq, sym_t, active, mask)

        monkeypatch.setattr(distance, "_myers", recording)
        whole = nearest(queries, packed)
        n_whole = len(passes)
        passes.clear()
        monkeypatch.setattr(distance, "_CHUNK", chunk)
        assert nearest(queries, packed) == whole
        # groups were split, and lanes x patterns stays within the bound
        # unless one pattern alone exceeds it
        assert len(passes) > n_whole
        assert all(lanes * k <= chunk or k == 1 for lanes, k in passes)

    @pytest.mark.parametrize("chunk", [1, 5, 12])
    def test_split_long_queries_give_the_same_answers(self, monkeypatch, chunk):
        # a query over 64 characters is a lane, the group's words of up to
        # 64 characters the patterns, and the query's alphabet the match
        # table's rows
        rng = random.Random(chunk)
        cands = ["".join(rng.choices("abc", k=rng.randint(60, 68))) for _ in range(40)]
        queries = ["".join(rng.choices("abcZ", k=rng.randint(65, 70))) for _ in range(8)]
        packed = PackedWords(cands)
        passes = []
        real = distance._myers

        def recording(peq, sym_t, active, mask):
            passes.append((sym_t.shape[1], peq.shape[0], peq.shape[1]))
            return real(peq, sym_t, active, mask)

        monkeypatch.setattr(distance, "_myers", recording)
        whole = nearest(queries, packed)
        n_whole = len(passes)
        assert whole == [nearest([q], packed)[0] for q in queries]
        passes.clear()
        monkeypatch.setattr(distance, "_CHUNK", chunk)
        assert nearest(queries, packed) == whole
        assert len(passes) > n_whole
        assert all(
            (lanes * k <= chunk and symbols * k <= chunk) or k == 1
            for lanes, symbols, k in passes
        )

    def test_bare_str_rejected(self):
        with pytest.raises(TypeError):
            nearest("swap", PackedWords(["swap", "bond"]))

    def test_empty_batch(self):
        assert nearest([], PackedWords(["swap"])) == []


def test_backend_is_python():
    # perfbench records BACKEND with every result, and its compare.py refuses
    # to compare results recorded under different values.
    assert BACKEND == "python"
    assert levenshtein("kitten", "sitting") == 3
    assert nearest(["kitten"], PackedWords(["sitting", "mitten"]))[0] == (1, 1)
