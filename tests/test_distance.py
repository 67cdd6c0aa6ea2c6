"""Edit distance: reference oracles, metric axioms, the numpy batch DPs."""
import random
import string
import tracemalloc
from unittest import mock

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

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_sliced_match_table_gives_the_same_distances(self, monkeypatch, budget):
        rng = random.Random(budget)
        texts = ["".join(rng.choices("abc", k=rng.randint(0, 9))) for _ in range(12)]
        targets = ["".join(rng.choices("abcZ", k=rng.randint(0, 12))) for _ in range(30)]
        slices = []
        real = distance._find

        def recording(keys, key):
            slices.append(len(key))
            return real(keys, key)

        monkeypatch.setattr(distance, "_find", recording)
        monkeypatch.setattr(distance, "_PEQ_PATTERNS", budget)
        assert levenshtein_matrix(texts, targets).tolist() == [
            [reference_levenshtein(t, g) for g in targets] for t in texts
        ]
        # the table is set in slices of at most budget patterns
        assert len(slices) == -(-len(targets) // budget)
        assert sum(slices) == sum(map(len, targets))

    def test_match_table_scratch_memory_is_bounded(self):
        # one text against 40,000 words: the (alphabet x words) match table
        # takes 7.9 MiB, and setting its bits for all words at once took
        # another 26 MiB of temporaries
        rng = random.Random(0)
        text = "".join(rng.choices(string.ascii_lowercase, k=70))
        words = ["".join(rng.choices(string.ascii_lowercase, k=12)) for _ in range(40_000)]
        tracemalloc.start()
        try:
            out = levenshtein_matrix([text], words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert out[0, :40].tolist() == [levenshtein(text, w) for w in words[:40]]


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


# Targets of up to 63 characters share a Myers word, each followed by a zero
# gap bit; a 64-character target fills a word, a longer one is scalar.
SHORT_TARGETS = st.lists(
    st.text(alphabet=PATTERN_ALPHABET, min_size=1, max_size=10), min_size=8, max_size=30
)
PACKED_TEXTS = st.lists(
    st.one_of(
        st.just(""),
        st.text(alphabet=EDGE_ALPHABET, max_size=12),
        st.text(alphabet=EDGE_ALPHABET, min_size=65, max_size=90),
    ),
    max_size=5,
)


class TestPackedTargets:
    @staticmethod
    def pass_words(texts, targets):
        """``levenshtein_matrix``'s distances, and the number of words of
        each of its Myers passes."""
        with mock.patch.object(distance, "_myers", wraps=distance._myers) as spy:
            out = levenshtein_matrix(texts, targets).tolist()
        return out, [c.args[0].shape[1] for c in spy.call_args_list]

    def test_layout(self):
        word, shift = distance._layout([5, 0, 63, 64, 10, 10, 10, 10, 10, 10])
        # an empty target takes its gap bit; 63 characters and the gap fill
        # a word, and so do 64 characters without one; five 10-character
        # targets and their gaps take 55 bits, and a sixth does not fit
        assert word.tolist() == [0, 0, 1, 2, 3, 3, 3, 3, 3, 4]
        assert shift.tolist() == [0, 6, 0, 0, 0, 11, 22, 33, 44, 0]

    @given(texts=PACKED_TEXTS, targets=SHORT_TARGETS, empty_at=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_shared_words_against_reference(self, texts, targets, empty_at):
        targets.insert(min(empty_at, len(targets)), "")
        out, words = self.pass_words(texts, targets)
        assert out == [[reference_levenshtein(t, g) for g in targets] for t in texts]
        # one pass, fewer words than targets
        assert len(words) == 1 and words[0] < len(targets)

    @given(
        texts=PACKED_TEXTS,
        targets=st.lists(
            st.one_of(
                st.sampled_from([62, 63, 64, 65, 80]).flatmap(text_of_length),
                st.text(alphabet=PATTERN_ALPHABET, max_size=10),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    @example(texts=["", "a" * 70], targets=["a" * 63, "b", "a" * 64, "", "a" * 65])
    @example(texts=["ab" * 40, "b"], targets=["b" * 10, "ab" * 31 + "a", "ab" * 32])
    def test_word_edges_against_reference(self, texts, targets):
        assert levenshtein_matrix(texts, targets).tolist() == [
            [reference_levenshtein(t, g) for g in targets] for t in texts
        ]

    def test_labels_fill_four_words(self):
        # the 17 hypernym labels of the synthetic set take 226 bits
        labels = [
            "bonds", "central securities depository", "credit events",
            "credit index", "debt pricing and yields", "equity index", "forward",
            "funds", "future", "mmis", "option", "parametric schedules",
            "regulatory agency", "securities restrictions", "stock corporation",
            "stocks", "swap",
        ]
        texts = ["credit default swaps on bonds", "", "x" * 70]
        out, words = self.pass_words(texts, labels)
        assert out == [[reference_levenshtein(t, g) for g in labels] for t in texts]
        assert words == [4]


# Words of up to 12 characters and of more than 64, from the texts'
# alphabet; the queries draw also from characters the words never hold.
BOUND_WORDS = st.one_of(
    st.text(alphabet=EDGE_ALPHABET, max_size=12),
    st.text(alphabet=EDGE_ALPHABET, min_size=65, max_size=80),
)
BOUND_QUERIES = st.one_of(
    st.text(alphabet=PATTERN_ALPHABET, max_size=12), BOUNDARY_PATTERNS
)
# 130 distinct characters: symbols s and s + 63 share a signature bit.
WIDE = "".join(map(chr, range(0x100, 0x182)))


class TestBound:
    @staticmethod
    def bounds(queries, words):
        """nearest's lower bound of each (word, query) pair, by word."""
        packed = PackedWords(words)
        q_sig = distance._query_signatures(packed.alphabet, queries)
        lq = np.array([len(q) for q in queries], dtype=np.intp)
        out = {}
        for length, (ids, sym_t) in packed.buckets.items():
            w_sig = distance._word_signatures(packed.alphabet, sym_t)
            bound = distance._bound(w_sig, q_sig, np.abs(length - lq))
            out.update(zip(ids.tolist(), bound.T.tolist()))
        return [out[i] for i in range(len(words))]

    @given(
        queries=st.lists(BOUND_QUERIES, min_size=1, max_size=4),
        words=st.lists(BOUND_WORDS, min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    @example(queries=[WIDE[:70], WIDE[63:], "", "Z"], words=[WIDE, WIDE[::-1][:66], ""])
    def test_bound_never_exceeds_the_distance(self, queries, words):
        for w, row in zip(words, self.bounds(queries, words)):
            assert all(b <= levenshtein(q, w) for q, b in zip(queries, row))

    def test_known_bounds(self):
        words = ["bond", "bonded", "swapped", "", "ab" * 40]
        # length gaps, letters the word lacks, letters the query lacks
        assert self.bounds(["bonds"], words) == [[1], [1], [4], [5], [75]]
        assert self.bounds(["swapps"], words) == [[4], [5], [2], [6], [74]]
        # "Z" is outside the words' alphabet, so no word has its bit
        assert self.bounds(["Z", "bondZ"], words) == [
            [4, 1], [5, 1], [6, 5], [1, 5], [79, 75]
        ]


def test_popcount_counts_every_bit():
    rng = np.random.default_rng(0)
    x = np.concatenate(
        [rng.integers(0, 2**64, size=200, dtype=np.uint64, endpoint=False),
         np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)]
    )
    want = [int(v).bit_count() for v in x.tolist()]
    got = distance._popcount(x.reshape(17, 12))
    assert got.dtype == np.int64 and got.reshape(-1).tolist() == want


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

    @staticmethod
    def record_splits(monkeypatch, passes, bounds):
        """Spy on every Myers pass and every queries x words bound array.
        A pass of ``nearest`` pairs, whose match table is flat, is recorded
        as (lanes, text length); one of ``levenshtein_matrix`` as (lanes,
        match table rows, patterns)."""
        real_myers, real_bound = distance._myers, distance._bound

        def myers(peq, sym_t, active, mask):
            if peq.ndim == 1:
                passes.append((sym_t.shape[1], sym_t.shape[0]))
            else:
                passes.append((sym_t.shape[1], peq.shape[0], peq.shape[1]))
            return real_myers(peq, sym_t, active, mask)

        def bound(w_sig, q_sig, gap):
            out = real_bound(w_sig, q_sig, gap)
            bounds.append(out.shape)
            return out

        monkeypatch.setattr(distance, "_myers", myers)
        monkeypatch.setattr(distance, "_bound", bound)

    @staticmethod
    def within(chunk, passes, bounds):
        """Each pass and bound array stays within chunk, unless one lane,
        pattern or query alone exceeds it."""
        for p in passes:
            if len(p) == 2:
                lanes, length = p
                assert lanes * max(length, 1) <= chunk or lanes == 1
            else:
                lanes, symbols, k = p
                assert (lanes * k <= chunk and symbols * k <= chunk) or k == 1
        assert all(k * n <= chunk or k == 1 for k, n in bounds)

    @pytest.mark.parametrize("chunk", [1, 5, 12])
    def test_split_groups_give_the_same_answers(self, monkeypatch, chunk):
        # Three letters give many words the same signature, so a group
        # holds many pairs at a step's bound.
        rng = random.Random(chunk)
        cands = ["".join(rng.choices("abc", k=rng.randint(2, 5))) for _ in range(60)]
        queries = ["".join(rng.choices("abcZ", k=rng.randint(0, 7))) for _ in range(30)]
        packed = PackedWords(cands)
        passes, bounds = [], []
        self.record_splits(monkeypatch, passes, bounds)
        whole = nearest(queries, packed)
        n_whole, n_whole_bounds = len(passes), len(bounds)
        passes.clear()
        bounds.clear()
        monkeypatch.setattr(distance, "_CHUNK", chunk)
        assert nearest(queries, packed) == whole
        # passes and bound arrays were split, and each stays within chunk
        assert len(passes) > n_whole and len(bounds) > n_whole_bounds
        self.within(chunk, passes, bounds)

    @pytest.mark.parametrize("chunk", [1, 5, 12])
    def test_split_long_queries_give_the_same_answers(self, monkeypatch, chunk):
        # a query over 64 characters is a lane, its words of up to 64
        # characters the patterns, and the query's alphabet the match
        # table's rows
        rng = random.Random(chunk)
        cands = ["".join(rng.choices("abc", k=rng.randint(60, 68))) for _ in range(40)]
        queries = ["".join(rng.choices("abcZ", k=rng.randint(65, 70))) for _ in range(8)]
        packed = PackedWords(cands)
        passes, bounds = [], []
        self.record_splits(monkeypatch, passes, bounds)
        whole = nearest(queries, packed)
        n_whole, n_whole_bounds = len(passes), len(bounds)
        assert whole == [nearest([q], packed)[0] for q in queries]
        passes.clear()
        bounds.clear()
        monkeypatch.setattr(distance, "_CHUNK", chunk)
        assert nearest(queries, packed) == whole
        assert len(passes) > n_whole and len(bounds) > n_whole_bounds
        self.within(chunk, passes, bounds)

    @staticmethod
    def record_pairs(monkeypatch, packed, passes):
        """Spy on every Myers pass of ``nearest`` pairs, as its (word,
        query index) lanes. A pair's text is its word's symbols, each
        times the number of queries plus its query's index, so that it
        picks its own query's match bits from the flat table."""
        real = distance._myers

        def recording(peq, sym_t, active, mask):
            sym, query = np.divmod(sym_t, len(peq) // len(packed.alphabet))
            passes.append([
                ("".join(chr(packed.alphabet[s]) for s in sym[:, r]), int(query[0, r]))
                for r in range(sym_t.shape[1])
            ])
            return real(peq, sym_t, active, mask)

        monkeypatch.setattr(distance, "_myers", recording)

    def test_group_that_can_only_tie_is_not_scanned(self, monkeypatch):
        # "bonds" is at bound 1 from "bond" and "bonded" (a letter apart in
        # length, and each lacks one letter of the other). At step 1 the
        # 4-letter group comes first and finds "bond" at distance 1, so the
        # 6-letter group, whose words could at best tie and lose, is not
        # scanned for it. "swapps" is at bound 2 from "swapped" (which has
        # "e" and "d" besides its letters), and at 4 and 5 from the
        # others, so it scans "swapped" alone, at step 2.
        cands = ["bond", "bonded", "swapped"]
        queries = ["bonds", "swapps"]
        packed = PackedWords(cands)
        passes = []
        self.record_pairs(monkeypatch, packed, passes)
        assert nearest(queries, packed) == [(0, 1), (2, 2)]
        assert [brute_nearest(q, cands) for q in queries] == [(0, 1), (2, 2)]
        assert passes == [[("bond", 0)], [("swapped", 1)]]

    def test_later_word_of_the_same_length_wins_a_tie(self, monkeypatch):
        # "ab" finds "ba" at step 0 (same letters), at distance 2. "Ac" is
        # at bound 2, as long and lexicographically smaller ("A" < "b"), so
        # step 2 scans it, and it wins the tie; no pair is at bound 1.
        cands = ["ba", "Ac"]
        packed = PackedWords(cands)
        passes = []
        self.record_pairs(monkeypatch, packed, passes)
        assert nearest(["ab"], packed) == [(1, 2)] == [brute_nearest("ab", cands)]
        assert passes == [[("ba", 0)], [("Ac", 0)]]

    def test_far_words_never_become_lanes(self, monkeypatch):
        # one word a letter from the query among 3,000 that share none of
        # its letters, all of its length or near it: a far word's bound is
        # at least 4, and the query is settled at distance 1 after step 1
        rng = random.Random(5)
        letters = "bcdefghijk"
        far = ["".join(rng.choices(letters, k=rng.randint(4, 6))) for _ in range(3000)]
        cands = far[:1500] + ["swap"] + far[1500:]
        packed = PackedWords(cands)
        passes = []
        self.record_pairs(monkeypatch, packed, passes)
        assert nearest(["swaps"], packed) == [(1500, 1)]
        assert brute_nearest("swaps", cands) == (1500, 1)
        assert passes == [[("swap", 0)]]

    def test_each_pair_is_scanned_once(self, monkeypatch):
        # Far queries scan many pairs over many steps; each (word, query)
        # pair of distinct words is a lane at its own bound only.
        rng = random.Random(8)
        cands = {"".join(rng.choices("abcdef", k=rng.randint(1, 8))) for _ in range(300)}
        cands = sorted(cands)
        queries = ["".join(rng.choices("aeiouxy", k=rng.randint(1, 9))) for _ in range(20)]
        packed = PackedWords(cands)
        passes = []
        self.record_pairs(monkeypatch, packed, passes)
        assert nearest(queries, packed) == [brute_nearest(q, cands) for q in queries]
        lanes = [pair for p in passes for pair in p]
        assert len(passes) > 10
        assert len(set(lanes)) == len(lanes)

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
