"""Edit-distance kernel: reference oracle, metric axioms, backend parity."""
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhyp import _editdist_np, _editdist_py, distance
from finhyp.distance import BACKEND, levenshtein, nearest

try:
    from finhyp import _editdist as _editdist_c
except ImportError:
    _editdist_c = None


class _NumpyKernels:
    """The numpy batch DPs behind the scalar interface, so that every
    backend test runs on them too."""

    @staticmethod
    def levenshtein(a, b):
        return int(_editdist_np.levenshtein_matrix([a], [b])[0, 0])

    @staticmethod
    def nearest(query, candidates):
        return _editdist_np.PackedWords(candidates).nearest(query)


BACKENDS = [
    pytest.param(_editdist_py, id="python"),
    pytest.param(_NumpyKernels, id="numpy"),
]
if _editdist_c is not None:
    BACKENDS.append(pytest.param(_editdist_c, id="c"))


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
            levenshtein(query, candidates[i]),
            len(candidates[i]),
            candidates[i],
            i,
        ),
    )
    return best, levenshtein(query, candidates[best])


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


# Lone surrogates are valid str code points; the numpy kernels must take
# every string the scalar ones take.
EDGE_ALPHABET = ALPHABET + "\ud800\udfff"
EDGE_WORDS = st.text(alphabet=EDGE_ALPHABET, max_size=10)
# Two letters make ties in distance, length and spelling common.
TIE_WORDS = st.text(alphabet="ab", max_size=5)


class TestNumpyKernels:
    @given(
        texts=st.lists(EDGE_WORDS, max_size=6),
        targets=st.lists(EDGE_WORDS, max_size=4),
    )
    def test_matrix_against_reference(self, texts, targets):
        out = _editdist_np.levenshtein_matrix(texts, targets)
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
        assert _editdist_np.PackedWords(cands).nearest(query) == brute_nearest(
            query, cands
        )

    @given(query=TIE_WORDS, cands=st.lists(TIE_WORDS, min_size=1, max_size=30))
    def test_nearest_ties_against_brute_force(self, query, cands):
        assert _editdist_np.PackedWords(cands).nearest(query) == brute_nearest(
            query, cands
        )

    def test_lone_surrogates(self):
        a, b = "x\ud800y", "\udfffxy"
        assert _NumpyKernels.levenshtein(a, b) == reference_levenshtein(a, b) == 2
        assert _NumpyKernels.nearest("\ud800", ["\udfff", "\ud800"]) == (1, 0)

    def test_distances_beyond_int16(self):
        long_text = "ab" * 20_000
        targets = ["", "ba", "xyz"]
        out = _editdist_np.levenshtein_matrix([long_text, ""], targets)
        assert out.tolist() == [
            [reference_levenshtein(long_text, g) for g in targets],
            [0, 2, 3],
        ]
        assert out[0, 0] == 40_000
        assert _editdist_np.PackedWords([long_text, "q" * 3]).nearest("") == (1, 3)
        assert _editdist_np.PackedWords([long_text]).nearest("b") == (0, 39_999)

    def test_empty_inputs(self):
        assert _editdist_np.levenshtein_matrix([], ["ab"]).shape == (0, 1)
        assert _editdist_np.levenshtein_matrix(["ab"], []).shape == (1, 0)
        assert _editdist_np.levenshtein_matrix(["", ""], [""]).tolist() == [[0], [0]]
        with pytest.raises(ValueError):
            _editdist_np.PackedWords([]).nearest("x")

    @given(query=EDGE_WORDS, cands=st.lists(EDGE_WORDS, min_size=1, max_size=20))
    def test_packed_nearest_matches_plain_list(self, query, cands):
        assert distance.nearest(query, distance.pack(cands)) == nearest(query, cands)

    @given(
        texts=st.lists(EDGE_WORDS, max_size=5), targets=st.lists(EDGE_WORDS, max_size=3)
    )
    def test_backend_matrix_matches_scalar(self, texts, targets):
        assert distance.levenshtein_matrix(texts, targets).tolist() == [
            [levenshtein(t, g) for g in targets] for t in texts
        ]


@pytest.mark.skipif(_editdist_c is None, reason="compiled kernel not built")
class TestBackendParity:
    @given(a=WORDS, b=WORDS)
    def test_levenshtein_identical(self, a, b):
        assert _editdist_c.levenshtein(a, b) == _editdist_py.levenshtein(a, b)

    @given(
        query=WORDS,
        cands=st.lists(st.text(alphabet=ALPHABET, max_size=8), min_size=1, max_size=20),
    )
    def test_nearest_identical(self, query, cands):
        assert _editdist_c.nearest(query, cands) == _editdist_py.nearest(query, cands)


def test_default_backend_prefers_compiled():
    if _editdist_c is not None:
        assert BACKEND == "c"
    else:
        assert BACKEND == "python"
    assert levenshtein("kitten", "sitting") == 3
    assert nearest("kitten", ["sitting", "mitten"]) == (1, 1)


def test_env_var_forces_python_backend():
    env = dict(os.environ, FINHYP_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", "from finhyp.distance import BACKEND; print(BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"
