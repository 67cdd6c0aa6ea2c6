"""Hand-crafted features, distance features, scaling and row assembly."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finhyp.distance import levenshtein
from finhyp.embeddings import EmbeddingStore, TokenTable
from finhyp.features import (
    INDICATORS,
    MinMaxScaler,
    assemble_features,
    cosine_features,
    edit_features,
    handcrafted,
)
from finhyp.oov import OOVStrategy


def table(store, texts):
    """The zero-strategy token table of texts."""
    return TokenTable(store, texts, OOVStrategy("zero"))


def reference_handcrafted(term_raw: str) -> np.ndarray:
    """Per-row oracle for the hand-crafted block: the 10 features of one
    term, one character and one indicator at a time."""
    out = np.zeros(10)
    for i, sub in enumerate(INDICATORS):
        if sub in term_raw:
            out[i] = 1.0
    upper = sum(map(str.isupper, term_raw))
    lower = sum(map(str.islower, term_raw))
    out[7] = len(term_raw)
    out[8] = upper
    out[9] = upper / max(lower, 1)
    return out


# Titlecase (neither upper nor lower), non-BMP upper- and lower-case
# letters, digits, a lone surrogate, and fragments of the indicators.
HAND_TERMS = st.lists(
    st.one_of(
        st.sampled_from(INDICATORS + ("Inc", "Corp.", "ǅ", "ǆ", "Ǆ", "𝐀", "𝐚", "𐐀", "𐐨")),
        st.text(alphabet="aZ7 .%ǅ𝐀𝐚\ud800ΣσİßBankIndexRate", max_size=12),
        st.text(max_size=6),
    ),
    max_size=6,
).map("".join)


class TestHandcrafted:
    @given(terms=st.lists(HAND_TERMS, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_block_matches_rows(self, terms):
        block = handcrafted(terms)
        assert block.shape == (len(terms), 10)
        assert block.tolist() == [reference_handcrafted(t).tolist() for t in terms]

    def test_bare_str_raises(self):
        # a str is a sequence of one-character terms, and not a batch
        with pytest.raises(TypeError):
            handcrafted("Swap")

    def test_default_indicator_count(self):
        assert len(INDICATORS) == 7
        assert "Inc." in INDICATORS

    def test_apple_inc(self):
        row = handcrafted(["Apple Inc."])[0]
        # indicators: only "Inc." fires
        assert row[:7].tolist() == [1, 0, 0, 0, 0, 0, 0]
        assert row[7] == len("Apple Inc.")  # 10 characters
        assert row[8] == 2  # A, I
        assert row[9] == pytest.approx(2 / 6)

    def test_case_sensitive_substring(self):
        assert handcrafted(["apple inc."])[0][:7].tolist() == [0] * 7

    def test_all_upper_ratio_guard(self):
        row = handcrafted(["ABC"])[0]
        assert row[7] == 3 and row[8] == 3 and row[9] == 3.0

    def test_width_is_ten(self):
        assert handcrafted(["x"])[0].shape == (10,)


def cosine_distance(u, v) -> float:
    """Reference one-pair cosine distance: 1 - cosine similarity, clipped to
    [0, 2]; 1 when either norm is 0. The (N, K) block must reproduce it."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    d = 1.0 - float(np.dot(u, v)) / (nu * nv)
    return min(max(d, 0.0), 2.0)


def cosine_block(vecs, label_vecs) -> np.ndarray:
    return cosine_features(
        np.asarray(vecs, dtype=np.float64), np.asarray(label_vecs, dtype=np.float64)
    )


# Nonzero elements stay away from 0 so no norm or norm product underflows,
# where the one-pair reference itself loses precision.
ELEMENT = st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3))


@st.composite
def cosine_inputs(draw):
    """Term rows and label rows with zero-norm rows on either side and labels
    that are positive or negative multiples of a term row."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 5))
    vecs = draw(hnp.arrays(np.float64, (n, d), elements=ELEMENT))
    labels = draw(hnp.arrays(np.float64, (k, d), elements=ELEMENT))
    vecs[draw(hnp.arrays(np.bool_, n))] = 0.0
    labels[draw(hnp.arrays(np.bool_, k))] = 0.0
    for j in range(k):
        scale = draw(st.sampled_from([None, 1.0, 8.5, 0.25, -1.0, -3.0]))
        if scale is not None:
            labels[j] = scale * vecs[draw(st.integers(0, n - 1))]
    return vecs, labels


class TestCosineDistance:
    def test_identical_is_zero(self):
        out = cosine_block([[1.0, 2.0]], [[2.0, 4.0], [0.0, 1.0]])
        assert out[0, 0] == pytest.approx(0.0)

    def test_orthogonal_is_one(self):
        out = cosine_block([[1.0, 0.0]], [[0.0, 3.0], [1.0, 1.0]])
        assert out[0, 0] == pytest.approx(1.0)

    def test_opposite_is_two(self):
        out = cosine_block([[1.0, 0.0]], [[-2.0, 0.0], [1.0, 1.0]])
        assert out[0, 0] == pytest.approx(2.0)

    def test_zero_norm_defined_as_one(self):
        out = cosine_block([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [0.0, 0.0]])
        assert out[0].tolist() == [1.0, 1.0]  # zero-norm term
        assert out[:, 1].tolist() == [1.0, 1.0]  # zero-norm label

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_block([[1.0]], [[1.0, 2.0], [2.0, 1.0]])

    def test_clip_to_range(self):
        # Normalised parallel and antiparallel rows can round to a
        # similarity just past +-1; the block clips it back into [0, 2].
        v = np.array(
            [[1.0, 1.0, 1.0], [-0.4529517073695439, 1.6798240956309836, -1.030009095804535]]
        )
        for scale in (1.0, 8.4988544520022, -1.0, -8.4988544520022):
            out = cosine_block(v, scale * v)
            assert np.all(out >= 0.0) and np.all(out <= 2.0)
            expected = 0.0 if scale > 0 else 2.0
            assert np.abs(np.diag(out) - expected).max() <= 1e-12

    @given(
        u=hnp.arrays(np.float64, (4, 3), elements=st.floats(-5, 5)),
        v=hnp.arrays(np.float64, (2, 3), elements=st.floats(-5, 5)),
    )
    def test_bounded(self, u, v):
        out = cosine_block(u, v)
        assert np.all(out >= 0.0) and np.all(out <= 2.0)

    @given(cosine_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_one_pair_reference(self, inputs):
        vecs, labels = inputs
        out = cosine_block(vecs, labels)
        assert out.shape == (len(vecs), len(labels))
        expected = np.array([[cosine_distance(u, v) for v in labels] for u in vecs])
        assert np.abs(out - expected).max() <= 1e-12
        # zero-norm rows and columns are exactly 1, not merely close
        assert np.all(out[~vecs.any(axis=1)] == 1.0)
        assert np.all(out[:, ~labels.any(axis=1)] == 1.0)


TWO_LABELS = ("bond", "option")
TWO_LABEL_VECTORS = np.array([[1.0, 0.0], [0.0, 1.0]])


class TestDistanceFeatures:
    def test_cosine_block(self):
        out = cosine_features(np.array([[1.0, 0.0], [0.0, 2.0]]), TWO_LABEL_VECTORS)
        assert out.shape == (2, 2)
        assert out.ravel() == pytest.approx([0.0, 1.0, 1.0, 0.0])

    def test_edit_block_lowercases(self):
        out = edit_features(["BOND"], TWO_LABELS)[0]
        assert out.tolist() == [0.0, levenshtein("bond", "option")]


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        X = np.array([[5.0, -1.0], [10.0, 3.0]])
        scaled = MinMaxScaler().fit(X).transform(X)
        assert scaled.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_constant_column_zero(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0]])
        scaled = MinMaxScaler().fit(X).transform(X)
        assert scaled[:, 0].tolist() == [0.0, 0.0]

    def test_out_of_range_not_clipped(self):
        scaler = MinMaxScaler().fit(np.array([[5.0], [10.0]]))
        assert scaler.transform(np.array([[15.0], [0.0]])).tolist() == [[3.0], [-3.0]]

    def test_one_dimensional_input_rejected(self):
        scaler = MinMaxScaler().fit(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="2-D"):
            scaler.transform(np.zeros(3))

    def test_column_mismatch(self):
        scaler = MinMaxScaler().fit(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((2, 4)))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler().transform(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            MinMaxScaler().state()

    def test_state_round_trip(self):
        X = np.array([[1.0, -2.0, 0.5], [4.0, 8.0, 0.5]])
        scaler = MinMaxScaler().fit(X)
        again = MinMaxScaler.from_state(scaler.state())
        assert np.array_equal(scaler.transform(X), again.transform(X))

    @pytest.mark.parametrize(
        "state",
        [
            {"mins": [0.0, math.nan], "maxs": [1.0, 1.0]},
            {"mins": [0.0, 0.0], "maxs": [1.0, math.inf]},
            {"mins": [-math.inf], "maxs": [1.0]},
            {"mins": [None], "maxs": [1.0]},
            {"mins": [True], "maxs": [1.0]},
            {"mins": ["1"], "maxs": [2.0]},
            {"mins": [0], "maxs": [10**400]},
            {"mins": [[0.0, 1.0]], "maxs": [[1.0, 2.0]]},
            {"mins": [0.0, 0.0], "maxs": [1.0]},
            {"mins": [0.0]},
            [[0.0], [1.0]],
        ],
        ids=[
            "nan", "inf", "-inf", "none", "bool", "str", "huge-int",
            "nested", "unequal", "no-maxs", "not-a-dict",
        ],
    )
    def test_bad_state_rejected(self, state):
        # a recorded state is read from frontend.json; -inf would make
        # transform return NaN
        with pytest.raises(ValueError, match="equal-length lists of finite numbers"):
            MinMaxScaler.from_state(state)

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 5)),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_training_cells_always_in_range(self, X):
        scaled = MinMaxScaler().fit(X).transform(X)
        assert np.all(scaled >= -1.0) and np.all(scaled <= 1.0)


ALL_ON = dict(hand=True, cosine=True, edit=True)


class TestAssembly:
    def setup_method(self):
        self.store = EmbeddingStore(
            ["bond", "option"], np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        self.labels = TWO_LABELS

    def test_feature_width_accounting(self):
        words = ["bond", "swap", "option", "future", "index"]
        store = EmbeddingStore(words, np.random.default_rng(0).normal(size=(5, 32)))

        def width(**blocks):
            return assemble_features(
                ["Bond Inc."], ["bond"], table(store, ["bond", *words]), words, **blocks
            ).shape[1]

        assert width(**ALL_ON) == 32 + 10 + 5 + 5
        assert width(hand=False, cosine=False, edit=False) == 32
        assert width() == 32
        assert width(hand=True, edit=True) == 47

    def test_block_layout(self):
        X = assemble_features(
            ["bond Inc."],
            ["bond"],
            table(self.store, ["bond", *self.labels]),
            self.labels,
            **ALL_ON,
        )
        assert X.shape == (1, 2 + 10 + 2 + 2)
        row = X[0]
        assert row[:2].tolist() == [1.0, 0.0]  # embedding of "bond"
        assert row[2:12].tolist() == handcrafted(["bond Inc."])[0].tolist()
        assert row[12:14] == pytest.approx([0.0, 1.0])  # cosine block
        assert row[14:16].tolist() == [0.0, levenshtein("bond", "option")]

    def test_raw_vs_text_split(self):
        # casing features come from raw; the embedding comes from text
        X = assemble_features(
            ["BOND"],
            ["option"],
            table(self.store, ["option", *self.labels]),
            self.labels,
            **ALL_ON,
        )
        row = X[0]
        assert row[:2].tolist() == [0.0, 1.0]
        assert row[2 + 8] == 4  # four uppercase characters in raw

    def test_rows_equal_single_row_assembly(self):
        rng = np.random.default_rng(3)
        store = EmbeddingStore(["bond", "option", "swap"], rng.normal(size=(3, 5)))
        labels = ["bond", "option", "swap"]
        raw = ["bond Inc.", "Option bond", "SWAP", "unknown"]
        texts = ["bond", "option bond", "swap. a bond", "unknown"]
        for blocks in (
            ALL_ON,
            dict(hand=False, cosine=False, edit=False),
            dict(hand=True, cosine=True, edit=False),
            dict(hand=False, cosine=False, edit=True),
        ):
            X = assemble_features(
                raw, texts, table(store, [*texts, *labels]), labels, **blocks
            )
            hand = 10 if blocks["hand"] else 0
            width = 5 + hand + 3 * (blocks["cosine"] + blocks["edit"])
            assert X.shape == (4, width)
            for i in range(4):
                one = assemble_features(
                    [raw[i]],
                    [texts[i]],
                    table(store, [texts[i], *labels]),
                    labels,
                    **blocks,
                )
                assert X[i].tobytes() == one[0].tobytes()

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            assemble_features(
                ["a"], [], table(self.store, self.labels), self.labels, **ALL_ON
            )
        with pytest.raises(ValueError):
            assemble_features([], [], table(self.store, self.labels), self.labels, **ALL_ON)

    def test_assembled_matrix_scales(self):
        m = assemble_features(
            ["bond", "option Inc."],
            ["bond", "option"],
            table(self.store, ["bond", "option", *self.labels]),
            self.labels,
            **ALL_ON,
        )
        scaler = MinMaxScaler().fit(m)
        X = scaler.transform(m)
        assert np.all(X >= -1.0) and np.all(X <= 1.0)
        assert scaler.n_features == X.shape[1] == m.shape[1]

    def test_cosine_block_embeds_multiword_labels(self):
        # a label's vector is the sum of its tokens' rows, as a term's is
        store = EmbeddingStore(["equity", "index"], np.array([[1.0, 0.0], [0.0, 1.0]]))
        labels = ["Equity Index", "equity"]
        texts = ["equity index", "index"]
        X = assemble_features(
            texts, texts, table(store, [*texts, *labels]), labels, cosine=True
        )
        expected = cosine_features(
            np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 0.0]])
        )
        assert X[:, 2:].tobytes() == expected.tobytes()
        assert X[0, 2:] == pytest.approx([0.0, 1.0 - 0.5**0.5])
