"""Hand-crafted features, distance features, scaling and row assembly."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finhyp.distance import levenshtein
from finhyp.embeddings import EmbeddingStore
from finhyp.features import (
    DEFAULT_INDICATORS,
    FeatureConfig,
    HandcraftedConfig,
    LabelSet,
    MinMaxScaler,
    assemble_features,
    build_features,
    cosine_features,
    edit_features,
    feature_width,
    handcrafted,
)


class TestHandcrafted:
    def test_default_indicator_count(self):
        assert len(DEFAULT_INDICATORS) == 7
        assert "Inc." in DEFAULT_INDICATORS

    def test_apple_inc(self):
        row = handcrafted("Apple Inc.")
        # indicators: only "Inc." fires
        assert row[:7].tolist() == [1, 0, 0, 0, 0, 0, 0]
        assert row[7] == len("Apple Inc.")  # 10 characters
        assert row[8] == 2  # A, I
        assert row[9] == pytest.approx(2 / 6)

    def test_case_sensitive_substring(self):
        assert handcrafted("apple inc.")[:7].tolist() == [0] * 7

    def test_all_upper_ratio_guard(self):
        row = handcrafted("ABC")
        assert row[7] == 3 and row[8] == 3 and row[9] == 3.0

    def test_width_is_ten(self):
        assert handcrafted("x").shape == (10,)

    def test_custom_indicators_require_seven(self):
        with pytest.raises(ValueError):
            HandcraftedConfig(("Inc.",))

    def test_custom_indicators(self):
        cfg = HandcraftedConfig(("aa", "bb", "cc", "dd", "ee", "ff", "gg"))
        assert handcrafted("xxbbxx", cfg)[:7].tolist() == [0, 1, 0, 0, 0, 0, 0]


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
    label_vecs = np.asarray(label_vecs, dtype=np.float64)
    names = [f"l{j}" for j in range(len(label_vecs))]
    return cosine_features(np.asarray(vecs, dtype=np.float64), LabelSet(names, label_vecs))


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


def two_label_set():
    return LabelSet(["bond", "option"], np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestLabelSet:
    def test_requires_two(self):
        with pytest.raises(ValueError):
            LabelSet(["only"], np.zeros((1, 2)))

    def test_unique(self):
        with pytest.raises(ValueError):
            LabelSet(["a", "a"], np.zeros((2, 2)))

    def test_index_follows_order(self):
        labels = two_label_set()
        assert labels.index("bond") == 0
        assert labels.index("option") == 1

    def test_build_embeds_multiword_labels(self):
        store = EmbeddingStore(
            ["equity", "index"], np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        ls = LabelSet.build(["Equity Index", "equity"], store)
        assert np.array_equal(ls.vectors[0], [1.0, 1.0])
        assert np.array_equal(ls.vectors[1], [1.0, 0.0])


class TestDistanceFeatures:
    def test_cosine_block(self):
        out = cosine_features(np.array([[1.0, 0.0], [0.0, 2.0]]), two_label_set())
        assert out.shape == (2, 2)
        assert out.ravel() == pytest.approx([0.0, 1.0, 1.0, 0.0])

    def test_edit_block_lowercases(self):
        out = edit_features(["BOND"], two_label_set())[0]
        assert out.tolist() == [0.0, levenshtein("bond", "option")]


class TestMinMaxScaler:
    def test_maps_to_unit_interval(self):
        X = np.array([[5.0, -1.0], [10.0, 3.0]])
        scaled = MinMaxScaler().fit_transform(X)
        assert scaled.tolist() == [[-1.0, -1.0], [1.0, 1.0]]

    def test_constant_column_zero(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0]])
        scaled = MinMaxScaler().fit_transform(X)
        assert scaled[:, 0].tolist() == [0.0, 0.0]

    def test_out_of_range_not_clipped(self):
        scaler = MinMaxScaler().fit(np.array([[5.0], [10.0]]))
        assert scaler.transform(np.array([15.0])).tolist() == [3.0]
        assert scaler.transform(np.array([0.0])).tolist() == [-3.0]

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

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 5)),
            elements=st.floats(-1e6, 1e6),
        )
    )
    def test_training_cells_always_in_range(self, X):
        scaled = MinMaxScaler().fit_transform(X)
        assert np.all(scaled >= -1.0) and np.all(scaled <= 1.0)


ALL_ON = FeatureConfig(handcrafted=HandcraftedConfig(), cosine=True, edit=True)


class TestAssembly:
    def setup_method(self):
        self.store = EmbeddingStore(
            ["bond", "option"], np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        self.labels = LabelSet.build(["bond", "option"], self.store)

    def test_feature_width_accounting(self):
        assert feature_width(300, 17, ALL_ON) == 300 + 10 + 17 + 17
        off = FeatureConfig(handcrafted=None, cosine=False, edit=False)
        assert feature_width(300, 17, off) == 300
        assert feature_width(32, 5, FeatureConfig(HandcraftedConfig(), False, True)) == 47

    def test_block_layout(self):
        X = assemble_features(
            ["bond Inc."], ["bond"], self.store, None, self.labels, ALL_ON
        )
        assert X.shape == (1, 2 + 10 + 2 + 2)
        row = X[0]
        assert row[:2].tolist() == [1.0, 0.0]  # embedding of "bond"
        assert row[2:12].tolist() == handcrafted("bond Inc.").tolist()
        assert row[12:14] == pytest.approx([0.0, 1.0])  # cosine block
        assert row[14:16].tolist() == [0.0, levenshtein("bond", "option")]

    def test_raw_vs_text_split(self):
        # casing features come from raw; the embedding comes from text
        X = assemble_features(
            ["BOND"], ["option"], self.store, None, self.labels, ALL_ON
        )
        row = X[0]
        assert row[:2].tolist() == [0.0, 1.0]
        assert row[2 + 8] == 4  # four uppercase characters in raw

    def test_rows_equal_single_row_assembly(self):
        rng = np.random.default_rng(3)
        store = EmbeddingStore(["bond", "option", "swap"], rng.normal(size=(3, 5)))
        labels = LabelSet.build(["bond", "option", "swap"], store)
        raw = ["bond Inc.", "Option bond", "SWAP", "unknown"]
        texts = ["bond", "option bond", "swap. a bond", "unknown"]
        for fcfg in (
            ALL_ON,
            FeatureConfig(),
            FeatureConfig(HandcraftedConfig(), True, False),
            FeatureConfig(None, False, True),
        ):
            X = assemble_features(raw, texts, store, None, labels, fcfg)
            assert X.shape == (4, feature_width(5, 3, fcfg))
            for i in range(4):
                one = assemble_features([raw[i]], [texts[i]], store, None, labels, fcfg)
                assert X[i].tobytes() == one[0].tobytes()

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            assemble_features(["a"], [], self.store, None, self.labels, ALL_ON)
        with pytest.raises(ValueError):
            assemble_features([], [], self.store, None, self.labels, ALL_ON)

    def test_build_features_scales(self):
        X, scaler = build_features(
            ["bond", "option Inc."],
            ["bond", "option"],
            self.store,
            None,
            self.labels,
            ALL_ON,
        )
        assert np.all(X >= -1.0) and np.all(X <= 1.0)
        assert scaler.n_features == X.shape[1]
