"""Metric definitions checked against exact-arithmetic counting oracles."""
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finhyp.evaluation import (
    EvalReport,
    accuracy,
    confusion_matrix,
    evaluate,
    macro_f1,
    mean_rank,
    stratified_kfold,
)


def oracle_accuracy(preds, gold):
    return Fraction(sum(p[0] == g for p, g in zip(preds, gold)), len(gold))


def oracle_rank(pred, gold):
    for i in range(min(3, len(pred))):
        if pred[i] == gold:
            return i + 1
    return 4


def oracle_mean_rank(preds, gold):
    return Fraction(sum(oracle_rank(p, g) for p, g in zip(preds, gold)), len(gold))


def oracle_macro_f1(preds, gold, k):
    tp, fp, fn = Counter(), Counter(), Counter()
    for p, g in zip(preds, gold):
        if p[0] == g:
            tp[g] += 1
        else:
            fp[p[0]] += 1
            fn[g] += 1
    total = Fraction(0)
    for c in range(k):
        denom = 2 * tp[c] + fp[c] + fn[c]
        if denom:
            total += Fraction(2 * tp[c], denom)
    return total / k


def random_predictions(rng, n, k):
    gold = rng.integers(0, k, size=n).tolist()
    preds = []
    for _ in range(n):
        preds.append(rng.permutation(k)[:3].tolist())
    return preds, gold


class TestAgainstOracles:
    def test_hundred_random_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 8))
            preds, gold = random_predictions(rng, n, k)
            assert accuracy(preds, gold) == float(oracle_accuracy(preds, gold))
            assert mean_rank(preds, gold) == float(oracle_mean_rank(preds, gold))
            macro, _ = macro_f1(preds, gold, k)
            assert macro == pytest.approx(
                float(oracle_macro_f1(preds, gold, k)), abs=1e-12
            )

    def test_hundred_random_sets_as_arrays(self):
        # the (N, <=3) int array the pipeline passes scores as its lists do
        rng = np.random.default_rng(99)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(2, 8))
            preds, gold = random_predictions(rng, n, k)
            P, g = np.array(preds), np.array(gold)
            assert accuracy(P, g) == float(oracle_accuracy(preds, gold))
            assert mean_rank(P, g) == float(oracle_mean_rank(preds, gold))
            macro, per_class = macro_f1(P, g, k)
            assert macro == pytest.approx(
                float(oracle_macro_f1(preds, gold, k)), abs=1e-12
            )
            list_macro, list_per_class = macro_f1(preds, gold, k)
            assert macro == list_macro
            assert np.array_equal(per_class, list_per_class)
            assert np.array_equal(
                confusion_matrix(P, g, k), confusion_matrix(preds, gold, k)
            )

    def test_rank_mixture_is_seven_thirds(self):
        # gold seen at ranks 1, 2 and 4 averages to 7/3
        preds = [[0, 9, 9], [9, 0, 9], [9, 9, 9]]
        gold = [0, 0, 0]
        assert mean_rank(preds, gold) == pytest.approx(7 / 3)

    def test_all_hits_rank_one(self):
        preds = [[1, 0, 2]] * 5
        assert mean_rank(preds, [1] * 5) == 1.0
        assert accuracy(preds, [1] * 5) == 1.0

    def test_all_misses_rank_four(self):
        preds = [[0, 1, 2]] * 4
        assert mean_rank(preds, [3] * 4) == 4.0
        assert accuracy(preds, [3] * 4) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            preds, gold = random_predictions(rng, int(rng.integers(1, 30)), 5)
            mr = mean_rank(preds, gold)
            assert 1.0 <= mr <= 4.0
            assert 0.0 <= accuracy(preds, gold) <= 1.0

    def test_alignment_and_empty_errors(self):
        with pytest.raises(ValueError):
            accuracy([[0]], [0, 1])
        with pytest.raises(ValueError):
            mean_rank([], [])
        with pytest.raises(ValueError):
            accuracy([], [])


class TestMacroF1:
    def test_unseen_class_scores_zero(self):
        # class 2 never appears in gold or predictions: contributes 0
        preds = [[0, 1, 2], [1, 0, 2]]
        gold = [0, 1]
        macro, per_class = macro_f1(preds, gold, 3)
        assert per_class.tolist() == [1.0, 1.0, 0.0]
        assert macro == pytest.approx(2 / 3)

    def test_zero_denominator_class(self):
        preds = [[0, 1, 2]]
        gold = [0]
        _, per_class = macro_f1(preds, gold, 4)
        assert per_class[1] == 0.0
        assert per_class[2] == 0.0
        assert per_class[3] == 0.0

    def test_known_value(self):
        # class 0: tp=1 fp=1 fn=0 -> 2/3; class 1: tp=0 fp=0 fn=1 -> 0
        preds = [[0], [0]]
        gold = [0, 1]
        macro, per_class = macro_f1(preds, gold, 2)
        assert per_class[0] == pytest.approx(2 / 3)
        assert per_class[1] == 0.0
        assert macro == pytest.approx(1 / 3)


class TestConfusion:
    def test_row_sums_match_gold_counts(self):
        rng = np.random.default_rng(11)
        preds, gold = random_predictions(rng, 50, 4)
        m = confusion_matrix(preds, gold, 4)
        counts = Counter(gold)
        for c in range(4):
            assert m[c].sum() == counts[c]
        assert m.sum() == 50

    def test_diagonal_counts_hits(self):
        preds = [[0], [1], [0]]
        gold = [0, 1, 1]
        m = confusion_matrix(preds, gold, 2)
        assert m[0, 0] == 1 and m[1, 1] == 1 and m[1, 0] == 1

    def test_label_outside_class_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            confusion_matrix([[2]], [0], 2)
        with pytest.raises(ValueError, match="outside"):
            confusion_matrix([[0]], [-1], 2)


class TestStratifiedKfold:
    def test_class_of_eight_across_five_folds(self):
        folds = stratified_kfold([0] * 8, 5, seed=0)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [1, 1, 2, 2, 2]

    def test_large_class_balance(self):
        folds = stratified_kfold([0] * 286, 5, seed=1)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [57, 57, 57, 57, 58]

    def test_partition_and_per_class_balance(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 6, size=200).tolist()
        folds = stratified_kfold(labels, 5, seed=7)
        allidx = np.concatenate(folds)
        assert np.array_equal(np.sort(allidx), np.arange(200))
        for c in range(6):
            per_fold = [sum(1 for i in f if labels[i] == c) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic(self):
        labels = [0, 1, 2] * 20
        a = stratified_kfold(labels, 4, seed=13)
        b = stratified_kfold(labels, 4, seed=13)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_seed_changes_assignment(self):
        labels = [0, 1] * 30
        a = stratified_kfold(labels, 5, seed=0)
        b = stratified_kfold(labels, 5, seed=1)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))

    def test_validation(self):
        with pytest.raises(ValueError):
            stratified_kfold([0, 1], 1, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold([0, 1], 3, seed=0)

    @given(
        st.lists(st.integers(0, 4), min_size=6, max_size=60),
        st.integers(2, 6),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_partition(self, labels, k, seed):
        if k > len(labels):
            return
        folds = stratified_kfold(labels, k, seed)
        allidx = np.concatenate([f for f in folds if len(f)])
        assert np.array_equal(np.sort(allidx), np.arange(len(labels)))


class TestReport:
    def make_report(self):
        preds = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]]
        gold = [0, 1, 0, 2]
        return evaluate(preds, gold, ("alpha", "beta", "gamma"))

    def test_fields(self):
        r = self.make_report()
        assert r.n == 4
        assert r.accuracy == 0.5
        assert len(r.per_class_f1) == 3
        assert len(r.confusion) == 3

    def test_text_format_stable(self):
        r = self.make_report()
        text = r.to_text()
        assert text.startswith("n: 4\n")
        assert "accuracy: 0.500000" in text
        assert "f1[alpha]:" in text
        assert "confusion[gamma]:" in text
        assert text.endswith("\n")
        assert r.to_text() == text

    def test_json_round_trip(self):
        import json

        r = self.make_report()
        data = json.loads(json.dumps(r.to_json_dict()))
        assert data["labels"] == ["alpha", "beta", "gamma"]
        assert data["accuracy"] == r.accuracy
        assert data["confusion"][0][0] == r.confusion[0][0]
        assert data == r.to_json_dict()

    def test_is_frozen(self):
        r = self.make_report()
        with pytest.raises(AttributeError):
            r.accuracy = 0.9
