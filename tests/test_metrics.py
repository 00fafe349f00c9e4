"""Classification metrics against hand-computed and library-free oracles,
and the AUC and average ranks against scipy's rankdata."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from xaibench.data import to_record
from xaibench.metrics import (
    accuracy_score,
    average_ranks,
    classification_report,
    labels_from_proba,
    roc_auc_score,
)


def test_labels_from_proba_threshold():
    proba = np.array([0.0, 0.49, 0.5, 0.51, 1.0])
    assert list(labels_from_proba(proba)) == [0, 0, 1, 1, 1]


def test_accuracy():
    assert accuracy_score([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_roc_auc_perfect_and_reversed():
    y = np.array([0, 0, 1, 1])
    assert roc_auc_score(y, [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert roc_auc_score(y, [0.9, 0.8, 0.2, 0.1]) == 0.0


def test_roc_auc_hand_computed():
    # pairs: (pos, neg) comparisons = 2 * 2; wins: (0.8>0.1), (0.8>0.7),
    # (0.4>0.1); losses: (0.4<0.7) -> AUC = 3/4
    y = np.array([0, 1, 0, 1])
    proba = np.array([0.1, 0.8, 0.7, 0.4])
    assert roc_auc_score(y, proba) == 0.75


def test_roc_auc_ties_count_half():
    y = np.array([0, 1])
    proba = np.array([0.5, 0.5])
    assert roc_auc_score(y, proba) == 0.5


def test_roc_auc_degenerate_single_class():
    assert roc_auc_score(np.array([1, 1, 1]), np.array([0.2, 0.3, 0.4])) == 0.5


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), st.integers(1, 20), st.integers(0, 2 ** 32 - 1))
def test_roc_auc_matches_pair_counting_oracle(n, levels, seed):
    # probabilities on a coarse grid, so tied scores are common
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    y[:2] = [0, 1]  # both classes guaranteed
    proba = rng.integers(0, levels + 1, n) / levels
    pos = proba[y == 1]
    neg = proba[y == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert abs(roc_auc_score(y, proba) - wins / (len(pos) * len(neg))) <= 1e-12


def ref_roc_auc_rankdata(y_true, proba):
    """The AUC with scipy's rankdata for the average ranks."""
    y_true = np.asarray(y_true)
    n_pos = int(np.sum(y_true == 1))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = rankdata(np.asarray(proba, dtype=float))
    u = float(np.sum(ranks[y_true == 1])) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 300), st.integers(1, 12),
       st.sampled_from(["mixed", "all0", "all1"]))
def test_roc_auc_equals_rankdata_reference(data, n, levels, classes):
    # few distinct scores, so most rows sit in a tie group; some draws
    # carry a single class, or one row of the minority class
    if classes == "mixed":
        y = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    else:
        y = np.full(n, int(classes == "all1"))
    grid = data.draw(st.lists(st.floats(0, 1), min_size=levels, max_size=levels))
    proba = np.array(grid)[data.draw(arrays(np.int64, n, elements=st.integers(0, levels - 1)))]
    assert roc_auc_score(y, proba) == ref_roc_auc_rankdata(y, proba)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 8), st.integers(1, 12), st.integers(1, 6))
def test_average_ranks_equal_rankdata_over_tied_rows(data, rows, cols, levels):
    # the within-block ranks of the Friedman and Nemenyi tests: each row of a
    # few-valued table ranked on its own, -0.0 and 0.0 tying
    value = st.sampled_from([-0.0, 0.0, 0.25, -1.5, 1e300]) | st.floats(-1, 1)
    grid = data.draw(st.lists(value, min_size=levels, max_size=levels))
    values = np.array(grid)[data.draw(arrays(np.int64, (rows, cols),
                                             elements=st.integers(0, levels - 1)))]
    got = np.vstack([average_ranks(row) for row in values])
    want = rankdata(values, method="average", axis=1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_classification_report_values():
    y = np.array([1, 1, 0, 0, 1])
    proba = np.array([0.9, 0.4, 0.2, 0.7, 0.8])
    rep = classification_report(y, proba)
    # predictions: 1,0,0,1,1 -> tp=2 fp=1 fn=1 tn=1
    assert rep.accuracy == 0.6
    assert rep.precision == 2 / 3
    assert rep.recall == 2 / 3
    assert abs(rep.f1 - 2 / 3) <= 1e-12
    d = to_record(rep)
    assert set(d) == {"accuracy", "precision", "recall", "f1", "roc_auc"}


def test_zero_denominators_give_zero():
    # no positive predictions -> precision 0; no positive labels -> recall 0
    y = np.array([0, 0, 1])
    rep = classification_report(y, np.array([0.1, 0.1, 0.1]))
    assert rep.precision == 0.0
    assert rep.recall == 0.0
    assert rep.f1 == 0.0
