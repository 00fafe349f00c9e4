"""Oracle tests for the rewritten kernels: the tree split search, the 3PL
EM fit, kNN neighbour selection, the MLP minibatch loop and kernel SHAP.
The references below are the original per-feature split loop, the
stable-argsort kNN, the per-batch index MLP loop and the loop-built
coalitions with a diagonal weight matrix; the rewrites evaluate the same
points with the same arithmetic, so results must match exactly, not within
a tolerance.  kNN's ``predict_blends`` must give ``predict_proba``'s
probabilities on the materialized coalition blends, and their squared
distances, byte for byte.  The exception is the Gini reference: CART grows
its tree with the squared-error search, whose gain is n/2 times the Gini
gain on 0/1 labels up to rounding, so its splits are held to the Gini
reference's best gain within 1e-12, at the root and at every node.  The
tree builder sorts each feature once and filters each child's order from
its parent's; it is held, tree for tree and bit for bit, to a builder that
masks each child's rows and sorts every node afresh.

The 3PL fit is held to a loop over respondents and grid nodes that
recomputes its marginal log posterior and abilities from its item
parameters, to a central difference of its M-step score, and to the
generalized-EM properties: the marginal log posterior never decreases, and
the fit stops exactly when an iteration gains less than ``TOL``.

``MultilayerPerceptron.fit_many`` trains K nets in lockstep with stacked
(K, bs, m) matmuls, and its test holds each net to the single-net reference.
That a stacked ``np.matmul`` equals the 2-D product of each slice bit for
bit is a property of this numpy/OpenBLAS build (numpy hands each slice to
the same BLAS call), not something numpy guarantees; that test is what
guards it.  kNN's squared distances need no such guard: plain rows and
coalitions go through one plan on the tree ``_sum_order`` builds, and the
oracle sums that tree one node at a time."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from xaibench import irt
from xaibench.data import to_record
from xaibench.explainers import (
    EXACT_SHAP_LIMIT,
    ExplainerConfig,
    ExplainerError,
    shapley_values,
)
from xaibench.irt import (
    A_BOUNDS,
    B_BOUNDS,
    C_BOUNDS,
    IrtError,
    ResponseMatrix,
    fit_3pl,
    p_correct,
)
from xaibench.models import knn
from xaibench.models.gbt import GradientBoostedTrees
from xaibench.models.knn import KNearestNeighbors
from xaibench.models.mlp import MultilayerPerceptron, sigmoid
from xaibench.models.tree import (
    _GAIN_TOL,
    DecisionTreeClassifier,
    _best_split,
    feature_order,
    regression_tree,
    tree_predict,
)
from xaibench.seeding import rng_for

from conftest import as_trained


# --- reference split search: one feature at a time ------------------------

def ref_split_classification(x, y, min_leaf):
    n, m = x.shape
    total_pos = float(np.sum(y))
    p = total_pos / n
    parent_gini = 2.0 * p * (1.0 - p)
    best = None
    for j in range(m):
        col = x[:, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ys = y[order]
        valid = np.flatnonzero(cs[:-1] < cs[1:])
        if valid.size == 0:
            continue
        left_n = valid + 1
        right_n = n - left_n
        ok = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not np.any(ok):
            continue
        valid = valid[ok]
        left_n = left_n[ok]
        right_n = right_n[ok]
        left_pos = np.cumsum(ys)[valid]
        right_pos = total_pos - left_pos
        pl = left_pos / left_n
        pr = right_pos / right_n
        weighted = (left_n * 2 * pl * (1 - pl) + right_n * 2 * pr * (1 - pr)) / n
        gain = parent_gini - weighted
        k = int(np.argmax(gain >= gain.max() - _GAIN_TOL))  # first near-best
        if gain[k] > _GAIN_TOL:
            thr = 0.5 * (cs[valid[k]] + cs[valid[k] + 1])
            if best is None or gain[k] > best[2] + _GAIN_TOL:
                best = (j, float(thr), float(gain[k]))
    return best


def ref_split_regression(x, y, min_leaf):
    n, m = x.shape
    total = float(np.sum(y))
    total2 = float(np.sum(y * y))
    parent_sse = total2 - total * total / n
    best = None
    for j in range(m):
        col = x[:, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ys = y[order]
        valid = np.flatnonzero(cs[:-1] < cs[1:])
        if valid.size == 0:
            continue
        left_n = valid + 1
        right_n = n - left_n
        ok = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not np.any(ok):
            continue
        valid = valid[ok]
        left_n = left_n[ok]
        right_n = right_n[ok]
        left_sum = np.cumsum(ys)[valid]
        left_sum2 = np.cumsum(ys * ys)[valid]
        right_sum = total - left_sum
        right_sum2 = total2 - left_sum2
        sse = (left_sum2 - left_sum ** 2 / left_n) + (right_sum2 - right_sum ** 2 / right_n)
        gain = parent_sse - sse
        k = int(np.argmax(gain >= gain.max() - _GAIN_TOL))  # first near-best
        if gain[k] > _GAIN_TOL:
            thr = 0.5 * (cs[valid[k]] + cs[valid[k] + 1])
            if best is None or gain[k] > best[2] + _GAIN_TOL:
                best = (j, float(thr), float(gain[k]))
    return best


@st.composite
def split_problems(draw):
    """Integer-valued features (many ties), some columns constant."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 6))
    x = draw(arrays(np.int64, (n, m), elements=st.integers(0, levels - 1))).astype(float)
    for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        x[:, j] = x[0, j]
    min_leaf = draw(st.integers(1, 5))
    return x, min_leaf


def labels_for(x, data):
    return data.draw(arrays(np.int64, x.shape[0], elements=st.integers(0, 1))).astype(float)


def best_split(x, y, min_leaf):
    """``_best_split`` of the whole block (x, y), sorted here."""
    return _best_split(x, y, y, feature_order(x), min_leaf)


@settings(max_examples=300, deadline=None)
@given(split_problems(), st.data())
def test_cart_root_split_has_the_best_gini_gain(problem, data):
    """On 0/1 labels the weighted Gini decrease is 2/n times the
    squared-error decrease, so the one split search finds the Gini-best
    split, and finds none exactly when the Gini search finds none."""
    x, min_leaf = problem
    y = labels_for(x, data)
    got = best_split(x, y, min_leaf)
    want = ref_split_classification(x, y, min_leaf)
    assert (got is None) == (want is None)
    if got is not None:
        assert abs(got[2] * 2 / len(y) - want[2]) <= 1e-12


def gini_gain(x, y, feature, threshold):
    """Weighted Gini decrease of one split of the rows (x, y)."""
    def impurity(labels):
        p = float(np.mean(labels))
        return 2.0 * p * (1.0 - p)
    left = x[:, feature] <= threshold
    return impurity(y) - (left.sum() * impurity(y[left])
                          + (~left).sum() * impurity(y[~left])) / len(y)


@settings(max_examples=300, deadline=None)
@given(split_problems(), st.sampled_from([None, 1, 2, 3]), st.data())
def test_cart_splits_every_node_by_its_best_gini_gain(problem, max_depth, data):
    x, min_leaf = problem
    y = labels_for(x, data)
    tree = DecisionTreeClassifier(max_depth, min_leaf).fit(x, y)

    def walk(node, rows, depth):
        xs, ys = x[rows], y[rows]
        best = ref_split_classification(xs, ys, min_leaf)
        stop = (np.all(ys == ys[0]) or len(ys) < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth))
        assert ("value" in node) == (stop or best is None)
        if "value" in node:
            assert node["value"] == float(np.mean(ys))
            return
        assert abs(gini_gain(xs, ys, node["feature"], node["threshold"]) - best[2]) <= 1e-12
        left = x[:, node["feature"]] <= node["threshold"]
        walk(node["left"], rows & left, depth + 1)
        walk(node["right"], rows & ~left, depth + 1)

    walk(tree.root, np.ones(len(y), dtype=bool), 0)


@settings(max_examples=300, deadline=None)
@given(split_problems(), st.data())
def test_regression_split_matches_reference(problem, data):
    x, min_leaf = problem
    y = data.draw(arrays(np.float64, x.shape[0], elements=st.floats(
        -2.0, 2.0, allow_nan=False, allow_infinity=False)))
    assert best_split(x, y, min_leaf) == ref_split_regression(x, y, min_leaf)


def test_split_ties_pick_lowest_feature_then_lowest_threshold():
    # both features separate y perfectly with equal gain; feature 0 wins
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert best_split(x, y, 1) == (0, 1.5, 1.0)
    # thresholds 0.5 and 2.5 of one feature tie exactly; the lower one wins
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    got = best_split(x, y, 1)
    assert got[:2] == (0, 0.5)
    assert got == ref_split_regression(x, y, 1)


def test_split_ties_within_a_feature_ignore_rounding_noise():
    # thresholds 0.5 and 2.5 tie in exact arithmetic (y is a palindrome), but
    # rounding puts 2.5 ahead by 2.2e-16; the tie goes to the lower threshold
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.1, 1.1, 1.1, 0.1])
    total, total2, left_n = y.sum(), (y * y).sum(), np.arange(1, 4)
    left_sum, left_sum2 = np.cumsum(y)[:-1], np.cumsum(y * y)[:-1]
    gain = (total2 - total * total / 4) - ((left_sum2 - left_sum ** 2 / left_n)
                                           + ((total2 - left_sum2)
                                              - (total - left_sum) ** 2 / (4 - left_n)))
    assert 0 < gain[2] - gain[0] < _GAIN_TOL
    assert best_split(x, y, 1) == (0, 0.5, gain[0])
    assert best_split(x, y, 1) == ref_split_regression(x, y, 1)


# --- reference builder: every node masks its rows and sorts them afresh ----

def ref_regression_tree(x, grad, hess, max_depth, min_leaf):
    """``regression_tree`` as it was before presorting: each child gets its
    rows by a boolean mask, and each node's split search sorts its own block
    (here the one-feature-at-a-time reference)."""
    best = None
    if max_depth > 0 and len(grad) >= 2 * min_leaf and not np.all(grad == grad[0]):
        best = ref_split_regression(x, grad, min_leaf)
    if best is None:
        return {"value": float(np.sum(grad) / max(float(np.sum(hess)), 1e-12))}
    j, thr, _ = best
    mask = x[:, j] <= thr
    return {
        "feature": j,
        "threshold": thr,
        "left": ref_regression_tree(x[mask], grad[mask], hess[mask], max_depth - 1, min_leaf),
        "right": ref_regression_tree(x[~mask], grad[~mask], hess[~mask], max_depth - 1,
                                     min_leaf),
    }


@st.composite
def tree_problems(draw):
    """Integer features with 1-7 levels (ties), some columns constant, up to
    250 rows, and either 0/1 labels with unit hessians (the CART case) or
    real gradients with hessians in (0, 1/4] (the boosting case)."""
    n = draw(st.integers(2, 250))
    m = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 7))
    x = draw(arrays(np.int64, (n, m), elements=st.integers(0, levels - 1))).astype(float)
    for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        x[:, j] = x[0, j]
    if draw(st.booleans()):
        grad = draw(arrays(np.int64, n, elements=st.integers(0, 1))).astype(float)
        hess = np.ones(n)
    else:
        grad = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
        hess = draw(arrays(np.float64, n, elements=st.floats(1e-3, 0.25)))
    return x, grad, hess


@settings(max_examples=300, deadline=None)
@given(tree_problems(), st.sampled_from([1, 2, 3, 5, None]), st.integers(1, 5))
def test_presorted_builder_matches_sorting_every_node(problem, max_depth, min_leaf):
    x, grad, hess = problem
    depth = len(grad) if max_depth is None else max_depth
    got = regression_tree(x, grad, hess, feature_order(x), depth, min_leaf)
    assert json.dumps(got) == json.dumps(ref_regression_tree(x, grad, hess, depth, min_leaf))


@settings(max_examples=60, deadline=None)
@given(tree_problems(), st.integers(1, 8), st.integers(1, 3), st.integers(1, 5))
def test_boosted_fit_matches_rounds_that_sort_every_node(problem, n_rounds, max_depth,
                                                         min_leaf):
    x, grad, _ = problem
    y = (grad > 0).astype(float)
    model = GradientBoostedTrees(n_rounds, 0.1, max_depth, min_leaf).fit(x, y)
    want = GradientBoostedTrees(n_rounds, 0.1, max_depth, min_leaf, model.base_score)
    f = np.full(len(y), want.base_score)
    for _ in range(n_rounds):
        p = sigmoid(f)
        tree = ref_regression_tree(x, y - p, p * (1 - p), max_depth, min_leaf)
        f = f + 0.1 * tree_predict(tree, x)
        want.trees.append(tree)
    assert json.dumps(to_record(model)) == json.dumps(to_record(want))


def tree_leaves(node):
    if "value" in node:
        return [node]
    return tree_leaves(node["left"]) + tree_leaves(node["right"])


def test_a_fit_sorts_each_feature_once(monkeypatch):
    """The boosted fit sorts x once for all its rounds, and CART once for
    all its nodes; every node reuses that order."""
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    rng = np.random.default_rng(0)
    x = rng.integers(0, 6, size=(200, 4)).astype(float)
    y = (x[:, 0] + x[:, 1] + rng.integers(0, 4, 200) > 6).astype(float)
    model = GradientBoostedTrees(20, 0.1, 3, 1).fit(x, y)
    assert calls == [(4, 200)] and len(model.trees) == 20
    calls.clear()
    tree = DecisionTreeClassifier(None).fit(x, y)
    assert calls == [(4, 200)] and len(tree_leaves(tree.root)) > 20


# --- 3PL EM: a loop over respondents and grid nodes is the E-step oracle --

@st.composite
def response_matrices(draw):
    """Random 0/1 matrices, with some rows and columns forced all-0 or all-1."""
    r, n = draw(st.integers(2, 30)), draw(st.integers(2, 40))
    u = draw(arrays(np.int64, (r, n), elements=st.integers(0, 1)))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=3)):
        u[i, :] = draw(st.integers(0, 1))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        u[:, j] = draw(st.integers(0, 1))
    return ResponseMatrix(u)


def ref_log_prior(a, b, c):
    return sum(-0.5 * ((ai - irt.PRIOR_A[0]) / irt.PRIOR_A[1]) ** 2
               - 0.5 * ((bi - irt.PRIOR_B[0]) / irt.PRIOR_B[1]) ** 2
               - irt.PENALTY_WEIGHT * (ci - irt.ANCHOR_C) ** 2
               for ai, bi, ci in zip(a, b, c))


def ref_e_step(u, a, b, c):
    """Marginal log posterior and EAP abilities of the items (a, b, c), one
    respondent and one standard-normal-weighted grid node at a time."""
    grid = np.linspace(-4.0, 4.0, 41)
    weights = [math.exp(-0.5 * g * g) for g in grid]
    clip = irt._PROB_CLIP
    hits = [np.clip(p_correct(a, b, c, g), clip, 1.0 - clip).tolist() for g in grid]
    total, theta = ref_log_prior(a, b, c), []
    for row in u.tolist():
        joint = [math.log(w / sum(weights))
                 + sum(math.log(p if hit else 1.0 - p) for hit, p in zip(row, node))
                 for w, node in zip(weights, hits)]
        peak = max(joint)
        mass = [math.exp(j - peak) for j in joint]
        total += peak + math.log(sum(mass))
        theta.append(sum(m * g for m, g in zip(mass, grid)) / sum(mass))
    return total, theta


@settings(max_examples=40, deadline=None)
@given(response_matrices(), st.integers(1, 5))
def test_fit_3pl_e_step_matches_a_loop_over_respondents_and_nodes(responses, max_outer):
    fit = fit_3pl(responses, max_outer=max_outer)
    log_posterior, theta = ref_e_step(responses.entries, fit.a, fit.b, fit.c)
    assert abs(fit.history[-1] - log_posterior) <= 1e-9
    assert np.max(np.abs(fit.theta - theta)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(response_matrices(), st.integers(1, 50))
def test_fit_3pl_is_monotone_and_stops_on_its_first_small_gain(responses, max_outer):
    fit = fit_3pl(responses, max_outer=max_outer)
    u = responses.entries
    easiness = np.clip(u.mean(axis=0), 1e-3, 1 - 1e-3)
    start, _ = ref_e_step(u, np.ones(u.shape[1]),
                          np.clip(-np.log(easiness / (1 - easiness)), *B_BOUNDS),
                          np.full(u.shape[1], irt.ANCHOR_C))
    gains = np.diff([start, *fit.history])
    assert np.all(np.diff(fit.history) >= -1e-9)  # the slack bench/check.py allows
    assert fit.iterations == len(fit.history)
    assert np.all(gains[:-1] >= irt.TOL)
    assert fit.converged == (gains[-1] < irt.TOL)
    assert fit.converged or fit.iterations == max_outer


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_m_step_score_is_the_gradient_and_the_information_is_positive_definite(data):
    n_items = data.draw(st.integers(1, 6))
    h = 1e-6

    def inside(lo, hi):  # h away from the bounds, so x +- h stays in the box
        return data.draw(arrays(np.float64, n_items, elements=st.floats(lo + 2 * h, hi - 2 * h)))

    # c >= 0.01: as P nears c -> 0, the central difference's own error grows like 1/P^3
    x = np.stack([inside(*A_BOUNDS), inside(*B_BOUNDS), inside(0.01, C_BOUNDS[1])])
    g = len(irt.GRID)
    n = data.draw(arrays(np.float64, g, elements=st.floats(0.0, 30.0)))
    r = n[:, None] * data.draw(arrays(np.float64, (g, n_items), elements=st.floats(0.0, 1.0)))
    score, info = irt._score_information(x, n, r)
    p, _ = irt._grid_probabilities(x)
    # the central difference's rounding: log P and log(1 - P) lose eps / P and
    # eps / (1 - P), which matters next to the clip
    rounding = 4 * np.finfo(float).eps / h * (n[:, None] / np.minimum(p, 1 - p)).sum(axis=0)
    for k in range(3):
        e = np.zeros((3, 1))
        e[k] = h
        # the clip is a kink: compare only where no node crosses it
        assume(np.array_equal(irt._grid_probabilities(x + e)[1],
                              irt._grid_probabilities(x - e)[1]))
        central = (irt._expected_log_posterior(x + e, n, r)
                   - irt._expected_log_posterior(x - e, n, r)) / (2 * h)
        assert np.all(np.abs(score[k] - central) <= 1e-5 * np.abs(central) + 1e-4 + rounding)
    assert np.array_equal(info, info.transpose(0, 2, 1))
    assert np.all(np.linalg.eigvalsh(info) > 0)


@settings(max_examples=40, deadline=None)
@given(response_matrices(), st.integers(1, 5), st.data())
def test_identical_response_rows_get_bit_equal_abilities(responses, max_outer, data):
    u = responses.entries
    copies = data.draw(st.lists(st.integers(0, len(u) - 1), min_size=1, max_size=10))
    u = np.vstack([u, u[copies]])
    theta = fit_3pl(ResponseMatrix(u), max_outer=max_outer).theta
    _, group = np.unique(u, axis=0, return_inverse=True)
    for k in np.unique(group):
        assert len({t.tobytes() for t in theta[group.ravel() == k]}) == 1


def test_fit_3pl_refuses_no_iterations():
    with pytest.raises(IrtError, match="max_outer"):
        fit_3pl(ResponseMatrix(np.eye(3, dtype=int)), max_outer=0)


# --- reference kNN: full stable argsort of every distance row -------------

def ref_knn_predict_proba(x_train, y_train, k, x):
    k = min(k, len(y_train))
    d2 = ((x[:, None, :] - x_train[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return y_train[nearest].mean(axis=1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_predict_proba_matches_reference(data):
    # integer features on a small grid: many distances tie, also at the k-th
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 35))  # k >= n_train included
    grid = st.integers(0, 2)
    x_train = data.draw(arrays(np.int64, (n, m), elements=grid)).astype(float)
    y_train = data.draw(arrays(np.int64, n, elements=st.integers(0, 1))).astype(float)
    x = data.draw(arrays(np.int64, (data.draw(st.integers(1, 20)), m),
                         elements=grid)).astype(float)
    got = KNearestNeighbors(k).fit(x_train, y_train).predict_proba(x)
    assert got.tolist() == ref_knn_predict_proba(x_train, y_train, k, x).tolist()


def test_knn_ties_at_the_kth_distance_take_the_earliest_rows():
    # rows 1-3 tie at distance 1 from the query; k=2 takes row 0 then row 1
    x_train = np.array([[0.0], [1.0], [-1.0], [1.0]])
    y_train = np.array([0.0, 1.0, 0.0, 0.0])
    got = KNearestNeighbors(2).fit(x_train, y_train).predict_proba(np.array([[0.0]]))
    assert got.tolist() == [0.5]
    assert got.tolist() == ref_knn_predict_proba(x_train, y_train, 2, np.array([[0.0]])).tolist()


def test_knn_chunks_match_reference():
    rng = np.random.default_rng(0)
    x_train = rng.integers(0, 3, size=(40, 3)).astype(float)
    y_train = rng.integers(0, 2, size=40).astype(float)
    x = rng.integers(0, 3, size=(600, 3)).astype(float)  # spans several chunks
    got = KNearestNeighbors(5).fit(x_train, y_train).predict_proba(x)
    assert got.tolist() == ref_knn_predict_proba(x_train, y_train, 5, x).tolist()


# --- kNN on kernel-SHAP coalitions: the materialized blends are the oracle --

def tree_sum(a, node):
    """a's last axis summed on the nested-pair tree ``node``, one add per node."""
    if isinstance(node, int):
        return a[..., node]
    return tree_sum(a, node[0]) + tree_sum(a, node[1])


def blends_of(x, background, z):
    n, m = x.shape
    return (z[None, :, :] * x[:, None, :]
            + (1.0 - z[None, :, :]) * background[None, None, :]).reshape(n * len(z), m)


def plain_distances(model, x):
    """(rows, n_train) squared distances of x's rows, as plain rows: one value
    table per column (V = 1) and one blend (K = 1), on the plan that
    ``predict_proba`` uses."""
    d2 = np.empty((len(x), len(model.x)))
    for start, block in model._distances(x[:, None, :], knn._row_plan(x.shape[1])):
        d2[start:start + block.shape[1]] = block[0]
    return d2


def assert_coalitions_match_blends(model, x, background, z):
    n, k = len(x), len(z)
    blends = blends_of(x, background, z)
    values = np.stack([np.broadcast_to(background, x.shape), x], axis=1)  # (n, 2, M)
    got = model.predict_blends(values, z.astype(int))
    assert got.shape == (n, k)
    assert got.tobytes() == model.predict_proba(blends).reshape(n, k).tobytes()
    # the distances too: a last-bit change shows even where no neighbour flips
    want = plain_distances(model, blends)
    diff2 = (blends[:, None, :] - model.x[None, :, :]) ** 2
    assert want.tobytes() == tree_sum(diff2, knn._sum_order(x.shape[1])).tobytes()
    want = want.reshape(n, k, len(model.x)).transpose(1, 0, 2)
    covered = 0
    for start, d2 in model._distances(values, knn._plan(z)):
        assert start == covered
        assert d2.tobytes() == want[:, start:start + d2.shape[1]].tobytes()
        covered += d2.shape[1]
    assert covered == n


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_predict_blends_matches_coalition_blends(data):
    m = data.draw(st.integers(1, 20))
    n_train = data.draw(st.integers(1, 25))
    k = data.draw(st.integers(1, 30))  # k >= n_train included
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if data.draw(st.booleans()):  # integer grid: many distances tie, also at the k-th
        def values(shape):
            return rng.integers(0, 3, size=shape).astype(float)
    else:  # spread magnitudes: the summation order shows in the last bits
        def values(shape):
            return rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    x_train = values((n_train, m))
    x_train[rng.integers(0, n_train, size=n_train // 3)] = x_train[0]  # duplicates tie
    y_train = rng.integers(0, 2, size=n_train).astype(float)
    if m <= 9 and data.draw(st.booleans()):  # exact: every mask, empty and full too
        z = ((np.arange(2 ** m)[:, None] >> np.arange(m)) & 1).astype(float)
    else:  # sampled, repeats included
        z = rng.integers(0, 2, size=(data.draw(st.integers(0, 64)), m)).astype(float)
    rows = max(1, knn._BLENDS // max(len(z), 1))  # rows per block at this K
    n = data.draw(st.integers(1, 3 * rows + 1))  # several row blocks
    model = KNearestNeighbors(k).fit(x_train, y_train)
    assert_coalitions_match_blends(model, values((n, m)), values(m), z)


@pytest.mark.parametrize("m", [129, 257])
def test_knn_predict_blends_matches_coalition_blends_on_wide_rows(m):
    rng = np.random.default_rng(m)
    x_train = rng.normal(size=(12, m)) * 10.0 ** rng.integers(-3, 4, size=(12, m))
    model = KNearestNeighbors(3).fit(x_train, rng.integers(0, 2, size=12).astype(float))
    z = rng.integers(0, 2, size=(20, m)).astype(float)
    assert_coalitions_match_blends(model, rng.normal(size=(3, m)), rng.normal(size=m), z)


def columns_of(node):
    if isinstance(node, int):
        return [node]
    return columns_of(node[0]) + columns_of(node[1])


def test_sum_order_lists_every_column_once_in_ascending_order():
    for m in range(1, 301):
        assert columns_of(knn._sum_order(m)) == list(range(m)), m


def test_plain_row_distances_add_on_the_sum_order_tree():
    # spread magnitudes: any other order of the adds shows in the last bits
    rng = np.random.default_rng(0)
    for m in [*range(1, 41), 127, 128, 129, 257]:
        for rows in [33, 2 * knn._BLENDS + 3]:  # one block, several blocks
            x, t = (rng.random((n, m)) * 10.0 ** rng.integers(-6, 7, size=(n, m))
                    for n in (rows, 37))
            model = KNearestNeighbors(3).fit(t, rng.integers(0, 2, size=37).astype(float))
            want = tree_sum((x[:, None, :] - t[None, :, :]) ** 2, knn._sum_order(m))
            assert plain_distances(model, x).tobytes() == want.tobytes(), m


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_plan_builds_each_distinct_sub_row_once(data):
    v = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 20))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = rng.integers(0, v, size=(data.draw(st.integers(1, 40)), m))
    ids = pool[rng.integers(0, len(pool), size=data.draw(st.integers(0, 60)))]  # repeats
    steps, root, root_ids = knn._plan(ids)
    # two blends share a root id exactly when their id rows are equal
    same_row = (ids[:, None, :] == ids[None, :, :]).all(axis=2)
    assert ((root_ids[:, None] == root_ids[None, :]) == same_row).all()
    assert len(steps) == m - 1 and root == 2 * m - 2  # a step per inner node, root last
    for left, right, lid, rid in steps:
        pairs = list(zip(lid.tolist(), rid.tolist()))
        assert pairs == sorted(set(pairs))  # distinct and ascending


def test_predict_proba_builds_the_row_plan_once_per_width(monkeypatch):
    """A plain row's plan depends on M alone: predict_proba builds it once per M."""
    knn._row_plan.cache_clear()
    built, original = [], knn._plan

    def counted(ids):
        built.append(np.shape(ids))
        return original(ids)
    monkeypatch.setattr(knn, "_plan", counted)
    rng = np.random.default_rng(0)
    for m in (3, 5, 3, 5, 3):
        model = KNearestNeighbors(3).fit(rng.random((20, m)), rng.integers(0, 2, 20).astype(float))
        model.predict_proba(rng.random((7, m)))
    assert built == [(1, 3), (1, 5)]


# --- reference MLP fit: index the rows of every minibatch -----------------

def ref_mlp_fit(x, y, hidden_units, learning_rate, epochs, batch_size, rng):
    n, m = x.shape
    h = hidden_units
    w1 = rng.normal(0.0, 1.0 / np.sqrt(m), size=(m, h))
    b1 = np.zeros(h)
    w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)
    b2 = 0.0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            xb, yb = x[idx], y[idx]
            a = np.tanh(xb @ w1 + b1)
            p = 1.0 / (1.0 + np.exp(-np.clip(a @ w2 + b2, -500, 500)))
            delta = (p - yb) / len(idx)
            gw2 = a.T @ delta
            gb2 = float(np.sum(delta))
            da = np.outer(delta, w2) * (1 - a ** 2)
            gw1 = xb.T @ da
            gb1 = da.sum(axis=0)
            w2 -= learning_rate * gw2
            b2 -= learning_rate * gb2
            w1 -= learning_rate * gw1
            b1 -= learning_rate * gb1
    return w1, b1, w2, b2


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 45), st.integers(1, 5), st.sampled_from([1, 2, 8, 16]),
       st.sampled_from([1, 7, 32]), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_mlp_fit_matches_reference(n, m, h, batch_size, epochs, seed):
    # n need not be a multiple of batch_size: the last batch is short
    data_rng = np.random.default_rng(seed)
    x = data_rng.normal(size=(n, m))
    y = data_rng.integers(0, 2, size=n).astype(float)
    net = MultilayerPerceptron(h, 0.5, epochs, batch_size)
    net.fit(x, y, rng=np.random.default_rng(seed))
    w1, b1, w2, b2 = ref_mlp_fit(x, y, h, 0.5, epochs, batch_size,
                                 np.random.default_rng(seed))
    assert net.w1.tolist() == w1.tolist()
    assert net.b1.tolist() == b1.tolist()
    assert net.w2.tolist() == w2.tolist()
    assert net.b2 == b2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 17), st.integers(1, 16), st.integers(1, 32),
       st.sampled_from([1, 7, 32]), st.integers(1, 70), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_mlp_fit_many_matches_reference_per_net(k, m, h, batch_size, n, epochs, seed):
    assume(batch_size == 1 or n % batch_size)  # the last batch is short
    data_rng = np.random.default_rng(seed)
    xs = [data_rng.normal(size=(n, m)) for _ in range(k)]
    y = data_rng.integers(0, 2, size=n).astype(float)
    nets = MultilayerPerceptron(h, 0.5, epochs, batch_size).fit_many(
        xs, y, [rng_for(seed, "net", i) for i in range(k)])
    assert len(nets) == k
    for i, (x, net) in enumerate(zip(xs, nets)):
        w1, b1, w2, b2 = ref_mlp_fit(x, y, h, 0.5, epochs, batch_size, rng_for(seed, "net", i))
        assert net.w1.tolist() == w1.tolist()
        assert net.b1.tolist() == b1.tolist()
        assert net.w2.tolist() == w2.tolist()
        assert net.b2 == b2


# --- reference kernel SHAP: loop-built coalitions, diagonal weights -------

def ref_kernel_weights(m, sizes):
    w = np.empty(len(sizes), dtype=float)
    for i, s in enumerate(sizes):
        w[i] = (m - 1) / (math.comb(m, s) * s * (m - s))
    return w


def ref_solver(z, weights):
    m = z.shape[1]
    zt = z[:, :-1] - z[:, -1:]
    w = np.diag(weights)
    gram = zt.T @ w @ zt
    solver = np.linalg.solve(gram, zt.T @ w)

    def solve(y, fx_delta):
        adj = y - np.outer(fx_delta, z[:, -1])
        phi_head = adj @ solver.T
        phi_last = fx_delta - phi_head.sum(axis=1)
        return np.column_stack([phi_head, phi_last]) if m > 1 else phi_last[:, None]

    return solve


def ref_coalitions_exact(m):
    rows = []
    for mask in range(1, 2 ** m - 1):
        rows.append([(mask >> j) & 1 for j in range(m)])
    return np.array(rows, dtype=float)


def ref_coalitions_sampled(m, budget, rng):
    sizes = np.arange(1, m)
    size_w = (m - 1) / (sizes * (m - sizes))
    size_w = size_w / size_w.sum()
    rows = []
    for j in range(m):
        single = np.zeros(m)
        single[j] = 1.0
        rows.append(single)
        rows.append(1.0 - single)
    remaining = max(budget - len(rows), 0)
    drawn_sizes = rng.choice(sizes, size=remaining, p=size_w)
    for s in drawn_sizes:
        row = np.zeros(m)
        row[rng.choice(m, size=int(s), replace=False)] = 1.0
        rows.append(row)
    return np.array(rows, dtype=float)


def ref_shapley_values(model, x, background_row, cfg, exact=None):
    """Kernel SHAP with loop-built coalitions, one ``predict_proba`` call per
    coalition, and f(x) - f0 directly at M = 1."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[1]
    if m == 1:
        fx = model.predict_proba(x)
        f0 = model.predict_proba(background_row[None, :])[0]
        return (fx - f0)[:, None]
    if exact is None:
        exact = 2 ** m <= EXACT_SHAP_LIMIT
    if exact:
        z = ref_coalitions_exact(m)
        weights = ref_kernel_weights(m, z.sum(axis=1).astype(int))
    else:
        if cfg.coalition_budget < m + 2:
            raise ExplainerError("coalition_budget must be >= M + 2 in sampling mode")
        z = ref_coalitions_sampled(m, cfg.coalition_budget,
                                   rng_for(cfg.seed, "shap-coalitions"))
        weights = np.ones(len(z))
    solve = ref_solver(z, weights)
    fx = model.predict_proba(x)
    f0 = float(model.predict_proba(background_row[None, :])[0])
    # a bare model is not row-exact, so each coalition's n blends get a call
    preds = np.column_stack([model.predict_proba(np.where(row == 1.0, x, background_row))
                             for row in z])
    return solve(preds - f0, fx - f0)


class InteractionModel:
    """A smooth row-wise score with one pairwise interaction."""

    def __init__(self, weights):
        self.weights = weights

    def predict_proba(self, x):
        z = x @ self.weights + 0.7 * x[:, 0] * x[:, -1]
        return 1.0 / (1.0 + np.exp(-z))


def shap_outcome(fn, *args, **kwargs):
    """The result's dtype, shape and bytes, or the error's type and message."""
    try:
        phi = fn(*args, **kwargs)
    except ExplainerError as exc:
        return type(exc), str(exc)
    return phi.dtype, phi.shape, phi.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 14), st.integers(0, 2 ** 32 - 1))
def test_shapley_values_match_reference(data, m, seed):
    exact = data.draw(st.sampled_from([None, False] + ([True] if m <= 12 else [])))
    # M + 1 is below the sampling minimum and must raise the same error
    budget = data.draw(st.sampled_from([m + 1, m + 2, 2 * m + 1, 64]))
    rng = np.random.default_rng(seed)
    model = InteractionModel(rng.normal(size=m))
    x = rng.normal(size=(data.draw(st.integers(1, 4)), m))
    background = rng.normal(size=m)
    cfg = ExplainerConfig(coalition_budget=budget, seed=seed)
    got = shap_outcome(shapley_values, as_trained(model, m), x, background, cfg, exact=exact)
    want = shap_outcome(ref_shapley_values, model, x, background, cfg, exact=exact)
    assert got == want
