"""Oracle tests for the rewritten kernels: the tree split search, the 3PL
optimizer, kNN neighbour selection, the MLP minibatch loop and kernel SHAP.
The references below are the original per-feature split loop, the original
one-candidate-per-call scan + golden-section search, the stable-argsort kNN,
the per-batch index MLP loop and the loop-built coalitions with a diagonal
weight matrix; the rewrites evaluate the same points with the same
arithmetic, so results must match exactly, not within a tolerance.  The 3PL
reference is the textbook u*log(p) + (1-u)*log(1-p) on fresh arrays, which
``fit_3pl``'s in-place work-buffer kernel must reproduce bit for bit, down
to the value of every objective call.  kNN's ``predict_coalitions`` must
give ``predict_proba``'s probabilities on the materialized coalition blends,
and their squared distances, byte for byte.

``MultilayerPerceptron.fit_many`` trains K nets in lockstep with stacked
(K, bs, m) matmuls, and its test holds each net to the single-net reference.
That a stacked ``np.matmul`` equals the 2-D product of each slice bit for
bit is a property of this numpy/OpenBLAS build (numpy hands each slice to
the same BLAS call), not something numpy guarantees; that test is what
guards it.  Likewise the order in which ``.sum(axis=-1)`` adds a contiguous
last axis, which ``predict_coalitions`` reproduces, is numpy's pairwise
kernel, and a guard test pins it."""

import math
from unittest import mock

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
    THETA_BOUNDS,
    IrtError,
    IrtFit,
    ResponseMatrix,
    fit_3pl,
    fit_3pl_many,
)
from xaibench.models import knn
from xaibench.models.knn import KNearestNeighbors
from xaibench.models.mlp import MultilayerPerceptron
from xaibench.models.tree import (
    _GAIN_TOL,
    _best_split_classification,
    _best_split_regression,
)
from xaibench.seeding import rng_for


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
        k = int(np.argmax(gain))
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
        k = int(np.argmax(gain))
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


@settings(max_examples=300, deadline=None)
@given(split_problems(), st.data())
def test_classification_split_matches_reference(problem, data):
    x, min_leaf = problem
    y = data.draw(arrays(np.int64, x.shape[0], elements=st.integers(0, 1))).astype(float)
    assert _best_split_classification(x, y, min_leaf) == ref_split_classification(x, y, min_leaf)


@settings(max_examples=300, deadline=None)
@given(split_problems(), st.data())
def test_regression_split_matches_reference(problem, data):
    x, min_leaf = problem
    y = data.draw(arrays(np.float64, x.shape[0], elements=st.floats(
        -2.0, 2.0, allow_nan=False, allow_infinity=False)))
    assert _best_split_regression(x, y, min_leaf) == ref_split_regression(x, y, min_leaf)


def test_split_ties_pick_lowest_feature_then_lowest_threshold():
    # both features separate y perfectly with equal gain; feature 0 wins
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert _best_split_classification(x, y, 1) == (0, 1.5, 0.5)
    # thresholds 0.5 and 2.5 of one feature tie exactly; the lower one wins
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    got = _best_split_classification(x, y, 1)
    assert got[:2] == (0, 0.5)
    assert got == ref_split_classification(x, y, 1)


# --- reference 3PL optimizer: one candidate vector per objective call -----

def ref_prob_matrix(a, b, c, theta):
    z = np.clip(np.outer(theta, np.ones_like(a)) * a - np.outer(np.ones_like(theta), a * b),
                -500, 500)
    p = c + (1.0 - c) / (1.0 + np.exp(-z))
    return np.clip(p, irt._PROB_CLIP, 1.0 - irt._PROB_CLIP)


def ref_loglik_entries(u, a, b, c, theta):
    p = ref_prob_matrix(a, b, c, theta)
    return u * np.log(p) + (1.0 - u) * np.log(1.0 - p)


def ref_item_objective(u, a, b, c, theta):
    ll = ref_loglik_entries(u, a, b, c, theta).sum(axis=0)
    pen = irt.PENALTY_WEIGHT * ((a - irt.ANCHOR_A) ** 2 + (c - irt.ANCHOR_C) ** 2)
    return ll - pen


def ref_respondent_objective(u, a, b, c, theta):
    return ref_loglik_entries(u, a, b, c, theta).sum(axis=1)


def ref_scan_golden_max(f, current, lo, hi, scan_points, xtol):
    n = len(current)
    grid = np.linspace(lo, hi, scan_points)
    step = grid[1] - grid[0]
    best_val = np.full(n, -np.inf)
    best_x = np.full(n, grid[0])
    for g in grid:
        v = f(np.full(n, g))
        better = v > best_val
        best_val = np.where(better, v, best_val)
        best_x = np.where(better, g, best_x)
    left = np.maximum(best_x - step, lo)
    right = np.minimum(best_x + step, hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    while np.max(right - left) > xtol:
        x1 = right - invphi * (right - left)
        x2 = left + invphi * (right - left)
        f1 = f(x1)
        f2 = f(x2)
        move_lo = f1 < f2
        left = np.where(move_lo, x1, left)
        right = np.where(move_lo, right, x2)
    cand = 0.5 * (left + right)
    f_cand = f(cand)
    f_cur = f(np.asarray(current, dtype=float))
    return np.where(f_cand > f_cur, cand, current)


def ref_fit_3pl(responses, max_outer, scan=ref_scan_golden_max):
    u = responses.entries.astype(float)
    r, n = u.shape
    theta = irt._standardized_scores(u)
    a = np.ones(n)
    easiness = np.clip(u.mean(axis=0), 1e-3, 1 - 1e-3)
    b = np.clip(-np.log(easiness / (1.0 - easiness)), *B_BOUNDS)
    c = np.full(n, irt.ANCHOR_C)
    steps = (irt.SCAN_POINTS, irt.XTOL)

    def total_objective():
        return float(np.sum(ref_item_objective(u, a, b, c, theta)))

    history = []
    prev = total_objective()
    converged = False
    iterations = 0
    for _ in range(max_outer):
        iterations += 1
        a = scan(lambda v: ref_item_objective(u, v, b, c, theta), a, *A_BOUNDS, *steps)
        b = scan(lambda v: ref_item_objective(u, a, v, c, theta), b, *B_BOUNDS, *steps)
        c = scan(lambda v: ref_item_objective(u, a, b, v, theta), c, *C_BOUNDS, *steps)
        theta = scan(lambda v: ref_respondent_objective(u, a, b, c, v),
                     theta, *THETA_BOUNDS, *steps)
        cur = total_objective()
        history.append(cur)
        if cur - prev < irt.TOL:
            converged = True
            break
        prev = cur
    return IrtFit(a, b, c, theta, tuple(history), iterations, converged)


@st.composite
def response_matrices(draw, shape=None):
    """Random 0/1 matrices, with some rows and columns forced all-0 or all-1."""
    r, n = shape or (draw(st.integers(2, 12)), draw(st.integers(2, 15)))
    u = draw(arrays(np.int64, (r, n), elements=st.integers(0, 1)))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=3)):
        u[i, :] = draw(st.integers(0, 1))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        u[:, j] = draw(st.integers(0, 1))
    return ResponseMatrix(u)


def recording(scan, rows):
    """scan, with each objective call's candidate vectors and values appended
    to rows as bytes, one (candidate, value) pair per vector."""
    def recorded(f, current, lo, hi, *args):
        def objective(v):
            out = f(v)
            rows.extend((vi.tobytes(), oi.tobytes())
                        for vi, oi in zip(np.atleast_2d(v), np.atleast_2d(out)))
            return out
        return scan(objective, current, lo, hi, *args)
    return recorded


def assert_fit_3pl_matches_reference(responses, max_outer):
    # the golden-section path rarely turns on a last-bit change of one
    # objective value, so every value of every objective call is compared
    got, want = [], []
    with mock.patch.object(irt, "_scan_golden_max", recording(irt._scan_golden_max, got)):
        fit = fit_3pl(responses, max_outer=max_outer)
    ref = ref_fit_3pl(responses, max_outer, scan=recording(ref_scan_golden_max, want))
    assert to_record(fit) == to_record(ref)
    assert got == want
    return fit


@settings(max_examples=40, deadline=None)
@given(response_matrices(), st.integers(1, 3))
def test_fit_3pl_matches_reference(responses, max_outer):
    fit = assert_fit_3pl_matches_reference(responses, max_outer)
    assert all(y >= x for x, y in zip(fit.history, fit.history[1:]))


@pytest.mark.parametrize("r, n, seed", [(29, 58, 0), (29, 173, 1), (200, 100, 2)])
def test_fit_3pl_matches_reference_at_exirt_shapes(r, n, seed):
    # eXirt's matrices are 29 x 58 (paper-default) and 29 x 173 (tall-items);
    # every scan fills the whole (SCAN_POINTS, R, N) work buffer
    rng = np.random.default_rng(seed)
    u = (rng.random((r, n)) < rng.uniform(0.2, 0.95, n)).astype(int)
    u[:, 3], u[:, 4] = 0, 1  # degenerate items
    u[1, :], u[2, :] = 0, 1  # degenerate respondents
    responses = ResponseMatrix(u)
    assert_fit_3pl_matches_reference(responses, 2)


def test_fit_3pl_exponent_cannot_reach_the_clip_it_omits():
    # fit_3pl drops p_correct's +-500 clip on a*b - theta*a; the box bounds
    # must keep the exponent inside it
    a = max(map(abs, A_BOUNDS))
    assert a * (max(map(abs, THETA_BOUNDS)) + max(map(abs, B_BOUNDS))) < 500


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fit_3pl_kernel_rewrites_are_exact(data):
    size = data.draw(st.integers(1, 40))
    p = data.draw(arrays(np.float64, size,
                         elements=st.floats(irt._PROB_CLIP, 1.0 - irt._PROB_CLIP)))
    u = data.draw(arrays(np.int64, size, elements=st.integers(0, 1))).astype(float)
    s, t = 1.0 - u, 2.0 * u - 1.0
    assert (s + t * p).tobytes() == np.where(u, p, 1.0 - p).tobytes()

    def bounded(bounds):
        return data.draw(arrays(np.float64, size, elements=st.floats(*bounds)))

    a, b, theta = bounded(A_BOUNDS), bounded(B_BOUNDS), bounded(THETA_BOUNDS)
    folded, negated = a * b - theta * a, -(theta * a - a * b)
    # equal as numbers; a zero may differ in sign, which exp ignores
    assert folded.tolist() == negated.tolist()
    assert np.exp(folded).tobytes() == np.exp(negated).tobytes()


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 8), elements=st.floats(-3.0, 3.0)),
       st.integers(2, 9), st.sampled_from([1e-3, 0.5]))
def test_scan_golden_max_matches_reference_on_plateaus(targets, scan_points, step):
    # quantized objective: many grid values tie, so the first-maximum rule matters
    def f(v):
        return -np.round(np.abs(v - targets) / step)

    current = np.zeros(len(targets))
    got = irt._scan_golden_max(f, current, -4.0, 4.0, scan_points, 1e-3)
    want = ref_scan_golden_max(f, current, -4.0, 4.0, scan_points, 1e-3)
    assert got.tolist() == want.tolist()


# --- lockstep 3PL: each fit of a group equals its fit alone ---------------

@st.composite
def response_groups(draw):
    """1-5 random response matrices of one shape."""
    shape = (draw(st.integers(2, 12)), draw(st.integers(2, 15)))
    return draw(st.lists(response_matrices(shape), min_size=1, max_size=5))


def assert_lockstep_matches_lone_fits(group, max_outer):
    fits = fit_3pl_many(group, max_outer)
    assert [to_record(f) for f in fits] == [to_record(fit_3pl(m, max_outer))
                                            for m in group]
    return fits


@settings(max_examples=40, deadline=None)
@given(response_groups(), st.integers(1, 50))
def test_fit_3pl_many_equals_a_fit_per_matrix(group, max_outer):
    assert_lockstep_matches_lone_fits(group, max_outer)


def test_fit_3pl_many_freezes_each_fit_when_it_converges():
    rng = np.random.default_rng(0)
    group = [ResponseMatrix(rng.integers(0, 2, (5, 6))) for _ in range(3)]
    fits = assert_lockstep_matches_lone_fits(group, 20)
    # the fits stop at different outer iterations, two of them converged
    assert [(f.iterations, f.converged) for f in fits] == [(20, False), (11, True),
                                                          (15, True)]


def scan_calls(responses, max_outer):
    """Objective calls of each ``_scan_golden_max`` pass of a lone fit."""
    calls = []

    def counted(f, *args):
        calls.append(0)

        def objective(v):
            calls[-1] += 1
            return f(v)
        return scan(objective, *args)

    scan = irt._scan_golden_max
    with mock.patch.object(irt, "_scan_golden_max", counted):
        fit_3pl(responses, max_outer=max_outer)
    return calls


def test_fit_3pl_many_stops_each_golden_search_on_its_own_widths():
    # every respondent answers each item of `flat` alike, so its first b
    # pass brackets every item at a bound, half as wide as an inner bracket,
    # and its golden search stops two objective calls sooner than `mixed`'s
    flat = ResponseMatrix(np.array([[1, 0, 1]] * 3))
    mixed = ResponseMatrix(np.array([[1, 0, 1], [1, 0, 0], [0, 1, 1]]))
    assert scan_calls(flat, 1)[:4] == [17, 16, 11, 17]
    assert scan_calls(mixed, 1)[:4] == [17, 18, 11, 17]
    for max_outer in (1, 4):
        assert_lockstep_matches_lone_fits([flat, mixed, flat], max_outer)
        assert_lockstep_matches_lone_fits([mixed, flat], max_outer)


def test_fit_3pl_many_refuses_what_it_cannot_fit_in_lockstep():
    m = ResponseMatrix(np.eye(3, dtype=int))
    with pytest.raises(IrtError, match="at least one"):
        fit_3pl_many([])
    with pytest.raises(IrtError, match=r"one shape, got \[\(3, 3\), \(3, 4\)\]"):
        fit_3pl_many([m, ResponseMatrix(np.eye(3, 4, dtype=int))])
    with pytest.raises(IrtError, match="max_outer"):
        fit_3pl_many([m], max_outer=0)


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

def blends_of(x, background, z):
    n, m = x.shape
    return (z[None, :, :] * x[:, None, :]
            + (1.0 - z[None, :, :]) * background[None, None, :]).reshape(n * len(z), m)


def assert_coalitions_match_blends(model, x, background, z):
    n, k = len(x), len(z)
    blends = blends_of(x, background, z)
    got = model.predict_coalitions(x, background, z)
    assert got.shape == (n, k)
    assert got.tobytes() == model.predict_proba(blends).reshape(n, k).tobytes()
    # the distances too: a last-bit change shows even where no neighbour flips
    want = ((blends[:, None, :] - model.x[None, :, :]) ** 2).sum(axis=2)
    want = want.reshape(n, k, len(model.x)).transpose(1, 0, 2)
    for start, d2 in model._coalition_distances(x, background, z):
        assert d2.tobytes() == want[:, start:start + d2.shape[1]].tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_knn_predict_coalitions_matches_blends(data):
    m = data.draw(st.integers(1, 20))
    n_train = data.draw(st.integers(1, 25))
    k = data.draw(st.integers(1, 30))  # k >= n_train included
    n = data.draw(st.integers(1, 3 * knn._BLOCK + 1))  # several row blocks
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
    model = KNearestNeighbors(k).fit(x_train, y_train)
    assert_coalitions_match_blends(model, values((n, m)), values(m), z)


@pytest.mark.parametrize("m", [129, 257])
def test_knn_predict_coalitions_splits_wide_rows_like_numpy(m):
    # above 128 columns numpy sums two halves, each cut at a multiple of 8
    rng = np.random.default_rng(m)
    x_train = rng.normal(size=(12, m)) * 10.0 ** rng.integers(-3, 4, size=(12, m))
    model = KNearestNeighbors(3).fit(x_train, rng.integers(0, 2, size=12).astype(float))
    z = rng.integers(0, 2, size=(20, m)).astype(float)
    assert_coalitions_match_blends(model, rng.normal(size=(3, m)), rng.normal(size=m), z)


def tree_sum(a, node):
    if isinstance(node, int):
        return a[..., node]
    return tree_sum(a, node[0]) + tree_sum(a, node[1])


def test_numpy_sums_a_last_axis_in_the_order_knn_reproduces():
    # predict_proba keeps .sum(axis=2) and predict_coalitions rebuilds its
    # order; numpy does not document that order, so an upgrade that changes
    # it must fail here
    rng = np.random.default_rng(0)
    for m in [*range(1, 41), 127, 128, 129, 257]:
        for shape in [(33, m), (4, 37, m)]:
            a = rng.random(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
            assert a.sum(axis=-1).tobytes() == tree_sum(a, knn._sum_order(0, m)).tobytes(), m


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
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, m = x.shape
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
    k = len(z)
    blends = (z[None, :, :] * x[:, None, :]
              + (1.0 - z[None, :, :]) * background_row[None, None, :])
    preds = model.predict_proba(blends.reshape(n * k, m)).reshape(n, k)
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
    got = shap_outcome(shapley_values, model, x, background, cfg, exact=exact)
    want = shap_outcome(ref_shapley_values, model, x, background, cfg, exact=exact)
    assert got == want
