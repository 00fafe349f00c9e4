"""Oracle tests for the two vectorized kernels: the tree split search and the
3PL optimizer.  The references below are the original per-feature split loop
and the original one-candidate-per-call scan + golden-section search; the
vectorized kernels evaluate the same points with the same arithmetic, so
results must match exactly, not within a tolerance."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from xaibench import irt
from xaibench.irt import (
    A_BOUNDS,
    B_BOUNDS,
    C_BOUNDS,
    THETA_BOUNDS,
    Abilities,
    FitConfig,
    IrtFit,
    ItemParameters,
    ResponseMatrix,
    fit_3pl,
    fit_to_dict,
)
from xaibench.models.tree import (
    _GAIN_TOL,
    _best_split_classification,
    _best_split_regression,
)


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


def ref_item_objective(u, a, b, c, theta, cfg):
    ll = ref_loglik_entries(u, a, b, c, theta).sum(axis=0)
    pen = cfg.penalty_weight * ((a - cfg.anchor_a) ** 2 + (c - cfg.anchor_c) ** 2)
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


def ref_fit_3pl(responses, cfg):
    u = responses.entries.astype(float)
    r, n = u.shape
    theta = irt._standardized_scores(u)
    a = np.ones(n)
    easiness = np.clip(u.mean(axis=0), 1e-3, 1 - 1e-3)
    b = np.clip(-np.log(easiness / (1.0 - easiness)), *B_BOUNDS)
    c = np.full(n, cfg.anchor_c)

    def total_objective():
        return float(np.sum(ref_item_objective(u, a, b, c, theta, cfg)))

    history = []
    prev = total_objective()
    converged = False
    iterations = 0
    for _ in range(cfg.max_outer):
        iterations += 1
        a = ref_scan_golden_max(lambda v: ref_item_objective(u, v, b, c, theta, cfg),
                                a, *A_BOUNDS, cfg.scan_points, cfg.xtol)
        b = ref_scan_golden_max(lambda v: ref_item_objective(u, a, v, c, theta, cfg),
                                b, *B_BOUNDS, cfg.scan_points, cfg.xtol)
        c = ref_scan_golden_max(lambda v: ref_item_objective(u, a, b, v, theta, cfg),
                                c, *C_BOUNDS, cfg.scan_points, cfg.xtol)
        theta = ref_scan_golden_max(lambda v: ref_respondent_objective(u, a, b, c, v),
                                    theta, *THETA_BOUNDS, cfg.scan_points, cfg.xtol)
        cur = total_objective()
        history.append(cur)
        if cur - prev < cfg.tol:
            converged = True
            break
        prev = cur
    return IrtFit(ItemParameters(a, b, c), Abilities(theta), history[-1],
                  tuple(history), iterations, converged)


@st.composite
def response_matrices(draw):
    """Random 0/1 matrices, with some rows and columns forced all-0 or all-1."""
    r = draw(st.integers(2, 12))
    n = draw(st.integers(2, 15))
    u = draw(arrays(np.int64, (r, n), elements=st.integers(0, 1)))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=3)):
        u[i, :] = draw(st.integers(0, 1))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        u[:, j] = draw(st.integers(0, 1))
    return ResponseMatrix(u, [f"r{i}" for i in range(r)], [f"i{j}" for j in range(n)])


@settings(max_examples=40, deadline=None)
@given(response_matrices(), st.integers(1, 3))
def test_fit_3pl_matches_reference(responses, max_outer):
    cfg = FitConfig(max_outer=max_outer)
    fit = fit_3pl(responses, cfg)
    assert fit_to_dict(fit) == fit_to_dict(ref_fit_3pl(responses, cfg))
    assert all(y >= x for x, y in zip(fit.history, fit.history[1:]))


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
