"""3PL item response theory engine.

Joint item/ability estimation by alternating penalized maximum likelihood
(Birnbaum scheme) on a respondents x items correctness matrix, item
characteristic curves as one array, reliability summaries and
model-reliability verdicts.

Respondents are rows, items are columns.  All optimizer moves are
accept-only-if-better, so the tracked objective never decreases across
outer iterations.

``fit_3pl_many`` fits F same-shape matrices in lockstep: each objective
call evaluates up to SCAN_POINTS candidate vectors of every fit still
iterating in one (SCAN_POINTS, F, R, N) work buffer allocated once, with
``out=`` and in-place ufuncs, so no call allocates a (K, F, R, N)
temporary and one ufunc call serves every fit.  ``fit_3pl`` is the case
F = 1.  Each fit's golden-section search stops on its own widths, and a fit
that converges leaves the lockstep, so every fit is bit-identical to a fit
of its matrix alone.  Each step gives the same bits as the textbook form
``log(where(u, p, 1 - p))`` with ``p = clip(c + (1 - c) / (1 + exp(-z)))``
and ``z = theta*a - a*b`` (not a*(theta - b), which rounds differently):

- ``exp(a*b - theta*a)`` is ``exp(-z)``: IEEE subtraction is antisymmetric
  under round-to-nearest, so y - x is exactly -(x - y); only the sign of
  a zero can differ, and exp ignores it.
- z is not clipped to +-500 as in ``p_correct``: the box bounds keep
  |z| <= 4*4 + 4*6 = 40, where that clip never binds.
- ``np.minimum(np.maximum(p, lo), hi)`` is ``np.clip`` for non-NaN p.
- ``s + t*p`` with s = 1 - u and t = 2u - 1 is p where u = 1 (0 + 1*p)
  and 1 - p where u = 0 (1 + -1*p): exact because ``ResponseMatrix``
  admits only 0 and 1.
- Commuted additions and products (``e + 1``, ``q / d + c``) round the
  same, and the buffer slices have the layout of a fresh array, so the
  sums over respondents and over items add in the same order.
- What stays fixed through a pass is computed once: theta*a in the b pass
  and the whole 1 + exp(a*b - theta*a) in the c pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

A_BOUNDS = (-4.0, 4.0)  # negative discrimination must stay representable
B_BOUNDS = (-6.0, 6.0)
C_BOUNDS = (0.0, 0.5)
THETA_BOUNDS = (-4.0, 4.0)

_PROB_CLIP = 1e-6  # likelihood clipping keeps all-correct/all-wrong rows finite

TOL = 1e-4  # stop once an outer iteration gains less than this
MAX_OUTER = 50
PENALTY_WEIGHT = 0.01  # pulls a toward ANCHOR_A and c toward ANCHOR_C
ANCHOR_A = 1.0
ANCHOR_C = 0.1
SCAN_POINTS = 17
XTOL = 1e-3

TIE_EPSILON = 0.05  # a dissenting margin below this never blocks a verdict

X_MORE_RELIABLE = "x_more_reliable"
Y_MORE_RELIABLE = "y_more_reliable"
AMBIGUOUS = "ambiguous"


class IrtError(ValueError):
    """Raised for malformed response matrices or parameter vectors."""


def p_correct(a, b, c, theta):
    """3PL hit probability c + (1 - c) / (1 + exp(-a (theta - b))).

    Accepts scalars or broadcastable arrays; overflow-safe.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    z = np.clip(a * (np.asarray(theta, dtype=float) - np.asarray(b, dtype=float)),
                -500, 500)
    out = c + (1.0 - c) / (1.0 + np.exp(-z))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ResponseMatrix:
    """Binary correctness matrix U, shaped respondents x items."""

    entries: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.entries)
        if x.ndim != 2:
            raise IrtError("entries must be 2-D")
        r, n = x.shape
        if r < 2 or n < 2:
            raise IrtError("need at least 2 respondents and 2 items")
        # check the given values before the cast, which would truncate 0.7 to 0
        if not np.all((x == 0) | (x == 1)):
            raise IrtError("entries must be binary")
        u = x.astype(int)
        u.flags.writeable = False
        object.__setattr__(self, "entries", u)


@dataclass(frozen=True)
class IrtFit:
    """Item parameters, abilities and the fit's trace; each vector is
    read-only and inside its box bounds."""

    a: np.ndarray  # discrimination
    b: np.ndarray  # difficulty
    c: np.ndarray  # guessing
    theta: np.ndarray  # ability
    history: tuple  # penalized objective after each outer iteration, non-decreasing
    iterations: int
    converged: bool

    def __post_init__(self):
        for name, bounds in (("a", A_BOUNDS), ("b", B_BOUNDS), ("c", C_BOUNDS),
                             ("theta", THETA_BOUNDS)):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
            if v.ndim != 1:
                raise IrtError(f"{name} must be a vector")
            if np.any(v < bounds[0] - 1e-9) or np.any(v > bounds[1] + 1e-9):
                raise IrtError(f"{name} outside bounds {bounds}")
        object.__setattr__(self, "history", tuple(self.history))
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise IrtError("item parameter vectors must share a length")


@dataclass(frozen=True)
class ReliabilitySummary:
    mean_difficulty: float
    mean_discrimination: float
    mean_guessing: float
    mean_ability: float
    negative_item_count: int


def _denominators(w, ab, theta_a):
    """1 + exp(a*b - theta*a) into w; theta_a may be w itself."""
    np.subtract(ab, theta_a, out=w)
    np.exp(w, out=w)
    w += 1.0
    return w


def _log_lik(w, denom, c, s, t):
    """Per-entry log-likelihoods log(s + t*p) into w, where p is the clipped
    hit probability c + (1 - c) / denom; denom may be w itself."""
    c = c[..., None, :]
    np.divide(1.0 - c, denom, out=w)
    w += c
    np.maximum(w, _PROB_CLIP, out=w)
    np.minimum(w, 1.0 - _PROB_CLIP, out=w)
    w *= t
    w += s
    return np.log(w, out=w)


def _scan_golden_max(f, current, lo, hi, scan_points=SCAN_POINTS, xtol=XTOL):
    """Elementwise 1-D maximization of f over [lo, hi].

    ``current`` is one fit's n-vector or an (F, n) block with one row per
    fit.  f maps a stacked (K, *current.shape) block of candidates to
    objectives of that shape, so the scan of all scan_points grid values,
    the pair of golden-section probes, and the final candidate-vs-current
    test each cost one call.  The scan brackets the optimum at the first
    grid maximum (robust to bimodality in the discrimination coordinate),
    golden-section refines it, and each coordinate keeps its current value
    unless the candidate improves it.  Each fit's golden-section loop stops
    on its own widths, so it takes the steps it would take alone.
    """
    current = np.asarray(current, dtype=float)
    grid = np.linspace(lo, hi, scan_points)
    step = grid[1] - grid[0]
    best_x = grid[np.argmax(f(np.repeat(grid, current.size).reshape(scan_points,
                                                                    *current.shape)), axis=0)]
    left = np.maximum(best_x - step, lo)
    right = np.minimum(best_x + step, hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    searching = (right - left).max(axis=-1) > xtol  # per fit
    while searching.any():
        x1 = right - invphi * (right - left)
        x2 = left + invphi * (right - left)
        f1, f2 = f(np.stack([x1, x2]))
        move_lo = f1 < f2
        on = searching[..., None]
        left = np.where(on & move_lo, x1, left)
        right = np.where(on & ~move_lo, x2, right)
        searching = (right - left).max(axis=-1) > xtol
    cand = 0.5 * (left + right)
    f_cand, f_cur = f(np.stack([cand, current]))
    return np.where(f_cand > f_cur, cand, current)


def _standardized_scores(u):
    s = u.mean(axis=1)
    sd = s.std(ddof=0)
    if sd < 1e-12:
        return np.zeros(len(s))
    return np.clip((s - s.mean()) / sd, *THETA_BOUNDS)


def fit_3pl(responses: ResponseMatrix, max_outer: int = MAX_OUTER) -> IrtFit:
    """Alternating penalized MLE of one matrix's item parameters and
    abilities: :func:`fit_3pl_many` of that matrix alone."""
    return fit_3pl_many([responses], max_outer)[0]


def fit_3pl_many(matrices, max_outer: int = MAX_OUTER) -> list:
    """Alternating penalized MLE of item parameters and abilities for every
    response matrix of one shape, in lockstep; one IrtFit per matrix.

    Initialization: theta from standardized raw scores, a = 1, b from the
    inverse logistic of item easiness, c = ANCHOR_C.  Outer iterations
    alternate a full item-parameter pass with a respondent-ability pass
    until the objective gain drops below TOL or max_outer is reached.

    Every objective call evaluates all fits still iterating in one
    (SCAN_POINTS, F, R, N) work buffer.  Each fit's arithmetic, its
    golden-section steps and its stopping rule are its own, and a fit that
    meets TOL drops out of the lockstep, so each IrtFit is bit-identical to
    a fit of its matrix alone.
    """
    if not matrices:
        raise IrtError("need at least one response matrix")
    shapes = sorted({m.entries.shape for m in matrices})
    if len(shapes) > 1:
        raise IrtError(f"response matrices must share one shape, got {shapes}")
    if max_outer < 1:
        raise IrtError("max_outer must be >= 1")
    u = np.stack([m.entries for m in matrices]).astype(float)
    n_fits, r, n = u.shape
    theta = np.stack([_standardized_scores(x) for x in u])
    a = np.ones((n_fits, n))
    easiness = np.clip(u.mean(axis=1), 1e-3, 1 - 1e-3)
    b = np.clip(-np.log(easiness / (1.0 - easiness)), *B_BOUNDS)
    c = np.full((n_fits, n), ANCHOR_C)

    s, t = 1.0 - u, 2.0 * u - 1.0  # s + t*p is p where u = 1, 1 - p where u = 0
    work = np.empty(SCAN_POINTS * u.size)
    live = np.arange(n_fits)  # input positions of the fits still iterating

    def buffer(k):
        # (k, live fits, R, N), with the layout of a fresh array
        return work[:k * len(live) * r * n].reshape(k, len(live), r, n)

    def item_objective(w, denom, a, c):
        pen = PENALTY_WEIGHT * ((a - ANCHOR_A) ** 2 + (c - ANCHOR_C) ** 2)
        return _log_lik(w, denom, c, s, t).sum(axis=-2) - pen

    def a_objective(v):
        w = buffer(len(v))
        np.multiply(theta[:, :, None], v[:, :, None, :], out=w)
        return item_objective(w, _denominators(w, (v * b)[:, :, None, :], w), v, c)

    def b_objective(v):
        w = buffer(len(v))
        return item_objective(w, _denominators(w, (a * v)[:, :, None, :], theta_a), a, c)

    def c_objective(v):
        return item_objective(buffer(len(v)), denom, a, v)

    def theta_objective(v):
        w = buffer(len(v))
        np.multiply(v[..., None], a[:, None, :], out=w)
        return _log_lik(w, _denominators(w, (a * b)[:, None, :], w), c, s, t).sum(axis=-1)

    def total_objective():
        return a_objective(a[None])[0].sum(axis=-1)

    fits = [None] * n_fits
    history = [[] for _ in range(n_fits)]
    prev = total_objective()
    for iteration in range(1, max_outer + 1):
        a = _scan_golden_max(a_objective, a, *A_BOUNDS)
        theta_a = theta[:, :, None] * a[:, None, :]  # b_objective's invariant
        b = _scan_golden_max(b_objective, b, *B_BOUNDS)
        denom = _denominators(theta_a, (a * b)[:, None, :], theta_a)  # c_objective's
        c = _scan_golden_max(c_objective, c, *C_BOUNDS)
        theta = _scan_golden_max(theta_objective, theta, *THETA_BOUNDS)
        cur = total_objective()
        converged = cur - prev < TOL
        for j, i in enumerate(live):
            history[i].append(float(cur[j]))
            if converged[j] or iteration == max_outer:
                fits[i] = IrtFit(a[j], b[j], c[j], theta[j], history=tuple(history[i]),
                                 iterations=iteration, converged=bool(converged[j]))
        if converged.all():
            break
        if converged.any():  # converged fits freeze; the rest go on
            live, a, b, c, theta, s, t, cur = (x[~converged]
                                               for x in (live, a, b, c, theta, s, t, cur))
        prev = cur
    return fits


def default_theta_grid() -> np.ndarray:
    return np.linspace(THETA_BOUNDS[0], THETA_BOUNDS[1], 161)


def icc(a, b, c, theta_grid) -> np.ndarray:
    """Characteristic curves of the items with parameter vectors a, b, c over
    an ascending ability grid, one row per item: an (N, G) array of hit
    probabilities."""
    grid = np.asarray(theta_grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise IrtError("theta grid must be strictly ascending")
    return p_correct(a[:, None], b[:, None], c[:, None], grid)


def summarize(fit: IrtFit) -> ReliabilitySummary:
    return ReliabilitySummary(
        mean_difficulty=float(np.mean(fit.b)),
        mean_discrimination=float(np.mean(fit.a)),
        mean_guessing=float(np.mean(fit.c)),
        mean_ability=float(np.mean(fit.theta)),
        negative_item_count=int(np.sum(fit.a < 0)),
    )


def reliability_compare(x: ReliabilitySummary, y: ReliabilitySummary,
                        use_ability: bool = False) -> str:
    """Vote-based verdict: lower difficulty, higher discrimination and lower
    guessing each cast one vote (mean ability adds an optional fourth).

    A majority wins when unanimous, or when the dissenting margin is either
    below TIE_EPSILON or smaller than the strongest supporting margin;
    anything else is ambiguous.  Antisymmetric by construction.
    """
    # signed margins: positive favours x
    margins = [
        y.mean_difficulty - x.mean_difficulty,
        x.mean_discrimination - y.mean_discrimination,
        y.mean_guessing - x.mean_guessing,
    ]
    if use_ability:
        margins.append(x.mean_ability - y.mean_ability)
    pro_x = [m for m in margins if m > 0]
    pro_y = [-m for m in margins if m < 0]
    if not pro_x and not pro_y:
        return AMBIGUOUS
    if len(pro_x) == len(pro_y):
        return AMBIGUOUS
    winner, losers = (X_MORE_RELIABLE, pro_y) if len(pro_x) > len(pro_y) \
        else (Y_MORE_RELIABLE, pro_x)
    supporters = pro_x if winner == X_MORE_RELIABLE else pro_y
    if not losers:
        return winner
    dissent = max(losers)
    if dissent < TIE_EPSILON or dissent < max(supporters):
        return winner
    return AMBIGUOUS
