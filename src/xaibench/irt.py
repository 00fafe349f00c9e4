"""3PL item response theory engine.

Marginal maximum a posteriori estimation of the item parameters by EM over
a fixed ability grid (Bock & Aitkin, Psychometrika 1981), with priors on
discrimination and difficulty (Mislevy, Psychometrika 1986), on a
respondents x items correctness matrix; abilities are the posterior means
(EAP).  Also item characteristic curves as one array, reliability
summaries and model-reliability verdicts.

Respondents are rows, items are columns.  Each M-step keeps an item's old
parameters unless its expected log posterior strictly improves, so the
marginal log posterior never decreases across iterations (generalized EM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

A_BOUNDS = (-4.0, 4.0)  # negative discrimination must stay representable
B_BOUNDS = (-6.0, 6.0)
C_BOUNDS = (0.0, 0.5)
THETA_BOUNDS = (-4.0, 4.0)

_PROB_CLIP = 1e-6  # likelihood clipping keeps all-correct/all-wrong rows finite

TOL = 1e-4  # stop once an EM iteration gains less than this
MAX_OUTER = 50
PENALTY_WEIGHT = 0.01  # pulls c toward ANCHOR_C
ANCHOR_C = 0.1
PRIOR_A = (1.0, 1.0)  # mean and sd of the normal prior on a
PRIOR_B = (0.0, 2.0)  # mean and sd of the normal prior on b
MAX_HALVINGS = 8

# E-step ability nodes, weighted by the standard normal density
GRID = np.linspace(THETA_BOUNDS[0], THETA_BOUNDS[1], 41)
_LOG_WEIGHTS = -0.5 * GRID ** 2 - np.log(np.exp(-0.5 * GRID ** 2).sum())
_LOWER, _UPPER = np.array([A_BOUNDS, B_BOUNDS, C_BOUNDS]).T[:, :, None]
# one normal prior per row of (a, b, c); c's penalty is the one of precision 2 * PENALTY_WEIGHT
_PRIOR_MEAN = np.array([[PRIOR_A[0]], [PRIOR_B[0]], [ANCHOR_C]])
_PRIOR_PRECISION = np.array([[PRIOR_A[1] ** -2], [PRIOR_B[1] ** -2], [2 * PENALTY_WEIGHT]])

TIE_EPSILON = 0.05  # a dissenting margin below this never blocks a verdict

X_MORE_RELIABLE = "x_more_reliable"
Y_MORE_RELIABLE = "y_more_reliable"
AMBIGUOUS = "ambiguous"


class IrtError(ValueError):
    """Raised for malformed response matrices or parameter vectors."""


def p_correct(a, b, c, theta):
    """3PL hit probability c + (1 - c) / (1 + exp(-a (theta - b))).

    An array of the arguments' broadcast shape (0-d for scalars); overflow-safe.
    """
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    z = np.clip(a * (np.asarray(theta, dtype=float) - np.asarray(b, dtype=float)),
                -500, 500)
    return c + (1.0 - c) / (1.0 + np.exp(-z))


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
    history: tuple  # marginal log posterior after each EM iteration, non-decreasing
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


def _log_prior(x):
    """Per-item log prior of the (3, N) item parameters x = (a, b, c)."""
    return -0.5 * (_PRIOR_PRECISION * (x - _PRIOR_MEAN) ** 2).sum(axis=0)


def _grid_probabilities(x):
    """(G, N) hit probabilities of the items x on the ability grid, clipped
    to keep the logs finite, and where the clip leaves them unchanged."""
    raw = p_correct(*x, GRID[:, None])
    p = np.clip(raw, _PROB_CLIP, 1.0 - _PROB_CLIP)
    return p, p == raw


def _e_step(u, x):
    """Marginal log posterior of the items x and the (R, G) posterior of
    each respondent's ability over the grid."""
    p, _ = _grid_probabilities(x)
    joint = u @ np.log(p).T + (1.0 - u) @ np.log(1.0 - p).T + _LOG_WEIGHTS
    peak = joint.max(axis=1, keepdims=True)
    log_marginal = peak + np.log(np.exp(joint - peak).sum(axis=1, keepdims=True))
    return float(log_marginal.sum() + _log_prior(x).sum()), np.exp(joint - log_marginal)


def _expected_log_posterior(x, n, r):
    """Per-item expected complete-data log posterior, given the expected
    respondents n (G,) and expected hits r (G, N) at each grid node."""
    p, _ = _grid_probabilities(x)
    return (r * np.log(p) + (n[:, None] - r) * np.log(1.0 - p)).sum(axis=0) + _log_prior(x)


def _score_information(x, n, r):
    """Gradient (3, N) of :func:`_expected_log_posterior` in (a, b, c) and
    its expected information plus the prior curvature, one (3, 3) matrix
    per item."""
    a, b, c = x
    p, inside = _grid_probabilities(x)
    # dP/dz with z = a (theta - b), and dP/dc; zero where the clip holds P
    dz = np.where(inside, (p - c) * (1.0 - p) / (1.0 - c), 0.0)
    dp = np.stack([dz * (GRID[:, None] - b), -a * dz,
                   np.where(inside, (1.0 - p) / (1.0 - c), 0.0)])  # (3, G, N)
    variance = p * (1.0 - p)
    score = ((dp * ((r - n[:, None] * p) / variance)).sum(axis=1)
             + _PRIOR_PRECISION * (_PRIOR_MEAN - x))
    weighted = dp * np.sqrt(n[:, None] / variance)  # so that info is exactly symmetric
    info = np.einsum("kgn,lgn->nkl", weighted, weighted) + np.diag(_PRIOR_PRECISION[:, 0])
    return score, info


def fit_3pl(responses: ResponseMatrix, max_outer: int = MAX_OUTER) -> IrtFit:
    """Marginal MAP item parameters and EAP abilities of one matrix.

    Starts from a = 1, b the inverse logistic of item difficulty and
    c = ANCHOR_C.  Each iteration takes the posterior over the grid (E-step)
    and one Fisher-scoring step per item (M-step), halved up to
    MAX_HALVINGS times, each trial projected onto the box bounds, until the
    item's expected log posterior strictly improves; else the item keeps
    its parameters.  ``history`` is the marginal log posterior after each
    iteration; the fit stops once an iteration gains less than TOL or after
    max_outer iterations.
    """
    if max_outer < 1:
        raise IrtError("max_outer must be >= 1")
    u = responses.entries.astype(float)
    easiness = np.clip(u.mean(axis=0), 1e-3, 1 - 1e-3)
    x = np.stack([np.ones(u.shape[1]),
                  np.clip(-np.log(easiness / (1.0 - easiness)), *B_BOUNDS),
                  np.full(u.shape[1], ANCHOR_C)])
    prev, posterior = _e_step(u, x)
    history = []
    for _ in range(max_outer):
        n, r = posterior.sum(axis=0), posterior.T @ u
        score, info = _score_information(x, n, r)
        step = np.linalg.solve(info, score.T[..., None])[..., 0].T
        old = _expected_log_posterior(x, n, r)
        pending = np.ones(u.shape[1], dtype=bool)
        for _ in range(MAX_HALVINGS + 1):
            trial = np.clip(x + step, _LOWER, _UPPER)  # projected onto the box
            better = pending & (_expected_log_posterior(trial, n, r) > old)
            x = np.where(better, trial, x)
            pending &= ~better
            step /= 2
        cur, posterior = _e_step(u, x)
        history.append(cur)
        converged = cur - prev < TOL
        if converged:
            break
        prev = cur
    return IrtFit(*x, theta=(posterior * GRID).sum(axis=1), history=history,
                  iterations=len(history), converged=converged)


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


def reliability_compare(x: ReliabilitySummary, y: ReliabilitySummary) -> str:
    """Vote-based verdict: lower difficulty, higher discrimination and lower
    guessing each cast one vote.

    A majority wins when its strongest dissenting margin (none when
    unanimous) is below TIE_EPSILON or below its strongest supporting
    margin; a tied vote, or any other, is ambiguous.  Antisymmetric by
    construction.
    """
    # signed margins: positive favours x
    margins = [
        y.mean_difficulty - x.mean_difficulty,
        x.mean_discrimination - y.mean_discrimination,
        y.mean_guessing - x.mean_guessing,
    ]
    pro_x = [m for m in margins if m > 0]
    pro_y = [-m for m in margins if m < 0]
    if len(pro_x) == len(pro_y):
        return AMBIGUOUS
    winner, support, dissent = ((X_MORE_RELIABLE, pro_x, pro_y) if len(pro_x) > len(pro_y)
                                else (Y_MORE_RELIABLE, pro_y, pro_x))
    return winner if max(dissent, default=0.0) < max(TIE_EPSILON, *support) else AMBIGUOUS
