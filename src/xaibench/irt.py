"""3PL item response theory engine.

Joint item/ability estimation by alternating penalized maximum likelihood
(Birnbaum scheme) on a respondents x items correctness matrix, item
characteristic curves as one array, reliability summaries and
model-reliability verdicts.

Respondents are rows, items are columns.  All optimizer moves are
accept-only-if-better, so the tracked objective never decreases across
outer iterations.
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
    respondent_ids: tuple
    item_ids: tuple

    def __post_init__(self):
        u = np.array(self.entries, dtype=int)
        u.flags.writeable = False
        object.__setattr__(self, "entries", u)
        object.__setattr__(self, "respondent_ids", tuple(self.respondent_ids))
        object.__setattr__(self, "item_ids", tuple(self.item_ids))
        if u.ndim != 2:
            raise IrtError("entries must be 2-D")
        r, n = u.shape
        if r < 2 or n < 2:
            raise IrtError("need at least 2 respondents and 2 items")
        if not np.all((u == 0) | (u == 1)):
            raise IrtError("entries must be binary")
        if len(self.respondent_ids) != r or len(self.item_ids) != n:
            raise IrtError("identifier counts must match the matrix shape")


@dataclass(frozen=True)
class ItemParameters:
    a: np.ndarray  # discrimination
    b: np.ndarray  # difficulty
    c: np.ndarray  # guessing

    def __post_init__(self):
        for name, bounds in (("a", A_BOUNDS), ("b", B_BOUNDS), ("c", C_BOUNDS)):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
            if v.ndim != 1:
                raise IrtError(f"{name} must be a vector")
            if np.any(v < bounds[0] - 1e-9) or np.any(v > bounds[1] + 1e-9):
                raise IrtError(f"{name} outside bounds {bounds}")
        if not (len(self.a) == len(self.b) == len(self.c)):
            raise IrtError("parameter vectors must share a length")


@dataclass(frozen=True)
class Abilities:
    theta: np.ndarray

    def __post_init__(self):
        v = np.array(self.theta, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "theta", v)
        if np.any(v < THETA_BOUNDS[0] - 1e-9) or np.any(v > THETA_BOUNDS[1] + 1e-9):
            raise IrtError(f"theta outside bounds {THETA_BOUNDS}")


@dataclass(frozen=True)
class IrtFit:
    items: ItemParameters
    abilities: Abilities
    log_likelihood: float  # final penalized objective
    history: tuple  # objective after each outer iteration, non-decreasing
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ReliabilitySummary:
    mean_difficulty: float
    mean_discrimination: float
    mean_guessing: float
    mean_ability: float
    negative_item_count: int


def _prob_matrix(a, b, c, theta):
    """Clipped hit probabilities (..., R, N) for item vectors (N,) or stacked
    (K, N) and abilities (R,) or (K, R).  z = theta*a - a*b, not
    a*(theta - b), which rounds differently."""
    z = np.clip(theta[..., :, None] * a[..., None, :] - (a * b)[..., None, :], -500, 500)
    p = c[..., None, :] + (1.0 - c[..., None, :]) / (1.0 + np.exp(-z))
    return np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP)


def _loglik_entries(u, a, b, c, theta):
    # equals u*log(p) + (1-u)*log(1-p) bit for bit: u is 0/1 and both logs are finite
    p = _prob_matrix(a, b, c, theta)
    return np.log(np.where(u, p, 1.0 - p))


def _item_objective(u, a, b, c, theta):
    """Penalized per-item log-likelihood, shaped (..., N)."""
    ll = _loglik_entries(u, a, b, c, theta).sum(axis=-2)
    pen = PENALTY_WEIGHT * ((a - ANCHOR_A) ** 2 + (c - ANCHOR_C) ** 2)
    return ll - pen


def _respondent_objective(u, a, b, c, theta):
    """Per-respondent log-likelihood, shaped (..., R)."""
    return _loglik_entries(u, a, b, c, theta).sum(axis=-1)


def _scan_golden_max(f, current, lo, hi, scan_points=SCAN_POINTS, xtol=XTOL):
    """Elementwise 1-D maximization of f over [lo, hi].

    f maps a stacked (K, n) block of candidate vectors to (K, n) objectives,
    so the scan of all scan_points grid values, the pair of golden-section
    probes, and the final candidate-vs-current test each cost one call.
    The scan brackets the optimum at the first grid maximum (robust to
    bimodality in the discrimination coordinate), golden-section refines
    it, and each coordinate keeps its current value unless the candidate
    improves it.
    """
    n = len(current)
    grid = np.linspace(lo, hi, scan_points)
    step = grid[1] - grid[0]
    best_x = grid[np.argmax(f(np.repeat(grid[:, None], n, axis=1)), axis=0)]
    left = np.maximum(best_x - step, lo)
    right = np.minimum(best_x + step, hi)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    while np.max(right - left) > xtol:
        x1 = right - invphi * (right - left)
        x2 = left + invphi * (right - left)
        f1, f2 = f(np.stack([x1, x2]))
        move_lo = f1 < f2
        left = np.where(move_lo, x1, left)
        right = np.where(move_lo, right, x2)
    cand = 0.5 * (left + right)
    f_cand, f_cur = f(np.stack([cand, np.asarray(current, dtype=float)]))
    return np.where(f_cand > f_cur, cand, current)


def _standardized_scores(u):
    s = u.mean(axis=1)
    sd = s.std(ddof=0)
    if sd < 1e-12:
        return np.zeros(len(s))
    return np.clip((s - s.mean()) / sd, *THETA_BOUNDS)


def fit_3pl(responses: ResponseMatrix, max_outer: int = MAX_OUTER) -> IrtFit:
    """Alternating penalized MLE of item parameters and abilities.

    Initialization: theta from standardized raw scores, a = 1, b from the
    inverse logistic of item easiness, c = ANCHOR_C.  Outer iterations
    alternate a full item-parameter pass with a respondent-ability pass
    until the objective gain drops below TOL or max_outer is reached.
    """
    u = responses.entries.astype(float)
    r, n = u.shape
    theta = _standardized_scores(u)
    a = np.ones(n)
    easiness = np.clip(u.mean(axis=0), 1e-3, 1 - 1e-3)
    b = np.clip(-np.log(easiness / (1.0 - easiness)), *B_BOUNDS)
    c = np.full(n, ANCHOR_C)

    def total_objective():
        return float(np.sum(_item_objective(u, a, b, c, theta)))

    history = []
    prev = total_objective()
    converged = False
    iterations = 0
    for _ in range(max_outer):
        iterations += 1
        a = _scan_golden_max(lambda v: _item_objective(u, v, b, c, theta), a, *A_BOUNDS)
        b = _scan_golden_max(lambda v: _item_objective(u, a, v, c, theta), b, *B_BOUNDS)
        c = _scan_golden_max(lambda v: _item_objective(u, a, b, v, theta), c, *C_BOUNDS)
        theta = _scan_golden_max(lambda v: _respondent_objective(u, a, b, c, v),
                                 theta, *THETA_BOUNDS)
        cur = total_objective()
        history.append(cur)
        if cur - prev < TOL:
            converged = True
            break
        prev = cur
    return IrtFit(
        items=ItemParameters(a, b, c),
        abilities=Abilities(theta),
        log_likelihood=history[-1],
        history=tuple(history),
        iterations=iterations,
        converged=converged,
    )


def default_theta_grid() -> np.ndarray:
    return np.linspace(THETA_BOUNDS[0], THETA_BOUNDS[1], 161)


def icc(items: ItemParameters, theta_grid) -> np.ndarray:
    """Characteristic curves over an ascending ability grid, one row per
    item: an (N, G) array of hit probabilities."""
    grid = np.asarray(theta_grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise IrtError("theta grid must be strictly ascending")
    return p_correct(items.a[:, None], items.b[:, None], items.c[:, None], grid)


def summarize(fit: IrtFit) -> ReliabilitySummary:
    items = fit.items
    return ReliabilitySummary(
        mean_difficulty=float(np.mean(items.b)),
        mean_discrimination=float(np.mean(items.a)),
        mean_guessing=float(np.mean(items.c)),
        mean_ability=float(np.mean(fit.abilities.theta)),
        negative_item_count=int(np.sum(items.a < 0)),
    )


def reliability_compare(x: ReliabilitySummary, y: ReliabilitySummary,
                        tie_epsilon: float = 0.05, use_ability: bool = False) -> str:
    """Vote-based verdict: lower difficulty, higher discrimination and lower
    guessing each cast one vote (mean ability adds an optional fourth).

    A majority wins when unanimous, or when the dissenting margin is either
    below tie_epsilon or smaller than the strongest supporting margin;
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
    if dissent < tie_epsilon or dissent < max(supporters):
        return winner
    return AMBIGUOUS


def fit_to_dict(fit: IrtFit) -> dict:
    return {
        "a": fit.items.a.tolist(),
        "b": fit.items.b.tolist(),
        "c": fit.items.c.tolist(),
        "theta": fit.abilities.theta.tolist(),
        "log_likelihood": fit.log_likelihood,
        "history": list(fit.history),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def fit_from_dict(d: dict) -> IrtFit:
    return IrtFit(
        items=ItemParameters(np.array(d["a"]), np.array(d["b"]), np.array(d["c"])),
        abilities=Abilities(np.array(d["theta"])),
        log_likelihood=d["log_likelihood"],
        history=tuple(d["history"]),
        iterations=d["iterations"],
        converged=d["converged"],
    )
