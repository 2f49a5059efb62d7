"""Projection-free solvers for smooth convex minimization over polytopes.

Provides vanilla Frank-Wolfe and blended pairwise conditional gradients
(BPCG), an active-set representation of iterates as convex combinations of
vertices, and the step-size rules shared by both solvers.  Objectives are any
objects exposing ``value(x)`` and ``grad(x)``.
"""

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

# weight drift beyond this triggers renormalization of an active set
_WEIGHT_DRIFT_TOL = 1e-12
# probes per level of the two-level grid search
_GRID_POINTS = 11
# the secant search's derivative tolerance (relative to ||d||) and budget
_SECANT_TOL = 1e-10
_SECANT_MAX_EVAL = 40


def fw_gap(grad, x, v):
    """Frank-Wolfe gap <grad, x - v> for a vertex v minimizing <grad, .>."""
    return float((x - v).dot(grad))


class ActiveSet:
    """Convex combination of polytope vertices with a cached iterate.

    The atoms are the rows of one array, kept in insertion order: the array
    doubles when full, and dropping an atom shifts the rows after it down.
    Atoms are deduplicated by value, so coordinates 0.0 and -0.0 match;
    weights stay positive and sum to one.  The cached iterate is updated
    incrementally by the step routines and recomputed from scratch whenever
    the weights are renormalized.
    """

    def __init__(self, vertices, weights):
        if len(vertices) != len(weights):
            raise ValueError("vertices and weights differ in length")
        if not len(vertices):
            raise ValueError("active set needs at least one atom")
        self._rows = np.empty((len(vertices), np.size(vertices[0])))
        self._m = 0
        self.weights = []
        for v, w in zip(vertices, weights):
            w = float(w)
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
            self._add(np.asarray(v, dtype=float), w)
        self._x = self.recombine()
        self._renormalize_if_drifted()

    @classmethod
    def from_vertex(cls, v):
        return cls([v], [1.0])

    def __len__(self):
        return self._m

    @property
    def vertices(self):
        """Atoms as the rows of a read-only (len, n) view."""
        view = self._rows[: self._m]
        view.flags.writeable = False
        return view

    @property
    def iterate(self):
        """Cached convex combination; treat as read-only."""
        return self._x

    def copy(self):
        out = ActiveSet.__new__(ActiveSet)
        out._rows = self._rows[: self._m].copy()
        out._m = self._m
        out.weights = list(self.weights)
        out._x = self._x.copy()
        return out

    def recombine(self):
        """Recompute the iterate directly from atoms and weights."""
        x = np.zeros(self._rows.shape[1])
        for v, w in zip(self._rows[: self._m], self.weights):
            x += w * v
        return x

    def _add(self, v, w):
        m = self._m
        same = np.flatnonzero((self._rows[:m] == v).all(axis=1))
        if same.size:
            self.weights[same[0]] += w
            return
        if m == len(self._rows):
            grown = np.empty((2 * m, self._rows.shape[1]))
            grown[:m] = self._rows
            self._rows = grown
        self._rows[m] = v
        self._m = m + 1
        self.weights.append(w)

    def _drop(self, i):
        self._rows[i : self._m - 1] = self._rows[i + 1 : self._m]
        self._m -= 1
        del self.weights[i]

    def _renormalize_if_drifted(self):
        total = sum(self.weights)
        if abs(total - 1.0) > _WEIGHT_DRIFT_TOL:
            self.weights = [w / total for w in self.weights]
            self._x = self.recombine()

    def extremes(self, grad):
        """Indices of the away atom (max <grad, v>) and the local forward
        atom (min <grad, v>), ties resolved to the lowest index."""
        # vecdot takes one BLAS dot per row, so each score is bit-identical
        # to np.dot(grad, v); a matrix product may sum in another order
        scores = np.vecdot(self._rows[: self._m], grad)
        return int(scores.argmax()), int(scores.argmin())

    def fw_update(self, v, gamma):
        """Move the iterate toward vertex v: weights scale by (1 - gamma) and
        v absorbs gamma.  gamma = 1 collapses the set to {v}."""
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        if gamma == 0.0:
            return
        v = np.array(v, dtype=float)
        if gamma == 1.0:
            self._rows[0] = v
            self._m = 1
            self.weights = [1.0]
            self._x = v
            return
        self.weights = [(1.0 - gamma) * w for w in self.weights]
        self._add(v, gamma)
        self._x = (1.0 - gamma) * self._x + gamma * v
        self._renormalize_if_drifted()

    def pairwise_update(self, to_idx, from_idx, gamma, x):
        """Transfer gamma of weight from one atom to another; a full transfer
        drops the source atom.  x is the new iterate, iterate + gamma *
        (v_to - v_from), which the caller's line search has already built;
        the set keeps it as its iterate.  Returns True when a drop happened."""
        # negative indices count from the last atom, as for a list
        to_idx, from_idx = range(self._m)[to_idx], range(self._m)[from_idx]
        if to_idx == from_idx:
            raise ValueError("pairwise transfer needs two distinct atoms")
        w_from = self.weights[from_idx]
        if not 0.0 <= gamma <= w_from:
            raise ValueError(f"gamma={gamma} outside [0, {w_from}]")
        self.weights[to_idx] += gamma
        self._x = x
        dropped = gamma >= w_from
        if dropped:
            self._drop(from_idx)
        else:
            self.weights[from_idx] = w_from - gamma
        self._renormalize_if_drifted()
        return dropped

    @classmethod
    def convex_combination(cls, first, second, lam):
        """Active set for (1 - lam) * first.iterate + lam * second.iterate."""
        if not 0.0 < lam < 1.0:
            raise ValueError(f"lam must lie strictly in (0, 1), got {lam}")
        vertices = np.concatenate([first.vertices, second.vertices])
        weights = [(1.0 - lam) * w for w in first.weights] + [
            lam * w for w in second.weights
        ]
        return cls(vertices, weights)


@dataclass
class FwStats:
    """Counters and outcome of one inner solve."""

    iterations: int = 0
    final_fw_gap: float = np.inf
    termination: str = ""  # gap_tol | stop_rule | iter_cap | time_limit | stagnation
    fw_steps: int = 0
    pairwise_descent_steps: int = 0
    pairwise_drop_steps: int = 0


def _last_argmin(values):
    # prefer the largest index among ties
    v = np.where(np.isfinite(values), values, np.inf)
    return len(v) - 1 - int(np.argmin(v[::-1]))


def grid_two_level(value_fn, x, d, gamma_max, value0=None):
    """Two-level grid search for min of value(x + gamma * d) on [0, gamma_max].

    A coarse equispaced grid locates the best cell, a second grid of the same
    size refines between that point's neighbors; its two ends are coarse
    points, so a search makes 2 * _GRID_POINTS - 2 evaluations, one fewer
    when value0, the value at gamma = 0, is given.  Ties prefer larger
    gamma, so a flat objective returns gamma_max.  When no probe is finite
    there is nothing to prefer and the search returns 0, no step.
    """
    if gamma_max <= 0:
        return 0.0
    coarse = np.linspace(0.0, gamma_max, _GRID_POINTS)
    known = [] if value0 is None else [float(value0)]
    vals = np.array(
        known + [float(value_fn(x + g * d)) for g in coarse[len(known) :]]
    )
    if not np.any(np.isfinite(vals)):
        return 0.0
    i = _last_argmin(vals)
    lo, hi = max(i - 1, 0), min(i + 1, _GRID_POINTS - 1)
    # linspace returns its endpoints exactly, so the fine grid's two ends are
    # coarse points whose values are already known
    fine = np.linspace(coarse[lo], coarse[hi], _GRID_POINTS)
    inner = [float(value_fn(x + g * d)) for g in fine[1:-1]]
    fine_vals = np.array([vals[lo], *inner, vals[hi]])
    candidates = np.concatenate([coarse, fine])
    all_vals = np.concatenate([vals, fine_vals])
    return float(candidates[_last_argmin(all_vals)])


def _grid_fallback(value_fn, x, d, gamma_max):
    logger.warning("non-finite directional derivative, falling back to grid search")
    gamma = grid_two_level(value_fn, x, d, gamma_max)
    return gamma, x + gamma * d


def secant_line_search(value_fn, grad_fn, x, d, gamma_max, dphi0=None):
    """Approximately minimize phi(gamma) = value(x + gamma * d) on [0, gamma_max].

    Runs a bracketing secant iteration on phi'(gamma) = <grad(x + gamma*d), d>
    seeded at gamma = 0 and gamma = gamma_max.  Stops once |phi'| <=
    _SECANT_TOL * ||d|| or after _SECANT_MAX_EVAL gradient evaluations; a
    final value comparison guarantees value(x + gamma*d) <= value(x).  Pass
    dphi0 = <grad(x), d> when the gradient at x is already available so it
    is not evaluated again.  A non-finite phi' anywhere falls back, with a
    warning, to grid_two_level.  On a quadratic the first secant step is
    exact, so the interior minimizer is found with two gradient evaluations.

    Returns (gamma, x + gamma * d).  The point is the array the search last
    probed when gamma is that probe's, and x itself when gamma is 0.
    """
    if gamma_max <= 0:
        return 0.0, x
    if dphi0 is None:
        dphi0 = float(np.dot(grad_fn(x), d))
    if not math.isfinite(dphi0):
        return _grid_fallback(value_fn, x, d, gamma_max)
    if dphi0 >= 0:
        return 0.0, x
    y = x + gamma_max * d
    d_hi = float(d.dot(grad_fn(y)))
    if not math.isfinite(d_hi):
        return _grid_fallback(value_fn, x, d, gamma_max)
    if d_hi <= 0:
        return float(gamma_max), y  # still descending at the cap

    # numpy's own formula for the 2-norm of a 1-D array, without its overhead
    d_scale = _SECANT_TOL * math.sqrt(d.dot(d))
    lo, d_lo = 0.0, dphi0
    hi = float(gamma_max)
    gamma = hi - d_hi * (hi - lo) / (d_hi - d_lo)
    evals = 1
    while evals < _SECANT_MAX_EVAL:
        gamma = min(max(gamma, lo), hi)
        y = x + gamma * d
        dg = float(d.dot(grad_fn(y)))
        evals += 1
        if not math.isfinite(dg):
            return _grid_fallback(value_fn, x, d, gamma_max)
        # a converged exit cannot ascend by more than
        # (_SECANT_TOL*||d||)^2 / curvature, far below roundoff for the
        # objectives here; the other exits check values
        if abs(dg) <= d_scale:
            return float(gamma), y
        if dg > 0:
            hi, d_hi = gamma, dg
        else:
            lo, d_lo = gamma, dg
        if hi - lo <= 1e-17 * gamma_max:
            break
        nxt = hi - d_hi * (hi - lo) / (d_hi - d_lo)
        if nxt == gamma:
            break
        gamma = nxt

    phi0 = float(value_fn(x))
    g = float(gamma)
    for _ in range(60):
        y = x + g * d
        if float(value_fn(y)) <= phi0:
            return g, y
        g *= 0.5
    return 0.0, x


@dataclass(frozen=True)
class Agnostic:
    """Open-loop step size 2 / (k + 2); step returns (gamma, x + gamma * d)."""

    def step(self, objective, x, d, gamma_max, k, dphi0=None):
        gamma = min(2.0 / (k + 2.0), gamma_max)
        return gamma, x + gamma * d


@dataclass(frozen=True)
class Secant:
    """Secant line search on the directional derivative (secant_line_search).

    An objective whose ``quadratic`` attribute is true is minimized along d
    in closed form by its ``quadratic_step(x, d, gamma_max, dphi0)`` instead;
    dphi0 must then be given.  Either way step returns (gamma, x + gamma * d).
    """

    def step(self, objective, x, d, gamma_max, k, dphi0=None):
        if getattr(objective, "quadratic", False):
            return objective.quadratic_step(x, d, gamma_max, dphi0)
        return secant_line_search(
            objective.value, objective.grad, x, d, gamma_max, dphi0=dphi0
        )


def _inner_loop(
    objective, lmo, x, step, fw_gap_tol, max_iters, stop_rule, deadline,
    callback, extra,
):
    """The iteration both solvers share; step(k, x, grad, v, gap) returns
    (x_next, gamma, step_type) and must leave its state untouched when
    gamma is 0.  extra holds additional callback entries."""
    stats = FwStats()
    steps = {"fw": 0, "pairwise_descent": 0, "pairwise_drop": 0}
    for k in range(max_iters + 1):
        grad = objective.grad(x)
        v = lmo(grad)
        gap = fw_gap(grad, x, v)
        stats.final_fw_gap = gap
        if gap <= fw_gap_tol:
            stats.termination = "gap_tol"
            break
        if stop_rule is not None and gap <= stop_rule(x):
            stats.termination = "stop_rule"
            break
        if k == max_iters:
            stats.termination = "iter_cap"
            break
        if deadline is not None and time.perf_counter() > deadline:
            stats.termination = "time_limit"
            break
        x_next, gamma, step_type = step(k, x, grad, v, gap)
        if gamma == 0.0:
            stats.termination = "stagnation"
            break
        x = x_next
        stats.iterations += 1
        steps[step_type] += 1
        if callback is not None:
            callback(
                dict(k=k, x=x, gap=gap, gamma=gamma, step_type=step_type, **extra)
            )
    stats.fw_steps = steps["fw"]
    stats.pairwise_descent_steps = steps["pairwise_descent"]
    stats.pairwise_drop_steps = steps["pairwise_drop"]
    return x, stats


def vanilla_fw(
    objective,
    lmo,
    x0,
    line_search,
    *,
    fw_gap_tol=1e-7,
    max_iters=10000,
    stop_rule=None,
    deadline=None,
    callback=None,
):
    """Frank-Wolfe with a single LMO call per iteration.

    Parameters
    ----------
    objective : object with value(x) and grad(x)
    lmo : callable mapping a gradient to a vertex
    x0 : feasible starting point
    line_search : Agnostic or Secant
    fw_gap_tol : stop once the Frank-Wolfe gap falls below this
    stop_rule : optional callable x -> threshold; stop once the gap at x is
        at most stop_rule(x)
    deadline : optional time.perf_counter() value; stop with termination
        time_limit once it has passed
    callback : optional, called with a dict after every step

    Returns (x, FwStats).  The reported gap is always evaluated at the
    returned iterate, and the solve calls lmo iterations + 1 times.
    """

    def step(k, x, grad, v, gap):
        gamma, x_next = line_search.step(objective, x, v - x, 1.0, k, dphi0=-gap)
        return x_next, gamma, "fw"

    x = np.array(x0, dtype=float)
    return _inner_loop(
        objective, lmo, x, step, fw_gap_tol, max_iters, stop_rule, deadline,
        callback, {},
    )


def bpcg(
    objective,
    lmo,
    active_set,
    line_search,
    *,
    fw_gap_tol=1e-7,
    max_iters=10000,
    stop_rule=None,
    deadline=None,
    callback=None,
):
    """Blended pairwise conditional gradients over a polytope.

    Each iteration computes the global Frank-Wolfe vertex w = LMO(grad) and
    compares the local pairwise gap <grad, a - s> over the active set (a the
    away atom, s the local forward atom) against the global gap
    <grad, x - w>.  The larger one decides between a weight transfer from a
    to s and a classic step toward w; either way the iteration consumes the
    single LMO call already made.  The active set is updated in place and
    returned alongside the final iterate, which is the set's own iterate
    array: treat it as read-only.  Other parameters as for vanilla_fw.

    Returns (x, active_set, FwStats).
    """
    if active_set is None or len(active_set) == 0:
        raise ValueError("bpcg needs a nonempty starting active set")

    def step(k, x, grad, w, gap):
        away_idx, local_idx = active_set.extremes(grad)
        # the atom rows, without the read-only view `vertices` builds
        atoms = active_set._rows
        d = atoms[local_idx] - atoms[away_idx]
        # negating is exact, so this is <grad, away - local> up to the sign
        # of a zero
        local_gap = -float(d.dot(grad))
        if local_gap >= gap and away_idx != local_idx:
            # transfer weight from the away atom toward the local atom
            gamma_max = active_set.weights[away_idx]
            gamma, x_next = line_search.step(
                objective, x, d, gamma_max, k, dphi0=-local_gap
            )
            if gamma == 0.0:
                return x, gamma, None
            dropped = active_set.pairwise_update(local_idx, away_idx, gamma, x_next)
            step_type = "pairwise_drop" if dropped else "pairwise_descent"
        else:
            gamma, _ = line_search.step(objective, x, w - x, 1.0, k, dphi0=-gap)
            active_set.fw_update(w, gamma)  # a zero step leaves the set as is
            step_type = "fw"
        return active_set.iterate, gamma, step_type

    extra = {"active_set": active_set}
    x, stats = _inner_loop(
        objective, lmo, active_set.iterate, step, fw_gap_tol, max_iters,
        stop_rule, deadline, callback, extra,
    )
    return x, active_set, stats
