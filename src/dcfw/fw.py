"""Projection-free solvers for smooth convex minimization over polytopes.

Provides vanilla Frank-Wolfe and blended pairwise conditional gradients
(BPCG), an active-set representation of iterates as convex combinations of
vertices, and the step-size rules shared by both solvers.  Objectives are any
objects exposing ``value(x)`` and ``grad(x)``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from ._checks import integer, real

# weight drift beyond this triggers renormalization of an active set
_WEIGHT_DRIFT_TOL = 1e-12
# the secant search's derivative tolerance (relative to ||d||) and budget
_SECANT_TOL = 1e-10
_SECANT_MAX_EVAL = 40
# slack, relative to max(|descent_from|, |h| at the last evaluation), within
# which _inner_loop trusts its lower bound on h to show that the adaptive
# stop rule cannot fire (measured: the bound exceeded h by at most 2.6e-16
# of that scale over 126,497 iterates of the four benchmark workloads at
# seeds 0 and 7919, a bound from h at the previous iterate by 4.2e-16)
STOP_BOUND_RTOL = 1e-9


class ActiveSet:
    """Convex combination of polytope vertices with a cached iterate.

    The atoms are the first len(weights) rows of one array, in insertion
    order: the array doubles when full, and dropping an atom shifts the rows
    after it down.  Atoms are deduplicated by value, so coordinates 0.0 and
    -0.0 match; weights stay positive and sum to one.  The cached iterate is
    updated incrementally by the step routines and recomputed from scratch
    whenever the weights are renormalized.
    """

    def __init__(self, vertices, weights):
        if len(vertices) != len(weights):
            raise ValueError("vertices and weights differ in length")
        if not len(vertices):
            raise ValueError("active set needs at least one atom")
        self._rows = np.empty((len(vertices), np.size(vertices[0])))
        self.weights = []
        for v, w in zip(vertices, weights):
            w = real("weights", w, positive=True, finite=True)
            self._add(self._atom(np.asarray(v, dtype=float)), w)
        self._x = self.recombine()
        self._renormalize_if_drifted()

    @classmethod
    def from_vertex(cls, v):
        return cls([v], [1.0])

    def __len__(self):
        return len(self.weights)

    @property
    def vertices(self):
        """Atoms as the rows of a read-only (len, n) view."""
        view = self._rows[: len(self.weights)]
        view.flags.writeable = False
        return view

    @property
    def iterate(self):
        """Cached convex combination; treat as read-only."""
        return self._x

    def copy(self):
        out = ActiveSet.__new__(ActiveSet)
        out._rows = self._rows[: len(self.weights)].copy()
        out.weights = list(self.weights)
        out._x = self._x.copy()
        return out

    def recombine(self):
        """Recompute the iterate directly from atoms and weights."""
        x = np.zeros(self._rows.shape[1])
        for v, w in zip(self._rows, self.weights):
            x += w * v
        return x

    def _atom(self, v):
        if v.shape != self._rows.shape[1:]:  # numpy would broadcast it into a row
            raise ValueError(f"atom of shape {v.shape}, not {self._rows.shape[1:]}")
        return v

    def _add(self, v, w):
        m = len(self.weights)
        same = np.flatnonzero((self._rows[:m] == v).all(axis=1))
        if same.size:
            self.weights[same[0]] += w
            return
        if m == len(self._rows):
            grown = np.empty((2 * m, self._rows.shape[1]))
            grown[:m] = self._rows
            self._rows = grown
        self._rows[m] = v
        self.weights.append(w)

    def _drop(self, i):
        m = len(self.weights)
        self._rows[i : m - 1] = self._rows[i + 1 : m]
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
        scores = np.vecdot(self._rows[: len(self.weights)], grad)
        return int(scores.argmax()), int(scores.argmin())

    def fw_update(self, v, gamma):
        """Move the iterate toward vertex v: weights scale by (1 - gamma) and
        v absorbs gamma.  gamma = 1 collapses the set to {v}."""
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
        v = self._atom(np.array(v, dtype=float))
        if gamma == 0.0:
            return
        if gamma == 1.0:
            self._rows[0] = v
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
        the set keeps it as its iterate.  Returns True when a drop happened.
        The indices are atom positions in range(len(self)); a negative one
        raises IndexError."""
        m = len(self.weights)
        if not (0 <= to_idx < m and 0 <= from_idx < m):
            raise IndexError(f"atom indices ({to_idx}, {from_idx}) outside range({m})")
        if to_idx == from_idx:
            raise ValueError("pairwise transfer needs two distinct atoms")
        w_from = self.weights[from_idx]
        if not 0.0 <= gamma <= w_from:
            raise ValueError(f"gamma={gamma} outside [0, {w_from}]")
        if x.shape != self._x.shape:
            raise ValueError(f"iterate of shape {x.shape}, not {self._x.shape}")
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


def secant_line_search(value_fn, grad_fn, x, d, gamma_max, dphi0):
    """Approximately minimize phi(gamma) = value(x + gamma * d) on [0, gamma_max].

    Runs a bracketing secant iteration on phi'(gamma) = <grad(x + gamma*d), d>
    seeded at gamma = 0 and gamma = gamma_max.  Stops once |phi'| <=
    _SECANT_TOL * ||d|| or after _SECANT_MAX_EVAL gradient evaluations; a
    final value comparison guarantees value(x + gamma*d) <= value(x).
    dphi0 is phi'(0) = <grad(x), d>, which the solvers have from their
    gaps.  A non-finite phi' raises ValueError naming its gamma.  On a
    quadratic the first secant step is exact, so the interior minimizer is
    found with two gradient evaluations.

    Returns (gamma, x + gamma * d, grad_fn's gradient there or None).  On
    the exits at gamma_max and on convergence the point is the array the
    search last probed, with that probe's gradient; the backtracking exit
    returns None for the gradient, and gamma = 0 returns x itself and None.
    """
    if gamma_max <= 0:
        return 0.0, x, None
    if not math.isfinite(dphi0):
        raise ValueError(f"non-finite slope {dphi0} at gamma = 0")
    if dphi0 >= 0:
        return 0.0, x, None
    y = x + gamma_max * d
    grad = grad_fn(y)
    d_hi = float(d.dot(grad))
    if not math.isfinite(d_hi):
        raise ValueError(f"non-finite slope {d_hi} at gamma = {gamma_max}")
    if d_hi <= 0:
        return float(gamma_max), y, grad  # still descending at the cap

    # numpy's own formula for the 2-norm of a 1-D array, without its overhead
    d_scale = _SECANT_TOL * math.sqrt(d.dot(d))
    lo, d_lo = 0.0, dphi0
    hi = float(gamma_max)
    gamma = hi - d_hi * (hi - lo) / (d_hi - d_lo)
    evals = 1
    while evals < _SECANT_MAX_EVAL:
        gamma = min(max(gamma, lo), hi)
        y = x + gamma * d
        grad = grad_fn(y)
        dg = float(d.dot(grad))
        evals += 1
        if not math.isfinite(dg):
            raise ValueError(f"non-finite slope {dg} at gamma = {gamma}")
        # a converged exit cannot ascend by more than
        # (_SECANT_TOL*||d||)^2 / curvature, far below roundoff for the
        # objectives here; the other exits check values
        if abs(dg) <= d_scale:
            return float(gamma), y, grad
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
            return g, y, None
        g *= 0.5
    return 0.0, x, None


@dataclass(frozen=True)
class Agnostic:
    """Open-loop step size 2 / (k + 2); step returns (gamma, x + gamma * d,
    None), computing no gradient."""

    def step(self, objective, x, grad, d, gamma_max, k, dphi0):
        gamma = min(2.0 / (k + 2.0), gamma_max)
        return gamma, x + gamma * d, None


@dataclass(frozen=True)
class Secant:
    """Secant line search on the directional derivative (secant_line_search).

    An objective whose ``quadratic`` attribute is true is minimized along d
    in closed form by its ``quadratic_step(x, grad, d, gamma_max, dphi0)``
    instead, grad being the objective's gradient at x.  Either way step
    returns (gamma, x + gamma * d, the gradient there or None).
    """

    def step(self, objective, x, grad, d, gamma_max, k, dphi0):
        if getattr(objective, "quadratic", False):
            return objective.quadratic_step(x, grad, d, gamma_max, dphi0)
        return secant_line_search(
            objective.value, objective.grad, x, d, gamma_max, dphi0=dphi0
        )


def _inner_loop(
    objective, lmo, x, step, fw_gap_tol, max_iters, descent_from, deadline,
    callback, extra,
):
    """The iteration both solvers share; step(k, x, grad, v, d, gap), d
    being the Frank-Wolfe direction v - x, returns (x_next, gamma,
    step_type, the gradient at x_next or None, the slope <grad, d'> of the
    direction d' it moved along) and must leave its state untouched when
    gamma is 0.  The loop asks the objective for a gradient only when the
    step handed back None.  extra holds additional callback entries.

    The adaptive stop rule stops at the first x whose gap is at most
    descent_from - objective.value(x).  The objective is convex, so each
    step x -> x + gamma * d' lowers a bound h_low <= value(x) by gamma
    times the slope; the loop asks for value(x) only when the gap is not
    above descent_from - h_low plus a slack of STOP_BOUND_RTOL times
    max(|descent_from|, |h| at the last evaluation), and restarts the bound
    from that value.  A NaN bound always evaluates.  The rule fires only on
    an evaluated value, so it stops where evaluating at every x would."""
    max_iters = integer("max_iters", max_iters, 1)
    fw_gap_tol = real("fw_gap_tol", fw_gap_tol)
    if descent_from is not None:
        descent_from = real("descent_from", descent_from)
    if deadline is not None:
        deadline = real("deadline", deadline)
    stats = FwStats()
    steps = {"fw": 0, "pairwise_descent": 0, "pairwise_drop": 0}
    grad = None
    h_low, slack = -math.inf, 0.0  # no bound before the first evaluation
    for k in range(max_iters + 1):
        if grad is None:
            grad = objective.grad(x)
        v = lmo(grad)
        d = v - x
        # the gap <grad, x - v>: negating is exact, so it is -<grad, d> up to
        # the sign of a zero, and 0.0 - makes a zero gap +0.0
        gap = 0.0 - float(d.dot(grad))
        stats.final_fw_gap = gap
        if gap <= fw_gap_tol:
            stats.termination = "gap_tol"
            break
        if descent_from is not None and not gap > descent_from - h_low + slack:
            h = objective.value(x)
            if gap <= descent_from - h:
                stats.termination = "stop_rule"
                break
            h_low, slack = h, STOP_BOUND_RTOL * max(abs(descent_from), abs(h))
        if k == max_iters:
            stats.termination = "iter_cap"
            break
        if deadline is not None and time.perf_counter() > deadline:
            stats.termination = "time_limit"
            break
        x_next, gamma, step_type, grad, slope = step(k, x, grad, v, d, gap)
        if gamma == 0.0:
            stats.termination = "stagnation"
            break
        x = x_next
        h_low += gamma * slope
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
    descent_from=None,
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
    fw_gap_tol : stop once the Frank-Wolfe gap is at most this number
    max_iters : integer of at least 1, the most steps the solve takes
    descent_from : optional number c; the adaptive stop rule stops once the
        gap at x is at most c - objective.value(x), evaluated only where a
        convexity bound on the value shows it may fire (see _inner_loop).
        inf stops at the first iterate
    deadline : optional time.perf_counter() value; stop with termination
        time_limit once it has passed
    callback : optional, called with a dict after every step

    Returns (x, FwStats).  The reported gap is always evaluated at the
    returned iterate, and the solve calls lmo iterations + 1 times.  A
    max_iters, fw_gap_tol, descent_from or deadline of another kind raises
    TypeError, and one that is NaN or below range ValueError, before the
    first LMO call.
    """

    def step(k, x, grad, v, d, gap):
        gamma, x_next, grad = line_search.step(objective, x, grad, d, 1.0, k, -gap)
        return x_next, gamma, "fw", grad, -gap

    x = np.array(x0, dtype=float)
    return _inner_loop(
        objective, lmo, x, step, fw_gap_tol, max_iters, descent_from, deadline,
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
    descent_from=None,
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
    if active_set is None:
        raise ValueError("bpcg needs a starting active set")

    def step(k, x, grad, w, d_fw, gap):
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
            gamma, x_next, grad_next = line_search.step(
                objective, x, grad, d, gamma_max, k, dphi0=-local_gap
            )
            # a zero transfer leaves the weights and the iterate as they are
            dropped = active_set.pairwise_update(local_idx, away_idx, gamma, x_next)
            step_type = "pairwise_drop" if dropped else "pairwise_descent"
            x = active_set.iterate  # not x_next once the set renormalized
            grad_next = grad_next if x is x_next else None
            return x, gamma, step_type, grad_next, -local_gap
        gamma = line_search.step(objective, x, grad, d_fw, 1.0, k, dphi0=-gap)[0]
        # a zero step leaves the set as is; any other rebuilds the iterate as
        # (1 - gamma) x + gamma w, with other bits than the search's point
        active_set.fw_update(w, gamma)
        return active_set.iterate, gamma, "fw", None, -gap

    extra = {"active_set": active_set}
    x, stats = _inner_loop(
        objective, lmo, active_set.iterate, step, fw_gap_tol, max_iters,
        descent_from, deadline, callback, extra,
    )
    return x, active_set, stats
