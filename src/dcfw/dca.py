"""Difference-of-convex solver: linearize the concave part, solve the convex
surrogate with a projection-free subsolver, and certify progress with
computable gap bounds.

The objective is phi(x) = f(x) - g(x) with f smooth convex and g convex,
minimized over a compact polytope given by a linear minimization oracle.  At
an anchor x_t the surrogate h_t(x) = f(x) - g(x_t) - <g'(x_t), x - x_t>
majorizes phi and touches it at x_t, so phi(x_t) - h_t(y) lower-bounds both
the achievable progress and the stationarity gap at x_t, and adding the
subsolver's Frank-Wolfe gap at y turns it into an upper bound.
"""

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._checks import integer, real
from .fw import ActiveSet, Secant, bpcg, vanilla_fw


# vertex gradients an Oracles record keeps; it then stops adding.  An entry
# holds 2 * 8n bytes, key and gradient, and admits one of 2 * 8n bytes to the
# memo of the one live subproblem (see Subproblem.quadratic_step), so
# 4096 * 4 * 8n bytes at most, 13.1 MB at n = 100
VERTEX_TABLE_SIZE = 4096
# largest relative difference Subproblem.certify accepts between the gradient
# quadratic_step carried and the oracles' (measured: at most 7.7e-14 over
# 4,322 checks on the quadratic and QAP families, at up to 5,000 steps)
CARRY_RTOL = 1e-9
# largest shortfall of g(x) below its linearization at the anchor that
# dca_solve accepts at a new iterate x, relative to max(|g(x)|, |g(anchor)|)
# (measured: no shortfall over 10,471 checks on the three families, the
# least slack being exactly 0)
SUBGRAD_RTOL = 1e-9
# largest shortfall of f at one anchor below its linearization at the other
# of two consecutive anchors that dca_solve accepts, relative to the larger
# |f| of the two (measured: no shortfall over 10,872 checks on the three
# families, the least relative slack being +2.9e-13)
F_GRAD_RTOL = 1e-9
# probes per level of the boosted step's two-level grid search
_GRID_POINTS = 11


class OracleFailure(RuntimeError):
    """A problem oracle returned a non-finite value, or values that break
    a property the problem declares."""


@dataclass(kw_only=True)
class DcProblem:
    """Oracles for phi = f - g over a polytope, given by keyword.

    f_value/f_grad evaluate the smooth convex part, g_value/g_subgrad the
    convex part being linearized.  lmo is a LinearMinimizationOracle over the
    feasible region, and its dimension is the problem's.  quadratic declares
    f_grad and g_subgrad both affine on the region (f and g quadratic
    there).  The vanilla-FW subsolver then steps in closed form without a
    gradient call at its iterates (see Subproblem.quadratic_step), with the
    gradient checked against the oracles where the run moves to, and the
    boosted step takes y without a search when phi's closed form along its
    segment is least there (see boosted_step).  The stop rule and the
    certificates read h from the oracles' f only.  A false declaration
    therefore raises OracleFailure or skips a search, never makes a
    certificate wrong.
    """

    f_value: callable
    f_grad: callable
    g_value: callable
    g_subgrad: callable
    lmo: object
    quadratic: bool = False

    def phi(self, x):
        return float(self.f_value(x)) - float(self.g_value(x))


class Oracles:
    """The oracle values of one dca_solve run.

    f, g and f_grad each keep their value at the last point they were asked
    for, keyed on the bits they take from it, so a point the run comes back
    to costs no second call; the three must be pure functions of x.  Every
    value held is the oracle's own, never a closed form's.  A non-finite f
    or g raises OracleFailure naming step, the outer step dca_solve is in.

    With vertex_table, for the vanilla-FW subsolver, lmo calls the
    problem's LMO and records the bits of the vertex it returns, and
    vertex_grads maps the bits of a vertex to a read-only copy of f_grad
    there, stored when f_grad is first asked at the last vertex, at most
    VERTEX_TABLE_SIZE per run, and served to f_grad at any point with those
    bits, across outer steps, since f_grad does not depend on the anchor.
    """

    def __init__(self, problem, vertex_table=False):
        self.problem = problem
        self.vertex_grads = {} if vertex_table else None
        self.last_vertex = None  # bits of the vertex lmo returned last
        self.step = 0
        self._f = self._g = self._f_grad = (None, None)

    def _finite(self, name, value):
        value = float(value)
        if not math.isfinite(value):
            raise OracleFailure(f"{name} returned {value} in outer step {self.step}")
        return value

    def lmo(self, c):
        v = self.problem.lmo(c)
        self.last_vertex = v.tobytes()
        return v

    def f(self, x):
        key = x.tobytes()
        if key != self._f[0]:
            self._f = (key, self._finite("f_value", self.problem.f_value(x)))
        return self._f[1]

    def g(self, x):
        key = x.tobytes()
        if key != self._g[0]:
            self._g = (key, self._finite("g_value", self.problem.g_value(x)))
        return self._g[1]

    def f_grad(self, x):
        """f_grad at x, from vertex_grads when it holds x's bits, and kept
        there when x is the last vertex."""
        key = x.tobytes()
        if key == self._f_grad[0]:
            return self._f_grad[1]
        table = self.vertex_grads
        f_grad = None if table is None else table.get(key)
        if f_grad is None:
            f_grad = np.asarray(self.problem.f_grad(x), dtype=float)
            if key == self.last_vertex and len(table) < VERTEX_TABLE_SIZE:
                f_grad = f_grad.copy()  # the oracle may reuse its array
                f_grad.flags.writeable = False
                table[self.last_vertex] = f_grad
        self._f_grad = (key, f_grad)
        return f_grad


@dataclass
class Subproblem:
    """Convex majorant of phi obtained by linearizing g at an anchor.

    f and f_grad at the anchor are the oracles' (f_grad a read-only copy),
    and grad_at_anchor is the surrogate's gradient there.  oracles is the
    run's record, through which the surrogate evaluates f and f_grad.
    quadratic, true on a declared quadratic whose record keeps a vertex
    table (vanilla FW's; BPCG's steps would round differently in closed form
    and change its LMO counts), makes Secant take quadratic_step, the one
    step whose gradients, at its last point and at vertices, the subproblem
    keeps; it keeps no value of h.
    """

    anchor: np.ndarray
    g_at_anchor: float
    g_grad_at_anchor: np.ndarray
    f_at_anchor: float
    f_grad_at_anchor: np.ndarray
    oracles: Oracles

    def __post_init__(self):
        oracles = self.oracles  # Secant.step reads quadratic every step
        self.quadratic = oracles.problem.quadratic and oracles.vertex_grads is not None
        self.phi_at_anchor = self.f_at_anchor - self.g_at_anchor
        self.grad_at_anchor = self.f_grad_at_anchor - self.g_grad_at_anchor
        self.grad_at_anchor.flags.writeable = False
        self._carried = (None, None)  # quadratic_step's (point, grad)
        self._vertex_grads = {}  # quadratic_step's memo at vertices, see there

    def _lin(self, x):
        return self.g_at_anchor + float(self.g_grad_at_anchor.dot(x - self.anchor))

    def value(self, x):
        """h(x) = f(x) - lin(x), f from the record."""
        return self.oracles.f(x) - self._lin(x)

    def grad(self, x):
        """Gradient of the surrogate at x, through the record's f_grad."""
        return self.oracles.f_grad(x) - self.g_grad_at_anchor

    def descent(self, y):
        """phi(anchor) - h(y): the descent y secures, and the threshold of the
        adaptive inner stop rule, which the subsolvers compute with the same
        arithmetic as descent_from - value(y), descent_from being
        phi_at_anchor.  A Frank-Wolfe gap at y at most this value certifies
        that half the stationarity gap bound is realized as progress.  f(y)
        stays in the record, so when the rule fired at y the gap bounds and
        the objective there reuse its evaluation."""
        return self.phi_at_anchor - self.value(y)

    def quadratic_step(self, x, grad, d, gamma_max, dphi0):
        """Exact line search along d on [0, gamma_max] for a quadratic f.

        With grad the surrogate's gradient at x, slope dphi0 = <grad, d>,
        the gradient at the end point x + gamma_max * d and the curvature
        <d, grad(end) - grad>, returns the minimizing gamma, gamma_max when
        the end point still descends.  The gradient at the end point takes
        f_grad from the record, but at a last LMO vertex the record's table
        holds, it comes from the anchor's memo, read-only.  The surrogate's
        gradient is affine, so its gradient at x + gamma * d follows from
        those at x and the end point; it is carried to the point returned,
        where certify checks it.  No value of h is computed: the stop rule and
        the gap bounds take f from the record.  Returns (gamma, x + gamma *
        d, the gradient there), or (0.0, x, None) when d does not descend.
        """
        if not dphi0 < 0:
            return 0.0, x, None
        # 1.0 * d is d bit for bit, so a full step skips the product
        end = x + d if gamma_max == 1.0 else x + gamma_max * d
        oracles, vertex = self.oracles, self.oracles.last_vertex
        at_vertex = end.tobytes() == vertex  # vertex has hashed already
        grad_end = self._vertex_grads.get(vertex) if at_vertex else None
        if grad_end is None:
            grad_end = oracles.f_grad(end) - self.g_grad_at_anchor
            if at_vertex and vertex in oracles.vertex_grads:
                grad_end.flags.writeable = False
                self._vertex_grads[vertex] = grad_end
        diff = grad_end - grad
        curv = float(d.dot(diff))  # slope at the end point minus dphi0
        if not math.isfinite(curv):
            raise OracleFailure("f_grad returned non-finite entries at a step's end")
        if dphi0 + curv <= 0:  # still descending at the end point
            gamma, y, grad = gamma_max, end, grad_end
        else:
            gamma = min(-dphi0 * gamma_max / curv, gamma_max)
            y = x + gamma * d
            diff *= gamma / gamma_max
            diff += grad
            grad = diff
        self._carried = (y, grad)
        return gamma, y, grad

    def certify(self, y):
        """Check the gradient quadratic_step carried to y, which the FW gap
        at y comes from, against the oracles' f_grad, taken through the
        record, and drop the carry; a difference above CARRY_RTOL means f is
        not quadratic on the region and raises OracleFailure.  Does nothing
        unless y is the carried point itself."""
        point, grad_c = self._carried
        if y is not point:
            return
        self._carried = (None, None)
        f_grad = self.oracles.f_grad(y)
        # relative to the terms the gradient is the difference of
        tiny = np.finfo(float).tiny
        scale = max(np.abs(f_grad).max(), np.abs(self.g_grad_at_anchor).max(), tiny)
        drift = float(np.abs(f_grad - self.g_grad_at_anchor - grad_c).max() / scale)
        if not drift <= CARRY_RTOL:
            raise OracleFailure(
                "f is declared quadratic but the oracles disagree with the "
                f"gradient carried along the subsolver's steps by {drift:.3g} "
                f"(relative, allowed {CARRY_RTOL:g})"
            )


def linearize(oracles, x_t):
    """Build the surrogate at x_t.

    Takes f, g and f_grad at x_t through the run's record, which calls each
    only when its last point had other bits, and calls g_subgrad once.  A
    non-finite value, for f and g from the record, or a gradient whose shape
    is not x_t's raises OracleFailure.
    """
    x_t = np.asarray(x_t, dtype=float)
    g_val, f_val = oracles.g(x_t), oracles.f(x_t)
    g_grad = np.asarray(oracles.problem.g_subgrad(x_t), dtype=float)
    f_grad = np.array(oracles.f_grad(x_t))  # the oracle may reuse its array
    f_grad.flags.writeable = False
    for name, grad in (("g_subgrad", g_grad), ("f_grad", f_grad)):
        if grad.shape != x_t.shape:  # numpy would broadcast it into a wrong h
            raise OracleFailure(
                f"{name} returned shape {grad.shape} at the anchor, expected {x_t.shape}"
            )
        # count_nonzero is the cheapest finiteness test measured, isfinite
        # included: 0.64-0.73 us against 1.29-1.36 us for all() at n = 50-300
        # (numpy 2.4, where both go through a Python-level wrapper)
        if np.count_nonzero(np.isfinite(grad)) != grad.size:
            raise OracleFailure(f"{name} returned non-finite entries at the anchor")
    return Subproblem(x_t.copy(), g_val, g_grad, f_val, f_grad, oracles)


# variant name -> the solver features it switches on
VARIANTS = {
    "DCA-FW": dict(subsolver="fw", stop_mode="fixed", warm_start=False, boosted=False),
    "DCA-FW-ES": dict(subsolver="fw", stop_mode="adaptive", warm_start=False, boosted=False),
    "DCA-BPCG": dict(subsolver="bpcg", stop_mode="fixed", warm_start=False, boosted=False),
    "DCA-BPCG-ES": dict(subsolver="bpcg", stop_mode="adaptive", warm_start=False, boosted=False),
    "DCA-BPCG-WS": dict(subsolver="bpcg", stop_mode="fixed", warm_start=True, boosted=False),
    "DCA-BPCG-WS-ES": dict(subsolver="bpcg", stop_mode="adaptive", warm_start=True, boosted=False),
    "DCA-BPCG-WS-ES-BT": dict(subsolver="bpcg", stop_mode="adaptive", warm_start=True, boosted=True),
}


@dataclass(frozen=True)
class DcaConfig:
    """Configuration of one solver run.  variant, a key of VARIANTS, fixes
    the subsolver, the inner stop mode, warm starts and the boosted step;
    every inner solve stops at a FW gap of at most dca_gap_tol / 2."""

    variant: str = "DCA-BPCG-ES"
    dca_gap_tol: float = 1e-6
    max_outer_iters: int = 200
    max_inner_iters: int = 10000
    time_limit_seconds: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            names = sorted(VARIANTS)
            raise ValueError(f"unknown variant {self.variant!r}, choose from {names}")
        tol = real("dca_gap_tol", self.dca_gap_tol, positive=True, finite=True)
        if not tol / 2.0 > 0:  # the inner solves' tolerance must not underflow
            raise ValueError(f"dca_gap_tol must have a half above 0, got {tol!r}")
        if self.time_limit_seconds is not None:
            real("time_limit_seconds", self.time_limit_seconds, positive=True)
        integer("max_outer_iters", self.max_outer_iters, 1)
        integer("max_inner_iters", self.max_inner_iters, 1)


class OuterStep(NamedTuple):
    """One outer step, its fields the trace columns after t: the gap bounds
    lb = phi(x_t) - h_t(y) and ub = lb + the subsolver's FW gap at y, phi at
    the new iterate, the LMO calls so far, the step's inner iterations and
    the seconds since the run started."""

    dc_gap_lb: float
    dc_gap_ub: float
    objective: float
    lmo_calls_cum: int
    inner_iters: int
    elapsed_s: float


@dataclass
class RunRecord:
    """One run: phi at x0, an OuterStep per outer step, and how it ended."""

    phi0: float = np.nan
    steps: list = field(default_factory=list)
    termination: str = ""  # converged | iteration_cap | time_limit | stalled

    @property
    def outer_iters(self):
        return len(self.steps)


def _last_argmin(values):
    # prefer the largest index among ties
    return len(values) - 1 - int(np.argmin(values[::-1]))


def grid_two_level(value_fn, value0):
    """Two-level grid search for min of value_fn(gamma) on [0, 1], value0
    being its value at 0.  A coarse equispaced grid locates the best cell,
    a fine grid of the same size refines it between the best point's
    neighbors, so a search makes 2 * _GRID_POINTS - 3 evaluations.  Ties
    prefer larger gamma, so a flat objective returns 1.  A non-finite probe
    raises OracleFailure: the segment lies in the region, where phi is
    finite."""

    def probe(gamma):
        value = float(value_fn(gamma))
        if not math.isfinite(value):
            raise OracleFailure(f"phi is {value} at gamma = {gamma} of a boosted step")
        return value

    coarse = np.linspace(0.0, 1.0, _GRID_POINTS)
    vals = np.array([float(value0), *map(probe, coarse[1:])])
    i = _last_argmin(vals)
    lo, hi = max(i - 1, 0), min(i + 1, _GRID_POINTS - 1)
    # linspace returns its endpoints exactly, so the fine grid's two ends are
    # coarse points whose values are already known
    fine = np.linspace(coarse[lo], coarse[hi], _GRID_POINTS)
    fine_vals = [vals[lo], *map(probe, fine[1:-1]), vals[hi]]
    candidates = np.concatenate([coarse, fine])
    return float(candidates[_last_argmin(np.concatenate([vals, fine_vals]))])


def boosted_step(problem, x_t, y, phi_t, phi_y, slope):
    """Line search the true objective along [x_t, y].

    phi_t and phi_y are phi at the two ends and slope is <f_grad(x_t) -
    g_subgrad(x_t), y - x_t>.  Returns the best point found and its gamma
    in [0, 1], so phi(point) <= phi(y): y itself with gamma = 1, x_t itself
    with gamma = 0, or an interior point.

    On a problem that declares quadratic, phi along the segment is
    phi_t + gamma * slope + gamma^2 * (phi_y - phi_t - slope), least on
    [0, 1] at gamma = 1 when phi_y <= phi_t and its slope at y,
    2 * (phi_y - phi_t) - slope, is at most 0; then y is returned without a
    search.  Otherwise the two-level grid search probes phi(x_t + gamma *
    (y - x_t)) from the oracles, where a non-finite value raises
    OracleFailure, and a flat or decreasing profile returns y.  Every
    interior gamma therefore rests on oracle values, and the step to y is
    certified by lb >= 0, so a false declaration can only skip a search.
    """
    if problem.quadratic and phi_y <= phi_t and 2.0 * (phi_y - phi_t) <= slope:
        return y, 1.0
    d = y - x_t
    gamma = grid_two_level(lambda gamma: problem.phi(x_t + gamma * d), phi_t)
    if gamma >= 1.0:
        return y, 1.0
    if gamma <= 0.0:
        return x_t, 0.0
    return x_t + gamma * d, gamma


def _check_subgradient(sub, x, g_x, t):
    """Raise OracleFailure unless g(x) >= g(anchor) + <s, x - anchor> up to
    SUBGRAD_RTOL, s the subgradient sub linearizes g with.  The inequality
    is phi(x) <= h(x), which makes the objective monotone and lb a bound;
    it fails when g is not convex or g_subgrad not a subgradient of it."""
    shortfall = sub._lin(x) - g_x
    if shortfall > SUBGRAD_RTOL * max(abs(g_x), abs(sub.g_at_anchor)):
        raise OracleFailure(
            f"g lies {shortfall:.3g} below its linearization at the anchor of "
            f"outer step {t}, so g is not convex or g_subgrad is not its "
            f"subgradient (g = {g_x:.17g} at the new iterate)"
        )


def _check_f_grad(prev, sub, t):
    """Raise OracleFailure unless f at the anchors x_t of prev and x_{t+1}
    of sub, the subproblems of outer steps t and t + 1, lies above its
    linearization at the other one, up to F_GRAD_RTOL relative to
    max(|f(x_t)|, |f(x_{t+1})|).  These two inequalities of convexity fail
    for a gradient that is not f's, and all their terms are already held,
    so the check calls no oracle."""
    d = sub.anchor - prev.anchor
    f_t, f_next = prev.f_at_anchor, sub.f_at_anchor
    slacks = (
        (f_next - f_t - float(prev.f_grad_at_anchor.dot(d)), t + 1, t),
        (f_t - f_next + float(sub.f_grad_at_anchor.dot(d)), t, t + 1),
    )
    slack, at, linearized_at = min(slacks)
    if -slack > F_GRAD_RTOL * max(abs(f_t), abs(f_next)):
        raise OracleFailure(
            f"f at the anchor of outer step {at} lies {-slack:.3g} below its "
            f"linearization at the anchor of outer step {linearized_at}, so f "
            f"is not convex or f_grad is not its gradient"
        )


def dca_solve(problem, x0, config):
    """Minimize phi = f - g over the problem's polytope.

    Repeatedly linearizes g at the current iterate and drives the convex
    surrogate down with config.variant's subsolver, stopping once the certified
    stationarity gap ub of an OuterStep falls below config.dca_gap_tol.  Every
    inner solve stops at a FW gap of at most dca_gap_tol / 2, the fixed mode's
    epsilon.  The adaptive stop mode also gives the subsolver descent_from =
    phi(x_t), so that it stops at the first y whose FW gap is at most
    phi(x_t) - h_t(y), which it evaluates only where a convexity bound says
    the rule can fire; each firing rests on an evaluated h_t(y), so ub <= 2 lb
    there, and the recorded objective never increases.  The run ends as
    stalled when repeating the identical subproblem cannot progress: when a
    subproblem terminates above the anchor value (negative lb), and the
    iterate is kept, or when the subsolver returns its anchor, bit for bit,
    without an iteration, as after a zero step at the anchor.  A time limit
    is passed to the subsolver as a deadline, so a run ends with termination
    time_limit within about one inner iteration of it.  In a boosted variant
    the step from x_t to the subsolver's point goes through boosted_step.  A
    non-finite f or g, or a g at a new iterate below its linearization at the
    anchor, raises OracleFailure.

    Returns (x_final, RunRecord), the record holding an OuterStep per step.
    """
    x0 = np.asarray(x0, dtype=float)
    lmo = problem.lmo
    if x0.shape != (lmo.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({lmo.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has non-finite entries")
    if not lmo.contains(x0):
        raise ValueError("x0 is not feasible for the problem's region")

    features = VARIANTS[config.variant]
    use_bpcg = features["subsolver"] == "bpcg"
    adaptive = features["stop_mode"] == "adaptive"
    lmo_base = lmo.call_count
    line_search = Secant()
    # only vanilla FW keeps a vertex table and takes the closed-form step
    oracles = Oracles(problem, vertex_table=not use_bpcg)
    record = RunRecord(phi0=oracles.f(x0) - oracles.g(x0))
    started = time.perf_counter()
    deadline = None
    if config.time_limit_seconds is not None:
        deadline = started + config.time_limit_seconds

    x = x0.copy()
    x_set = None  # an active set that holds x, for a warm start
    sub = None
    record.termination = "iteration_cap"
    for t in range(config.max_outer_iters):
        if deadline is not None and time.perf_counter() > deadline:
            record.termination = "time_limit"
            break
        oracles.step = t
        prev, sub = sub, linearize(oracles, x)
        if prev is not None:
            _check_f_grad(prev, sub, t - 1)
            del prev  # so one anchor's vertex memo is live in the solve
        inner = dict(
            fw_gap_tol=config.dca_gap_tol / 2.0,
            max_iters=config.max_inner_iters,
            # the fixed mode's epsilon is fw_gap_tol, which the solvers test
            # first; the adaptive threshold descent_from - h is sub.descent
            descent_from=sub.phi_at_anchor if adaptive else None,
            deadline=deadline,
        )
        if use_bpcg:
            if not features["warm_start"] or x_set is None:
                x_set = ActiveSet.from_vertex(lmo(sub.grad_at_anchor))
            y, x_set, stats = bpcg(sub, lmo, x_set, line_search, **inner)
        else:
            y, stats = vanilla_fw(sub, oracles.lmo, x, line_search, **inner)
            sub.certify(y)

        # lb bounds the anchor's stationarity and primal gaps from below.  On
        # the fast path certify bounds the gradient behind the FW gap within
        # CARRY_RTOL * max(|f_grad(y)|, |s|), so the gap is off by at most
        # that times the region's l1 diameter (2 on the simplex)
        lb = sub.descent(y)
        stalled = lb < 0  # then the iterate is kept, objective unchanged
        phi_x = sub.phi_at_anchor
        if not stalled:
            gamma = 1.0
            if features["boosted"]:
                # f and g at y stay in the record for the new iterate at gamma = 1
                phi_y = oracles.f(y) - oracles.g(y)
                slope = float(sub.grad_at_anchor.dot(y - x))
                x, gamma = boosted_step(problem, x, y, phi_x, phi_y, slope)
            else:
                x = y
            if gamma < 1.0:
                # bpcg moved its set to y in place, so short of y no active set
                # holds x and the next subproblem starts cold
                x_set = None
            if gamma > 0.0:  # otherwise x is x_t
                # at y, the record holds f from the stop rule or the gap bounds
                f_x, g_x = oracles.f(x), oracles.g(x)
                _check_subgradient(sub, x, g_x, t)
                phi_x = f_x - g_x

        ub = lb + stats.final_fw_gap
        lmo_calls, elapsed = lmo.call_count - lmo_base, time.perf_counter() - started
        record.steps.append(OuterStep(lb, ub, phi_x, lmo_calls, stats.iterations, elapsed))

        if ub <= config.dca_gap_tol:
            record.termination = "converged"
            break
        if stats.termination == "time_limit":
            record.termination = "time_limit"
            break
        # an inner solve that made no step from its anchor leaves the next
        # outer step the same subproblem from the same start
        repeats = stats.iterations == 0 and y.tobytes() == sub.anchor.tobytes()
        if stalled or repeats:
            record.termination = "stalled"
            break
    return x, record
