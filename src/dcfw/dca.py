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

import numpy as np

from .fw import ActiveSet, Secant, bpcg, vanilla_fw


# vertex gradients an Oracles record keeps; it then stops adding, and each
# entry holds 2 * 8n bytes, key and gradient
VERTEX_TABLE_SIZE = 4096
# largest relative difference Subproblem.certify accepts between the values
# quadratic_step carried and the oracles' (measured: at most 3.1e-14 over
# 2,227 checks on the quadratic and QAP families, at up to 5,000 steps), and
# between phi at an interior point the boosted step chose and phi's closed
# form there, relative to max(|f|, |g|) (measured: at most 5.6e-15 at 446
# interior points of random segments on the same two families)
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
    there).  The vanilla-FW subsolver then steps in closed form without
    oracle calls at its iterates (see Subproblem.quadratic_step), and the
    boosted step probes phi's closed form along its segment instead of the
    oracles (see boosted_step).  Values either takes from the closed form
    are checked against the oracles where the run moves to them, so a false
    declaration raises OracleFailure or costs the boost effect, never a
    wrong certificate.
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
    for, keyed on the point's bits (key is x.tobytes()), so a point the run
    comes back to costs no second call; the three must be pure functions of
    x.  Every value held is the oracle's own, never a closed form's.

    With vertex_table, for the vanilla-FW subsolver, lmo calls the
    problem's LMO and records the bits of the vertex it returns, and
    vertex_grads maps the bits of a vertex to a read-only copy of f_grad
    there, stored when f_grad is first asked at the last vertex, at most
    VERTEX_TABLE_SIZE per run; f_grad does not depend on the anchor, so
    entries live across outer steps.  quadratic, the fast-path flag, holds
    for that subsolver only, since BPCG's steps would round differently in
    closed form and change its LMO counts.
    """

    def __init__(self, problem, vertex_table=False):
        self.problem = problem
        self.quadratic = problem.quadratic and vertex_table
        self.vertex_grads = {} if vertex_table else None
        self.last_vertex = None  # key of the vertex lmo returned last
        self._f = self._g = self._f_grad = (None, None)

    def lmo(self, c):
        v = self.problem.lmo(c)
        self.last_vertex = v.tobytes()
        return v

    def f(self, x, key):
        if key != self._f[0]:
            self._f = (key, float(self.problem.f_value(x)))
        return self._f[1]

    def g(self, x, key):
        if key != self._g[0]:
            self._g = (key, float(self.problem.g_value(x)))
        return self._g[1]

    def f_grad(self, x, key):
        """f_grad at x, kept in vertex_grads when x is the last vertex."""
        if key == self._f_grad[0]:
            return self._f_grad[1]
        at_vertex = key == self.last_vertex
        # last_vertex has hashed already; key is a new object that has not
        f_grad = self.vertex_grads.get(self.last_vertex) if at_vertex else None
        if f_grad is None:
            f_grad = np.asarray(self.problem.f_grad(x), dtype=float)
            if at_vertex and len(self.vertex_grads) < VERTEX_TABLE_SIZE:
                f_grad = f_grad.copy()  # the oracle may reuse its array
                f_grad.flags.writeable = False
                self.vertex_grads[self.last_vertex] = f_grad
        self._f_grad = (key, f_grad)
        return f_grad


@dataclass
class Subproblem:
    """Convex majorant of phi obtained by linearizing g at an anchor.

    f and f_grad at the anchor are the oracles' (f_grad a read-only copy),
    and grad_at_anchor is the surrogate's gradient there.  oracles is the
    run's record, through which the surrogate evaluates f and f_grad, and
    whose fast-path flag, copied to quadratic, makes Secant take
    quadratic_step.
    """

    anchor: np.ndarray
    g_at_anchor: float
    g_grad_at_anchor: np.ndarray
    f_at_anchor: float
    f_grad_at_anchor: np.ndarray
    oracles: Oracles

    def __post_init__(self):
        self.quadratic = self.oracles.quadratic  # Secant.step reads it every step
        self.phi_at_anchor = self.f_at_anchor - self.g_at_anchor
        self.grad_at_anchor = self.f_grad_at_anchor - self.g_grad_at_anchor
        self.grad_at_anchor.flags.writeable = False
        self._h_memo = (None, None)  # (key, value) of the last h descent needed
        # (key, gradient) of the point quadratic_step carried to last
        self._carried = (None, None)

    def _lin(self, x):
        return self.g_at_anchor + float(self.g_grad_at_anchor.dot(x - self.anchor))

    def value(self, x):
        return self._h(x, x.tobytes())

    def grad(self, x):
        """Gradient of the surrogate at x, through the record's f_grad."""
        return self.oracles.f_grad(x, x.tobytes()) - self.g_grad_at_anchor

    def _h(self, y, key):
        # the surrogate's value h(y) = f(y) - lin(y), kept for the last y
        if key != self._h_memo[0]:
            lin = self._lin(y)
            self._h_memo = (key, self.oracles.f(y, key) - lin)
        return self._h_memo[1]

    def descent(self, y):
        """phi(anchor) - h(y): the descent y secures, and the threshold of the
        adaptive inner stop rule.  A Frank-Wolfe gap at y at most this value
        certifies that half the stationarity gap bound is realized as
        progress.  h(y) is kept, and f(y) stays in the record, so the gap
        bounds and the objective at the subsolver's last iterate reuse the
        stop rule's evaluation."""
        return self.phi_at_anchor - self._h(y, y.tobytes())

    def quadratic_step(self, x, grad, d, gamma_max, dphi0):
        """Exact line search along d on [0, gamma_max] for a quadratic f.

        With grad the surrogate's gradient at x, f_grad at the end point
        x + gamma_max * d from the record (its vertex table at the last LMO
        vertex), slope dphi0 = <grad, d> and curvature <d, grad(end) -
        grad>, returns the minimizing gamma, gamma_max when the end point
        still descends.  The surrogate's gradient is affine, so its gradient
        and h at x + gamma * d follow from those at x and the end point; h
        is kept as descent's value there, and certify checks both at the
        last point.  Returns (gamma, x + gamma * d, the gradient there), or
        (0.0, x, None) when d does not descend.
        """
        if not dphi0 < 0:
            return 0.0, x, None
        h = self._h(x, x.tobytes())
        end = x + gamma_max * d
        end_key = end.tobytes()
        grad_end = self.oracles.f_grad(end, end_key) - self.g_grad_at_anchor
        diff = grad_end - grad
        curv = float(d.dot(diff))  # slope at the end point minus dphi0
        if not math.isfinite(curv):
            raise OracleFailure("f_grad returned non-finite entries at a step's end")
        if dphi0 + curv <= 0:  # still descending at the end point
            gamma, y, key, grad = gamma_max, end, end_key, grad_end
        else:
            gamma = min(-dphi0 * gamma_max / curv, gamma_max)
            y = x + gamma * d
            key = y.tobytes()
            diff *= gamma / gamma_max
            diff += grad
            grad = diff
        h += gamma * dphi0 + 0.5 * gamma * gamma * curv / gamma_max
        self._h_memo = (key, h)
        self._carried = (key, grad)
        return gamma, y, grad

    def certify(self, y):
        """Check the gradient and h that quadratic_step carried to y against
        the oracles' values, taken through the record, and put the oracles'
        h in the carried one's place; a difference above CARRY_RTOL means f
        is not quadratic on the region and raises OracleFailure.  Does
        nothing when no carried value reached y."""
        key = y.tobytes()
        carried_key, grad_c = self._carried
        if key != carried_key:
            return
        h_c = self._h(y, key)
        f_grad = self.oracles.f_grad(y, key)
        grad = f_grad - self.g_grad_at_anchor
        h = self.oracles.f(y, key) - self._lin(y)
        # relative to the terms each value is the difference of
        tiny = np.finfo(float).tiny
        scale = max(np.abs(f_grad).max(), np.abs(self.g_grad_at_anchor).max(), tiny)
        grad_drift = float(np.abs(grad - grad_c).max() / scale)
        h_drift = abs(h - h_c) / max(abs(h), abs(self.phi_at_anchor), tiny)
        if not (grad_drift <= CARRY_RTOL and h_drift <= CARRY_RTOL):
            raise OracleFailure(
                "f is declared quadratic but the oracles disagree with the "
                f"values carried along the subsolver's steps: gradient by "
                f"{grad_drift:.3g}, f by {h_drift:.3g} (relative, allowed "
                f"{CARRY_RTOL:g})"
            )
        self._h_memo = (key, h)


def linearize(oracles, x_t):
    """Build the surrogate at x_t.

    Takes f, g and f_grad at x_t through the run's record, which calls each
    only when its last point was not x_t, and calls g_subgrad once.  A
    non-finite value raises OracleFailure.
    """
    x_t = np.asarray(x_t, dtype=float)
    key = x_t.tobytes()
    g_val, f_val = oracles.g(x_t, key), oracles.f(x_t, key)
    g_grad = np.asarray(oracles.problem.g_subgrad(x_t), dtype=float)
    f_grad = np.array(oracles.f_grad(x_t, key))  # the oracle may reuse its array
    f_grad.flags.writeable = False
    if not (math.isfinite(g_val) and math.isfinite(f_val)):
        raise OracleFailure(f"f = {f_val} and g = {g_val} at the anchor")
    for name, grad in (("g_subgrad", g_grad), ("f_grad", f_grad)):
        # count_nonzero is a C call, where all() goes through Python wrappers
        if np.count_nonzero(np.isfinite(grad)) != grad.size:
            raise OracleFailure(f"{name} returned non-finite entries at the anchor")
    return Subproblem(x_t.copy(), g_val, g_grad, f_val, f_grad, oracles)


def dc_gap_bounds(sub, x_next, fw_gap_at_x_next):
    """Bounds on the stationarity gap at the surrogate's anchor.

    Returns (lb, ub) with lb = phi(anchor) - h(x_next) and ub = lb plus the
    subsolver's Frank-Wolfe gap at x_next.  lb also lower-bounds the primal
    gap at the anchor; a negative lb is reported as is.

    On the vanilla-FW fast path the gap comes from the gradient that
    quadratic_step carried to x_next, lb from the oracles after certify.
    certify bounds that gradient's drift in the max norm by CARRY_RTOL
    times max(|f_grad(x_next)|, |s|), s the anchor's subgradient, so the
    gap is off by at most that times the region's l1 diameter (2 on the
    simplex): with the measured drift, 3.1e-14, far below any tolerance.
    """
    lb = sub.descent(x_next)
    return lb, lb + fw_gap_at_x_next


@dataclass(frozen=True)
class DcaConfig:
    """Configuration of one solver run."""

    subsolver: str = "bpcg"  # "fw" or "bpcg"
    stop_mode: str = "adaptive"  # "fixed" or "adaptive"
    warm_start: bool = False
    boosted: bool = False
    dca_gap_tol: float = 1e-6
    fw_gap_tol: float = 5e-7
    max_outer_iters: int = 200
    max_inner_iters: int = 10000
    time_limit_seconds: float | None = None

    def __post_init__(self):
        if self.subsolver not in ("fw", "bpcg"):
            raise ValueError(f"unknown subsolver {self.subsolver!r}")
        if self.stop_mode not in ("fixed", "adaptive"):
            raise ValueError(f"unknown stop mode {self.stop_mode!r}")
        if self.warm_start and self.subsolver != "bpcg":
            raise ValueError("warm starts need the bpcg subsolver")
        if not all(0 < tol < np.inf for tol in (self.dca_gap_tol, self.fw_gap_tol)):
            raise ValueError("tolerances must be positive and finite")
        if self.time_limit_seconds is not None and not self.time_limit_seconds > 0:
            raise ValueError("time_limit_seconds must be positive")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class RunRecord:
    """Per-outer-iteration trace of one run and how it ended."""

    phi0: float = np.nan
    dc_gap_lb: list = field(default_factory=list)
    fw_gap_final: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    lmo_calls_cum: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    elapsed_seconds: list = field(default_factory=list)
    termination: str = ""  # converged | iteration_cap | time_limit | stalled

    @property
    def outer_iters(self):
        return len(self.dc_gap_lb)

    @property
    def dc_gap_ub(self):
        return [lb + g for lb, g in zip(self.dc_gap_lb, self.fw_gap_final)]


def _phi_on_segment(phi_t, phi_y, slope):
    """phi(x_t + gamma * d) as a function of gamma for a phi quadratic on the
    segment, from phi_t and the slope <grad phi(x_t), d> at gamma = 0 and
    phi_y at gamma = 1; it returns phi_y itself at gamma = 1."""
    curv = phi_y - phi_t - slope

    def value(gamma):
        if gamma == 1.0:
            return phi_y
        return phi_t + gamma * (slope + gamma * curv)

    return value


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
    g_subgrad(x_t), y - x_t>.  Runs the two-level grid search over gamma in
    [0, 1] and returns the best point found and its gamma, so phi(point) <=
    phi(y); a flat or monotonically decreasing profile returns y itself with
    gamma = 1, and gamma = 0 returns x_t itself.

    On a problem that declares quadratic the grid probes phi's closed form
    through phi_t, phi_y and slope (_phi_on_segment), with the same tie
    rule, and otherwise phi(x_t + gamma * (y - x_t)) from the oracles, where
    a non-finite value raises OracleFailure.  Only an interior gamma rests
    on interpolated values, and dca_solve checks phi at the point it then
    moves to.  gamma = 1 and gamma = 0 rest only on the exact values at the
    two ends, and the step to y stays certified by lb >= 0, so a false
    declaration can make the boost less effective but cannot make a
    certificate wrong.
    """
    d = y - x_t
    if problem.quadratic:
        value = _phi_on_segment(phi_t, phi_y, slope)
    else:

        def value(gamma):
            return problem.phi(x_t + gamma * d)

    gamma = grid_two_level(value, phi_t)
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


def _check_boost(boost, gamma, f_x, g_x, t):
    """Raise OracleFailure unless phi = f_x - g_x at the interior point the
    boosted step of outer step t chose agrees to CARRY_RTOL, relative to
    max(|f_x|, |g_x|), with the closed form through boost = (phi_t, phi_y,
    slope) that chose it."""
    drift = abs(f_x - g_x - _phi_on_segment(*boost)(gamma))
    if not drift <= CARRY_RTOL * max(abs(f_x), abs(g_x), np.finfo(float).tiny):
        raise OracleFailure(
            "the problem is declared quadratic but phi differs by "
            f"{drift:.3g} from its closed form at the point gamma = {gamma:.17g} "
            f"the boosted step of outer step {t} chose (relative to "
            f"max(|f|, |g|), allowed {CARRY_RTOL:g})"
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
    surrogate down with the configured subsolver, stopping once the certified
    stationarity gap ub = lb + fw_gap falls below config.dca_gap_tol.  With
    the adaptive stop mode the recorded objective never increases.  The run
    ends as stalled when repeating the identical subproblem cannot
    progress: when a subproblem terminates above the anchor value (negative
    lb), and the iterate is kept, or when the subsolver returns its anchor,
    bit for bit, without an iteration.  A time limit is passed to the
    subsolver as a deadline, so a run ends with termination time_limit
    within about one inner iteration of it.  A non-finite f or g at a new
    iterate raises OracleFailure.

    Returns (x_final, RunRecord).
    """
    x0 = np.asarray(x0, dtype=float)
    lmo = problem.lmo
    if x0.shape != (lmo.dimension,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({lmo.dimension},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has non-finite entries")
    if not lmo.contains(x0):
        raise ValueError("x0 is not feasible for the problem's region")

    lmo_base = lmo.call_count
    line_search = Secant()
    # only vanilla FW keeps a vertex table and takes the closed-form step
    oracles = Oracles(problem, vertex_table=config.subsolver == "fw")
    key = x0.tobytes()
    record = RunRecord(phi0=oracles.f(x0, key) - oracles.g(x0, key))
    started = time.perf_counter()
    deadline = None
    if config.time_limit_seconds is not None:
        deadline = started + config.time_limit_seconds

    x = x0.copy()
    x_set = None  # decomposition of x when warm starting
    sub = None
    record.termination = "iteration_cap"
    for t in range(config.max_outer_iters):
        if deadline is not None and time.perf_counter() > deadline:
            record.termination = "time_limit"
            break
        prev, sub = sub, linearize(oracles, x)
        if prev is not None:
            _check_f_grad(prev, sub, t - 1)
        inner = dict(
            fw_gap_tol=config.fw_gap_tol,
            max_iters=config.max_inner_iters,
            # the fixed mode's epsilon is fw_gap_tol, which the solvers test first
            stop_rule=sub.descent if config.stop_mode == "adaptive" else None,
            deadline=deadline,
        )
        if config.subsolver == "bpcg":
            if config.warm_start and x_set is not None:
                start_set = x_set
            else:
                start_set = ActiveSet.from_vertex(lmo(sub.grad_at_anchor))
            y, out_set, stats = bpcg(sub, lmo, start_set, line_search, **inner)
        else:
            y, stats = vanilla_fw(sub, oracles.lmo, x, line_search, **inner)
            sub.certify(y)
            out_set = None

        lb, ub = dc_gap_bounds(sub, y, stats.final_fw_gap)
        stalled = lb < 0  # then the iterate is kept, objective unchanged
        phi_x = sub.phi_at_anchor
        if not stalled:
            gamma = 1.0
            if config.boosted:
                # f and g at y stay in the record for the new iterate at gamma = 1
                key = y.tobytes()
                phi_y = oracles.f(y, key) - oracles.g(y, key)
                if not math.isfinite(phi_y):
                    # at y itself, before the grid probes, to name the step
                    raise OracleFailure(
                        f"phi is {phi_y} at the subsolver's point in outer step {t}"
                    )
                boost = (phi_x, phi_y, float(sub.grad_at_anchor.dot(y - x)))
                x, gamma = boosted_step(problem, x, y, *boost)
            else:
                x = y
            # bpcg moved its start set to y in place, so short of y no active
            # set holds x and the next subproblem starts cold
            x_set = out_set if gamma >= 1.0 else None
            if gamma > 0.0:  # otherwise x is x_t
                # at y, the record holds f from the stop rule or the gap bounds
                key = x.tobytes()
                f_x, g_x = oracles.f(x, key), oracles.g(x, key)
                if not (math.isfinite(f_x) and math.isfinite(g_x)):
                    raise OracleFailure(
                        f"f = {f_x} and g = {g_x} at the new iterate of outer step {t}"
                    )
                if problem.quadratic and gamma < 1.0:
                    _check_boost(boost, gamma, f_x, g_x, t)
                _check_subgradient(sub, x, g_x, t)
                phi_x = f_x - g_x

        record.dc_gap_lb.append(lb)
        record.fw_gap_final.append(stats.final_fw_gap)
        record.objective.append(phi_x)
        record.lmo_calls_cum.append(lmo.call_count - lmo_base)
        record.inner_iters.append(stats.iterations)
        record.elapsed_seconds.append(time.perf_counter() - started)

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
