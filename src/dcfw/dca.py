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

from .fw import ActiveSet, Secant, bpcg, grid_two_level, vanilla_fw


# vertices a VertexTable keeps; it then stops adding, and each entry holds
# 2 * 8n bytes, key and gradient
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


class OracleFailure(RuntimeError):
    """A problem oracle returned a non-finite value, or values that break
    a property the problem declares."""


class VertexTable:
    """An LMO that registers each vertex it returns, with f_grad there.

    grads maps the bits of each registered vertex to a read-only copy of
    f_grad at it, or to None until a Subproblem first computes it; last
    is the key of the vertex returned last, if registered.  The table keeps
    its entries across the outer steps of a run, since f_grad does not
    depend on the anchor.
    """

    def __init__(self, lmo):
        self.lmo = lmo
        self.grads = {}
        self.last = None

    def __call__(self, c):
        v = self.lmo(c)
        key = v.tobytes()
        if len(self.grads) < VERTEX_TABLE_SIZE:
            self.grads.setdefault(key, None)
        # the key object keeps its hash, so grad's lookup need not hash again
        self.last = key if key in self.grads else None
        return v


@dataclass
class DcProblem:
    """Oracles for phi = f - g over a polytope.

    f_value/f_grad evaluate the smooth convex part, g_value/g_subgrad the
    convex part being linearized.  lmo is a LinearMinimizationOracle over the
    feasible region, operating on vectors of length ``dimension``.
    quadratic declares f_grad and g_subgrad both affine on the region (f and
    g quadratic there).  The vanilla-FW subsolver then steps in closed form
    without oracle calls at its iterates (see Subproblem.quadratic_step),
    and the boosted step probes phi's closed form along its segment instead
    of the oracles (see boosted_step).  Values either takes from the closed
    form are checked against the oracles where the run moves to them, so a
    false declaration raises OracleFailure or costs the boost effect, never
    a wrong certificate.
    """

    f_value: callable
    f_grad: callable
    g_value: callable
    g_subgrad: callable
    dimension: int
    lmo: object
    quadratic: bool = False

    def phi(self, x):
        return float(self.f_value(x)) - float(self.g_value(x))


@dataclass
class Subproblem:
    """Convex majorant of phi obtained by linearizing g at an anchor.

    vertex_grads, if set, is the VertexTable the subsolver calls as its
    LMO; grad then takes f_grad at the last vertex from it.  quadratic, if
    set, makes Secant take quadratic_step; dca_solve sets it for the
    vanilla-FW subsolver on a problem that declares quadratic.
    """

    anchor: np.ndarray
    g_at_anchor: float
    g_grad_at_anchor: np.ndarray
    problem: DcProblem
    phi_at_anchor: float
    vertex_grads: VertexTable | None = None
    quadratic: bool = False
    # (x.tobytes(), gradient, f_grad or None if carried) of the last grad call
    _grad_memo: tuple = field(
        default=(None, None, None), init=False, repr=False, compare=False
    )
    # (y.tobytes(), f(y)) of the last f_value call
    _f_memo: tuple = field(
        default=(None, None), init=False, repr=False, compare=False
    )
    # (y.tobytes(), h(y)) of the last surrogate value descent needed
    _h_memo: tuple = field(
        default=(None, None), init=False, repr=False, compare=False
    )
    # (x.tobytes(), gradient, h) that quadratic_step carried to x last
    _carried: tuple = field(
        default=(None, None, None), init=False, repr=False, compare=False
    )

    def _lin(self, x):
        return self.g_at_anchor + float(self.g_grad_at_anchor.dot(x - self.anchor))

    def value(self, x):
        return float(self.problem.f_value(x)) - self._lin(x)

    def _f_grad(self, x, key):
        """f_grad at x, kept in vertex_grads when x is its last vertex."""
        table = self.vertex_grads
        at_vertex = table is not None and key == table.last
        f_grad = table.grads[table.last] if at_vertex else None
        if f_grad is None:
            f_grad = np.asarray(self.problem.f_grad(x), dtype=float)
            if at_vertex:
                # a copy, so the oracle cannot change the entry through its
                # own reference to the array it returned
                f_grad = f_grad.copy()
                f_grad.flags.writeable = False
                table.grads[table.last] = f_grad
        return f_grad

    def grad(self, x):
        """Gradient of the surrogate at x, as a read-only array.

        The last result is kept and returned again for an x with the same
        bits, and f_grad at a vertex is kept in vertex_grads, so f_grad must
        be a pure function of x.  The secant search's last probe is bit for
        bit the solver's next iterate, so the loop gets that gradient without
        a second f_grad call; its probe at gamma = 1 is bit for bit the LMO
        vertex, so a vertex that recurs costs none.
        """
        key = x.tobytes()
        if key == self._grad_memo[0]:
            return self._grad_memo[1]
        f_grad = self._f_grad(x, key)
        grad = f_grad - self.g_grad_at_anchor
        grad.flags.writeable = False
        self._grad_memo = (key, grad, f_grad)
        return grad

    def f_grad_at(self, x):
        """f_grad at x if the last grad call evaluated it there, else None."""
        key, _, f_grad = self._grad_memo
        return f_grad if key == x.tobytes() else None

    def f_value(self, y):
        """f(y) as a float; the last result is kept for a y with the same bits."""
        return self._f(y, y.tobytes())

    def _f(self, y, key):
        if key != self._f_memo[0]:
            self._f_memo = (key, float(self.problem.f_value(y)))
        return self._f_memo[1]

    def _h(self, y, key):
        # the surrogate's value h(y) = f(y) - lin(y), kept for the last y
        if key != self._h_memo[0]:
            lin = self._lin(y)
            self._h_memo = (key, self._f(y, key) - lin)
        return self._h_memo[1]

    def descent(self, y):
        """phi(anchor) - h(y): the descent y secures, and the threshold of the
        adaptive inner stop rule.  A Frank-Wolfe gap at y at most this value
        certifies that half the stationarity gap bound is realized as
        progress.  f(y) and h(y) are kept, so the gap bounds and the
        objective at the subsolver's last iterate reuse the stop rule's
        evaluation."""
        return self.phi_at_anchor - self._h(y, y.tobytes())

    def quadratic_step(self, x, d, gamma_max, dphi0):
        """Exact line search along d on [0, gamma_max] for a quadratic f.

        Takes f_grad at the end point x + gamma_max * d, from vertex_grads
        when that is the last LMO vertex, and with slope dphi0 = <grad(x), d>
        and curvature <d, grad(end) - grad(x)> returns the minimizing gamma,
        gamma_max when the slope at the end point is still negative.  Since
        the surrogate's gradient is affine, the gradient and h at
        x + gamma * d follow from those at x and at the end point; they are
        kept as grad's and descent's values there, so the solver's next
        iterate costs no oracle call.  certify checks them at the last one.
        Returns (gamma, x + gamma * d), the point the memos are keyed on.
        """
        if not dphi0 < 0:
            return 0.0, x
        key = x.tobytes()
        # the solver's loop has just asked grad for x
        grad = self._grad_memo[1] if key == self._grad_memo[0] else self.grad(x)
        h = self._h(x, key)
        end = x + gamma_max * d
        end_key = end.tobytes()
        grad_end = self._f_grad(end, end_key) - self.g_grad_at_anchor
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
        grad.flags.writeable = False
        h += gamma * dphi0 + 0.5 * gamma * gamma * curv / gamma_max
        self._grad_memo = (key, grad, None)
        self._h_memo = (key, h)
        self._carried = (key, grad, h)
        return gamma, y

    def certify(self, y):
        """Replace the gradient and h that quadratic_step carried to y by the
        oracles' values, after checking that the two agree to CARRY_RTOL.

        Calls f_grad and f_value once each at y, or nothing when no carried
        value reached y.  A larger difference means f is not quadratic on
        the region and raises OracleFailure.
        """
        key, grad_c, h_c = self._carried
        if key != y.tobytes():
            return
        f_grad = np.asarray(self.problem.f_grad(y), dtype=float)
        grad = f_grad - self.g_grad_at_anchor
        f = float(self.problem.f_value(y))
        h = f - self._lin(y)
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
        grad.flags.writeable = False
        self._grad_memo = (key, grad, f_grad)
        self._f_memo = (key, f)
        self._h_memo = (key, h)
        self._carried = (None, None, None)


def linearize(problem, x_t, f_val=None, g_val=None, f_grad=None):
    """Build the surrogate at x_t.

    Calls g_subgrad once, and f_value and g_value once each unless their
    values at x_t are passed as f_val and g_val: the outer loop carries them
    from the step that produced x_t, and f_grad at x_t when it has it.  The
    surrogate keeps f(x_t), so a stop rule at the anchor calls no oracle.  A
    non-finite value, carried or not, raises OracleFailure.
    """
    x_t = np.asarray(x_t, dtype=float)
    g_val = float(problem.g_value(x_t) if g_val is None else g_val)
    if not np.isfinite(g_val):
        raise OracleFailure(f"g_value returned {g_val} at the anchor")
    g_grad = np.asarray(problem.g_subgrad(x_t), dtype=float)
    if not np.all(np.isfinite(g_grad)):
        raise OracleFailure("g_subgrad returned non-finite entries at the anchor")
    f_val = float(problem.f_value(x_t) if f_val is None else f_val)
    if not np.isfinite(f_val):
        raise OracleFailure(f"f_value returned {f_val} at the anchor")
    sub = Subproblem(
        anchor=x_t.copy(),
        g_at_anchor=g_val,
        g_grad_at_anchor=g_grad,
        problem=problem,
        phi_at_anchor=f_val - g_val,
    )
    key = x_t.tobytes()
    sub._f_memo = (key, f_val)
    if f_grad is not None:
        grad = f_grad - g_grad
        grad.flags.writeable = False
        sub._grad_memo = (key, grad, f_grad)
    return sub


def dc_gap_bounds(sub, x_next, fw_gap_at_x_next):
    """Bounds on the stationarity gap at the surrogate's anchor.

    Returns (lb, ub) with lb = phi(anchor) - h(x_next) and ub = lb plus the
    subsolver's Frank-Wolfe gap at x_next.  lb also lower-bounds the primal
    gap at the anchor; a negative lb is reported as is.
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


def boosted_step(problem, x_t, x_candidate, phi_t=None, phi_candidate=None, slope=None):
    """Line search the true objective along [x_t, x_candidate].

    Runs the two-level grid search on phi over the segment and returns the
    best point found and its step gamma in [0, 1], so phi(point) <=
    phi(x_candidate).  A flat or monotonically decreasing profile returns
    (a copy of) x_candidate itself with gamma = 1.  phi_t, when given, is
    phi(x_t), which the search then does not evaluate again.

    On a problem that declares quadratic, phi along the segment is
        phi_t + gamma * slope + gamma^2 * (phi_candidate - phi_t - slope),
    slope = <f_grad(x_t) - g_subgrad(x_t), x_candidate - x_t>, and the same
    grid probes that instead of the oracles, with the same tie rule; it is
    phi_candidate exactly at gamma = 1.  phi_t, phi_candidate and slope are
    evaluated when not given.  Only an interior gamma rests on interpolated
    values, and dca_solve checks phi at the point it then moves to.  gamma = 1
    and gamma = 0 rest only on the exact values at the two ends, and the
    step to x_candidate stays certified by lb >= 0, so a false declaration
    can make the boost less effective but cannot make a certificate wrong.
    """
    d = x_candidate - x_t
    if problem.quadratic:
        if phi_t is None:
            phi_t = problem.phi(x_t)
        if phi_candidate is None:
            phi_candidate = problem.phi(x_candidate)
        if slope is None:
            grad_t = np.asarray(problem.f_grad(x_t), dtype=float) - np.asarray(
                problem.g_subgrad(x_t), dtype=float
            )
            slope = float(grad_t.dot(d))
        # probing on the gamma axis itself: 0.0 + gamma * 1.0 is gamma
        value = _phi_on_segment(phi_t, phi_candidate, slope)
        gamma = grid_two_level(value, 0.0, 1.0, 1.0, phi_t)
    else:
        gamma = grid_two_level(problem.phi, x_t, d, 1.0, phi_t)
    if gamma >= 1.0:
        return x_candidate.copy(), 1.0
    if gamma <= 0.0:
        return x_t.copy(), 0.0
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


def dca_solve(problem, x0, config):
    """Minimize phi = f - g over the problem's polytope.

    Repeatedly linearizes g at the current iterate and drives the convex
    surrogate down with the configured subsolver, stopping once the certified
    stationarity gap ub = lb + fw_gap falls below config.dca_gap_tol.  With
    the adaptive stop mode the recorded objective never increases.  If a
    subproblem terminates above the anchor value (negative lb) the iterate is
    kept and the run ends as stalled, since repeating the identical
    subproblem cannot progress.  A time limit is passed to the subsolver as a
    deadline, so a run ends with termination time_limit within about one
    inner iteration of it.

    Returns (x_final, RunRecord).
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError(
            f"x0 has shape {x0.shape}, expected ({problem.dimension},)"
        )
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has non-finite entries")
    if not problem.lmo.contains(x0):
        raise ValueError("x0 is not feasible for the problem's region")

    lmo = problem.lmo
    lmo_base = lmo.call_count
    line_search = Secant()
    # f and g at x, carried from the step that produced x into linearize,
    # and f_grad at x when the subsolver evaluated it there
    f_x, g_x = float(problem.f_value(x0)), float(problem.g_value(x0))
    f_grad_x = None
    record = RunRecord(phi0=f_x - g_x)
    started = time.perf_counter()
    deadline = None
    if config.time_limit_seconds is not None:
        deadline = started + config.time_limit_seconds

    # BPCG revisits few vertices, so only vanilla FW keeps a table; it also
    # takes the closed-form step on a quadratic, which would change BPCG's
    # LMO counts
    vertex_grads = VertexTable(lmo) if config.subsolver == "fw" else None
    quadratic = problem.quadratic and vertex_grads is not None
    x = x0.copy()
    phi_x = record.phi0
    x_set = None  # decomposition of x when warm starting
    record.termination = "iteration_cap"
    for t in range(config.max_outer_iters):
        if deadline is not None and time.perf_counter() > deadline:
            record.termination = "time_limit"
            break
        sub = linearize(problem, x, f_x, g_x, f_grad_x)
        sub.vertex_grads, sub.quadratic = vertex_grads, quadratic
        inner = dict(
            fw_gap_tol=config.fw_gap_tol,
            max_iters=config.max_inner_iters,
            # the fixed mode's epsilon is fw_gap_tol, which the solvers test first
            stop_rule=sub.descent if config.stop_mode == "adaptive" else None,
            deadline=deadline,
        )
        snapshot = None
        if config.subsolver == "bpcg":
            if config.warm_start and x_set is not None:
                start_set = x_set
                if config.boosted:
                    snapshot = x_set.copy()
            else:
                start_set = ActiveSet.from_vertex(lmo(sub.grad(x)))
                f_grad_x = sub.f_grad_at(x)  # kept for the boosted step
            y, out_set, stats = bpcg(sub, lmo, start_set, line_search, **inner)
        else:
            y, stats = vanilla_fw(sub, vertex_grads, x, line_search, **inner)
            sub.certify(y)
            out_set = None

        lb, ub = dc_gap_bounds(sub, y, stats.final_fw_gap)
        stalled = lb < 0  # then the iterate is kept, objective unchanged
        if not stalled:
            gamma, g_y, boost = 1.0, None, None
            if config.boosted:
                if problem.quadratic:
                    # what phi's closed form along [x, y] is made of; g at y
                    # is also g at the new iterate when gamma = 1
                    g_y = float(problem.g_value(y))
                    if f_grad_x is None:
                        f_grad_x = np.asarray(problem.f_grad(x), dtype=float)
                    slope = float((f_grad_x - sub.g_grad_at_anchor).dot(y - x))
                    phi_y = sub.f_value(y) - g_y
                    if not math.isfinite(phi_y):
                        # the grid would keep x_t and repeat this subproblem
                        raise OracleFailure(
                            f"phi is {phi_y} at the subsolver's point in outer step {t}"
                        )
                    boost = (phi_x, phi_y, slope)
                    x, gamma = boosted_step(problem, x, y, *boost)
                else:
                    x, gamma = boosted_step(problem, x, y, phi_x)
                if gamma >= 1.0:
                    x_set = out_set
                elif gamma <= 0.0:
                    x_set = snapshot
                elif snapshot is not None and out_set is not None:
                    x_set = ActiveSet.convex_combination(snapshot, out_set, gamma)
                else:
                    x_set = None
            else:
                x = y
                x_set = out_set
            if gamma > 0.0:  # otherwise x is x_t, whose f and g are known
                # at y, sub holds f from the stop rule or the gap bounds
                f_x = sub.f_value(x)
                if gamma < 1.0 or g_y is None:
                    g_x = float(problem.g_value(x))
                    if boost is not None:  # an interior gamma of the closed form
                        _check_boost(boost, gamma, f_x, g_x, t)
                else:
                    g_x = g_y
                _check_subgradient(sub, x, g_x, t)
                phi_x = f_x - g_x
                f_grad_x = sub.f_grad_at(x)

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
        if stalled:
            record.termination = "stalled"
            break
    return x, record
