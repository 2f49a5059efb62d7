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

import time
from dataclasses import dataclass, field

import numpy as np

from .fw import ActiveSet, Secant, bpcg, grid_two_level, vanilla_fw


# vertices a VertexTable keeps; it then stops adding, and each entry holds
# 2 * 8n bytes, key and gradient
VERTEX_TABLE_SIZE = 4096


class OracleFailure(RuntimeError):
    """A problem oracle returned a non-finite value."""


class VertexTable:
    """An LMO that registers each vertex it returns, with f_grad there.

    grads maps the bits of each registered vertex to a read-only copy of
    f_grad at it, or to None until Subproblem.grad first computes it; last
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
    """

    f_value: callable
    f_grad: callable
    g_value: callable
    g_subgrad: callable
    dimension: int
    lmo: object

    def phi(self, x):
        return float(self.f_value(x)) - float(self.g_value(x))


@dataclass
class Subproblem:
    """Convex majorant of phi obtained by linearizing g at an anchor.

    vertex_grads, if set, is the VertexTable the subsolver calls as its
    LMO; grad then takes f_grad at the last vertex from it.
    """

    anchor: np.ndarray
    g_at_anchor: float
    g_grad_at_anchor: np.ndarray
    problem: DcProblem
    phi_at_anchor: float
    vertex_grads: VertexTable | None = None
    # (x.tobytes(), gradient) of the last grad call
    _grad_memo: tuple = field(
        default=(None, None), init=False, repr=False, compare=False
    )
    # (y.tobytes(), f(y)) of the last f_value call
    _f_memo: tuple = field(
        default=(None, None), init=False, repr=False, compare=False
    )

    def value(self, x):
        lin = self.g_at_anchor + float(self.g_grad_at_anchor.dot(x - self.anchor))
        return float(self.problem.f_value(x)) - lin

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
        grad = f_grad - self.g_grad_at_anchor
        grad.flags.writeable = False
        self._grad_memo = (key, grad)
        return grad

    def f_value(self, y):
        """f(y) as a float; the last result is kept for a y with the same bits."""
        key = y.tobytes()
        if key != self._f_memo[0]:
            self._f_memo = (key, float(self.problem.f_value(y)))
        return self._f_memo[1]

    def descent(self, y):
        """phi(anchor) - h(y): the descent y secures, and the threshold of the
        adaptive inner stop rule.  A Frank-Wolfe gap at y at most this value
        certifies that half the stationarity gap bound is realized as
        progress.  f(y) is kept, so the gap bounds and the objective at the
        subsolver's last iterate reuse the stop rule's evaluation."""
        lin = self.g_at_anchor + float(self.g_grad_at_anchor.dot(y - self.anchor))
        return self.phi_at_anchor - (self.f_value(y) - lin)


def linearize(problem, x_t, f_val=None, g_val=None):
    """Build the surrogate at x_t.

    Calls g_subgrad once, and f_value and g_value once each unless their
    values at x_t are passed as f_val and g_val: the outer loop carries them
    from the step that produced x_t.  A non-finite value, carried or not,
    raises OracleFailure.
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
    return Subproblem(
        anchor=x_t.copy(),
        g_at_anchor=g_val,
        g_grad_at_anchor=g_grad,
        problem=problem,
        phi_at_anchor=f_val - g_val,
    )


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


def boosted_step(problem, x_t, x_candidate, phi_t=None):
    """Line search the true objective along [x_t, x_candidate].

    Runs the two-level grid search on phi over the segment and returns the
    best point found and its step gamma in [0, 1], so phi(point) <=
    phi(x_candidate).  A flat or monotonically decreasing profile returns
    (a copy of) x_candidate itself with gamma = 1.  phi_t, when given, is
    phi(x_t), which the search then does not evaluate again.
    """
    d = x_candidate - x_t
    gamma = grid_two_level(problem.phi, x_t, d, 1.0, phi_t)
    if gamma >= 1.0:
        return x_candidate.copy(), 1.0
    if gamma <= 0.0:
        return x_t.copy(), 0.0
    return x_t + gamma * d, gamma


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
    # f and g at x, carried from the step that produced x into linearize
    f_x, g_x = float(problem.f_value(x0)), float(problem.g_value(x0))
    record = RunRecord(phi0=f_x - g_x)
    started = time.perf_counter()
    deadline = None
    if config.time_limit_seconds is not None:
        deadline = started + config.time_limit_seconds

    # BPCG revisits few vertices, so only vanilla FW keeps a table
    vertex_grads = VertexTable(lmo) if config.subsolver == "fw" else None
    x = x0.copy()
    phi_x = record.phi0
    x_set = None  # decomposition of x when warm starting
    record.termination = "iteration_cap"
    for t in range(config.max_outer_iters):
        if deadline is not None and time.perf_counter() > deadline:
            record.termination = "time_limit"
            break
        sub = linearize(problem, x, f_x, g_x)
        sub.vertex_grads = vertex_grads
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
            y, out_set, stats = bpcg(sub, lmo, start_set, line_search, **inner)
        else:
            y, stats = vanilla_fw(sub, vertex_grads, x, line_search, **inner)
            out_set = None

        lb, ub = dc_gap_bounds(sub, y, stats.final_fw_gap)
        stalled = lb < 0  # then the iterate is kept, objective unchanged
        if not stalled:
            gamma = 1.0
            if config.boosted:
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
                f_x, g_x = sub.f_value(x), float(problem.g_value(x))
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
        if stalled:
            record.termination = "stalled"
            break
    return x, record
