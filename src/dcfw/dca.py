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


class OracleFailure(RuntimeError):
    """A problem oracle returned a non-finite value."""


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
    """Convex majorant of phi obtained by linearizing g at an anchor."""

    anchor: np.ndarray
    g_at_anchor: float
    g_grad_at_anchor: np.ndarray
    problem: DcProblem
    phi_at_anchor: float

    def value(self, x):
        lin = self.g_at_anchor + float(
            np.dot(self.g_grad_at_anchor, x - self.anchor)
        )
        return float(self.problem.f_value(x)) - lin

    def grad(self, x):
        return np.asarray(self.problem.f_grad(x), dtype=float) - self.g_grad_at_anchor

    def descent(self, y):
        """phi(anchor) - h(y): the descent y secures, and the threshold of the
        adaptive inner stop rule.  A Frank-Wolfe gap at y at most this value
        certifies that half the stationarity gap bound is realized as
        progress."""
        return self.phi_at_anchor - self.value(y)


def linearize(problem, x_t):
    """Build the surrogate at x_t, calling g_value and g_subgrad exactly once."""
    x_t = np.asarray(x_t, dtype=float)
    g_val = float(problem.g_value(x_t))
    if not np.isfinite(g_val):
        raise OracleFailure(f"g_value returned {g_val} at the anchor")
    g_grad = np.asarray(problem.g_subgrad(x_t), dtype=float)
    if not np.all(np.isfinite(g_grad)):
        raise OracleFailure("g_subgrad returned non-finite entries at the anchor")
    f_val = float(problem.f_value(x_t))
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
        if self.dca_gap_tol <= 0 or self.fw_gap_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer_iters < 1 or self.max_inner_iters < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class RunRecord:
    """Per-outer-iteration trace of one run plus metadata."""

    phi0: float = np.nan
    dc_gap_lb: list = field(default_factory=list)
    fw_gap_final: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    lmo_calls_cum: list = field(default_factory=list)
    inner_iters: list = field(default_factory=list)
    elapsed_seconds: list = field(default_factory=list)
    termination: str = ""  # converged | iteration_cap | time_limit | stalled
    stalls: int = 0
    instance: str = ""
    variant: str = ""
    n: int = 0
    seed: int | None = None

    @property
    def outer_iters(self):
        return len(self.dc_gap_lb)

    @property
    def dc_gap_ub(self):
        return [lb + g for lb, g in zip(self.dc_gap_lb, self.fw_gap_final)]


def boosted_step(problem, x_t, x_candidate):
    """Line search the true objective along [x_t, x_candidate].

    Runs the two-level grid search on phi over the segment and returns the
    best point found and its step gamma in [0, 1], so phi(point) <=
    phi(x_candidate).  A flat or monotonically decreasing profile returns
    (a copy of) x_candidate itself with gamma = 1.
    """
    d = x_candidate - x_t
    gamma = grid_two_level(problem.phi, x_t, d, 1.0)
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
    kept, the event is counted in record.stalls, and the run ends, since
    repeating the identical subproblem cannot progress.

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
    record = RunRecord(phi0=problem.phi(x0))
    started = time.perf_counter()

    x = x0.copy()
    phi_x = record.phi0
    x_set = None  # decomposition of x when warm starting
    record.termination = "iteration_cap"
    for t in range(config.max_outer_iters):
        if (
            config.time_limit_seconds is not None
            and time.perf_counter() - started > config.time_limit_seconds
        ):
            record.termination = "time_limit"
            break
        sub = linearize(problem, x)
        inner = dict(
            fw_gap_tol=config.fw_gap_tol,
            max_iters=config.max_inner_iters,
            # the fixed mode's epsilon is fw_gap_tol, which the solvers test first
            stop_rule=sub.descent if config.stop_mode == "adaptive" else None,
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
            y, stats = vanilla_fw(sub, lmo, x, line_search, **inner)
            out_set = None

        lb, ub = dc_gap_bounds(sub, y, stats.final_fw_gap)
        stalled = lb < 0
        if stalled:
            record.stalls += 1
            phi_next = phi_x  # iterate kept, objective unchanged
        elif config.boosted:
            x, gamma = boosted_step(problem, x, y)
            if gamma >= 1.0:
                x_set = out_set
            elif gamma <= 0.0:
                x_set = snapshot
            elif snapshot is not None and out_set is not None:
                x_set = ActiveSet.convex_combination(snapshot, out_set, gamma)
            else:
                x_set = None
            phi_next = problem.phi(x)
        else:
            x = y
            x_set = out_set
            phi_next = problem.phi(x)

        record.dc_gap_lb.append(lb)
        record.fw_gap_final.append(stats.final_fw_gap)
        record.objective.append(phi_next)
        record.lmo_calls_cum.append(lmo.call_count - lmo_base)
        record.inner_iters.append(stats.iterations)
        record.elapsed_seconds.append(time.perf_counter() - started)
        phi_x = phi_next

        if ub <= config.dca_gap_tol:
            record.termination = "converged"
            break
        if stalled:
            record.termination = "stalled"
            break
    return x, record
