"""Per-layer timing of dcfw from outside the library.

``Tracer.install`` replaces public functions and methods of the dcfw modules
with timing wrappers and ``uninstall`` puts the originals back; nothing in
``src/dcfw`` changes.  Each wrapper is a span: its duration goes to the span
name's inclusive time, and its duration minus the time of the spans nested
inside it goes to its layer's self time.  The layer is the span name's prefix
(``bench``, ``qaplib``, ``dca``, ``fw``, ``lmo``, ``problems``), so the self
times of all layers add up to the outermost span, ``bench.run_suite``.
Spans are aggregated as they close rather than stored.
"""

import time
from collections import Counter

LAYERS = ("bench", "qaplib", "dca", "fw", "lmo", "problems")
ORACLES = ("f_value", "f_grad", "g_value", "g_subgrad")
# ActiveSet.extremes gets its own wrapper, which also counts atoms
ACTIVE_SET_METHODS = (
    "fw_update", "pairwise_update", "copy", "convex_combination", "from_vertex"
)


class Tracer:
    def __init__(self):
        self.calls = Counter()  # span name -> calls
        self.inclusive = Counter()  # span name -> seconds
        self.self_s = Counter()  # layer -> seconds
        self.counts = Counter()  # named event counters
        self._stack = []  # child seconds of each open span
        self._open = Counter()  # span name -> open depth, for marked spans
        self._saved = []

    def span(self, name, fn, *, mark=False, inside=None):
        """Wrap fn in a span.  mark tracks whether the span is open; inside =
        (span, counter) counts calls made while that marked span is open."""
        layer = name.split(".", 1)[0]
        stack, opened, counts = self._stack, self._open, self.counts
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if inside is not None and opened[inside[0]]:
                counts[inside[1]] += 1
            if mark:
                opened[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if mark:
                    opened[name] -= 1
                calls[name] += 1
                inclusive[name] += elapsed
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def _traced_problem(self, factory):
        """Span around a DcProblem factory that also wraps the problem's oracles."""
        timed = self.span("problems.make", factory)
        inside = {
            "f_grad": ("fw.line_search", "fw.line_search_grad_evals"),
            "f_value": ("dca.boost", "dca.boost_phi_evals"),
        }

        def make(*args, **kwargs):
            problem = timed(*args, **kwargs)
            for oracle in ORACLES:
                fn = getattr(problem, oracle)
                setattr(
                    problem,
                    oracle,
                    self.span(f"problems.{oracle}", fn, inside=inside.get(oracle)),
                )
            return problem

        return make

    def _traced_inner_solve(self, solver):
        """Span around bpcg/vanilla_fw that reads the returned FwStats."""
        timed = self.span("fw.inner_solve", solver)
        counts = self.counts

        def solve(*args, **kwargs):
            out = timed(*args, **kwargs)
            stats = out[-1]
            counts["fw.inner_iters"] += stats.iterations
            counts[f"fw.stop.{stats.termination}"] += 1
            counts["fw.step.fw"] += stats.fw_steps
            counts["fw.step.pairwise_descent"] += stats.pairwise_descent_steps
            counts["fw.step.pairwise_drop"] += stats.pairwise_drop_steps
            return out

        return solve

    def _traced_extremes(self, extremes):
        timed = self.span("fw.active_set", extremes)
        counts = self.counts

        def wrapper(active_set, grad):
            counts["fw.extremes_calls"] += 1
            counts["fw.active_set_atoms"] += len(active_set)
            return timed(active_set, grad)

        return wrapper

    def install(self):
        import dcfw.bench
        import dcfw.dca
        import dcfw.fw
        import dcfw.lmo
        import dcfw.problems
        import dcfw.qaplib

        bench, dca = dcfw.bench, dcfw.dca
        p = self._patch
        p(bench, "run_suite", lambda f: self.span("bench.run_suite", f))
        p(bench, "dca_solve", lambda f: self.span("dca.solve", f))
        # scan_directory parses each file through the qaplib module's global,
        # run_suite parses it again through the name bench imported
        p(bench, "scan_directory", lambda f: self.span("qaplib.scan", f))
        p(bench, "parse_qaplib", lambda f: self.span("qaplib.parse", f))
        p(dcfw.qaplib, "parse_qaplib", lambda f: self.span("qaplib.parse", f))
        for name in ("gen_quadratic_dc", "gen_hard_dc", "initial_point"):
            p(bench, name, lambda f, name=name: self.span(f"problems.{name}", f))
        p(bench, "qap_dc_oracles", self._traced_problem)
        p(dcfw.problems.QuadraticDcInstance, "problem", self._traced_problem)
        p(dcfw.problems.HardDcInstance, "problem", self._traced_problem)
        p(dca, "linearize", lambda f: self.span("dca.linearize", f))
        # dca imports grid_two_level for the boosted step only
        p(dca, "grid_two_level", lambda f: self.span("dca.boost", f, mark=True))
        p(dca, "bpcg", self._traced_inner_solve)
        p(dca, "vanilla_fw", self._traced_inner_solve)
        p(dcfw.fw.Secant, "step", lambda f: self.span("fw.line_search", f, mark=True))
        p(dcfw.fw.ActiveSet, "extremes", self._traced_extremes)
        for name in ACTIVE_SET_METHODS:
            p(dcfw.fw.ActiveSet, name, lambda f: self.span("fw.active_set", f))
        p(
            dcfw.lmo.LinearMinimizationOracle,
            "__call__",
            lambda f: self.span("lmo.call", f),
        )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, suite_s, solve_s):
        """Per-layer metrics of one traced suite call.

        suite_s is the traced run_suite wall time, solve_s the sum of the
        per-run solve times run_suite reported.
        """
        c, s, counts = self.calls, self.inclusive, self.counts
        inner_iters = counts["fw.inner_iters"]
        inner_solves = c["fw.inner_solve"]
        m = {
            "traced_suite_s": (suite_s, "s"),
            "traced_us_per_inner_iter": (_ratio(solve_s * 1e6, inner_iters), "us"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer], "s")
        m["unattributed_s"] = (suite_s - sum(self.self_s.values()), "s")
        m.update(
            {
                "fw.inner_solves": (inner_solves, "count"),
                "fw.inner_iters": (inner_iters, "count"),
                "fw.line_search_calls": (c["fw.line_search"], "count"),
                "fw.line_search_s": (s["fw.line_search"], "s"),
                "fw.line_search_grad_evals": (
                    counts["fw.line_search_grad_evals"], "count"
                ),
                "fw.active_set_calls": (c["fw.active_set"], "count"),
                "fw.active_set_s": (s["fw.active_set"], "s"),
                "fw.active_set_atoms_mean": (
                    _ratio(counts["fw.active_set_atoms"], counts["fw.extremes_calls"]),
                    "count",
                ),
            }
        )
        for reason in ("stop_rule", "gap_tol", "iter_cap", "stagnation"):
            m[f"fw.stop.{reason}"] = (counts[f"fw.stop.{reason}"], "count")
        m["fw.stop_rule_frac"] = (
            _ratio(counts["fw.stop.stop_rule"], inner_solves), "ratio"
        )
        for step in ("fw", "pairwise_descent", "pairwise_drop"):
            m[f"fw.step.{step}"] = (counts[f"fw.step.{step}"], "count")
        m.update(
            {
                "dca.solve_calls": (c["dca.solve"], "count"),
                "dca.linearize_calls": (c["dca.linearize"], "count"),
                "dca.linearize_s": (s["dca.linearize"], "s"),
                "dca.boost_calls": (c["dca.boost"], "count"),
                "dca.boost_s": (s["dca.boost"], "s"),
                "dca.boost_phi_evals": (counts["dca.boost_phi_evals"], "count"),
                "lmo.calls": (c["lmo.call"], "count"),
                "lmo.s": (s["lmo.call"], "s"),
                "lmo.calls_per_inner_iter": (
                    _ratio(c["lmo.call"], inner_iters), "ratio"
                ),
            }
        )
        for oracle in ORACLES:
            m[f"problems.{oracle}_calls"] = (c[f"problems.{oracle}"], "count")
            m[f"problems.{oracle}_s"] = (s[f"problems.{oracle}"], "s")
        m["qaplib.parse_calls"] = (c["qaplib.parse"], "count")
        m["qaplib.parse_s"] = (s["qaplib.parse"], "s")
        return m


def _ratio(num, den):
    return num / den if den else 0.0
