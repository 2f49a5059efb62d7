"""Outer solver: linearization, gap bounds, the adaptive stop threshold, and
full DCA runs."""

import gc
import re
import time
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcfw.dca
from dcfw import (
    ActiveSet,
    DcaConfig,
    DcProblem,
    KSparsePolytope,
    OracleFailure,
    ProbabilitySimplex,
    QapInstance,
    Secant,
    VARIANTS,
    bpcg,
    dca_solve,
    gen_hard_dc,
    gen_quadratic_dc,
    initial_point,
    qap_dc_oracles,
    vanilla_fw,
)
from dcfw.dca import (
    Oracles,
    OuterStep,
    Subproblem,
    boosted_step,
    grid_two_level,
    linearize,
)
from dcfw.problems import HARD_K

from helpers import (
    Counter,
    rand_simplex,
    random_pd_matrix,
    simplex_qp_minimize,
    simplex_grid3,
    synthetic_qap,
)


def quadratic_problem(Q, q, n, lmo=None):
    """Convex problem phi = f with f a PD quadratic; g identically zero."""
    return DcProblem(
        f_value=lambda x: 0.5 * float(x @ Q @ x) + float(q @ x),
        f_grad=lambda x: Q @ x + q,
        g_value=lambda x: 0.0,
        g_subgrad=lambda x: np.zeros(n),
        lmo=lmo if lmo is not None else ProbabilitySimplex(n),
    )


@contextmanager
def subsolver_stats(variant):
    """Patch variant's subsolver in dcfw.dca to collect each inner solve's
    FwStats in the list this yields."""
    name = "bpcg" if VARIANTS[variant]["subsolver"] == "bpcg" else "vanilla_fw"
    original, stats = getattr(dcfw.dca, name), []

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        stats.append(out[-1])
        return out

    with mock.patch.object(dcfw.dca, name, spy):
        yield stats


class TestLinearize:
    def test_linear_g_makes_surrogate_exact(self):
        rng = np.random.default_rng(0)
        n = 6
        Q = random_pd_matrix(rng, n)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        problem = DcProblem(
            f_value=lambda x: 0.5 * float(x @ Q @ x) + float(a @ x),
            f_grad=lambda x: Q @ x + a,
            g_value=lambda x: float(b @ x),
            g_subgrad=lambda x: b,
            lmo=ProbabilitySimplex(n),
        )
        for anchor_seed in range(3):
            anchor = rand_simplex(np.random.default_rng(anchor_seed), n)
            sub = linearize(Oracles(problem), anchor)
            for _ in range(3):
                x = rand_simplex(rng, n)
                expected = problem.f_value(x) - float(b @ x)
                assert sub.value(x) == pytest.approx(expected, abs=1e-12)

    def test_f_equals_g_touches_zero_at_anchor(self):
        rng = np.random.default_rng(1)
        n = 5
        Q = random_pd_matrix(rng, n)
        fv = lambda x: 0.5 * float(x @ Q @ x)
        fg = lambda x: Q @ x
        problem = DcProblem(
            f_value=fv, f_grad=fg, g_value=fv, g_subgrad=fg, lmo=ProbabilitySimplex(n)
        )
        anchor = rand_simplex(rng, n)
        sub = linearize(Oracles(problem), anchor)
        assert sub.value(anchor) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sub.grad(anchor), 0.0, atol=1e-12)

    def test_surrogate_excess_is_bregman_term(self):
        # h_t(x) - phi(x) = 1/2 (x - x_t)' B (x - x_t) for quadratic g
        inst = gen_quadratic_dc(10, 0)
        problem = inst.problem()
        rng = np.random.default_rng(2)
        anchor = rand_simplex(rng, 10)
        sub = linearize(Oracles(problem), anchor)
        for _ in range(100):
            x = rand_simplex(rng, 10)
            excess = sub.value(x) - problem.phi(x)
            d = x - anchor
            assert excess == pytest.approx(0.5 * float(d @ inst.B @ d), abs=1e-9)
        # majorization touches at the anchor
        assert sub.value(anchor) == pytest.approx(problem.phi(anchor), abs=1e-12)

    def test_calls_g_oracles_exactly_once(self):
        inst = gen_quadratic_dc(5, 3)
        base = inst.problem()
        gv = Counter(base.g_value)
        gg = Counter(base.g_subgrad)
        fv = Counter(base.f_value)
        problem = DcProblem(
            f_value=fv, f_grad=base.f_grad, g_value=gv, g_subgrad=gg, lmo=base.lmo
        )
        linearize(Oracles(problem), np.full(5, 0.2))
        assert (gv.calls, gg.calls, fv.calls) == (1, 1, 1)

    def test_non_finite_oracles_raise(self):
        n = 3
        good = lambda x: 0.0
        goodv = lambda x: np.zeros(n)
        lmo = ProbabilitySimplex(n)
        x = np.full(n, 1.0 / 3.0)
        bad_g = DcProblem(
            f_value=good, f_grad=goodv, g_value=lambda x: np.nan, g_subgrad=goodv,
            lmo=lmo,
        )
        with pytest.raises(OracleFailure):
            linearize(Oracles(bad_g), x)
        bad_gg = DcProblem(
            f_value=good, f_grad=goodv, g_value=good,
            g_subgrad=lambda x: np.array([1.0, np.inf, 0.0]), lmo=lmo,
        )
        with pytest.raises(OracleFailure):
            linearize(Oracles(bad_gg), x)
        bad_f = DcProblem(
            f_value=lambda x: np.inf, f_grad=goodv, g_value=good, g_subgrad=goodv,
            lmo=lmo,
        )
        with pytest.raises(OracleFailure):
            linearize(Oracles(bad_f), x)

    @pytest.mark.parametrize(
        "bad, shape", [(lambda x: 1.0, ()), (lambda x: np.ones(1), (1,))],
        ids=["scalar", "shape-1"],
    )
    @pytest.mark.parametrize("name", ["f_grad", "g_subgrad"])
    def test_gradient_of_the_wrong_shape_raises(self, name, bad, shape):
        # numpy broadcast it, and the run ended converged at a wrong point
        problem = gen_quadratic_dc(10, 0).problem()
        setattr(problem, name, bad)
        message = re.escape(f"{name} returned shape {shape} at the anchor, expected (10,)")
        for variant in ("DCA-FW", "DCA-FW-ES", "DCA-BPCG-ES"):
            with pytest.raises(OracleFailure, match=message):
                dca_solve(problem, np.full(10, 0.1), DcaConfig(variant))

    def test_carried_values_replace_f_and_g_calls(self):
        # f and g at the anchor come from the run's record when it holds them
        base = gen_quadratic_dc(5, 3).problem()
        fv, gv = Counter(base.f_value), Counter(base.g_value)
        problem = DcProblem(
            f_value=fv, f_grad=base.f_grad, g_value=gv, g_subgrad=base.g_subgrad,
            lmo=base.lmo,
        )
        oracles = Oracles(problem)
        x = np.full(5, 0.2)
        oracles.f(x), oracles.g(x)
        carried = linearize(oracles, x)
        assert (fv.calls, gv.calls) == (1, 1)
        fresh = linearize(Oracles(base), x)
        assert carried.phi_at_anchor == fresh.phi_at_anchor
        assert carried.g_at_anchor == fresh.g_at_anchor

    def test_record_keys_on_the_bits_of_the_point(self):
        base = gen_quadratic_dc(4, 0).problem()
        fv, gv = Counter(base.f_value), Counter(base.g_value)
        problem = DcProblem(
            f_value=fv, f_grad=base.f_grad, g_value=gv, g_subgrad=base.g_subgrad,
            lmo=base.lmo,
        )
        oracles = Oracles(problem)
        x = np.eye(4)[0]
        signed = x.copy()
        signed[1] = -0.0  # equal to x by ==, but other bits
        assert oracles.f(x) == oracles.f(x.copy()) == float(base.f_value(x))
        assert oracles.g(x) == oracles.g(x.copy()) == float(base.g_value(x))
        assert (fv.calls, gv.calls) == (1, 1)
        oracles.f(signed), oracles.g(signed)
        assert (fv.calls, gv.calls) == (2, 2)

    @pytest.mark.parametrize("f_val, g_val", [(np.nan, 0.0), (0.0, np.inf)])
    def test_non_finite_carried_value_raises(self, f_val, g_val):
        # the record refuses the value, so it never carries it to linearize
        base = gen_quadratic_dc(3, 0).problem()
        problem = DcProblem(
            f_value=lambda x: f_val, f_grad=base.f_grad, g_value=lambda x: g_val,
            g_subgrad=base.g_subgrad, lmo=base.lmo,
        )
        oracles = Oracles(problem)
        oracles.step = 4
        x = np.full(3, 1.0 / 3.0)
        name, bad = ("f_value", f_val) if np.isnan(f_val) else ("g_value", g_val)
        message = rf"^{name} returned {bad} in outer step 4$"
        with pytest.raises(OracleFailure, match=message):
            oracles.f(x), oracles.g(x)
        with pytest.raises(OracleFailure, match=message):
            linearize(oracles, x)


class TestSubproblemGrad:
    def _counted(self, n=10):
        problem = gen_quadratic_dc(n, 0).problem()
        problem.f_grad = Counter(problem.f_grad)
        x0 = np.full(n, 1.0 / n)
        return linearize(Oracles(problem), x0), problem.f_grad, x0

    def test_same_point_calls_f_grad_once(self):
        sub, f_grad, x = self._counted()
        first = sub.grad(x)
        assert np.array_equal(sub.grad(x.copy()), first)
        assert f_grad.calls == 1

    def test_signed_zero_or_other_point_recomputes(self):
        sub, f_grad, _ = self._counted()
        x = np.eye(10)[0]
        signed = x.copy()
        signed[1] = -0.0  # equal to x by ==, but other bits
        g = sub.grad(x)  # the first call was linearize's, at the anchor
        assert np.array_equal(sub.grad(signed), g)
        assert f_grad.calls == 3
        sub.grad(np.eye(10)[1])
        sub.grad(x)  # one entry: x was displaced
        assert f_grad.calls == 5

    def test_capped_fw_makes_two_gradient_calls_per_iteration(self):
        # the secant search takes two gradients per step on a quadratic; its
        # last probe is the next iterate, whose gradient the loop reuses
        sub, f_grad, x0 = self._counted()
        k = 25
        _, stats = vanilla_fw(
            sub, sub.oracles.problem.lmo, x0, Secant(), fw_gap_tol=1e-15, max_iters=k
        )
        assert stats.termination == "iter_cap" and stats.iterations == k
        assert f_grad.calls == 2 * k + 1


class TestVertexTable:
    """The vanilla-FW subsolver's table of f_grad at LMO vertices."""

    def test_one_f_grad_call_per_iteration_vertex_and_outer_step(self):
        class RecordingSimplex(ProbabilitySimplex):
            vertices = set()

            def _minimize(self, c):
                v = super()._minimize(c)
                self.vertices.add(v.tobytes())
                return v

        problem = gen_quadratic_dc(30, 0).problem()
        problem.f_grad = Counter(problem.f_grad)
        problem.lmo = RecordingSimplex(30)
        cfg = DcaConfig(
            "DCA-FW", dca_gap_tol=1e-8, max_outer_iters=6, max_inner_iters=400
        )
        _, record = dca_solve(problem, np.full(30, 1.0 / 30.0), cfg)
        vertices = len(RecordingSimplex.vertices)
        inner = sum(step.inner_iters for step in record.steps)
        bound = inner + vertices + record.outer_iters
        assert problem.f_grad.calls <= bound
        # the table adds no LMO call: the count before the table existed
        assert problem.lmo.call_count == 2406

    def test_table_keeps_its_bound_on_the_birkhoff_polytope(self, monkeypatch):
        rng = np.random.default_rng(3)
        A, B = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
        inst = QapInstance("rand5", 5, A, B)
        cfg = DcaConfig(
            "DCA-FW", dca_gap_tol=1e-12, max_outer_iters=4, max_inner_iters=300
        )
        x0 = np.full(25, 0.2)
        tables = []

        def spy(objective, *args, **kwargs):
            tables.append(objective.oracles)
            return vanilla_fw(objective, *args, **kwargs)

        _, unbounded = dca_solve(qap_dc_oracles(inst), x0, cfg)
        monkeypatch.setattr(dcfw.dca, "vanilla_fw", spy)
        monkeypatch.setattr(dcfw.dca, "VERTEX_TABLE_SIZE", 8)
        _, bounded = dca_solve(qap_dc_oracles(inst), x0, cfg)
        # one table for the whole run, full but not over its bound
        assert all(t is tables[0] for t in tables)
        assert len(tables[0].vertex_grads) == 8
        assert all(
            isinstance(grad, np.ndarray) and not grad.flags.writeable
            for grad in tables[0].vertex_grads.values()
        )
        for a, b in zip(bounded.steps, unbounded.steps, strict=True):
            assert (a.objective, a.lmo_calls_cum) == (b.objective, b.lmo_calls_cum)

    def test_stored_gradient_survives_the_oracle_reusing_its_array(self):
        n = 4
        rng = np.random.default_rng(0)
        Q = random_pd_matrix(rng, n)
        out = np.empty(n)

        def f_grad(x):  # returns the same array every call
            np.dot(Q, x, out=out)
            return out

        problem = quadratic_problem(Q, np.zeros(n), n)
        problem.f_grad = f_grad
        oracles = Oracles(problem, vertex_table=True)
        v = oracles.lmo(-np.eye(n)[2])
        anchor = np.full(n, 1.0 / n)
        sub = linearize(oracles, anchor)
        sub.grad(v)
        stored = oracles.vertex_grads[v.tobytes()]
        assert not stored.flags.writeable and stored is not out
        sub.grad(np.eye(n)[0])  # overwrites the oracle's array
        other = linearize(oracles, np.eye(n)[1])
        assert np.array_equal(other.grad(v), Q @ v - other.g_grad_at_anchor)
        assert np.array_equal(oracles.vertex_grads[v.tobytes()], Q @ v)
        # the anchor's gradient is a copy too
        assert np.array_equal(sub.f_grad_at_anchor, Q @ anchor)

    def test_bpcg_runs_keep_no_table(self, monkeypatch):
        tables = []

        def spy(objective, *args, **kwargs):
            tables.append(objective.oracles.vertex_grads)
            return bpcg(objective, *args, **kwargs)

        monkeypatch.setattr(dcfw.dca, "bpcg", spy)
        dca_solve(gen_quadratic_dc(6, 0).problem(), np.full(6, 1.0 / 6.0), DcaConfig())
        assert tables and all(t is None for t in tables)


class TestQuadraticFastPath:
    """The vanilla-FW subsolver on a problem that declares quadratic."""

    def _fast_sub(self, n, seed=0):
        problem = gen_quadratic_dc(n, seed).problem()
        problem.f_grad = Counter(problem.f_grad)
        x0 = np.full(n, 1.0 / n)
        sub = linearize(Oracles(problem, vertex_table=True), x0)
        assert sub.quadratic
        return sub, problem.f_grad, x0

    def test_no_f_grad_call_per_iteration_beyond_new_vertices(self):
        sub, f_grad, x0 = self._fast_sub(10)
        k = 25
        _, stats = vanilla_fw(
            sub, sub.oracles.lmo, x0, Secant(), fw_gap_tol=1e-15, max_iters=k
        )
        assert stats.termination == "iter_cap" and stats.iterations == k
        vertices = len(sub.oracles.vertex_grads)
        assert vertices < k  # vertices recur, and cost nothing then
        # one call at x0, one at each vertex the first time it comes up
        assert f_grad.calls == 1 + vertices

    def test_one_grad_call_per_solve(self, monkeypatch):
        # each closed-form step hands its gradient to the next iteration, so
        # the loop asks the surrogate only at the solve's starting point
        grad_calls, solves = Counter(Subproblem.grad), Counter(vanilla_fw)
        monkeypatch.setattr(Subproblem, "grad", lambda sub, x: grad_calls(sub, x))
        monkeypatch.setattr(dcfw.dca, "vanilla_fw", solves)
        cfg = DcaConfig(
            "DCA-FW", dca_gap_tol=1e-8, max_outer_iters=6, max_inner_iters=400
        )
        _, record = dca_solve(
            gen_quadratic_dc(30, 0).problem(), np.full(30, 1.0 / 30.0), cfg
        )
        assert sum(step.inner_iters for step in record.steps) > 10 * record.outer_iters
        assert grad_calls.calls == solves.calls == record.outer_iters

    def test_vertex_memo_hands_back_the_surrogate_gradient(self, monkeypatch):
        sub, f_grad, x0 = self._fast_sub(10)
        grad = sub.grad(x0)
        v = sub.oracles.lmo(grad)
        d = v - x0
        assert (x0 + d).tobytes() == v.tobytes()  # the step ends at the vertex
        record_calls = Counter(Oracles.f_grad)
        monkeypatch.setattr(Oracles, "f_grad", lambda rec, x: record_calls(rec, x))
        first = sub.quadratic_step(x0, grad, d, 1.0, float(d.dot(grad)))
        assert record_calls.calls == 1 and f_grad.calls == 2  # at x0 and v
        second = sub.quadratic_step(x0, grad, d, 1.0, float(d.dot(grad)))
        # the memo, not the record, served the vertex the second time
        assert record_calls.calls == 1 and f_grad.calls == 2
        assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                   for a, b in zip(first, second))
        kept = sub._vertex_grads[v.tobytes()]
        assert not kept.flags.writeable
        sub.grad(x0)  # moves the record's last point off v
        sub.oracles.lmo(-grad)  # and its last vertex
        assert kept.tobytes() == sub.grad(v).tobytes()
        # the record's table served v: no oracle call beyond the one at x0
        assert record_calls.calls == 3 and f_grad.calls == 3

    def test_each_anchor_starts_with_an_empty_vertex_memo(self, monkeypatch):
        memos = []  # (memo size at the solve's start, the subproblem)

        def spy(sub, *args, **kwargs):
            memos.append((len(sub._vertex_grads), sub))
            return vanilla_fw(sub, *args, **kwargs)

        monkeypatch.setattr(dcfw.dca, "vanilla_fw", spy)
        cfg = DcaConfig("DCA-FW", max_outer_iters=4, max_inner_iters=200)
        dca_solve(gen_quadratic_dc(10, 0).problem(), np.full(10, 0.1), cfg)
        assert len(memos) == 4 and all(size == 0 for size, _ in memos)
        assert all(len(sub._vertex_grads) > 0 for _, sub in memos)
        for _, sub in memos:  # each memo holds its own anchor's gradients
            for key, kept in sub._vertex_grads.items():
                assert kept.tobytes() == sub.grad(np.frombuffer(key)).tobytes()

    @pytest.mark.parametrize("variant", ["DCA-FW", "DCA-FW-ES"])
    def test_an_inner_solve_holds_no_earlier_subproblem(self, variant, monkeypatch):
        subs, gone = [], []  # weak references, and which of them were freed

        def spy(sub, *args, **kwargs):
            gc.collect()
            gone.append([ref() is None for ref in subs])
            subs.append(weakref.ref(sub))
            return vanilla_fw(sub, *args, **kwargs)

        monkeypatch.setattr(dcfw.dca, "vanilla_fw", spy)
        cfg = DcaConfig(variant, max_outer_iters=4, max_inner_iters=200)
        _, record = dca_solve(gen_quadratic_dc(10, 0).problem(), np.full(10, 0.1), cfg)
        assert record.outer_iters == 4
        assert gone == [[], [True], [True, True], [True, True, True]]

    @pytest.mark.parametrize("n", [30, 300])
    def test_carried_values_match_the_oracles(self, n):
        sub, _, x0 = self._fast_sub(n, seed=n)
        steps = []  # what each quadratic_step returned
        step = sub.quadratic_step
        sub.quadratic_step = lambda *args: steps.append(step(*args)) or steps[-1]
        y, stats = vanilla_fw(
            sub, sub.oracles.lmo, x0, Secant(), fw_gap_tol=1e-15, max_iters=1000
        )
        assert stats.iterations == 1000
        # the last step handed back the gradient it carried to y
        _, point, grad = steps[-1]
        assert point is y
        problem = sub.oracles.problem
        exact_grad = problem.f_grad(y) - sub.g_grad_at_anchor
        h = problem.f_value(y) - (
            sub.g_at_anchor + sub.g_grad_at_anchor.dot(y - sub.anchor)
        )
        exact_descent = sub.phi_at_anchor - h
        assert np.abs(grad - exact_grad).max() <= 1e-12 * np.abs(exact_grad).max()
        # the descent rests on the oracles' f, before certify too
        assert sub.descent(y) == exact_descent
        sub.certify(y)  # the carried gradient passes

    def test_value_at_the_returned_array_is_the_oracles_h(self):
        # before certify, value at the array the solve returned and at a
        # copy of it is the oracles' h, from one f_value call the record keeps
        sub, _, x0 = self._fast_sub(10)
        problem = sub.oracles.problem
        f_value = problem.f_value
        problem.f_value = Counter(f_value)
        y, stats = vanilla_fw(
            sub, sub.oracles.lmo, x0, Secant(), fw_gap_tol=1e-15, max_iters=5
        )
        assert stats.iterations == 5
        assert problem.f_value.calls == 0  # f at x0 was linearize's
        lin = sub.g_at_anchor + float(sub.g_grad_at_anchor.dot(y - sub.anchor))
        exact = float(f_value(y)) - lin
        assert sub.value(y) == exact
        assert sub.value(y.copy()) == exact
        assert problem.f_value.calls == 1

    def test_non_quadratic_f_declared_quadratic_fails_loudly(self):
        problem = gen_hard_dc(10, 0).problem()
        problem.quadratic = True
        problem.g_subgrad = Counter(problem.g_subgrad)  # once per outer step
        x0 = initial_point(problem.lmo)
        with pytest.raises(OracleFailure, match="f is declared quadratic but"):
            dca_solve(problem, x0, DcaConfig("DCA-FW"))
        assert problem.g_subgrad.calls == 1

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_at_a_vertex_fails_loudly(self):
        problem = gen_quadratic_dc(6, 0).problem()
        real = problem.f_grad
        problem.f_grad = lambda x: np.full(6, np.inf) if x.max() == 1.0 else real(x)
        with pytest.raises(OracleFailure, match="non-finite"):
            dca_solve(problem, np.full(6, 1.0 / 6.0), DcaConfig("DCA-FW"))

    def test_qap_counts_do_not_depend_on_the_declaration(self):
        rng = np.random.default_rng(3)
        inst = QapInstance("rand5", 5, rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
        cfg = DcaConfig(
            "DCA-FW", dca_gap_tol=1e-9, max_outer_iters=30, max_inner_iters=2000
        )
        x0 = np.full(25, 0.2)
        declared = qap_dc_oracles(inst)
        assert declared.quadratic
        plain = qap_dc_oracles(inst)
        plain.quadratic = False
        _, a = dca_solve(declared, x0, cfg)
        _, b = dca_solve(plain, x0, cfg)
        assert a.outer_iters == b.outer_iters
        for step_a, step_b in zip(a.steps, b.steps):
            assert step_a.lmo_calls_cum == step_b.lmo_calls_cum
            assert step_a.objective == pytest.approx(step_b.objective, rel=1e-12)


class TestSubgradientCheck:
    """dca_solve checks g(x) >= g(anchor) + <s, x - anchor> at each new
    iterate x, s the subgradient g was linearized with."""

    @staticmethod
    def _break(problem, how):
        g, s = problem.g_value, problem.g_subgrad
        if how == "concave_g":
            problem.g_value = lambda x: -g(x)
        problem.g_subgrad = lambda x: -s(x)  # the gradient of -g, or a lie

    @pytest.mark.parametrize("variant", ["DCA-FW", "DCA-BPCG-WS-ES"])
    @pytest.mark.parametrize("how", ["concave_g", "sign_flipped_subgrad"])
    def test_broken_g_fails_loudly(self, how, variant):
        problem = gen_quadratic_dc(30, 0).problem()
        self._break(problem, how)
        config = DcaConfig(variant, max_outer_iters=50, max_inner_iters=500)
        with pytest.raises(
            OracleFailure, match="below its linearization at the anchor of outer step 0"
        ):
            dca_solve(problem, initial_point(problem.lmo), config)

    def test_affine_g_passes(self):
        # g equals its linearization, so only roundoff separates the two
        base = gen_quadratic_dc(30, 0).problem()
        b = np.random.default_rng(1).standard_normal(30)
        problem = DcProblem(
            f_value=base.f_value, f_grad=base.f_grad,
            g_value=lambda x: float(b @ x) + 3.0, g_subgrad=lambda x: b, lmo=base.lmo,
        )
        _, record = dca_solve(
            problem, initial_point(problem.lmo), DcaConfig("DCA-BPCG-ES")
        )
        assert record.termination == "converged"

    @pytest.mark.parametrize("variant", ["DCA-BPCG-ES", "DCA-BPCG-WS-ES", "DCA-FW-ES"])
    def test_non_finite_g_at_the_last_iterate_fails_loudly(self, variant):
        # a NaN g has no shortfall > bound, and once ended the run converged
        # (or capped) with a NaN objective
        config = DcaConfig(variant, max_outer_iters=20, max_inner_iters=500)
        counted = gen_quadratic_dc(10, 0).problem()
        counted.g_value = Counter(counted.g_value)
        _, record = dca_solve(counted, initial_point(counted.lmo), config)
        last = counted.g_value.calls
        problem = gen_quadratic_dc(10, 0).problem()
        g_value = Counter(problem.g_value)
        problem.g_value = lambda x: np.nan if g_value.calls == last - 1 else g_value(x)
        step = record.outer_iters - 1
        with pytest.raises(
            OracleFailure,
            match=rf"^g_value returned nan in outer step {step}$",
        ):
            dca_solve(problem, initial_point(problem.lmo), config)


class TestOracleRecord:
    """dca_solve takes f, g and f_grad through one record per run, and checks
    f's gradients at consecutive anchors against f's convexity."""

    def test_subsolver_returning_the_anchor_costs_no_second_g_call(self):
        # the gap at x0 is below dca_gap_tol / 2, so vanilla FW returns x0
        # itself, whose g the record holds from phi0
        problem = gen_quadratic_dc(10, 0).problem()
        problem.g_value = Counter(problem.g_value)
        x0 = np.full(10, 0.1)
        cfg = DcaConfig("DCA-FW", dca_gap_tol=2e3, max_outer_iters=1)
        x, record = dca_solve(problem, x0, cfg)
        assert [step.inner_iters for step in record.steps] == [0]
        assert x.tobytes() == x0.tobytes()
        assert record.termination == "converged"
        assert problem.g_value.calls == 1

    def test_non_finite_f_inside_an_inner_solve_fails_loudly(self, monkeypatch):
        # the adaptive stop rule tests gap <= phi(anchor) - h(y), which is
        # False for a NaN f, so the NaN went unseen and the run converged.
        # Outer step 0's BPCG solve asks f at calls 2 to 7 of the run's 76
        config = DcaConfig("DCA-BPCG-ES")
        counted = gen_hard_dc(12, 0).problem()
        counted.f_value = Counter(counted.f_value)
        _, record = dca_solve(counted, initial_point(counted.lmo), config)
        assert record.termination == "converged" and counted.f_value.calls == 76
        problem = gen_hard_dc(12, 0).problem()
        f_value, inside, nan_inside = Counter(problem.f_value), [], []

        def nan_at_4th(x):
            value = f_value(x)
            if f_value.calls == 4:
                nan_inside.append(bool(inside))
                return np.nan
            return value

        def spy(*args, **kwargs):
            inside.append(True)
            try:
                return bpcg(*args, **kwargs)
            finally:
                inside.pop()

        problem.f_value = nan_at_4th
        monkeypatch.setattr(dcfw.dca, "bpcg", spy)
        message = "^f_value returned nan in outer step 0$"
        with pytest.raises(OracleFailure, match=message):
            dca_solve(problem, initial_point(problem.lmo), config)
        assert nan_inside == [True]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("family", [gen_quadratic_dc, gen_hard_dc])
    def test_doubled_gradient_fails_loudly(self, family, variant):
        problem = family(30, 0).problem()
        # undeclared, so vanilla FW takes the secant search and certify does
        # not catch the lie first
        problem.quadratic = False
        f_grad = problem.f_grad
        problem.f_grad = lambda x: 2.0 * f_grad(x)
        config = DcaConfig(variant, max_outer_iters=50, max_inner_iters=500)
        with pytest.raises(
            OracleFailure,
            match="f at the anchor of outer step .* below its linearization at "
            "the anchor of outer step",
        ):
            dca_solve(problem, initial_point(problem.lmo), config)


class TestDcGapBounds:
    def test_exact_subsolve_collapses_sandwich(self):
        inst = gen_quadratic_dc(6, 1)
        problem = inst.problem()
        anchor = np.full(6, 1.0 / 6.0)
        sub = linearize(Oracles(problem), anchor)
        y = rand_simplex(np.random.default_rng(3), 6)
        lb = sub.descent(y)
        ub = lb + 0.0
        assert lb == ub
        assert lb == pytest.approx(sub.phi_at_anchor - sub.value(y), abs=0.0)

    def test_sandwich_contains_true_gap(self):
        # exact stationarity gap from the active-set oracle, cross-checked
        # against a dense grid over the 2-simplex (step 1e-3)
        inst = gen_quadratic_dc(3, 1)
        problem = inst.problem()
        rng = np.random.default_rng(4)
        anchor = rand_simplex(rng, 3)
        sub = linearize(Oracles(problem), anchor)

        # imprecise subsolve on purpose
        y, stats = vanilla_fw(
            sub, problem.lmo, anchor, Secant(), fw_gap_tol=1e-3, max_iters=50
        )
        lb = sub.descent(y)
        ub = lb + stats.final_fw_gap

        q_eff = inst.a - inst.B @ anchor - inst.b
        x_star = simplex_qp_minimize(inst.A, q_eff)
        true_gap = sub.phi_at_anchor - sub.value(x_star)
        assert lb - 1e-9 <= true_gap <= ub + 1e-9

        pts = simplex_grid3(1e-3)
        quad = 0.5 * np.einsum("ij,jk,ik->i", pts, inst.A, pts) + pts @ q_eff
        const = sub.value(pts[0]) - quad[0]
        grid_gap = sub.phi_at_anchor - (quad.min() + const)
        assert grid_gap <= ub + 1e-9
        assert abs(grid_gap - true_gap) <= 5e-3

    def test_negative_lower_bound_reported_as_is(self):
        inst = gen_quadratic_dc(4, 2)
        problem = inst.problem()
        anchor = simplex_qp_minimize(  # a good anchor so most y are worse
            inst.A, inst.a - inst.B @ np.full(4, 0.25) - inst.b
        )
        sub = linearize(Oracles(problem), anchor)
        y = np.array([1.0, 0.0, 0.0, 0.0])
        lb = sub.descent(y)
        ub = lb + 0.5
        assert lb == sub.phi_at_anchor - sub.value(y)
        if lb < 0:
            assert ub == lb + 0.5

    def test_adaptive_stop_halves_the_sandwich(self):
        # once the adaptive rule fires, fw_gap <= lb hence ub <= 2 lb
        inst = gen_quadratic_dc(8, 5)
        problem = inst.problem()
        anchor = np.full(8, 0.125)
        sub = linearize(Oracles(problem), anchor)
        v0 = problem.lmo(sub.grad(anchor))
        y, _, stats = bpcg(
            sub,
            problem.lmo,
            ActiveSet.from_vertex(v0),
            Secant(),
            fw_gap_tol=1e-300,
            max_iters=10000,
            descent_from=sub.phi_at_anchor,
        )
        assert stats.termination == "stop_rule"
        lb = sub.descent(y)
        ub = lb + stats.final_fw_gap
        assert ub <= 2.0 * lb


class TestStopRules:
    """The adaptive stop threshold is Subproblem.descent; the fixed mode's
    epsilon is dca_gap_tol / 2."""

    def test_fixed_mode_needs_epsilon(self):
        # the fixed mode's epsilon is dca_gap_tol / 2, so a zero dca_gap_tol
        # would leave it none
        with pytest.raises(ValueError, match="dca_gap_tol must be positive"):
            DcaConfig("DCA-BPCG", dca_gap_tol=0.0)

    def test_fixed_mode_threshold(self, monkeypatch):
        # fixed mode passes no threshold: fw_gap_tol = dca_gap_tol / 2,
        # tested first, is its epsilon, so its inner solves never stop on
        # the stop rule
        calls = []

        def spy(*args, **kwargs):
            out = bpcg(*args, **kwargs)
            calls.append((kwargs["descent_from"], out[-1]))
            return out

        monkeypatch.setattr(dcfw.dca, "bpcg", spy)
        inst = gen_quadratic_dc(6, 0)
        eps = 1e-3
        cfg = DcaConfig("DCA-BPCG", dca_gap_tol=2 * eps, max_outer_iters=3)
        dca_solve(inst.problem(), np.full(6, 1.0 / 6.0), cfg)
        assert calls
        for descent_from, stats in calls:
            assert descent_from is None
            assert stats.termination == "gap_tol" and stats.final_fw_gap <= eps

    def test_adaptive_at_anchor_cannot_fire(self):
        # tau_t(x_t) = 0: only an exactly zero gap may stop at the anchor
        inst = gen_quadratic_dc(4, 0)
        sub = linearize(Oracles(inst.problem()), np.full(4, 0.25))
        assert sub.descent(sub.anchor) == 0.0

    def test_adaptive_fires_on_secured_descent(self):
        # the threshold at y is the descent y secures, phi(anchor) - h(y),
        # which is also lb; the solver stops at the first y it covers
        inst = gen_quadratic_dc(8, 5)
        problem = inst.problem()
        sub = linearize(Oracles(problem), np.full(8, 0.125))
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = rand_simplex(rng, 8)
            assert sub.descent(y) == sub.phi_at_anchor - sub.value(y)
        steps = []
        y, stats = vanilla_fw(
            sub, problem.lmo, sub.anchor, Secant(), fw_gap_tol=1e-300,
            descent_from=sub.phi_at_anchor, callback=steps.append,
        )
        assert stats.termination == "stop_rule" and len(steps) >= 2
        assert 0.0 <= stats.final_fw_gap <= sub.descent(y)
        # each step's gap was measured before it; no earlier iterate was covered
        for before, after in zip(steps, steps[1:]):
            assert after["gap"] > sub.descent(before["x"])

    def test_adaptive_mode_passes_descent(self, monkeypatch):
        # descent_from - value(y) is the arithmetic of Subproblem.descent(y)
        rules = []

        def spy(sub, *args, **kwargs):
            rules.append((sub, kwargs["descent_from"]))
            return vanilla_fw(sub, *args, **kwargs)

        monkeypatch.setattr(dcfw.dca, "vanilla_fw", spy)
        inst = gen_quadratic_dc(6, 0)
        cfg = DcaConfig("DCA-FW-ES", max_outer_iters=3, max_inner_iters=50)
        dca_solve(inst.problem(), np.full(6, 1.0 / 6.0), cfg)
        assert rules and all(c is sub.phi_at_anchor for sub, c in rules)


class TestDcaConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown variant 'DCA-GD'"):
            DcaConfig("DCA-GD")
        with pytest.raises(ValueError):
            DcaConfig(dca_gap_tol=0.0)
        with pytest.raises(ValueError):
            DcaConfig(dca_gap_tol=-1e-9)
        # the least subnormal, whose half underflows to 0.0
        with pytest.raises(ValueError, match="half above 0, got 5e-324"):
            DcaConfig(dca_gap_tol=5e-324)
        assert DcaConfig(dca_gap_tol=1e-323).dca_gap_tol == 1e-323
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                DcaConfig(dca_gap_tol=bad)
        for bad in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="time_limit_seconds"):
                DcaConfig(time_limit_seconds=bad)
        assert DcaConfig(time_limit_seconds=np.inf).time_limit_seconds == np.inf
        with pytest.raises(ValueError):
            DcaConfig(max_outer_iters=0)
        with pytest.raises(ValueError):
            DcaConfig(max_inner_iters=0)

    @pytest.mark.parametrize("field", ["max_outer_iters", "max_inner_iters"])
    @pytest.mark.parametrize("cap", [2.5, 3.0, True, "3", None])
    def test_iteration_caps_must_be_integers(self, field, cap):
        # range() would fail on a float only once a run starts, and a bool
        # is an int that says nothing about a count
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            DcaConfig(**{field: cap})

    @pytest.mark.parametrize("kwargs", [
        dict(dca_gap_tol=True, time_limit_seconds=True),
        dict(dca_gap_tol=True),
        dict(dca_gap_tol=np.True_),
        dict(time_limit_seconds=True),
    ])
    def test_bools_are_not_numbers(self, kwargs):
        # each compares as 1 and would pass the range checks; dca_gap_tol is
        # checked first
        with pytest.raises(TypeError, match=f"^{next(iter(kwargs))} must be a real number"):
            DcaConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("dca_gap_tol", "1e-6"),
        ("dca_gap_tol", None),
        ("time_limit_seconds", "5"),
    ])
    def test_numbers_of_another_type_are_refused(self, field, value):
        # each would raise TypeError from arithmetic or a comparison, without
        # naming the field
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got "):
            DcaConfig(**{field: value})

    def test_inner_tolerance_is_not_a_field(self):
        # every inner solve stops at a FW gap of dca_gap_tol / 2
        with pytest.raises(TypeError, match="fw_gap_tol"):
            DcaConfig(fw_gap_tol=1e-9)

    def test_numpy_integer_caps_are_accepted(self):
        cfg = DcaConfig(max_outer_iters=np.int64(3), max_inner_iters=np.int32(5))
        assert (cfg.max_outer_iters, cfg.max_inner_iters) == (3, 5)

    def test_defaults_are_valid(self):
        cfg = DcaConfig()
        assert cfg.variant == "DCA-BPCG-ES"


def _boost_args(problem, x_t, y):
    """(phi_t, phi_y, slope) of the segment [x_t, y], from the oracles."""
    grad = np.asarray(problem.f_grad(x_t)) - np.asarray(problem.g_subgrad(x_t))
    return problem.phi(x_t), problem.phi(y), float(grad @ (y - x_t))


def _last_argmin(values):
    return len(values) - 1 - int(np.argmin(values[::-1]))


def _grid_reference(value_fn, points=11):
    """The two-level search on [0, 1] with every probe evaluated, gamma = 0
    and the fine grid's two ends included: 2 * points evaluations."""
    coarse = np.linspace(0.0, 1.0, points)
    vals = np.array([float(value_fn(g)) for g in coarse])
    i = _last_argmin(vals)
    lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, points - 1)]
    fine = np.linspace(lo, hi, points)
    fine_vals = np.array([float(value_fn(g)) for g in fine])
    candidates = np.concatenate([coarse, fine])
    return float(candidates[_last_argmin(np.concatenate([vals, fine_vals]))])


class TestGridTwoLevel:
    """The boosted step's grid search on [0, 1], given the value at 0."""

    def test_flat_objective_returns_gamma_max(self):
        assert grid_two_level(lambda g: 0.0, 0.0) == 1.0

    def test_decreasing_objective_returns_gamma_max(self):
        assert grid_two_level(lambda g: -g, 0.0) == 1.0

    def test_parabola_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            target = rng.uniform(0.05, 0.95)
            value = lambda g: (g - target) ** 2
            got = grid_two_level(value, value(0.0))
            assert abs(got - target) <= 0.0101

    @pytest.mark.parametrize("target", [-1.0, 0.37, 2.0])
    def test_fine_grid_ends_are_not_evaluated_again(self, target):
        # minimum at the first, an interior and the last coarse point
        value = Counter(lambda g: (g - target) ** 2)
        grid_two_level(value, target**2)
        assert value.calls == 19

    def test_matches_full_evaluation_reference(self):
        # rounded profiles tie often
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = rng.standard_normal(5)
            decimals = int(rng.integers(0, 4))

            def value(g):
                poly = c[0] + c[1] * g + c[2] * g * g
                return round(poly + c[3] * np.sin(c[4] * g), decimals)

            assert grid_two_level(value, value(0.0)) == _grid_reference(value)

    def test_known_value_at_zero_saves_one_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = rng.standard_normal(3)
            value = Counter(lambda g: c[0] + c[1] * g + c[2] * g**2)
            got = grid_two_level(value, value(0.0))
            assert value.calls == 1 + 19
            assert got == _grid_reference(value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [0.6, 0.36], ids=["coarse", "fine"])
    def test_non_finite_probe_raises(self, at, bad):
        # (gamma - 0.37)^2 is least in the coarse cell around 0.4, whose fine
        # grid probes 0.36; a non-finite probe at either raises
        def value(g):
            return bad if abs(g - at) < 1e-12 else (g - 0.37) ** 2

        with pytest.raises(OracleFailure, match=f"^phi is {bad} at gamma = {at}"):
            grid_two_level(value, 0.37**2)


class TestBoostedStep:
    def test_parabola_on_segment(self):
        problem = DcProblem(
            f_value=lambda x: float(x[0]) ** 2,
            f_grad=lambda x: np.array([2.0 * x[0]]),
            g_value=lambda x: 0.0,
            g_subgrad=lambda x: np.zeros(1),
            lmo=KSparsePolytope(1, 1.0, 1),
        )
        x_t, y = np.array([-1.0]), np.array([1.0])
        point, gamma = boosted_step(problem, x_t, y, *_boost_args(problem, x_t, y))
        assert abs(point[0]) <= 0.01
        assert np.array_equal(point, [-1.0 + 2.0 * gamma])

    def test_monotone_segment_keeps_candidate(self):
        problem = DcProblem(
            f_value=lambda x: -float(x[0]),
            f_grad=lambda x: np.array([-1.0]),
            g_value=lambda x: 0.0,
            g_subgrad=lambda x: np.zeros(1),
            lmo=KSparsePolytope(1, 1.0, 1),
        )
        x_t, y = np.array([0.0]), np.array([1.0])
        point, gamma = boosted_step(problem, x_t, y, *_boost_args(problem, x_t, y))
        assert point[0] == 1.0 and gamma == 1.0

    def test_known_value_at_anchor_saves_one_evaluation(self):
        # undeclared, so the oracle grid runs whatever the segment's profile
        base = gen_quadratic_dc(6, 4).problem()
        problem = gen_quadratic_dc(6, 4).problem()
        base.quadratic = problem.quadratic = False
        problem.f_value = Counter(problem.f_value)
        rng = np.random.default_rng(5)
        x_t, cand = rand_simplex(rng, 6), rand_simplex(rng, 6)
        boost = _boost_args(base, x_t, cand)
        point, gamma = boosted_step(problem, x_t, cand, *boost)
        assert problem.f_value.calls == 19
        want_point, want_gamma = boosted_step(base, x_t, cand, *boost)
        assert gamma == want_gamma and np.array_equal(point, want_point)

    def test_never_worse_than_candidate(self):
        inst = gen_quadratic_dc(6, 4)
        problem = inst.problem()
        rng = np.random.default_rng(6)
        for _ in range(20):
            x_t = rand_simplex(rng, 6)
            cand = rand_simplex(rng, 6)
            boost = _boost_args(problem, x_t, cand)
            point, _ = boosted_step(problem, x_t, cand, *boost)
            assert problem.phi(point) <= problem.phi(cand) + 1e-12

    def test_non_finite_phi_inside_the_segment_fails_loudly(self):
        # undeclared, the grid probes the oracles inside [x_t, y], which lies
        # in the region, so a NaN there is a broken oracle, not a probe to skip
        problem = DcProblem(
            f_value=lambda x: np.nan if 0.1 < x[0] < 0.3 else float(x[0]) ** 2,
            f_grad=lambda x: np.array([2.0 * x[0]]),
            g_value=lambda x: 0.0,
            g_subgrad=lambda x: np.zeros(1),
            lmo=KSparsePolytope(1, 1.0, 1),
        )
        x_t, y = np.array([-1.0]), np.array([1.0])
        boost = (1.0, 1.0, -4.0)  # phi, phi and slope at x_t, y and x_t
        with pytest.raises(OracleFailure, match="^phi is nan at gamma = 0.6"):
            boosted_step(problem, x_t, y, *boost)

    def test_non_finite_phi_at_the_point_fails_loudly_on_the_oracle_grid(self):
        # undeclared, the grid probes the oracles; a NaN at the subsolver's
        # point would make it keep x_t and repeat the subproblem to the cap
        problem = gen_hard_dc(10, 0).problem()
        assert not problem.quadratic
        g_value = Counter(problem.g_value)
        # finite at x0 only; dca_solve's next call is at the subsolver's point
        problem.g_value = lambda x: g_value(x) if g_value.calls == 0 else np.nan
        message = "^g_value returned nan in outer step 0$"
        with pytest.raises(OracleFailure, match=message):
            dca_solve(
                problem, initial_point(problem.lmo), DcaConfig("DCA-BPCG-WS-ES-BT")
            )


def _quadratic_pair(A, B):
    """phi = 1/2 x'Ax - 1/2 x'Bx on the simplex, declared quadratic and not."""
    n = len(A)
    return [
        DcProblem(
            f_value=lambda x: 0.5 * float(x @ A @ x),
            f_grad=lambda x: A @ x,
            g_value=lambda x: 0.5 * float(x @ B @ x),
            g_subgrad=lambda x: B @ x,
            lmo=ProbabilitySimplex(n),
            quadratic=declared,
        )
        for declared in (True, False)
    ]


class TestClosedFormBoost:
    """On a problem declared quadratic the boost returns y without a search
    when phi's closed form along the segment is least there, and otherwise
    runs the oracle grid, as on an undeclared problem."""

    @staticmethod
    def _assert_same_step(declared, plain, x_t, cand):
        boost = _boost_args(plain, x_t, cand)
        point, gamma = boosted_step(declared, x_t, cand, *boost)
        want_point, want_gamma = boosted_step(plain, x_t, cand, *boost)
        assert gamma == want_gamma
        assert point.tobytes() == want_point.tobytes()
        return gamma

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**31 - 1))
    def test_same_gamma_and_point_as_the_oracle_grid(self, n, seed):
        declared = gen_quadratic_dc(n, seed).problem()
        plain = gen_quadratic_dc(n, seed).problem()
        plain.quadratic = False
        rng = np.random.default_rng(seed)
        for _ in range(5):
            x_t, cand = rand_simplex(rng, n), rand_simplex(rng, n)
            self._assert_same_step(declared, plain, x_t, cand)

    def test_interior_minimum(self):
        # phi = (x0 - x1)^2 / 2 - 0 from e1 to e2 is least at gamma = 1/2,
        # which the grid does not hold, so it picks a nearby interior point
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        declared, plain = _quadratic_pair(A, np.zeros((2, 2)))
        declared.f_value = Counter(declared.f_value)
        declared.g_value = Counter(declared.g_value)
        gamma = self._assert_same_step(
            declared, plain, np.array([1.0, 0.0]), np.array([0.0, 1.0])
        )
        assert 0.45 < gamma < 0.55
        # the closed form is not least at y, so the grid probes the oracles
        assert declared.f_value.calls == declared.g_value.calls == 19

    def test_flat_segment_ties_go_to_the_candidate(self):
        A = random_pd_matrix(np.random.default_rng(2), 4)
        declared, plain = _quadratic_pair(A, A)  # phi is 0 everywhere
        rng = np.random.default_rng(3)
        x_t, cand = rand_simplex(rng, 4), rand_simplex(rng, 4)
        assert self._assert_same_step(declared, plain, x_t, cand) == 1.0

    @staticmethod
    def _quartic():
        """f = x0^4 on the 2-simplex, g = 0: not quadratic.  Along e1 -> e2,
        phi = (1 - gamma)^4 with slope -4, so the closed form through phi's
        two ends and that slope is least inside the segment."""
        return DcProblem(
            f_value=lambda x: float(x[0]) ** 4,
            f_grad=lambda x: np.array([4.0 * float(x[0]) ** 3, 0.0]),
            g_value=lambda x: 0.0,
            g_subgrad=lambda x: np.zeros(2),
            lmo=ProbabilitySimplex(2),
        )

    def test_false_declaration_runs_the_oracle_grid(self):
        # the closed form is not least at y, so declared or not the oracle
        # grid finds phi decreasing and takes gamma = 1
        declared = self._quartic()
        declared.quadratic = True
        config = DcaConfig("DCA-BPCG-WS-ES-BT")
        records = [
            dca_solve(problem, np.array([1.0, 0.0]), config)[1]
            for problem in (declared, self._quartic())
        ]
        for record in records:
            record.steps = [step._replace(elapsed_s=None) for step in record.steps]
        assert records[0] == records[1]
        assert records[0].termination == "converged"
        assert records[0].steps[-1].objective == 0.0

    def test_non_finite_phi_at_the_point_fails_loudly(self):
        problem = gen_quadratic_dc(10, 0).problem()
        g_value = Counter(problem.g_value)
        # finite at x0 only; dca_solve's next call is at the subsolver's point
        problem.g_value = lambda x: g_value(x) if g_value.calls == 0 else np.nan
        message = "^g_value returned nan in outer step 0$"
        with pytest.raises(OracleFailure, match=message):
            dca_solve(
                problem, initial_point(problem.lmo), DcaConfig("DCA-BPCG-WS-ES-BT")
            )

    def test_declared_quadratic_run_makes_no_grid_search(self, monkeypatch):
        # every boost of this run has phi's closed form least at y
        problem = gen_quadratic_dc(30, 0).problem()
        inside = []  # True while the grid search runs
        grid_calls, oracle_calls_inside = Counter(dcfw.dca.grid_two_level), []
        steps = Counter(dcfw.dca.boosted_step)

        def grid(*args, **kwargs):
            inside.append(True)
            try:
                return grid_calls(*args, **kwargs)
            finally:
                inside.pop()

        for name in ("f_value", "f_grad", "g_value", "g_subgrad"):
            fn = getattr(problem, name)

            def counted(x, fn=fn, name=name):
                if inside:
                    oracle_calls_inside.append(name)
                return fn(x)

            setattr(problem, name, counted)
        monkeypatch.setattr(dcfw.dca, "grid_two_level", grid)
        monkeypatch.setattr(dcfw.dca, "boosted_step", steps)
        _, record = dca_solve(
            problem, initial_point(problem.lmo), DcaConfig("DCA-BPCG-WS-ES-BT")
        )
        assert record.termination == "converged"
        assert steps.calls == record.outer_iters > 1
        assert grid_calls.calls == 0 and oracle_calls_inside == []


class TestDcaSolve:
    def test_convex_case_reaches_global_minimum(self):
        rng = np.random.default_rng(7)
        n = 5
        Q = random_pd_matrix(rng, n)
        q = rng.standard_normal(n)
        problem = quadratic_problem(Q, q, n)
        x, record = dca_solve(problem, np.full(n, 0.2), DcaConfig())
        assert record.termination == "converged"
        assert record.steps[-1].dc_gap_ub <= 1e-6
        x_star = simplex_qp_minimize(Q, q)
        phi_star = 0.5 * float(x_star @ Q @ x_star) + float(q @ x_star)
        assert record.steps[-1].objective == pytest.approx(phi_star, abs=1e-5)

    def test_seeded_instance_converges_within_cap(self):
        inst = gen_quadratic_dc(20, 0)
        cfg = DcaConfig("DCA-BPCG-WS-ES")
        x, record = dca_solve(inst.problem(), np.full(20, 0.05), cfg)
        assert record.termination == "converged"
        assert record.outer_iters <= 200
        assert record.steps[-1].dc_gap_ub <= 1e-6

    @pytest.mark.parametrize(
        "cfg",
        [
            DcaConfig("DCA-BPCG-ES"),
            DcaConfig("DCA-BPCG-WS-ES"),
            DcaConfig("DCA-BPCG-WS-ES-BT"),
            DcaConfig("DCA-FW-ES", max_inner_iters=500),
        ],
    )
    def test_adaptive_descent_and_rate_certificate(self, cfg):
        inst = gen_quadratic_dc(10, 1)
        x, record = dca_solve(inst.problem(), np.full(10, 0.1), cfg)
        values = [record.phi0] + [step.objective for step in record.steps]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev + 1e-9
        # per-step half-bound: each accepted step secures at least lb/2
        for t, step in enumerate(record.steps):
            assert values[t] - values[t + 1] >= 0.5 * step.dc_gap_lb - 1e-9
        progress = record.phi0 - record.steps[-1].objective
        rate = 2.0 * progress / record.outer_iters
        assert min(step.dc_gap_lb for step in record.steps) <= rate + 1e-9

    def test_fixed_epsilon_progress_slack(self):
        inst = gen_quadratic_dc(10, 2)
        eps = 5e-7
        cfg = DcaConfig("DCA-BPCG", dca_gap_tol=2 * eps)
        x, record = dca_solve(inst.problem(), np.full(10, 0.1), cfg)
        values = [record.phi0] + [step.objective for step in record.steps]
        for t, step in enumerate(record.steps):
            progress = values[t] - values[t + 1]
            assert progress >= step.dc_gap_lb - eps - 1e-9

    def test_trace_is_coherent(self):
        inst = gen_quadratic_dc(10, 3)
        x, record = dca_solve(inst.problem(), np.full(10, 0.1), DcaConfig())
        assert record.outer_iters == len(record.steps) >= 1
        assert all(type(step) is OuterStep for step in record.steps)
        lmo_calls = [step.lmo_calls_cum for step in record.steps]
        elapsed = [step.elapsed_s for step in record.steps]
        assert lmo_calls == sorted(lmo_calls)
        assert elapsed == sorted(elapsed)
        assert record.phi0 == inst.problem().phi(np.full(10, 0.1))

    @pytest.mark.parametrize("variant", ["DCA-BPCG-ES", "DCA-FW-ES"])
    def test_upper_bound_is_lower_bound_plus_the_final_fw_gap(self, variant):
        config = DcaConfig(variant, max_inner_iters=2000)
        with subsolver_stats(variant) as stats:
            _, record = dca_solve(
                gen_quadratic_dc(10, 3).problem(), np.full(10, 0.1), config
            )
        assert len(stats) == record.outer_iters >= 1
        for step, gap in zip(record.steps, (s.final_fw_gap for s in stats)):
            assert gap >= 0
            assert step.dc_gap_ub == step.dc_gap_lb + gap  # bit for bit

    def test_deterministic_given_seed(self):
        inst = gen_quadratic_dc(10, 4)
        cfg = DcaConfig("DCA-BPCG-WS-ES")
        x1, r1 = dca_solve(inst.problem(), np.full(10, 0.1), cfg)
        x2, r2 = dca_solve(inst.problem(), np.full(10, 0.1), cfg)
        assert np.array_equal(x1, x2)
        for step1, step2 in zip(r1.steps, r2.steps, strict=True):
            assert step1._replace(elapsed_s=None) == step2._replace(elapsed_s=None)

    def test_x0_validation(self):
        inst = gen_quadratic_dc(5, 0)
        problem = inst.problem()
        with pytest.raises(ValueError):
            dca_solve(problem, np.full(4, 0.25), DcaConfig())
        with pytest.raises(ValueError):
            dca_solve(problem, np.array([np.nan, 0, 0, 0, 1.0]), DcaConfig())
        with pytest.raises(ValueError):
            dca_solve(problem, np.full(5, 0.4), DcaConfig())  # off the simplex

    def test_time_limit(self):
        inst = gen_quadratic_dc(30, 0)
        cfg = DcaConfig("DCA-FW-ES", dca_gap_tol=1e-14, time_limit_seconds=1e-6)
        x, record = dca_solve(inst.problem(), np.full(30, 1.0 / 30.0), cfg)
        assert record.termination == "time_limit"

    def test_time_limit_stops_inside_an_inner_solve(self):
        # one capped inner solve at n = 100 takes about 0.4 s, so a limit
        # checked only between outer steps overruns 0.2 s by that much
        limit = 0.2
        cfg = DcaConfig("DCA-FW", dca_gap_tol=1e-14, time_limit_seconds=limit)
        problem = gen_quadratic_dc(100, 0).problem()
        started = time.perf_counter()
        _, record = dca_solve(problem, np.full(100, 0.01), cfg)
        elapsed = time.perf_counter() - started
        assert record.termination == "time_limit"
        assert record.steps[-1].inner_iters < cfg.max_inner_iters
        assert elapsed < limit + 0.1

    def test_iteration_cap_label(self):
        inst = gen_quadratic_dc(10, 0)
        cfg = DcaConfig(
            "DCA-FW", dca_gap_tol=1e-15, max_outer_iters=2, max_inner_iters=50
        )
        x, record = dca_solve(inst.problem(), np.full(10, 0.1), cfg)
        assert record.termination == "iteration_cap"
        assert record.outer_iters == 2

    def test_stall_keeps_iterate_and_stops(self):
        # phi has its global minimum exactly at x0; a cold one-step bpcg
        # subsolve necessarily ends above the anchor, so the run must stall
        n = 6
        x0 = np.full(n, 1.0 / n)
        Q = np.eye(n)
        problem = quadratic_problem(Q, -x0, n)
        cfg = DcaConfig("DCA-BPCG", dca_gap_tol=2e-12, max_inner_iters=1)
        x, record = dca_solve(problem, x0, cfg)
        assert record.termination == "stalled"
        assert np.array_equal(x, x0)
        assert [step.objective for step in record.steps] == [record.phi0]
        assert record.steps[-1].dc_gap_lb < 0

    @pytest.mark.parametrize("variant", ["DCA-FW", "DCA-FW-ES"])
    def test_zero_step_at_the_anchor_stalls(self, variant):
        # f = x[1] on the 2-simplex, with an f_grad of (0, -1) at e0's bits
        # and (0, 1) elsewhere: the FW direction from e0 has slope -1, but
        # no probe past gamma = 0 lowers f, so the secant search returns
        # gamma = 0 and the inner solve its anchor, and every later outer
        # step would solve the same subproblem from the same start
        e0 = np.array([1.0, 0.0])

        def f_grad(x):
            return np.array([0.0, -1.0 if x.tobytes() == e0.tobytes() else 1.0])

        problem = DcProblem(
            f_value=lambda x: float(x[1]),
            f_grad=f_grad,
            g_value=lambda x: 0.0,
            g_subgrad=lambda x: np.zeros(2),
            lmo=ProbabilitySimplex(2),
        )
        x, record = dca_solve(problem, e0, DcaConfig(variant))
        assert record.termination == "stalled" and record.outer_iters == 1
        step = record.steps[0]
        assert (step.inner_iters, step.dc_gap_lb, step.dc_gap_ub) == (0, 0.0, 1.0)
        assert x.tobytes() == e0.tobytes() and step.objective == record.phi0

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_every_inner_solve_stops_at_half_the_outer_tolerance(
        self, variant, monkeypatch
    ):
        name = "bpcg" if VARIANTS[variant]["subsolver"] == "bpcg" else "vanilla_fw"
        solver, tolerances = getattr(dcfw.dca, name), []

        def spy(*args, fw_gap_tol, **kwargs):
            tolerances.append(fw_gap_tol)
            return solver(*args, fw_gap_tol=fw_gap_tol, **kwargs)

        monkeypatch.setattr(dcfw.dca, name, spy)
        config = DcaConfig(
            variant, dca_gap_tol=3e-5, max_outer_iters=5, max_inner_iters=200
        )
        problem = gen_quadratic_dc(10, 0).problem()
        _, record = dca_solve(problem, np.full(10, 0.1), config)
        assert len(tolerances) == record.outer_iters >= 2
        assert all(tol == config.dca_gap_tol / 2.0 for tol in tolerances)

    def test_boosting_changes_little_on_dc_quadratics(self):
        # boosted and unboosted runs should take comparable outer work
        outer = {"DCA-BPCG-WS-ES": [], "DCA-BPCG-WS-ES-BT": []}
        for variant, runs in outer.items():
            for n in (10, 20):
                for seed in (0, 1, 2):
                    inst = gen_quadratic_dc(n, seed)
                    x, record = dca_solve(
                        inst.problem(), np.full(n, 1.0 / n), DcaConfig(variant)
                    )
                    assert record.termination == "converged"
                    runs.append(record.outer_iters)
        gm = lambda v: float(np.exp(np.mean(np.log(v))))
        ratio = gm(outer["DCA-BPCG-WS-ES-BT"]) / gm(outer["DCA-BPCG-WS-ES"])
        assert 1.0 / 1.2 <= ratio <= 1.2

    @pytest.mark.parametrize("gamma", [0.5, 0.0])
    def test_boost_short_of_the_point_starts_the_next_subproblem_cold(
        self, monkeypatch, gamma
    ):
        # no shipped problem boosts short of y, so outer step 1's boost is
        # forced to stop at gamma; bpcg has then moved the warm start's set
        # to y, and the next subproblem must start from one LMO vertex
        boosts, start_sizes = Counter(dcfw.dca.boosted_step), []

        def forced(problem, x_t, y, *boost):
            point, got = boosts(problem, x_t, y, *boost)
            if boosts.calls == 2:
                return x_t + gamma * (y - x_t), gamma
            return point, got

        def spy(objective, lmo, active_set, *args, **kwargs):
            start_sizes.append(len(active_set))
            return bpcg(objective, lmo, active_set, *args, **kwargs)

        monkeypatch.setattr(dcfw.dca, "boosted_step", forced)
        monkeypatch.setattr(dcfw.dca, "bpcg", spy)
        problem = gen_quadratic_dc(10, 0).problem()
        _, record = dca_solve(
            problem, initial_point(problem.lmo), DcaConfig("DCA-BPCG-WS-ES-BT")
        )
        assert boosts.calls >= 2 and start_sizes[2] == 1
        assert record.termination == "converged"
        values = [record.phi0, *(step.objective for step in record.steps)]
        assert all(np.diff(values) <= 0.0)

    def test_warm_and_cold_both_converge(self):
        inst = gen_quadratic_dc(10, 5)
        for variant in ("DCA-BPCG-ES", "DCA-BPCG-WS-ES"):
            x, record = dca_solve(inst.problem(), np.full(10, 0.1), DcaConfig(variant))
            assert record.termination == "converged"
            assert inst.problem().lmo.contains(x)


def _synthetic_qap_problem(n, seed):
    flows, distances = synthetic_qap(np.random.default_rng(seed), n)
    return qap_dc_oracles(QapInstance(f"syn{n}", n, flows, distances))


# family -> its problem at (n, seed)
_FAMILIES = {
    "quadratic": lambda n, seed: gen_quadratic_dc(n, seed).problem(),
    "hard": lambda n, seed: gen_hard_dc(n, seed).problem(),
    "qap": _synthetic_qap_problem,
}
_FAMILY_N = st.one_of(
    st.tuples(st.just("quadratic"), st.integers(2, 12)),
    st.tuples(st.just("hard"), st.integers(HARD_K, 12)),
    st.tuples(st.just("qap"), st.integers(3, 6)),
)
_ADAPTIVE = [name for name, f in VARIANTS.items() if f["stop_mode"] == "adaptive"]
_FIXED = [name for name, f in VARIANTS.items() if f["stop_mode"] == "fixed"]


class TestCertificateProperties:
    """The paper's guarantees on random instances of the three families,
    under every variant."""

    @settings(max_examples=25, deadline=None)
    @given(
        family_n=_FAMILY_N,
        seed=st.integers(0, 2**31 - 1),
        variant=st.sampled_from(_ADAPTIVE),
    )
    def test_adaptive_runs_keep_their_certificates(self, family_n, seed, variant):
        family, n = family_n
        problem = _FAMILIES[family](n, seed)
        config = DcaConfig(variant, max_outer_iters=30, max_inner_iters=2000)
        with subsolver_stats(variant) as stats:
            _, record = dca_solve(problem, initial_point(problem.lmo), config)
        assert len(stats) == record.outer_iters
        values = [record.phi0] + [step.objective for step in record.steps]
        for t, (inner, step) in enumerate(zip(stats, record.steps)):
            lb, ub = step.dc_gap_lb, step.dc_gap_ub
            assert lb <= ub + 1e-9
            if inner.termination == "stop_rule":
                # the threshold is lb itself, bit for bit, so fw_gap <= lb
                # and ub, the rounded lb + fw_gap, is at most 2 lb exactly
                assert ub <= 2.0 * lb
            # phi(y) <= h_t(y) = phi_t - lb_t, a boost does no worse than y,
            # and a stalled step (lb < 0) keeps x_t
            assert values[t] - values[t + 1] >= lb - 1e-9
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev + 1e-9
        # criterion 1: the least lb falls at the rate 2 (phi_0 - phi_T) / T
        steps = record.outer_iters
        bound = 2.0 * (record.phi0 - record.steps[-1].objective) / steps + 1e-9
        assert min(step.dc_gap_lb for step in record.steps) <= bound

    @settings(max_examples=25, deadline=None)
    @given(
        family_n=_FAMILY_N,
        seed=st.integers(0, 2**31 - 1),
        variant=st.sampled_from(_ADAPTIVE),
    )
    def test_lazy_stop_rule_stops_where_the_eager_rule_would(
        self, family_n, seed, variant
    ):
        # the subsolver evaluates the threshold descent_from - h(x) only where
        # a convexity bound says it can fire; the spy evaluates it at every
        # iterate, right after the step that made it, as the solver would
        family, n = family_n
        problem = _FAMILIES[family](n, seed)
        config = DcaConfig(variant, max_outer_iters=10, max_inner_iters=500)
        name = "bpcg" if VARIANTS[variant]["subsolver"] == "bpcg" else "vanilla_fw"
        solver, ends = getattr(dcfw.dca, name), []

        def spy(sub, lmo, start, *args, descent_from, **kwargs):
            x0 = start.iterate if name == "bpcg" else start
            thresholds, gaps = [descent_from - sub.value(x0)], []

            def record(info):
                thresholds.append(descent_from - sub.value(info["x"]))
                gaps.append(info["gap"])

            out = solver(
                sub, lmo, start, *args, descent_from=descent_from,
                callback=record, **kwargs,
            )
            stats = out[-1]
            assert all(g > tau for g, tau in zip(gaps, thresholds))
            assert len(thresholds) == stats.iterations + 1
            if stats.termination == "stop_rule":
                assert stats.final_fw_gap <= thresholds[-1]
            elif stats.termination != "gap_tol":  # tested before the rule
                assert stats.final_fw_gap > thresholds[-1]
            ends.append(stats.termination)
            return out

        with mock.patch.object(dcfw.dca, name, spy):
            _, record = dca_solve(problem, initial_point(problem.lmo), config)
        assert len(ends) == record.outer_iters

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(HARD_K, 20), seed=st.integers(0, 2**31 - 1))
    def test_false_quadratic_declarations_fail_loudly_or_keep_the_bounds(
        self, n, seed
    ):
        # the hard family's f and g are not quadratic; declared so, a run may
        # raise OracleFailure or skip a boost's search, but each step it
        # records still keeps the certificates of the adaptive property
        for variant, features in VARIANTS.items():
            problem = gen_hard_dc(n, seed).problem()
            problem.quadratic = True
            config = DcaConfig(variant, max_outer_iters=10, max_inner_iters=200)
            with subsolver_stats(variant) as stats:
                try:
                    _, record = dca_solve(problem, initial_point(problem.lmo), config)
                except OracleFailure:
                    continue
            values = [record.phi0] + [step.objective for step in record.steps]
            for t, (inner, step) in enumerate(zip(stats, record.steps, strict=True)):
                lb, ub = step.dc_gap_lb, step.dc_gap_ub
                assert lb <= ub + 1e-9
                assert values[t] - values[t + 1] >= lb - 1e-9
                if features["stop_mode"] == "adaptive" and inner.termination == "stop_rule":
                    assert ub <= 2.0 * lb

    @settings(max_examples=25, deadline=None)
    @given(
        family_n=_FAMILY_N,
        seed=st.integers(0, 2**31 - 1),
        variant=st.sampled_from(_FIXED),
        eps=st.sampled_from([1e-2, 1e-4, 5e-7]),
    )
    def test_fixed_epsilon_runs_keep_their_progress_slack(
        self, family_n, seed, variant, eps
    ):
        family, n = family_n
        problem = _FAMILIES[family](n, seed)
        config = DcaConfig(
            variant, dca_gap_tol=2 * eps, max_outer_iters=15, max_inner_iters=300
        )
        _, record = dca_solve(problem, initial_point(problem.lmo), config)
        values = [record.phi0] + [step.objective for step in record.steps]
        for t, step in enumerate(record.steps):
            assert step.dc_gap_lb <= step.dc_gap_ub + 1e-9
            # the step realizes lb as progress, as in the adaptive property
            assert values[t] - values[t + 1] >= step.dc_gap_lb - 1e-9
            # criterion 3: the step realizes lb as progress, up to epsilon
            assert values[t] - values[t + 1] >= step.dc_gap_lb - eps - 1e-9
