"""Frank-Wolfe machinery: gap, line searches, active sets, both solvers."""

import itertools
import logging
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcfw import (
    ActiveSet,
    Agnostic,
    ProbabilitySimplex,
    Secant,
    bpcg,
    gen_quadratic_dc,
    vanilla_fw,
)
from dcfw.dca import Oracles, linearize
from dcfw.fw import fw_gap, grid_two_level, secant_line_search

from helpers import (
    Counter,
    make_objective,
    quad_value_grad,
    random_pd_matrix,
    simplex_qp_value,
)


def test_fw_gap_worked_example():
    grad = np.array([1.0, 2.0, 3.0])
    x = np.full(3, 1.0 / 3.0)
    v = ProbabilitySimplex(3)(grad)
    assert np.array_equal(v, [1.0, 0.0, 0.0])
    assert fw_gap(grad, x, v) == pytest.approx(1.0, abs=1e-15)


def _last_argmin(values):
    v = np.where(np.isfinite(values), values, np.inf)
    return len(v) - 1 - int(np.argmin(v[::-1]))


def _grid_reference(value_fn, x, d, gamma_max, points=11):
    """The two-level search with every probe evaluated, the fine grid's two
    ends included: 2 * points evaluations."""
    if gamma_max <= 0:
        return 0.0
    coarse = np.linspace(0.0, gamma_max, points)
    vals = np.array([float(value_fn(x + g * d)) for g in coarse])
    if not np.any(np.isfinite(vals)):
        return 0.0
    i = _last_argmin(vals)
    lo, hi = coarse[max(i - 1, 0)], coarse[min(i + 1, points - 1)]
    fine = np.linspace(lo, hi, points)
    fine_vals = np.array([float(value_fn(x + g * d)) for g in fine])
    candidates = np.concatenate([coarse, fine])
    return float(candidates[_last_argmin(np.concatenate([vals, fine_vals]))])


class TestGridTwoLevel:
    def test_flat_objective_returns_gamma_max(self):
        got = grid_two_level(lambda z: 0.0, np.zeros(1), np.ones(1), 0.7)
        assert got == 0.7

    def test_decreasing_objective_returns_gamma_max(self):
        got = grid_two_level(lambda z: -float(z[0]), np.zeros(1), np.ones(1), 1.0)
        assert got == 1.0

    def test_nonpositive_interval(self):
        assert grid_two_level(lambda z: 0.0, np.zeros(1), np.ones(1), 0.0) == 0.0

    def test_all_probes_non_finite_returns_zero(self):
        # no finite probe means no evidence of descent: do not step
        for bad in (np.nan, np.inf):
            got = grid_two_level(lambda z: bad, np.zeros(1), np.ones(1), 0.7)
            assert got == 0.0

    def test_non_finite_tail_is_avoided(self):
        # finite and decreasing up to gamma = 0.5, NaN beyond it
        value = lambda z: -float(z[0]) if z[0] <= 0.5 else np.nan
        got = grid_two_level(value, np.zeros(1), np.ones(1), 1.0)
        assert 0.45 <= got <= 0.5

    def test_parabola_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            target = rng.uniform(0.05, 0.95)
            gamma_max = rng.uniform(0.5, 2.0)
            value = lambda z: (float(z[0]) - target) ** 2
            got = grid_two_level(value, np.zeros(1), np.ones(1), gamma_max)
            best = min(target, gamma_max)
            assert abs(got - best) <= 0.0101 * gamma_max

    @pytest.mark.parametrize("target", [-1.0, 0.37, 2.0])
    def test_fine_grid_ends_are_not_evaluated_again(self, target):
        # minimum at the first, an interior and the last coarse point
        value = Counter(lambda z: (float(z[0]) - target) ** 2)
        grid_two_level(value, np.zeros(1), np.ones(1), 1.0)
        assert value.calls == 20

    def test_matches_full_evaluation_reference(self):
        # rounded profiles tie often; some turn NaN past a cutoff
        rng = np.random.default_rng(5)
        for _ in range(300):
            c = rng.standard_normal(5)
            decimals = int(rng.integers(0, 4))
            cutoff = rng.uniform(-1.0, 3.0) if rng.random() < 0.3 else np.inf
            x, d = rng.standard_normal(3), rng.standard_normal(3)
            w = rng.standard_normal(3)

            def value(z):
                t = float(w @ z)
                if t > cutoff:
                    return np.nan
                poly = c[0] + c[1] * t + c[2] * t * t
                return round(poly + c[3] * np.sin(c[4] * t), decimals)

            gamma_max = rng.uniform(0.01, 2.0)
            got = grid_two_level(value, x, d, gamma_max)
            assert got == _grid_reference(value, x, d, gamma_max)

    def test_known_value_at_zero_saves_one_evaluation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            c = rng.standard_normal(3)
            x, d = rng.standard_normal(2), rng.standard_normal(2)
            value = Counter(lambda z: c[0] + c[1] * z[0] + c[2] * z[1] ** 2)
            gamma_max = rng.uniform(0.01, 2.0)
            got = grid_two_level(value, x, d, gamma_max, value(x))
            assert value.calls == 1 + 19
            assert got == _grid_reference(value, x, d, gamma_max)


class TestSecantLineSearch:
    def test_quadratic_closed_form_and_two_evaluations(self):
        rng = np.random.default_rng(1)
        interior = 0
        for _ in range(200):
            n = 6
            Q = random_pd_matrix(rng, n)
            q = rng.standard_normal(n)
            value, grad = quad_value_grad(Q, q)
            x = rng.dirichlet(np.ones(n))
            v = np.zeros(n)
            v[rng.integers(n)] = 1.0
            d = v - x
            denom = float(d @ Q @ d)
            dphi0 = float(grad(x) @ d)
            exact = min(max(-dphi0 / denom, 0.0), 1.0)
            counted = Counter(grad)
            got, _ = secant_line_search(value, counted, x, d, 1.0, dphi0=dphi0)
            assert got == pytest.approx(exact, abs=1e-10)
            if dphi0 >= 0:
                assert counted.calls == 0
            elif exact == 1.0:
                assert counted.calls == 1
            else:
                interior += 1
                assert counted.calls == 2
        assert interior > 50  # the sweep actually exercises the secant path

    def test_minimizer_beyond_cap_clamps(self):
        # phi(gamma) = (gamma - 2)^2 has its minimum past gamma_max = 1
        value = lambda z: (float(z[0]) - 2.0) ** 2
        grad = lambda z: np.array([2.0 * (float(z[0]) - 2.0)])
        got, _ = secant_line_search(value, grad, np.zeros(1), np.ones(1), 1.0)
        assert got == 1.0

    def test_ascent_direction_returns_zero(self):
        value, grad = quad_value_grad(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        d = np.array([1.0, 0.0])  # uphill
        assert secant_line_search(value, grad, x, d, 1.0)[0] == 0.0

    def test_non_finite_derivative_falls_back_to_grid(self):
        target = 0.4
        value = lambda z: (float(z[0]) - target) ** 2
        grad = lambda z: np.array([np.nan])
        got, _ = secant_line_search(
            value, grad, np.zeros(1), np.ones(1), 1.0, dphi0=-1.0
        )
        assert np.isfinite(got)
        assert abs(got - target) <= 0.0101
        assert value(np.array([got])) <= value(np.zeros(1))

    @pytest.mark.parametrize("where", ["dphi0", "interior"])
    def test_each_non_finite_derivative_falls_back_to_grid(self, where, caplog):
        # phi(gamma) = (gamma - 0.4)^2 along d = 1 from x = 0, with a NaN
        # gradient only at gamma = 0 or only strictly inside (0, 1); the
        # test above puts it at gamma_max
        def grad(z):
            g = float(z[0])
            bad = g == 0.0 if where == "dphi0" else 0.0 < g < 1.0
            return np.array([np.nan if bad else 2.0 * (g - 0.4)])

        value = lambda z: (float(z[0]) - 0.4) ** 2
        x, d = np.zeros(1), np.ones(1)
        with caplog.at_level(logging.WARNING, logger="dcfw.fw"):
            got, _ = secant_line_search(value, grad, x, d, 1.0)
        assert "falling back to grid search" in caplog.text
        assert got == grid_two_level(value, x, d, 1.0)

    def test_safeguard_rejects_fake_descent(self):
        # derivative oracle oscillates so the secant never settles; the value
        # oracle only increases, so the safeguard must refuse to move
        value = lambda z: float(z[0])
        flip = Counter(lambda z: np.array([1.0 if flip.calls % 2 else -1.0]))
        got, _ = secant_line_search(
            value, flip, np.zeros(1), np.ones(1), 1.0, dphi0=-1.0
        )
        assert got == 0.0

    def test_nonpositive_interval(self):
        value, grad = quad_value_grad(np.eye(1), np.zeros(1))
        assert secant_line_search(value, grad, np.ones(1), np.ones(1), 0.0)[0] == 0.0


class TestStepRules:
    def test_agnostic_schedule(self):
        rule = Agnostic()
        obj = make_objective(lambda x: 0.0, lambda x: x)
        x, d = np.zeros(1), np.ones(1)
        assert rule.step(obj, x, d, 1.0, 0)[0] == 1.0
        assert rule.step(obj, x, d, 1.0, 2)[0] == 0.5
        assert rule.step(obj, x, d, 0.3, 0)[0] == 0.3

    def test_secant_rule_delegates(self):
        value, grad = quad_value_grad(np.diag([2.0, 1.0]), np.array([-1.0, 0.0]))
        obj = make_objective(value, grad)
        x, d = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        for dphi0 in (None, float(grad(x) @ d)):
            got, point = Secant().step(obj, x, d, 1.0, 0, dphi0=dphi0)
            want, want_point = secant_line_search(value, grad, x, d, 1.0, dphi0=dphi0)
            assert got == want
            assert np.array_equal(point, want_point)
        assert 0.0 < got < 1.0


class TestPointContract:
    """A line search returns (gamma, x + gamma * d), the point bit for bit."""

    @staticmethod
    def _assert_point(x, d, gamma, point):
        assert point.tobytes() == (x + gamma * d).tobytes()

    def test_agnostic(self):
        rng = np.random.default_rng(11)
        obj = make_objective(lambda x: 0.0, lambda x: x)
        for k in range(20):
            x, d = rng.standard_normal(7), rng.standard_normal(7)
            gamma, point = Agnostic().step(obj, x, d, 0.4, k)
            self._assert_point(x, d, gamma, point)

    def test_secant_interior_exit(self):
        value, grad = quad_value_grad(np.diag([2.0, 1.0]), np.array([-1.0, 0.0]))
        x, d = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        gamma, point = secant_line_search(value, grad, x, d, 1.0)
        assert 0.0 < gamma < 1.0
        self._assert_point(x, d, gamma, point)

    def test_secant_cap_exit(self):
        value = lambda z: (float(z[0]) - 2.0) ** 2
        grad = lambda z: np.array([2.0 * (float(z[0]) - 2.0)])
        x, d = np.full(1, 0.1), np.full(1, 0.7)
        gamma, point = secant_line_search(value, grad, x, d, 1.0)
        assert gamma == 1.0
        self._assert_point(x, d, gamma, point)

    def test_secant_backtracking_exit(self):
        # phi' is positive past gamma = 0, so the secant shrinks its bracket
        # until the budget is spent; phi itself falls, so the first value
        # check passes
        value = Counter(lambda z: -float(z[0]))
        grad = Counter(lambda z: np.array([1.0]))
        x, d = np.full(1, 0.3), np.full(1, 0.5)
        gamma, point = secant_line_search(value, grad, x, d, 1.0, dphi0=-1.0)
        assert grad.calls == 40 and value.calls == 2
        assert 0.0 < gamma < 1e-6
        self._assert_point(x, d, gamma, point)

    def test_secant_grid_fallback_exit(self):
        value = lambda z: (float(z[0]) - 0.4) ** 2
        grad = lambda z: np.array([np.nan])
        x, d = np.full(1, 0.05), np.full(1, 0.9)
        gamma, point = secant_line_search(value, grad, x, d, 1.0, dphi0=-1.0)
        assert 0.0 < gamma < 1.0
        self._assert_point(x, d, gamma, point)

    def test_quadratic_step(self):
        problem = gen_quadratic_dc(8, 0).problem()
        exits = set()
        x = np.full(8, 1.0 / 8.0)
        for i, gamma_max in itertools.product(range(8), (1.0, 0.05)):
            sub = linearize(Oracles(problem), x)
            d = np.eye(8)[i] - x
            dphi0 = float(sub.grad(x) @ d)
            gamma, point = sub.quadratic_step(x, d, gamma_max, dphi0)
            if gamma == 0.0:
                assert dphi0 >= 0 and point is x
                continue
            exits.add(gamma == gamma_max)
            self._assert_point(x, d, gamma, point)
        assert exits == {False, True}  # both the interior and the cap exit

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_active_set_keeps_the_passed_point(self, data):
        n = data.draw(st.integers(2, 12))
        e = np.eye(n)
        s = ActiveSet([e[0]], [1.0])
        for k in range(data.draw(st.integers(1, 40))):
            if len(s) >= 2 and data.draw(st.booleans()):
                frm = data.draw(st.integers(0, len(s) - 1))
                to = data.draw(st.integers(0, len(s) - 2))
                to += to >= frm
                d = s.vertices[to] - s.vertices[frm]
                gamma, x = Agnostic().step(None, s.iterate, d, s.weights[frm], k)
                s.pairwise_update(to, frm, gamma, x)
            else:
                v = e[data.draw(st.integers(0, n - 1))]
                s.fw_update(v, data.draw(st.floats(0.01, 1.0)))
            assert np.abs(s.iterate - s.recombine()).max() <= 1e-12


def _pairwise(s, to, frm, gamma):
    # pairwise_update with the new iterate a line search would pass it
    atoms = s.vertices
    return s.pairwise_update(to, frm, gamma, s.iterate + gamma * (atoms[to] - atoms[frm]))


class TestActiveSet:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ActiveSet([np.ones(2)], [1.0, 2.0])
        with pytest.raises(ValueError):
            ActiveSet([], [])
        with pytest.raises(ValueError):
            ActiveSet([np.ones(2)], [0.0])

    def test_duplicate_atoms_merge(self):
        e0 = np.array([1.0, 0.0])
        s = ActiveSet([e0, e0.copy()], [0.4, 0.6])
        assert len(s) == 1
        assert s.weights[0] == pytest.approx(1.0)

    def test_signed_zero_atoms_merge(self):
        # atoms are equal by value, not by bit pattern
        s = ActiveSet([np.array([0.0, 1.0]), np.array([-0.0, 1.0])], [0.5, 0.5])
        assert len(s) == 1
        assert s.weights == [1.0]

    def test_vertices_view_is_read_only(self):
        e = np.eye(3)
        s = ActiveSet([e[0], e[2]], [0.5, 0.5])
        assert s.vertices.shape == (2, 3)
        with pytest.raises(ValueError):
            s.vertices[0, 0] = 5.0
        assert np.array_equal(s.vertices, [e[0], e[2]])

    def test_iterate_matches_recombination(self):
        e = np.eye(3)
        s = ActiveSet([e[0], e[1], e[2]], [0.5, 0.25, 0.25])
        assert np.allclose(s.iterate, [0.5, 0.25, 0.25])
        assert np.allclose(s.iterate, s.recombine())

    def test_fw_update(self):
        e = np.eye(2)
        s = ActiveSet([e[0]], [1.0])
        s.fw_update(e[1], 0.25)
        assert np.allclose(s.iterate, [0.75, 0.25])
        assert sorted(s.weights) == pytest.approx([0.25, 0.75])

    def test_fw_update_full_step_collapses(self):
        e = np.eye(2)
        s = ActiveSet([e[0], e[1]], [0.5, 0.5])
        s.fw_update(e[1], 1.0)
        assert len(s) == 1
        assert np.array_equal(s.iterate, e[1])

    def test_fw_update_zero_step_is_noop(self):
        e = np.eye(2)
        s = ActiveSet([e[0]], [1.0])
        s.fw_update(e[1], 0.0)
        assert len(s) == 1 and s.weights == [1.0]

    def test_pairwise_transfer_and_drop(self):
        e = np.eye(2)
        s = ActiveSet([e[0], e[1]], [0.7, 0.3])
        dropped = _pairwise(s, 1, 0, 0.2)
        assert not dropped
        assert s.weights == pytest.approx([0.5, 0.5])
        assert np.allclose(s.iterate, [0.5, 0.5])
        dropped = _pairwise(s, 1, 0, s.weights[0])  # full remaining weight
        assert dropped and len(s) == 1
        assert np.allclose(s.iterate, e[1])

    def test_pairwise_negative_index_counts_from_last_atom(self):
        e = np.eye(4)
        s = ActiveSet([e[0], e[1], e[2]], [0.5, 0.25, 0.25])
        assert _pairwise(s, 0, -1, 0.25)
        assert np.array_equal(s.vertices, [e[0], e[1]])
        assert np.array_equal(s.iterate, [0.75, 0.25, 0.0, 0.0])

    def test_pairwise_validation(self):
        e = np.eye(2)
        s = ActiveSet([e[0], e[1]], [0.7, 0.3])
        x = s.iterate  # each call fails before it would keep x
        with pytest.raises(ValueError):
            s.pairwise_update(1, 1, 0.1, x)
        with pytest.raises(ValueError):
            s.pairwise_update(1, -1, 0.1, x)  # the same atom, counted from the end
        with pytest.raises(IndexError):
            s.pairwise_update(2, 0, 0.1, x)
        with pytest.raises(ValueError):
            s.pairwise_update(1, 0, 0.8, x)  # exceeds the source weight

    def test_extremes(self):
        e = np.eye(3)
        s = ActiveSet([e[0], e[1], e[2]], [0.2, 0.3, 0.5])
        away, local = s.extremes(np.array([3.0, 1.0, 2.0]))
        assert (away, local) == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_extremes_match_per_atom_dot(self, data):
        # small integer coordinates make ties common
        n = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(1, 20))
        ints = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        atoms = [np.array(data.draw(ints), dtype=float) for _ in range(m)]
        s = ActiveSet(atoms, [1.0 / m] * m)
        grad = np.array(data.draw(ints), dtype=float)
        grad += data.draw(st.sampled_from([0.0, 1e-3]))
        scores = [float(np.dot(grad, v)) for v in s.vertices]
        away = scores.index(max(scores))  # first of the tied atoms
        local = scores.index(min(scores))
        assert s.extremes(grad) == (away, local)

    def test_convex_combination(self):
        e = np.eye(2)
        a = ActiveSet([e[0]], [1.0])
        b = ActiveSet([e[1]], [1.0])
        blend = ActiveSet.convex_combination(a, b, 0.25)
        assert np.allclose(blend.iterate, [0.75, 0.25])
        assert sum(blend.weights) == pytest.approx(1.0)
        for lam in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                ActiveSet.convex_combination(a, b, lam)

    def test_convex_combination_merges_shared_atom(self):
        e = np.eye(3)
        a = ActiveSet([e[0], e[1]], [0.5, 0.5])
        b = ActiveSet([e[1], e[2]], [0.25, 0.75])
        blend = ActiveSet.convex_combination(a, b, 0.5)
        assert len(blend) == 3
        assert np.array_equal(blend.vertices, e)
        assert blend.weights == pytest.approx([0.25, 0.375, 0.375])
        assert np.allclose(blend.iterate, [0.25, 0.375, 0.375])

    def test_copy_is_independent(self):
        e = np.eye(2)
        s = ActiveSet([e[0], e[1]], [0.5, 0.5])
        c = s.copy()
        _pairwise(s, 1, 0, 0.5)
        assert len(s) == 1 and len(c) == 2
        assert np.allclose(c.iterate, [0.5, 0.5])

    @pytest.mark.parametrize("mutate", ["fw_update", "drop", "collapse"])
    def test_mutating_copy_leaves_original(self, mutate):
        e = np.eye(4)
        s = ActiveSet([e[0], e[1], e[2]], [0.5, 0.25, 0.25])
        atoms, weights, x = s.vertices.copy(), list(s.weights), s.iterate.copy()
        c = s.copy()
        if mutate == "fw_update":
            c.fw_update(e[3], 0.5)
            c.fw_update(e[0], 0.5)
        elif mutate == "drop":
            assert _pairwise(c, 2, 0, c.weights[0])
        else:
            c.fw_update(e[3], 1.0)
        assert np.array_equal(s.vertices, atoms)
        assert s.weights == weights
        assert np.array_equal(s.iterate, x)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_step_invariants(self, data):
        # enough atoms and steps to grow the atom array past its first size
        n = data.draw(st.integers(1, 12))
        e = np.eye(n)
        s = ActiveSet([e[0]], [1.0])
        for _ in range(data.draw(st.integers(1, 30))):
            if len(s) >= 2 and data.draw(st.booleans()):
                frm = data.draw(st.integers(0, len(s) - 1))
                to = data.draw(st.integers(0, len(s) - 2))
                to += to >= frm
                frac = data.draw(st.floats(0.1, 1.0))
                before = len(s)
                dropped = _pairwise(s, to, frm, frac * s.weights[frm])
                assert dropped == (len(s) == before - 1)
            else:
                v = e[data.draw(st.integers(0, n - 1))]
                s.fw_update(v, data.draw(st.floats(0.01, 1.0)))
            assert all(w > 0 for w in s.weights)
            assert abs(sum(s.weights) - 1.0) <= 1e-12
            assert np.linalg.norm(s.iterate - s.recombine()) <= 1e-10
            assert len({v.tobytes() for v in s.vertices}) == len(s)
            assert s.vertices.shape == (len(s), n)


class _ZeroStep:
    def step(self, objective, x, d, gamma_max, k, dphi0=None):
        return 0.0, x


class TestVanillaFw:
    def test_linear_objective_one_iteration(self):
        c = np.array([2.0, -1.0, 0.5])
        obj = make_objective(lambda x: float(c @ x), lambda x: c)
        lmo = ProbabilitySimplex(3)
        gammas = []
        x, stats = vanilla_fw(
            obj,
            lmo,
            np.full(3, 1.0 / 3.0),
            Secant(),
            fw_gap_tol=1e-12,
            callback=lambda info: gammas.append(info["gamma"]),
        )
        assert np.array_equal(x, [0.0, 1.0, 0.0])
        assert stats.iterations == 1 and gammas == [1.0]
        assert stats.final_fw_gap == 0.0
        assert stats.termination == "gap_tol"

    def test_projection_onto_interior_point(self):
        y = np.array([0.6, 0.3, 0.1])
        obj = make_objective(
            lambda x: 0.5 * float((x - y) @ (x - y)), lambda x: x - y
        )
        x, stats = vanilla_fw(
            obj, ProbabilitySimplex(3), np.array([1.0, 0.0, 0.0]), Secant(),
            fw_gap_tol=1e-8,
        )
        assert stats.final_fw_gap <= 1e-6
        assert np.linalg.norm(x - y) <= 1e-3
        assert stats.termination == "gap_tol"

    def test_agnostic_rate_bound(self):
        rng = np.random.default_rng(7)
        n = 8
        Q = random_pd_matrix(rng, n)
        q = rng.standard_normal(n)
        value, grad = quad_value_grad(Q, q)
        obj = make_objective(value, grad)
        h_star, _ = simplex_qp_value(Q, q)
        L = float(np.linalg.eigvalsh(Q)[-1])
        values = []
        vanilla_fw(
            obj,
            ProbabilitySimplex(n),
            np.full(n, 1.0 / n),
            Agnostic(),
            fw_gap_tol=0.0,
            max_iters=500,
            callback=lambda info: values.append(value(info["x"])),
        )
        for k, hk in enumerate(values, start=1):  # values[i] is h(x_{i+1})
            assert hk - h_star <= 2.0 * L * 2.0 / (k + 2.0) + 1e-9

    def test_stats_invariants(self):
        rng = np.random.default_rng(8)
        Q = random_pd_matrix(rng, 5)
        value, grad = quad_value_grad(Q, rng.standard_normal(5))
        obj = make_objective(value, grad)
        lmo = ProbabilitySimplex(5)
        x, stats = vanilla_fw(
            obj, lmo, np.full(5, 0.2), Secant(), fw_gap_tol=1e-9, max_iters=2000,
        )
        assert lmo.call_count == stats.iterations + 1
        assert stats.fw_steps == stats.iterations
        assert stats.pairwise_descent_steps == stats.pairwise_drop_steps == 0
        assert stats.termination in ("gap_tol", "iter_cap")

    def test_iter_cap(self):
        rng = np.random.default_rng(9)
        Q = random_pd_matrix(rng, 5)
        value, grad = quad_value_grad(Q, rng.standard_normal(5))
        obj = make_objective(value, grad)
        lmo = ProbabilitySimplex(5)
        _, stats = vanilla_fw(
            obj, lmo, np.full(5, 0.2), Agnostic(), fw_gap_tol=1e-16, max_iters=3,
        )
        assert stats.termination == "iter_cap"
        assert stats.iterations == 3 and lmo.call_count == 4

    def test_passed_deadline_stops_with_time_limit(self):
        rng = np.random.default_rng(9)
        Q = random_pd_matrix(rng, 5)
        value, grad = quad_value_grad(Q, rng.standard_normal(5))
        obj = make_objective(value, grad)
        lmo = ProbabilitySimplex(5)
        x0 = np.full(5, 0.2)
        x, stats = vanilla_fw(
            obj, lmo, x0, Secant(), fw_gap_tol=1e-16, deadline=time.perf_counter()
        )
        assert stats.termination == "time_limit"
        assert stats.iterations == 0 and lmo.call_count == 1
        # the reported gap is the one at the returned iterate
        assert np.array_equal(x, x0)
        assert stats.final_fw_gap == fw_gap(grad(x0), x0, lmo(grad(x0)))

    def test_future_deadline_changes_nothing(self):
        rng = np.random.default_rng(9)
        Q = random_pd_matrix(rng, 5)
        value, grad = quad_value_grad(Q, rng.standard_normal(5))
        obj = make_objective(value, grad)
        runs = [
            vanilla_fw(
                obj, ProbabilitySimplex(5), np.full(5, 0.2), Secant(),
                fw_gap_tol=1e-12, max_iters=300, deadline=deadline,
            )
            for deadline in (None, time.perf_counter() + 1e6)
        ]
        (x1, s1), (x2, s2) = runs
        assert np.array_equal(x1, x2) and s1 == s2

    def test_stagnation_label(self):
        rng = np.random.default_rng(10)
        Q = random_pd_matrix(rng, 4)
        value, grad = quad_value_grad(Q, rng.standard_normal(4))
        obj = make_objective(value, grad)
        _, stats = vanilla_fw(
            obj, ProbabilitySimplex(4), np.full(4, 0.25), _ZeroStep(),
            fw_gap_tol=1e-16,
        )
        assert stats.termination == "stagnation"
        assert stats.iterations == 0

    def test_stop_rule_fires(self):
        rng = np.random.default_rng(11)
        Q = random_pd_matrix(rng, 4)
        value, grad = quad_value_grad(Q, rng.standard_normal(4))
        obj = make_objective(value, grad)
        x0 = np.full(4, 0.25)
        seen = []

        def threshold(x):
            seen.append(x.copy())
            return np.inf

        lmo = ProbabilitySimplex(4)
        _, stats = vanilla_fw(
            obj, lmo, x0, Secant(), fw_gap_tol=1e-16, stop_rule=threshold,
        )
        assert stats.termination == "stop_rule"
        assert stats.iterations == 0 and lmo.call_count == 1
        assert len(seen) == 1 and np.array_equal(seen[0], x0)

    def test_stop_rule_stops_at_first_gap_below_threshold(self):
        rng = np.random.default_rng(11)
        Q = random_pd_matrix(rng, 4)
        value, grad = quad_value_grad(Q, rng.standard_normal(4))
        obj = make_objective(value, grad)
        gaps = []
        _, stats = vanilla_fw(
            obj, ProbabilitySimplex(4), np.eye(4)[0], Agnostic(),
            fw_gap_tol=1e-16, stop_rule=lambda x: 1e-2,
            callback=lambda info: gaps.append(info["gap"]),
        )
        assert stats.termination == "stop_rule"
        assert stats.final_fw_gap <= 1e-2
        assert all(g > 1e-2 for g in gaps)  # no earlier gap met the threshold

    def test_gap_tol_is_tested_before_the_stop_rule(self):
        c = np.array([2.0, -1.0, 0.5])
        obj = make_objective(lambda x: float(c @ x), lambda x: c)
        _, stats = vanilla_fw(
            obj, ProbabilitySimplex(3), np.eye(3)[1], Secant(),
            fw_gap_tol=1e-12, stop_rule=lambda x: np.inf,
        )
        assert stats.termination == "gap_tol"


class TestBpcg:
    def _projection_problem(self, n, y):
        obj = make_objective(
            lambda x: 0.5 * float((x - y) @ (x - y)), lambda x: x - y
        )
        return obj, ProbabilitySimplex(n)

    def test_projection_onto_interior_point(self):
        y = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        obj, lmo = self._projection_problem(5, y)
        start = ActiveSet.from_vertex(np.eye(5)[0])
        x, out_set, stats = bpcg(obj, lmo, start, Secant(), fw_gap_tol=1e-10)
        assert stats.final_fw_gap <= 1e-6
        assert np.linalg.norm(x - y) <= 1e-4
        assert np.linalg.norm(out_set.recombine() - x) <= 1e-10

    def test_step_counts_partition_iterations(self):
        rng = np.random.default_rng(13)
        Q = random_pd_matrix(rng, 6)
        value, grad = quad_value_grad(Q, rng.standard_normal(6))
        obj = make_objective(value, grad)
        steps = []
        lmo = ProbabilitySimplex(6)
        x, out_set, stats = bpcg(
            obj,
            lmo,
            ActiveSet.from_vertex(np.eye(6)[0]),
            Secant(),
            fw_gap_tol=1e-9,
            callback=lambda info: steps.append(info["step_type"]),
        )
        total = (
            stats.fw_steps + stats.pairwise_descent_steps + stats.pairwise_drop_steps
        )
        assert total == stats.iterations == len(steps)
        assert lmo.call_count == stats.iterations + 1
        assert stats.fw_steps == steps.count("fw")
        assert stats.pairwise_drop_steps == steps.count("pairwise_drop")

    def test_warm_restart_is_instant(self):
        y = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        obj, lmo = self._projection_problem(5, y)
        x, out_set, stats = bpcg(
            obj, lmo, ActiveSet.from_vertex(np.eye(5)[0]), Secant(),
            fw_gap_tol=1e-8,
        )
        x2, _, stats2 = bpcg(obj, lmo, out_set, Secant(), fw_gap_tol=1e-8)
        assert stats2.iterations <= 1
        assert stats2.final_fw_gap <= 1e-8
        assert np.array_equal(x2, x)

    def test_needs_nonempty_active_set(self):
        obj, lmo = self._projection_problem(3, np.full(3, 1.0 / 3.0))
        with pytest.raises(ValueError):
            bpcg(obj, lmo, None, Secant())

    def test_fewer_lmo_calls_than_vanilla_fw(self):
        # one linearized subproblem of a DC quadratic, both subsolvers, same
        # stop rule; the blended method needs strictly fewer lmo calls
        inst = gen_quadratic_dc(100, 0)
        problem = inst.problem()
        x0 = np.full(100, 0.01)
        sub = linearize(Oracles(problem), x0)
        v0 = problem.lmo(sub.grad(x0))
        start = problem.lmo.call_count
        bpcg(
            sub, problem.lmo, ActiveSet.from_vertex(v0), Secant(),
            fw_gap_tol=1e-5, max_iters=10000,
        )
        calls_b = problem.lmo.call_count - start
        start = problem.lmo.call_count
        vanilla_fw(sub, problem.lmo, x0, Secant(), fw_gap_tol=1e-5, max_iters=10000)
        assert calls_b < problem.lmo.call_count - start

    def test_stagnation_label(self):
        y = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        obj, lmo = self._projection_problem(5, y)
        start = ActiveSet.from_vertex(np.eye(5)[0])
        x, out_set, stats = bpcg(obj, lmo, start, _ZeroStep(), fw_gap_tol=1e-16)
        assert stats.termination == "stagnation"
        # a zero step leaves the active set untouched
        assert len(out_set) == 1 and np.array_equal(x, np.eye(5)[0])

    def test_stop_rule_threshold(self):
        y = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        obj, lmo = self._projection_problem(5, y)
        start = ActiveSet.from_vertex(np.eye(5)[0])
        _, _, stats = bpcg(
            obj, lmo, start, Secant(), fw_gap_tol=1e-16, stop_rule=lambda x: 1e-3
        )
        assert stats.termination == "stop_rule"
        assert stats.final_fw_gap <= 1e-3

    def test_passed_deadline_stops_with_time_limit(self):
        y = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        obj, lmo = self._projection_problem(5, y)
        start = ActiveSet.from_vertex(np.eye(5)[0])
        x, out_set, stats = bpcg(
            obj, lmo, start, Secant(), fw_gap_tol=1e-16, deadline=time.perf_counter()
        )
        assert stats.termination == "time_limit"
        assert stats.iterations == 0 and lmo.call_count == 1
        assert len(out_set) == 1 and np.array_equal(x, np.eye(5)[0])
