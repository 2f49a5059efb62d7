"""Frank-Wolfe machinery: gap, line searches, active sets, both solvers."""

import itertools
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
from dcfw.dca import OracleFailure, Oracles, grid_two_level, linearize
from dcfw.fw import _WEIGHT_DRIFT_TOL, secant_line_search

from helpers import (
    Counter,
    make_objective,
    quad_value_grad,
    random_pd_matrix,
    simplex_qp_value,
)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gap_from_the_direction_has_the_bits_of_x_minus_v(data):
    # the inner loop takes the gap <grad, x - v> as 0.0 - <grad, v - x>
    n = data.draw(st.integers(2, 40))
    entries = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    grad = np.array(data.draw(entries))
    v = np.eye(n)[data.draw(st.integers(0, n - 1))]
    weights = np.abs(data.draw(entries))
    if data.draw(st.booleans()) or not weights.sum() > 0:
        x = v.copy()  # then the gap is +0.0
    else:
        x = weights / weights.sum()
    gap = 0.0 - float((v - x).dot(grad))
    assert _same_bits(gap, float((x - v).dot(grad)))
    if np.array_equal(x, v):
        assert _same_bits(gap, 0.0)


def test_gap_on_the_one_point_simplex_is_plus_zero():
    # with one coordinate the dot is the bare product, so <grad, x - v> is
    # -0.0 for a negative gradient, where the loop's gap is +0.0
    grad, x = np.array([-2.0]), np.array([1.0])
    objective = make_objective(lambda y: float(grad.dot(y)), lambda y: grad)
    _, stats = vanilla_fw(objective, ProbabilitySimplex(1), x, Secant())
    assert np.signbit((x - x).dot(grad))
    assert stats.termination == "gap_tol" and _same_bits(stats.final_fw_gap, 0.0)


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
            got, point, g = secant_line_search(value, counted, x, d, 1.0, dphi0=dphi0)
            assert got == pytest.approx(exact, abs=1e-10)
            if dphi0 >= 0:
                assert counted.calls == 0 and g is None
                continue
            # the gamma_max exit or, on the secant step, the converged one
            assert _same_bits(g, grad(point))
            if exact == 1.0:
                assert counted.calls == 1
            else:
                interior += 1
                assert counted.calls == 2
        assert interior > 50  # the sweep actually exercises the secant path

    def test_minimizer_beyond_cap_clamps(self):
        # phi(gamma) = (gamma - 2)^2 has its minimum past gamma_max = 1
        value = lambda z: (float(z[0]) - 2.0) ** 2
        grad = lambda z: np.array([2.0 * (float(z[0]) - 2.0)])
        x, d = np.zeros(1), np.ones(1)
        got, point, g = secant_line_search(value, grad, x, d, 1.0, float(grad(x) @ d))
        assert got == 1.0 and _same_bits(g, grad(point))

    def test_ascent_direction_returns_zero(self):
        value, grad = quad_value_grad(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        d = np.array([1.0, 0.0])  # uphill
        dphi0 = float(grad(x) @ d)
        assert secant_line_search(value, grad, x, d, 1.0, dphi0)[0] == 0.0

    @pytest.mark.parametrize(
        "bad, gamma",
        [
            (lambda g: g == 0.0, "0"),
            (lambda g: g == 1.0, "1.0"),
            (lambda g: 0.0 < g < 1.0, "0.4"),
        ],
        ids=["zero", "gamma_max", "inside"],
    )
    def test_non_finite_slope_raises(self, bad, gamma):
        # phi(gamma) = (gamma - 0.4)^2 along d = 1 from x = 0, with a NaN
        # gradient only at gamma = 0, only at gamma_max = 1, or only strictly
        # inside (0, 1), where the first probe is the secant step to 0.4
        def grad(z):
            g = float(z[0])
            return np.array([np.nan if bad(g) else 2.0 * (g - 0.4)])

        value = lambda z: (float(z[0]) - 0.4) ** 2
        x, d = np.zeros(1), np.ones(1)
        dphi0 = float(grad(x) @ d)  # nan in the zero case
        with pytest.raises(ValueError, match=f"^non-finite slope nan at gamma = {gamma}$"):
            secant_line_search(value, grad, x, d, 1.0, dphi0)

    def test_non_finite_derivative_falls_back_to_grid(self):
        # the search once fell back to a grid search on a NaN slope; now it
        # raises at the gamma_max probe without evaluating a single value
        value = Counter(lambda z: (float(z[0]) - 0.4) ** 2)
        grad = Counter(lambda z: np.array([np.nan]))
        with pytest.raises(ValueError, match=r"^non-finite slope nan at gamma = 1\.0$"):
            secant_line_search(value, grad, np.zeros(1), np.ones(1), 1.0, dphi0=-1.0)
        assert grad.calls == 1 and value.calls == 0

    def test_safeguard_rejects_fake_descent(self):
        # derivative oracle oscillates so the secant never settles; the value
        # oracle only increases, so the safeguard must refuse to move
        value = lambda z: float(z[0])
        flip = Counter(lambda z: np.array([1.0 if flip.calls % 2 else -1.0]))
        got, _, g = secant_line_search(
            value, flip, np.zeros(1), np.ones(1), 1.0, dphi0=-1.0
        )
        assert got == 0.0 and g is None

    def test_nonpositive_interval(self):
        value, grad = quad_value_grad(np.eye(1), np.zeros(1))
        x = d = np.ones(1)
        assert secant_line_search(value, grad, x, d, 0.0, float(grad(x) @ d))[0] == 0.0


class TestStepRules:
    def test_agnostic_schedule(self):
        rule = Agnostic()
        obj = make_objective(lambda x: 0.0, lambda x: x)
        x, d = np.zeros(1), np.ones(1)
        grad = obj.grad(x)
        dphi0 = float(grad @ d)
        assert rule.step(obj, x, grad, d, 1.0, 0, dphi0)[::2] == (1.0, None)
        assert rule.step(obj, x, grad, d, 1.0, 2, dphi0)[::2] == (0.5, None)
        assert rule.step(obj, x, grad, d, 0.3, 0, dphi0)[::2] == (0.3, None)

    def test_secant_rule_delegates(self):
        value, grad = quad_value_grad(np.diag([2.0, 1.0]), np.array([-1.0, 0.0]))
        obj = make_objective(value, grad)
        x, d = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        dphi0 = float(grad(x) @ d)
        got, point, g = Secant().step(obj, x, grad(x), d, 1.0, 0, dphi0=dphi0)
        want, want_point, want_g = secant_line_search(
            value, grad, x, d, 1.0, dphi0=dphi0
        )
        assert got == want
        assert np.array_equal(point, want_point)
        assert 0.0 < got < 1.0
        assert _same_bits(g, want_g) and _same_bits(g, grad(point))


class TestPointContract:
    """A line search returns (gamma, x + gamma * d, the gradient there or
    None), the point bit for bit, and the gradient bit for bit the
    objective's where it is handed back."""

    @staticmethod
    def _assert_point(x, d, gamma, point):
        assert point.tobytes() == (x + gamma * d).tobytes()

    def test_agnostic(self):
        rng = np.random.default_rng(11)
        obj = make_objective(lambda x: 0.0, lambda x: x)
        for k in range(20):
            x, d = rng.standard_normal(7), rng.standard_normal(7)
            gamma, point, g = Agnostic().step(obj, x, x, d, 0.4, k, float(x @ d))
            self._assert_point(x, d, gamma, point)
            assert g is None

    def test_secant_interior_exit(self):
        value, grad = quad_value_grad(np.diag([2.0, 1.0]), np.array([-1.0, 0.0]))
        x, d = np.array([0.0, 1.0]), np.array([1.0, -1.0])
        gamma, point, g = secant_line_search(value, grad, x, d, 1.0, float(grad(x) @ d))
        assert 0.0 < gamma < 1.0
        self._assert_point(x, d, gamma, point)
        assert _same_bits(g, grad(point))

    def test_secant_cap_exit(self):
        value = lambda z: (float(z[0]) - 2.0) ** 2
        grad = lambda z: np.array([2.0 * (float(z[0]) - 2.0)])
        x, d = np.full(1, 0.1), np.full(1, 0.7)
        gamma, point, g = secant_line_search(value, grad, x, d, 1.0, float(grad(x) @ d))
        assert gamma == 1.0
        self._assert_point(x, d, gamma, point)
        assert _same_bits(g, grad(point))

    def test_secant_backtracking_exit(self):
        # phi' is positive past gamma = 0, so the secant shrinks its bracket
        # until the budget is spent; phi itself falls, so the first value
        # check passes
        value = Counter(lambda z: -float(z[0]))
        grad = Counter(lambda z: np.array([1.0]))
        x, d = np.full(1, 0.3), np.full(1, 0.5)
        gamma, point, g = secant_line_search(value, grad, x, d, 1.0, dphi0=-1.0)
        assert grad.calls == 40 and value.calls == 2
        assert 0.0 < gamma < 1e-6
        self._assert_point(x, d, gamma, point)
        assert g is None

    def test_secant_repeated_step_exit(self):
        # phi' jumps from -1e300 to 1 at gamma = 0.5, so the secant step on
        # the bracket [0, 1] rounds to 1 again; the search stops there and the
        # value check accepts gamma = 1
        grad = Counter(lambda z: np.array([-1e300 if z[0] < 0.5 else 1.0]))
        x, d = np.zeros(1), np.ones(1)
        gamma, point, g = secant_line_search(
            lambda z: -float(z[0]), grad, x, d, 1.0, dphi0=-1e300
        )
        assert gamma == 1.0 and grad.calls == 2
        self._assert_point(x, d, gamma, point)
        assert g is None  # the value check's exit, though at a probed point

    def test_secant_bracket_collapse_exit(self):
        # phi' is 9 past gamma = 0, so each secant step cuts the bracket
        # [0, hi] to a tenth, until it is shorter than 1e-17 * gamma_max
        # well before the 40-evaluation budget
        grad = Counter(lambda z: np.array([9.0]))
        value = Counter(lambda z: -float(z[0]))
        x, d = np.zeros(1), np.ones(1)
        gamma, point, g = secant_line_search(value, grad, x, d, 1.0, dphi0=-1.0)
        assert grad.calls < 20 and value.calls == 2
        assert 0.0 < gamma <= 1e-17
        self._assert_point(x, d, gamma, point)
        assert g is None

    def test_secant_grid_fallback_exit(self):
        # where a NaN slope once left through a grid search, no point is
        # returned: the search raises at its first probe, x + gamma_max * d
        value = lambda z: (float(z[0]) - 0.4) ** 2
        grad = Counter(lambda z: np.array([np.nan]))
        x, d = np.full(1, 0.05), np.full(1, 0.9)
        with pytest.raises(ValueError, match=r"^non-finite slope nan at gamma = 1\.0$"):
            secant_line_search(value, grad, x, d, 1.0, dphi0=-1.0)
        assert grad.calls == 1

    def test_secant_grid_fallback_zero_step_returns_x_itself(self):
        # every probe past gamma = 0 is worse, so the backtracking exit, which
        # replaced the grid fallback, keeps x, whose -0.0 entry x + 0.0 * d
        # would turn into 0.0
        value = lambda z: float(z[0])
        flip = Counter(lambda z: np.array([1.0 if flip.calls % 2 else -1.0, 0.0]))
        x, d = np.array([-0.0, 0.5]), np.array([1.0, -1.0])
        gamma, point, g = secant_line_search(value, flip, x, d, 0.5, dphi0=-1.0)
        assert gamma == 0.0 and point is x and g is None

    def test_quadratic_step(self):
        problem = gen_quadratic_dc(8, 0).problem()
        exits = set()
        x = np.full(8, 1.0 / 8.0)
        for i, gamma_max in itertools.product(range(8), (1.0, 0.05)):
            sub = linearize(Oracles(problem), x)
            d = np.eye(8)[i] - x
            grad = sub.grad(x)
            dphi0 = float(grad @ d)
            gamma, point, g = sub.quadratic_step(x, grad, d, gamma_max, dphi0)
            if gamma == 0.0:
                assert dphi0 >= 0 and point is x and g is None
                continue
            exits.add(gamma == gamma_max)
            self._assert_point(x, d, gamma, point)
            want = sub.grad(point)
            if gamma == gamma_max:  # the oracle's gradient at the end point
                assert _same_bits(g, want)
            else:  # carried along the affine gradient
                assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()
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
                # Agnostic ignores the slope
                gamma, x, _ = Agnostic().step(
                    None, s.iterate, None, d, s.weights[frm], k, -1.0
                )
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
        # NaN fails w <= 0 too, and inf would give weights [nan, 0.0]
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                ActiveSet([np.eye(2)[0], np.eye(2)[1]], [bad, 1.0])

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

    @pytest.mark.parametrize("gamma", [-0.1, 1.5, np.nan])
    def test_fw_update_rejects_gamma_outside_unit_interval(self, gamma):
        e = np.eye(2)
        s = ActiveSet([e[0]], [1.0])
        with pytest.raises(ValueError, match="gamma must lie in"):
            s.fw_update(e[1], gamma)
        assert s.weights == [1.0] and np.array_equal(s.iterate, e[0])

    def test_drifted_weights_are_rescaled(self):
        e = np.eye(3)
        near = [0.5, 0.5 + 0.5 * _WEIGHT_DRIFT_TOL]
        assert ActiveSet([e[0], e[1]], near).weights == near
        s = ActiveSet([e[0], e[1], e[2]], [0.5, 0.5, 1.0])
        assert s.weights == [0.25, 0.25, 0.5]
        assert np.array_equal(s.iterate, s.recombine())
        assert np.array_equal(s.iterate, [0.25, 0.25, 0.5])

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
    """A line search that never moves; it keeps the gradients it is handed."""

    def __init__(self):
        self.grads = []

    def step(self, objective, x, grad, d, gamma_max, k, dphi0):
        self.grads.append(grad)
        return 0.0, x, None


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
        assert stats.final_fw_gap == float((x0 - lmo(grad(x0))).dot(grad(x0)))

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
        zero = _ZeroStep()
        x0 = np.full(4, 0.25)
        _, stats = vanilla_fw(obj, ProbabilitySimplex(4), x0, zero, fw_gap_tol=1e-16)
        assert stats.termination == "stagnation"
        assert stats.iterations == 0
        assert len(zero.grads) == 1 and _same_bits(zero.grads[0], grad(x0))

    def test_stop_rule_fires(self):
        # descent_from = inf makes the threshold inf, which the first gap meets
        rng = np.random.default_rng(11)
        Q = random_pd_matrix(rng, 4)
        value, grad = quad_value_grad(Q, rng.standard_normal(4))
        seen = []

        def counted_value(x):
            seen.append(x.copy())
            return value(x)

        obj = make_objective(counted_value, grad)
        x0 = np.full(4, 0.25)
        lmo = ProbabilitySimplex(4)
        _, stats = vanilla_fw(
            obj, lmo, x0, Secant(), fw_gap_tol=1e-16, descent_from=np.inf,
        )
        assert stats.termination == "stop_rule"
        assert stats.iterations == 0 and lmo.call_count == 1
        assert len(seen) == 1 and np.array_equal(seen[0], x0)

    def test_stop_rule_stops_at_first_gap_below_threshold(self):
        # the threshold at x is descent_from - value(x); the open-loop steps
        # need not descend, and the convexity bound must hold all the same
        rng = np.random.default_rng(11)
        Q = random_pd_matrix(rng, 4)
        value, grad = quad_value_grad(Q, rng.standard_normal(4))
        obj = make_objective(value, grad)
        x0 = np.eye(4)[0]
        c = value(x0)
        points, gaps = [x0], []

        def record(info):
            points.append(info["x"].copy())
            gaps.append(info["gap"])

        x, stats = vanilla_fw(
            obj, ProbabilitySimplex(4), x0, Agnostic(),
            fw_gap_tol=1e-16, descent_from=c, callback=record,
        )
        assert stats.termination == "stop_rule" and len(gaps) >= 2
        assert stats.final_fw_gap <= c - value(x)
        # no earlier iterate's gap met its threshold
        assert all(g > c - value(p) for g, p in zip(gaps, points))

    def test_gap_tol_is_tested_before_the_stop_rule(self):
        c = np.array([2.0, -1.0, 0.5])
        obj = make_objective(lambda x: float(c @ x), lambda x: c)
        _, stats = vanilla_fw(
            obj, ProbabilitySimplex(3), np.eye(3)[1], Secant(),
            fw_gap_tol=1e-12, descent_from=np.inf,
        )
        assert stats.termination == "gap_tol"

    @pytest.mark.parametrize("solver", ["vanilla_fw", "bpcg"])
    def test_threshold_is_evaluated_only_where_it_can_fire(self, solver):
        # the value at an iterate is asked for only where the convexity bound
        # leaves the rule a chance to fire, and the solve stops where a rule
        # evaluated at every iterate would
        rng = np.random.default_rng(3)
        Q, q = random_pd_matrix(rng, 30), rng.standard_normal(30)
        value, grad = quad_value_grad(Q, q)
        counted = Counter(value)
        obj = make_objective(counted, grad)
        x0, lmo = np.eye(30)[0], ProbabilitySimplex(30)
        # a threshold of at most 1e-2 needs an iterate that close to optimal
        c = simplex_qp_value(Q, q)[0] + 1e-2
        points, gaps = [x0], []

        def record(info):
            points.append(info["x"].copy())
            gaps.append(info["gap"])

        kwargs = dict(fw_gap_tol=1e-16, descent_from=c, callback=record)
        if solver == "bpcg":
            start = ActiveSet.from_vertex(x0)
            x, _, stats = bpcg(obj, lmo, start, Secant(), **kwargs)
        else:
            x, stats = vanilla_fw(obj, lmo, x0, Secant(), **kwargs)
        calls = counted.calls
        assert stats.termination == "stop_rule" and stats.iterations >= 10
        assert calls < stats.iterations / 2
        assert stats.final_fw_gap <= c - value(x)
        assert all(g > c - value(p) for g, p in zip(gaps, points))

    @pytest.mark.parametrize("solver", ["vanilla_fw", "bpcg"])
    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_iters=-1),
            dict(max_iters=0),
            dict(max_iters=True),
            dict(max_iters=2.0),
            dict(fw_gap_tol=np.nan),
            dict(fw_gap_tol=True),
            dict(fw_gap_tol="1e-6"),
            dict(descent_from=np.nan),
            dict(descent_from=np.bool_(True)),
            dict(descent_from="1.0"),
        ],
        ids=lambda bad: ",".join(f"{k}={v!r}" for k, v in bad.items()),
    )
    def test_bad_inputs_raise_before_any_lmo_call(self, solver, bad):
        c = np.array([2.0, -1.0, 0.5])
        obj = make_objective(lambda x: float(c @ x), lambda x: c)
        lmo = ProbabilitySimplex(3)
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be "):
            if solver == "bpcg":
                bpcg(obj, lmo, ActiveSet.from_vertex(np.eye(3)[0]), Secant(), **bad)
            else:
                vanilla_fw(obj, lmo, np.eye(3)[0], Secant(), **bad)
        assert lmo.call_count == 0


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

    @pytest.mark.parametrize("recombine", [False, True])
    def test_loop_gradient_is_the_objectives_at_each_iterate(
        self, recombine, monkeypatch
    ):
        # a pairwise step hands the line search's gradient back only while
        # the set keeps the search's point as its iterate; renormalizing,
        # here on every update, rebuilds the iterate with other bits
        if recombine:
            monkeypatch.setattr("dcfw.fw._WEIGHT_DRIFT_TOL", -1.0)
        rng = np.random.default_rng(13)
        Q = random_pd_matrix(rng, 6)
        value, grad = quad_value_grad(Q, rng.standard_normal(6))
        simplex = ProbabilitySimplex(6)
        used = []  # the loop's gradient at each iteration, as the LMO gets it

        def lmo(c):
            used.append(c)
            return simplex(c)

        start = ActiveSet.from_vertex(np.eye(6)[0])
        iterates, steps = [start.iterate], []

        def callback(info):
            iterates.append(info["x"])
            steps.append(info["step_type"])

        bpcg(
            make_objective(value, grad), lmo, start, Secant(), fw_gap_tol=1e-9,
            callback=callback,
        )
        assert steps.count("pairwise_descent") + steps.count("pairwise_drop") >= 5
        assert len(used) == len(iterates)
        assert all(_same_bits(g, grad(x)) for g, x in zip(used, iterates))

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
        zero = _ZeroStep()
        x, out_set, stats = bpcg(obj, lmo, start, zero, fw_gap_tol=1e-16)
        assert stats.termination == "stagnation"
        assert len(zero.grads) == 1
        assert _same_bits(zero.grads[0], obj.grad(np.eye(5)[0]))
        # a zero step leaves the active set untouched
        assert len(out_set) == 1 and np.array_equal(x, np.eye(5)[0])

    def test_zero_pairwise_step_stagnates_with_the_set_unchanged(self):
        obj, lmo = self._projection_problem(3, np.array([0.0, 1.0, 0.0]))
        e = np.eye(3)
        start = ActiveSet([e[0], e[1]], [0.5, 0.5])
        x0 = start.iterate
        asked = []  # (d, gamma_max, grad) of each line search

        class ZeroStep:
            def step(self, objective, x, grad, d, gamma_max, k, dphi0):
                asked.append((d.copy(), gamma_max, grad))
                return 0.0, x, None

        x, out_set, stats = bpcg(obj, lmo, start, ZeroStep(), fw_gap_tol=1e-16)
        # the local gap 1 beats the FW gap 0.5: a transfer from e0 to e1
        assert len(asked) == 1
        assert np.array_equal(asked[0][0], e[1] - e[0]) and asked[0][1] == 0.5
        assert _same_bits(asked[0][2], obj.grad(x0))
        assert stats.termination == "stagnation" and stats.iterations == 0
        assert out_set is start and np.array_equal(out_set.vertices, e[:2])
        assert out_set.weights == [0.5, 0.5]
        assert x is x0 and out_set.iterate is x0

    def test_stop_rule_threshold(self):
        y = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        obj, lmo = self._projection_problem(5, y)
        start = ActiveSet.from_vertex(np.eye(5)[0])
        c = obj.value(start.iterate)
        x, _, stats = bpcg(
            obj, lmo, start, Secant(), fw_gap_tol=1e-16, descent_from=c
        )
        assert stats.termination == "stop_rule"
        assert stats.final_fw_gap <= c - obj.value(x)

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
