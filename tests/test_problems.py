"""Problem families: reproducibility, oracle correctness, feasible starts."""

import numpy as np
import pytest

from dcfw import (
    BirkhoffPolytope,
    KSparsePolytope,
    ProbabilitySimplex,
    QapInstance,
    gen_hard_dc,
    gen_quadratic_dc,
    initial_point,
    qap_dc_oracles,
)

from helpers import central_diff_grad, rand_birkhoff, rand_ksparse, rand_simplex, rel_err


class TestQuadraticFamily:
    def test_deterministic_from_seed(self):
        a = gen_quadratic_dc(12, 7)
        b = gen_quadratic_dc(12, 7)
        for x, y in ((a.A, b.A), (a.B, b.B), (a.a, b.a), (a.b, b.b)):
            assert np.array_equal(x, y)
        assert a.c == b.c and a.d == b.d
        other = gen_quadratic_dc(12, 8)
        assert not np.array_equal(a.A, other.A)

    def test_matrices_symmetric_positive_definite(self):
        inst = gen_quadratic_dc(15, 0)
        for M in (inst.A, inst.B):
            assert np.abs(M - M.T).max() <= 1e-12
            np.linalg.cholesky(M)  # raises if not PD
            assert np.linalg.eigvalsh(M)[0] >= 0.1 - 1e-8

    def test_lipschitz_constant_is_top_eigenvalue(self):
        inst = gen_quadratic_dc(10, 1)
        assert inst.lipschitz_f() == pytest.approx(
            float(np.linalg.eigvalsh(inst.A)[-1]), rel=1e-12
        )

    def test_gradients_match_central_differences(self):
        inst = gen_quadratic_dc(8, 2)
        problem = inst.problem()
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rand_simplex(rng, 8)
            assert rel_err(problem.f_grad(x), central_diff_grad(problem.f_value, x)) <= 1e-5
            assert rel_err(problem.g_subgrad(x), central_diff_grad(problem.g_value, x)) <= 1e-5

    def test_phi_is_f_minus_g(self):
        inst = gen_quadratic_dc(6, 3)
        problem = inst.problem()
        x = rand_simplex(np.random.default_rng(1), 6)
        assert problem.phi(x) == pytest.approx(
            problem.f_value(x) - problem.g_value(x), abs=1e-12
        )

    def test_problem_builds_fresh_lmo(self):
        inst = gen_quadratic_dc(5, 4)
        p1 = inst.problem()
        p1.lmo(np.zeros(5))
        p2 = inst.problem()
        assert p1.lmo is not p2.lmo
        assert p2.lmo.call_count == 0

    def test_needs_a_coordinate(self):
        with pytest.raises(ValueError, match="defined for n >= 1, got 0"):
            gen_quadratic_dc(0, 0)
        gen_quadratic_dc(1, 0)


class TestHardFamily:
    def test_needs_at_least_k_coordinates(self):
        with pytest.raises(ValueError):
            gen_hard_dc(9, 0)
        gen_hard_dc(10, 0)

    def test_values_at_origin(self):
        n = 12
        inst = gen_hard_dc(n, 1)
        problem = inst.problem()
        zero = np.zeros(n)
        assert problem.f_value(zero) == pytest.approx(1.0 / n, abs=1e-12)
        assert problem.g_value(zero) == pytest.approx(0.1 * n * np.log(2.0), abs=1e-12)

    def test_region_parameters(self):
        inst = gen_hard_dc(15, 0)
        lmo = inst.problem().lmo
        assert isinstance(lmo, KSparsePolytope)
        assert lmo.tau == 10.0 and lmo.k == 10
        assert lmo.contains(np.zeros(15))

    def test_gradients_match_central_differences(self):
        inst = gen_hard_dc(11, 2)
        problem = inst.problem()
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rand_ksparse(rng, 11, 10.0, 10)
            assert rel_err(problem.f_grad(x), central_diff_grad(problem.f_value, x)) <= 1e-5
            assert rel_err(problem.g_subgrad(x), central_diff_grad(problem.g_value, x)) <= 1e-5

    def test_midpoint_convexity(self):
        inst = gen_hard_dc(10, 3)
        problem = inst.problem()
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rand_ksparse(rng, 10, 10.0, 10)
            y = rand_ksparse(rng, 10, 10.0, 10)
            mid = 0.5 * (x + y)
            for fn in (problem.f_value, problem.g_value):
                assert fn(mid) <= 0.5 * (fn(x) + fn(y)) + 1e-10

    def test_deterministic_from_seed(self):
        a = gen_hard_dc(10, 5)
        b = gen_hard_dc(10, 5)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.d, b.d)


class TestQapOracles:
    def _random_instance(self, rng, n):
        return QapInstance(
            name=f"r{n}", n=n, A=rng.uniform(0, 10, (n, n)), B=rng.uniform(0, 10, (n, n))
        )

    def test_dc_split_identity(self):
        # f(X) - g(X) must equal <A'X, XB> on feasible points
        rng = np.random.default_rng(4)
        for n in (3, 5, 8):
            inst = self._random_instance(rng, n)
            problem = qap_dc_oracles(inst)
            for _ in range(5):
                X = rand_birkhoff(rng, n)
                lhs = problem.phi(X.ravel())
                rhs = float(np.sum((inst.A.T @ X) * (X @ inst.B)))
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(5)
        inst = self._random_instance(rng, 5)
        problem = qap_dc_oracles(inst)
        for _ in range(5):
            x = rand_birkhoff(rng, 5).ravel()
            assert rel_err(problem.f_grad(x), central_diff_grad(problem.f_value, x)) <= 1e-5
            assert rel_err(problem.g_subgrad(x), central_diff_grad(problem.g_value, x)) <= 1e-5

    def test_region_and_dimension(self):
        inst = self._random_instance(np.random.default_rng(6), 4)
        problem = qap_dc_oracles(inst)
        assert problem.lmo.dimension == 16
        assert isinstance(problem.lmo, BirkhoffPolytope)


class TestInitialPoint:
    def test_simplex_barycenter(self):
        x = initial_point(ProbabilitySimplex(5))
        assert np.array_equal(x, np.full(5, 0.2))

    def test_birkhoff_barycenter(self):
        lmo = BirkhoffPolytope(4)
        x = initial_point(lmo)
        assert np.array_equal(x, np.full(16, 0.25))
        assert lmo.contains(x)

    def test_sparse_regions_start_at_zero(self):
        for lmo in (KSparsePolytope(6, 10.0, 3), KSparsePolytope(6, 2.0, 1)):
            x = initial_point(lmo)
            assert np.array_equal(x, np.zeros(6))
            assert lmo.contains(x)

    def test_unknown_region_raises(self):
        with pytest.raises(ValueError):
            initial_point(object())
