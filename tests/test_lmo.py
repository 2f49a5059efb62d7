"""Linear minimization oracles: worked examples, vertex structure, brute force."""

import importlib.machinery
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcfw import (
    BirkhoffPolytope,
    KSparsePolytope,
    LinearMinimizationOracle,
    ProbabilitySimplex,
)

from helpers import (
    assignment_costs,
    brute_force_assignment,
    brute_force_ksparse_min,
    perm_cost,
    rand_birkhoff,
    rand_ksparse,
    rand_simplex,
)

# fresh oracles per test, since each counts its calls
ORACLE_FACTORIES = [
    lambda: ProbabilitySimplex(4),
    lambda: KSparsePolytope(4, tau=1.0, k=1),
    lambda: KSparsePolytope(4, tau=1.0, k=2),
    lambda: BirkhoffPolytope(3),
]

finite_coeffs = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=3, max_size=3
)


class TestSimplex:
    def test_picks_smallest_coefficient(self):
        v = ProbabilitySimplex(3)(np.array([3.0, 1.0, 2.0]))
        assert np.array_equal(v, [0.0, 1.0, 0.0])

    def test_constant_cost_ties_to_first_vertex(self):
        v = ProbabilitySimplex(4)(np.full(4, 7.0))
        assert np.array_equal(v, [1.0, 0.0, 0.0, 0.0])

    def test_tie_between_two_goes_to_lower_index(self):
        v = ProbabilitySimplex(3)(np.array([2.0, 1.0, 1.0]))
        assert np.array_equal(v, [0.0, 1.0, 0.0])

    def test_output_is_unit_vector(self):
        rng = np.random.default_rng(0)
        lmo = ProbabilitySimplex(6)
        for _ in range(50):
            v = lmo(rng.standard_normal(6))
            assert np.sum(v == 1.0) == 1 and np.sum(v == 0.0) == 5

    def test_contains(self):
        lmo = ProbabilitySimplex(3)
        assert lmo.contains(np.array([0.2, 0.3, 0.5]))
        assert not lmo.contains(np.array([0.5, 0.6, 0.2]))
        assert not lmo.contains(np.array([-0.1, 0.6, 0.5]))

    @given(finite_coeffs)
    def test_beats_random_feasible_points(self, coeffs):
        c = np.asarray(coeffs)
        v = ProbabilitySimplex(3)(c)
        rng = np.random.default_rng(12)
        for _ in range(5):
            assert c @ v <= c @ rand_simplex(rng, 3) + 1e-12


class TestL1Ball:
    """The l1 ball of radius tau is the k = 1 case of KSparsePolytope."""

    def test_worked_example(self):
        v = KSparsePolytope(3, tau=1.0, k=1)(np.array([0.0, -2.0, 1.0]))
        assert np.array_equal(v, [0.0, 1.0, 0.0])

    def test_zero_cost_tie_rule(self):
        v = KSparsePolytope(3, tau=2.5, k=1)(np.zeros(3))
        assert np.array_equal(v, [-2.5, 0.0, 0.0])

    def test_vertex_structure(self):
        rng = np.random.default_rng(1)
        lmo = KSparsePolytope(5, tau=3.0, k=1)
        for _ in range(100):
            v = lmo(rng.standard_normal(5))
            nz = v[v != 0.0]
            assert nz.size == 1 and abs(nz[0]) == 3.0

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(2)
        r = 2.0
        vertices = np.vstack([r * np.eye(4), -r * np.eye(4)])
        lmo = KSparsePolytope(4, tau=r, k=1)
        for _ in range(100):
            c = rng.standard_normal(4)
            assert c @ lmo(c) == (vertices @ c).min()

    def test_contains(self):
        lmo = KSparsePolytope(3, tau=1.0, k=1)
        assert lmo.contains(np.array([0.3, -0.4, 0.3]))
        assert not lmo.contains(np.array([0.8, -0.4, 0.3]))


class TestKSparsePolytope:
    def test_worked_example(self):
        v = KSparsePolytope(4, tau=1.0, k=2)(np.array([5.0, -3.0, 2.0, 0.0]))
        assert np.array_equal(v, [-1.0, 1.0, 0.0, 0.0])

    def test_k_equals_n_is_sign_vector(self):
        lmo = KSparsePolytope(4, tau=2.0, k=4)
        c = np.array([1.0, -3.0, 0.0, 0.5])
        # sign(0) counts as positive, so a zero coefficient gets -tau
        assert np.array_equal(lmo(c), [-2.0, 2.0, -2.0, -2.0])

    def test_zero_cost_fills_first_k(self):
        v = KSparsePolytope(5, tau=1.5, k=2)(np.zeros(5))
        assert np.array_equal(v, [-1.5, -1.5, 0.0, 0.0, 0.0])
        assert v @ np.zeros(5) == 0.0

    def test_vertex_structure(self):
        rng = np.random.default_rng(3)
        lmo = KSparsePolytope(7, tau=2.0, k=3)
        for _ in range(100):
            v = lmo(rng.standard_normal(7))
            assert np.sum(np.abs(v) == 2.0) == 3 and np.sum(v == 0.0) == 4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            tau = float(rng.uniform(0.5, 3.0))
            c = rng.standard_normal(n)
            lmo = KSparsePolytope(n, tau=tau, k=k)
            assert c @ lmo(c) == pytest.approx(
                brute_force_ksparse_min(c, tau, k), abs=1e-12
            )

    def test_contains(self):
        lmo = KSparsePolytope(4, tau=1.0, k=2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert lmo.contains(rand_ksparse(rng, 4, 1.0, 2))
        assert not lmo.contains(np.array([1.1, 0.0, 0.0, 0.0]))  # inf-norm
        assert not lmo.contains(np.array([0.9, 0.9, 0.9, 0.0]))  # 1-norm

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ties_go_to_the_lowest_indices(self, data):
        # small integer costs make equal magnitudes common
        n = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, n))
        c = np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), dtype=float
        )
        order = sorted(range(n), key=lambda i: (-abs(c[i]), i))
        want = np.zeros(n)
        for i in order[:k]:
            want[i] = -1.5 if c[i] >= 0 else 1.5
        assert np.array_equal(KSparsePolytope(n, tau=1.5, k=k)(c), want)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KSparsePolytope(4, tau=-1.0, k=2)
        with pytest.raises(ValueError):
            KSparsePolytope(4, tau=1.0, k=0)
        with pytest.raises(ValueError):
            KSparsePolytope(4, tau=1.0, k=5)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0])
    def test_non_finite_or_zero_tau_is_refused(self, tau):
        # a NaN or infinite tau would make every vertex NaN or infinite
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            KSparsePolytope(5, tau, 2)

    @pytest.mark.parametrize("tau", ["10", None])
    def test_tau_of_another_type_is_refused(self, tau):
        # either would raise TypeError from the range comparison, without
        # naming tau
        with pytest.raises(TypeError, match="^tau must be a real number, got "):
            KSparsePolytope(20, tau, 3)


def birkhoff_vertex(C):
    """BirkhoffPolytope's vertex for the cost matrix C, as an n x n matrix."""
    n = len(C)
    return BirkhoffPolytope(n)(np.asarray(C, dtype=float).ravel()).reshape(n, n)


class TestBirkhoff:
    def test_identity_cost(self):
        C = np.full((3, 3), 5.0) - 4.0 * np.eye(3)
        X = birkhoff_vertex(C)
        assert np.array_equal(X, np.eye(3))

    def test_matches_factorial_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            C = rng.uniform(-10, 10, size=(n, n))
            X = birkhoff_vertex(C)
            assert perm_cost(C, X) == brute_force_assignment(C)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            C = rng.uniform(0, 1, size=(n, n))
            shifted = C.copy()
            shifted[1] += 3.7
            perms, costs = assignment_costs(C)
            perms2, costs2 = assignment_costs(shifted)
            argmin = {tuple(p) for p in perms[costs <= costs.min() + 1e-12]}
            argmin2 = {tuple(p) for p in perms2[costs2 <= costs2.min() + 1e-12]}
            assert argmin == argmin2
            X = birkhoff_vertex(shifted)
            assert tuple(np.argmax(X, axis=1)) in argmin2
            assert perm_cost(shifted, X) == costs2.min()

    def test_output_is_permutation_matrix(self):
        rng = np.random.default_rng(8)
        lmo = BirkhoffPolytope(5)
        for _ in range(50):
            X = lmo(rng.standard_normal(25)).reshape(5, 5)
            assert set(np.unique(X)) <= {0.0, 1.0}
            assert np.array_equal(X.sum(axis=0), np.ones(5))
            assert np.array_equal(X.sum(axis=1), np.ones(5))

    @pytest.mark.parametrize("costs", ["random", "integer_ties"])
    def test_flat_vertex_matches_factorial_enumeration(self, costs):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            if costs == "random":
                C = rng.standard_normal((n, n))
            else:
                C = rng.integers(0, 3, size=(n, n)).astype(float)
            v = BirkhoffPolytope(n)(C.ravel())
            assert v.dtype == np.float64 and v.shape == (n * n,)
            X = v.reshape(n, n)
            assert set(np.unique(X)) <= {0.0, 1.0}
            assert np.array_equal(X.sum(axis=0), np.ones(n))
            assert np.array_equal(X.sum(axis=1), np.ones(n))
            assert perm_cost(C, X) == brute_force_assignment(C)

    def test_solver_agrees_with_scipy_optimize(self):
        # the LMO loads scipy.optimize's _lsap extension alone; its function
        # must give scipy.optimize.linear_sum_assignment's assignment on costs
        # with many ties, so every vertex keeps its bits
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            C = rng.integers(0, 5, size=(n, n)).astype(float)
            v = BirkhoffPolytope(n)(C.ravel())
            rows, cols = linear_sum_assignment(C)
            got_rows, got_cols = BirkhoffPolytope._assign(C)
            assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
            want = np.zeros(n * n)
            want[rows * n + cols] = 1.0
            assert v.tobytes() == want.tobytes()

    def test_missing_extension_raises_before_a_vertex(self, monkeypatch):
        import scipy

        find_spec = importlib.machinery.PathFinder.find_spec

        def no_lsap(name, path=None, target=None):
            return None if name == "_lsap" else find_spec(name, path, target)

        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", no_lsap)
        monkeypatch.setattr(BirkhoffPolytope, "_assign", None)
        directory = os.path.join(os.path.dirname(scipy.__file__), "optimize")
        lmo = BirkhoffPolytope(3)
        with pytest.raises(ImportError) as info:
            lmo(np.arange(9.0))
        assert str(info.value) == (
            f"scipy {scipy.__version__} has no _lsap extension in {directory}"
        )
        assert BirkhoffPolytope._assign is None

    def test_contains(self):
        lmo = BirkhoffPolytope(4)
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert lmo.contains(rand_birkhoff(rng, 4).ravel())
        bad = np.full(16, 1.0 / 4.0)
        bad[0] = 0.5
        assert not lmo.contains(bad)


class TestOracleProtocol:
    def test_call_count_increments_once_per_call(self):
        lmo = ProbabilitySimplex(3)
        assert lmo.call_count == 0
        lmo(np.array([1.0, 2.0, 3.0]))
        lmo(np.array([3.0, 2.0, 1.0]))
        assert lmo.call_count == 2

    def test_rejected_input_does_not_count(self):
        lmo = ProbabilitySimplex(3)
        with pytest.raises(ValueError):
            lmo(np.array([1.0, 2.0]))
        assert lmo.call_count == 0

    @pytest.mark.parametrize(
        "lmo",
        [
            ProbabilitySimplex(4),
            KSparsePolytope(4, tau=1.0, k=1),
            KSparsePolytope(4, tau=1.0, k=2),
            BirkhoffPolytope(2),
        ],
    )
    def test_invalid_costs_raise(self, lmo):
        with pytest.raises(ValueError):
            lmo(np.ones(lmo.dimension + 1))
        bad = np.ones(lmo.dimension)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            lmo(bad)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            lmo(bad)

    def test_sizes_below_one_are_refused(self):
        with pytest.raises(ValueError, match="^need dimension >= 1, got 0$"):
            LinearMinimizationOracle(0)
        with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
            BirkhoffPolytope(0)

    @pytest.mark.parametrize("make, name", [
        (lambda: LinearMinimizationOracle(3.0), "dimension"),
        (lambda: ProbabilitySimplex(3.7), "dimension"),
        (lambda: BirkhoffPolytope(2.5), "n"),
        (lambda: KSparsePolytope(5.0, 1.0, 2), "dimension"),
        (lambda: KSparsePolytope(5, 1.0, 2.5), "k"),
    ], ids=["base", "simplex", "birkhoff", "ksparse-dimension", "ksparse-k"])
    def test_sizes_that_are_not_integers_are_refused(self, make, name):
        # int() would truncate them: the simplex to dimension 3, k to 2
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ProbabilitySimplex(True),
        lambda: BirkhoffPolytope(True),
        lambda: KSparsePolytope(True, 1.0, True),
        lambda: KSparsePolytope(5, 1.0, True),
        lambda: KSparsePolytope(5, True, 2),
        lambda: KSparsePolytope(5, np.True_, 2),
    ], ids=["simplex", "birkhoff", "ksparse", "ksparse-k", "ksparse-tau", "numpy-tau"])
    def test_bools_are_refused(self, make):
        # a bool is an int, and compares as one, but says nothing about a size
        with pytest.raises(TypeError, match=r"got (np\.)?True"):
            make()

    def test_integer_sizes_of_numpy_type_are_accepted(self):
        lmo = KSparsePolytope(np.int64(5), 1.0, np.int32(2))
        assert (lmo.dimension, lmo.k) == (5, 2) and type(lmo.k) is int
        assert BirkhoffPolytope(np.int64(3)).dimension == 9

    def test_base_class_has_no_region(self):
        lmo = LinearMinimizationOracle(2)
        with pytest.raises(NotImplementedError):
            lmo(np.ones(2))
        with pytest.raises(NotImplementedError):
            lmo.contains(np.ones(2))

    @pytest.mark.parametrize("make", ORACLE_FACTORIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_is_rejected(self, make, bad):
        lmo = make()
        for i in range(lmo.dimension):
            c = np.ones(lmo.dimension)
            c[i] = bad
            with pytest.raises(ValueError, match="non-finite"):
                lmo(c)
        assert lmo.call_count == 0

    @pytest.mark.parametrize("make", ORACLE_FACTORIES)
    def test_huge_finite_entries_are_accepted(self, make):
        lmo = make()
        rng = np.random.default_rng(3)
        c = rng.choice([-1.0, 1.0], lmo.dimension) * rng.uniform(
            1e199, 1e200, lmo.dimension
        )
        v = lmo(c)
        assert lmo.call_count == 1
        assert lmo.contains(v)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    def test_simplex_vertex_property_fuzz(self, coeffs):
        v = ProbabilitySimplex(4)(np.asarray(coeffs))
        assert v.sum() == 1.0 and np.count_nonzero(v) == 1
