"""Problem families: reproducibility, oracle correctness, feasible starts."""

import ast
from pathlib import Path

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
from dcfw import problems as problems_module
from dcfw.problems import (
    HardDcInstance,
    QuadraticDcInstance,
    _logistic,
    _random_curved_matrix,
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
        with pytest.raises(ValueError, match="^need n >= 1, got 0$"):
            gen_quadratic_dc(0, 0)
        gen_quadratic_dc(1, 0)

    @pytest.mark.parametrize("n", [1, 2, 30, 100, 300])
    def test_curved_matrix_has_the_bits_of_the_ridge_sum(self, n):
        for seed in (0, 1, 7, 7919):
            built = _random_curved_matrix(np.random.default_rng(seed), n)
            M = np.random.default_rng(seed).standard_normal((n, n))
            reference = M.T @ M + 0.1 * np.eye(n)
            assert built.dtype == reference.dtype and built.shape == (n, n)
            assert built.tobytes() == reference.tobytes()

    def test_curved_matrix_turns_a_signed_zero_product_entry_positive(self):
        # M.T @ M of this stub draw is a prescribed Gram matrix whose zeros
        # are -0.0 off and on the diagonal; the ridge sum makes them +0.0
        gram = np.array([[4.0, -0.0, 1.5], [-0.0, -0.0, 2.0], [1.5, 2.0, 9.0]])

        class Draw(np.ndarray):
            def __matmul__(self, other):
                return gram.copy()

        class StubRng:
            def standard_normal(self, shape):
                return np.zeros(shape).view(Draw)

        M = StubRng().standard_normal((3, 3))
        reference = np.asarray(M.T @ M + 0.1 * np.eye(3))
        assert not np.signbit(reference[0, 1])  # the stub shows the case
        built = _random_curved_matrix(StubRng(), 3)
        assert type(built) is np.ndarray
        assert built.tobytes() == reference.tobytes()


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

    def test_logistic_has_the_bits_of_scipy_expit(self):
        from scipy.special import expit

        rng = np.random.default_rng(0)
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1000.0, -1000.0],
            *(s * rng.standard_normal(20_000) for s in (0.01, 1.0, 30.0, 300.0)),
            rng.uniform(-1000.0, 1000.0, 20_000),
            # exp(-z) overflows below z = -709.78, where expit gives 0.0
            np.linspace(-750.0, -700.0, 5_001),
        ])
        assert _logistic(z).tobytes() == expit(z).tobytes()

    def test_deterministic_from_seed(self):
        a = gen_hard_dc(10, 5)
        b = gen_hard_dc(10, 5)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.d, b.d)


def _reference_quadratic(n, seed):
    # the quadratic generator's body before both families shared _draw
    rng = np.random.default_rng(seed)
    A = _random_curved_matrix(rng, n)
    B = _random_curved_matrix(rng, n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = float(rng.standard_normal())
    d = float(rng.standard_normal())
    return QuadraticDcInstance(n=n, seed=seed, A=A, B=B, a=a, b=b, c=c, d=d)


def _reference_hard(n, seed):
    # the hard generator's body before both families shared _draw
    rng = np.random.default_rng(seed)
    A = _random_curved_matrix(rng, n)
    B = _random_curved_matrix(rng, n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    d = rng.standard_normal(n)
    return HardDcInstance(n=n, seed=seed, A=A, B=B, a=a, b=b, c=c, d=d)


class TestOneDrawForBothFamilies:
    SEEDS = [0, 1, 7919, 2**31 - 1]

    def _assert_same_instance(self, built, reference):
        assert type(built) is type(reference)
        assert (built.n, built.seed) == (reference.n, reference.seed)
        for field in "ABabcd":
            got, expected = getattr(built, field), getattr(reference, field)
            assert type(got) is type(expected), field
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes(), field

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 30, 300])
    def test_quadratic_family_keeps_its_bits(self, n, seed):
        built = gen_quadratic_dc(n, seed)
        assert type(built.c) is float and type(built.d) is float
        self._assert_same_instance(built, _reference_quadratic(n, seed))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [10, 11, 50])
    def test_hard_family_keeps_its_bits(self, n, seed):
        self._assert_same_instance(gen_hard_dc(n, seed), _reference_hard(n, seed))


def rng_calls_outside(source, allowed):
    """Line numbers of method calls on a name rng outside the functions named
    in allowed."""
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in allowed:
            inside.update(id(sub) for sub in ast.walk(node))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "rng"
        and id(node) not in inside
    ]


class TestTheDrawOrderHasOneOwner:
    # the instances' bits are the draw order A, B, a, b, c, d; a second
    # place that draws could fall out of step with it
    ALLOWED = {"_draw", "_random_curved_matrix"}

    def test_only_the_draw_calls_the_generator(self):
        found = rng_calls_outside(Path(problems_module.__file__).read_text(), self.ALLOWED)
        assert found == [], f"rng used on lines {found} of problems.py; draw in _draw"

    def test_a_call_outside_is_found(self):
        source = "def _draw(rng):\n    rng.random()\n"
        source += "def gen(rng):\n    x = rng.standard_normal(3)\n    rng2.random()\n"
        assert rng_calls_outside(source, self.ALLOWED) == [4]


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


def _bits(value):
    """The bytes of a float or an array, for comparing bit for bit."""
    return np.asarray(value, dtype=float).tobytes()


def _matmul_quadratic(inst):
    """The quadratic family's oracles written with the @ operator."""
    A, B, a, b, c, d = inst.A, inst.B, inst.a, inst.b, inst.c, inst.d
    return (
        lambda x: 0.5 * float(x @ A @ x) + float(a @ x) + c,
        lambda x: A @ x + a,
        lambda x: 0.5 * float(x @ B @ x) + float(b @ x) + d,
        lambda x: B @ x + b,
    )


def _matmul_hard(inst):
    """The hard family's oracles written with the @ operator."""
    A, B, a, b, c, d, n = inst.A, inst.B, inst.a, inst.b, inst.c, inst.d, inst.n
    return (
        lambda x: 0.5 * float(x @ A @ x) + float(a @ x) + np.exp(float(c @ x) / n) / n,
        lambda x: A @ x + a + (np.exp(float(c @ x) / n) / n**2) * c,
        lambda x: 0.5 * float(x @ B @ x)
        + float(b @ x)
        + 0.1 * float(np.logaddexp(0.0, d * x).sum()),
        lambda x: B @ x + b + 0.1 * d * _logistic(d * x),
    )


def _matmul_qap(inst):
    """QAP's oracles written with the @ operator."""
    A, B, n = inst.A, inst.B, inst.n

    def f_value(x):
        X = x.reshape(n, n)
        Y = A.T @ X + X @ B
        return 0.25 * float((Y * Y).sum())

    def f_grad(x):
        X = x.reshape(n, n)
        Y = A.T @ X + X @ B
        return (0.5 * (A @ Y + Y @ B.T)).ravel()

    def g_value(x):
        X = x.reshape(n, n)
        Z = A.T @ X - X @ B
        return 0.25 * float((Z * Z).sum())

    def g_subgrad(x):
        X = x.reshape(n, n)
        Z = A.T @ X - X @ B
        return (0.5 * (A @ Z - Z @ B.T)).ravel()

    return f_value, f_grad, g_value, g_subgrad


class TestOraclesKeepTheBitsOfMatmul:
    """Each family takes its products with ndarray.dot, which calls the same
    BLAS routine as the @ operator with the same arguments, so every oracle
    keeps the bits of the @ expression it replaced."""

    def _assert_same_bits(self, problem, reference, points):
        oracles = (problem.f_value, problem.f_grad, problem.g_value, problem.g_subgrad)
        for x in points:
            for name, oracle, expected in zip(
                ("f_value", "f_grad", "g_value", "g_subgrad"), oracles, reference
            ):
                assert _bits(oracle(x)) == _bits(expected(x)), name

    @pytest.mark.parametrize("n", [1, 2, 3, 30, 100, 300])
    def test_quadratic_family(self, n):
        inst = gen_quadratic_dc(n, n)
        rng = np.random.default_rng(n)
        on = [rand_simplex(rng, n) for _ in range(5)]
        off = [rng.standard_normal(n) * s for s in (1e-3, 1.0, 1e3)]
        self._assert_same_bits(inst.problem(), _matmul_quadratic(inst), on + off)

    @pytest.mark.parametrize("n", [10, 50])
    def test_hard_family(self, n):
        inst = gen_hard_dc(n, n)
        rng = np.random.default_rng(n)
        on = [rand_ksparse(rng, n, 10.0, 10) for _ in range(5)]
        off = [rng.standard_normal(n) * s for s in (1e-3, 1.0, 30.0)]
        self._assert_same_bits(inst.problem(), _matmul_hard(inst), on + off)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_qap_family(self, n):
        rng = np.random.default_rng(n)
        # QAPLIB holds integer flows and distances; uniform ones exercise
        # every mantissa bit
        for draw in (lambda: rng.integers(0, 100, (n, n)).astype(float),
                     lambda: rng.uniform(0, 10, (n, n))):
            A, B = draw(), draw()
            inst = QapInstance(name=f"r{n}", n=n, A=A, B=B)
            on = [rand_birkhoff(rng, n).ravel() for _ in range(3)]
            off = [rng.standard_normal(n * n) * s for s in (1e-3, 1.0, 1e3)]
            self._assert_same_bits(qap_dc_oracles(inst), _matmul_qap(inst), on + off)

    def test_only_the_instance_builder_uses_the_matmul_operator(self):
        # @ costs 0.3 to 0.9 us more per product than ndarray.dot at these
        # sizes; _random_curved_matrix runs once per instance, and its
        # product's bits define the instances
        tree = ast.parse(Path(problems_module.__file__).read_text())
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_random_curved_matrix":
                allowed.update(id(sub) for sub in ast.walk(node))
        found = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.MatMult)
            and id(node) not in allowed
        ]
        assert found == [], f"@ on lines {found} of problems.py; use ndarray.dot"


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
