"""Benchmark problem families.

Three difference-of-convex families: random quadratics over the probability
simplex, a quadratic-plus-exponential versus quadratic-plus-logistic family
over a k-sparse polytope, and quadratic assignment relaxations over the
Birkhoff polytope.  Generated instances are reproducible from (n, seed) via a
fixed PCG64 draw order.
"""

from dataclasses import dataclass

import numpy as np

from .dca import DcProblem
from .lmo import BirkhoffPolytope, KSparsePolytope, ProbabilitySimplex

HARD_TAU = 10.0
HARD_K = 10
# least n of the quadratic family, whose simplex needs a coordinate; the
# hard family's is HARD_K, since its polytope picks k coordinates
QUADRATIC_MIN_N = 1


def check_size(n, least):
    """Raise ValueError when n is below a family's least size."""
    if n < least:
        raise ValueError(f"family is defined for n >= {least}, got {n}")


def _random_curved_matrix(rng, n):
    # M^T M is PSD; the ridge keeps the smallest eigenvalue at least 0.1
    M = rng.standard_normal((n, n))
    return M.T @ M + 0.1 * np.eye(n)


@dataclass
class QuadraticDcInstance:
    """phi(x) = (1/2 x'Ax + a'x + c) - (1/2 x'Bx + b'x + d) on the simplex."""

    n: int
    seed: int
    A: np.ndarray
    B: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: float
    d: float

    def problem(self):
        """Fresh DcProblem (and LMO call counter) for this instance."""
        A, B, a, b, c, d = self.A, self.B, self.a, self.b, self.c, self.d
        return DcProblem(
            f_value=lambda x: 0.5 * float(x @ A @ x) + float(a @ x) + c,
            f_grad=lambda x: A @ x + a,
            g_value=lambda x: 0.5 * float(x @ B @ x) + float(b @ x) + d,
            g_subgrad=lambda x: B @ x + b,
            lmo=ProbabilitySimplex(self.n),
            quadratic=True,
        )

    def lipschitz_f(self):
        """Largest eigenvalue of A, the gradient Lipschitz constant of f."""
        return float(np.linalg.eigvalsh(self.A)[-1])


def gen_quadratic_dc(n, seed):
    """Random DC quadratic over the simplex with curvature floor 0.1; needs
    n >= 1."""
    check_size(n, QUADRATIC_MIN_N)
    rng = np.random.default_rng(seed)
    A = _random_curved_matrix(rng, n)
    B = _random_curved_matrix(rng, n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = float(rng.standard_normal())
    d = float(rng.standard_normal())
    return QuadraticDcInstance(n=n, seed=seed, A=A, B=B, a=a, b=b, c=c, d=d)


@dataclass
class HardDcInstance:
    """Quadratic plus exponential versus quadratic plus logistic terms.

    f(x) = 1/2 x'Ax + a'x + (1/n) exp(c'x / n)
    g(x) = 1/2 x'Bx + b'x + 0.1 sum_i log(1 + exp(d_i x_i))

    over the k-sparse polytope with tau = HARD_TAU = 10 and k = HARD_K = 10.
    """

    n: int
    seed: int
    A: np.ndarray
    B: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def problem(self):
        # imported here, so that importing dcfw does not import scipy
        from scipy.special import expit

        A, B, a, b, c, d, n = self.A, self.B, self.a, self.b, self.c, self.d, self.n

        def f_value(x):
            return (
                0.5 * float(x @ A @ x)
                + float(a @ x)
                + np.exp(float(c @ x) / n) / n
            )

        def f_grad(x):
            return A @ x + a + (np.exp(float(c @ x) / n) / n**2) * c

        def g_value(x):
            # log(1 + exp(z)) evaluated without overflow for large z
            return 0.5 * float(x @ B @ x) + float(b @ x) + 0.1 * float(
                np.logaddexp(0.0, d * x).sum()
            )

        def g_subgrad(x):
            return B @ x + b + 0.1 * d * expit(d * x)

        return DcProblem(
            f_value=f_value,
            f_grad=f_grad,
            g_value=g_value,
            g_subgrad=g_subgrad,
            lmo=KSparsePolytope(n, HARD_TAU, HARD_K),
        )


def gen_hard_dc(n, seed):
    """Random instance of the exponential/logistic family; needs n >= k."""
    check_size(n, HARD_K)
    rng = np.random.default_rng(seed)
    A = _random_curved_matrix(rng, n)
    B = _random_curved_matrix(rng, n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = rng.standard_normal(n)
    d = rng.standard_normal(n)
    return HardDcInstance(n=n, seed=seed, A=A, B=B, a=a, b=b, c=c, d=d)


def qap_dc_oracles(inst):
    """DC split of the quadratic assignment objective over doubly stochastic
    matrices.

    With Y = A'X + XB and Z = A'X - XB,
        f(X) = 1/4 ||Y||_F^2,   g(X) = 1/4 ||Z||_F^2,
    so f - g = <A'X, XB>, the relaxed assignment objective.  Oracles operate
    on flattened n^2 vectors.
    """
    A = np.asarray(inst.A, dtype=float)
    B = np.asarray(inst.B, dtype=float)
    n = inst.n

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

    return DcProblem(
        f_value=f_value,
        f_grad=f_grad,
        g_value=g_value,
        g_subgrad=g_subgrad,
        lmo=BirkhoffPolytope(n),
        quadratic=True,
    )


def initial_point(lmo):
    """Canonical feasible start for a region: barycenter where cheap, else 0."""
    if isinstance(lmo, ProbabilitySimplex):
        return np.full(lmo.dimension, 1.0 / lmo.dimension)
    if isinstance(lmo, BirkhoffPolytope):
        return np.full(lmo.dimension, 1.0 / lmo.n)
    if isinstance(lmo, KSparsePolytope):
        return np.zeros(lmo.dimension)
    raise ValueError(f"no canonical start for {type(lmo).__name__}")
