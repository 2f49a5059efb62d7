"""Benchmark problem families.

Three difference-of-convex families: random quadratics over the probability
simplex, a quadratic-plus-exponential versus quadratic-plus-logistic family
over a k-sparse polytope, and quadratic assignment relaxations over the
Birkhoff polytope.  Generated instances are reproducible from (n, seed) via a
fixed PCG64 draw order.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .dca import DcProblem
from .lmo import BirkhoffPolytope, KSparsePolytope, ProbabilitySimplex

HARD_TAU = 10.0
HARD_K = 10
# least n of the quadratic family, whose simplex needs a coordinate; the
# hard family's is HARD_K, since its polytope picks k coordinates
QUADRATIC_MIN_N = 1


def _logistic(z):
    """1 / (1 + exp(-z)) entrywise, with the bits of scipy.special.expit."""
    # expit evaluates this formula with libm's exp, which math.exp also
    # calls, so the bits agree without importing scipy.special (0.34 s and
    # 26 MB of RSS over numpy, Python 3.11 and scipy 1.17 on a 2-core VM).
    # numpy's own np.exp is not libm's: the same formula on it differed
    # from expit in 19,104 of 1,000,000 uniform z in (-40, 40), which would
    # change the hard family's trajectories.
    values = []
    for v in z.tolist():
        try:
            values.append(1.0 / (1.0 + math.exp(-v)))
        except OverflowError:  # exp(-v) is inf, where expit gives 0.0
            values.append(0.0)
    return np.array(values)


def _random_curved_matrix(rng, n):
    # M^T M is PSD; the ridge keeps the smallest eigenvalue at least 0.1.
    # The ridge goes onto the product's diagonal in place, with the bits of
    # M.T @ M + 0.1 * np.eye(n) but none of its three n x n temporaries;
    # adding 0.0 first turns an entry -0.0 into +0.0, as that sum did.
    M = rng.standard_normal((n, n))
    A = M.T @ M
    A += 0.0
    A.flat[:: n + 1] += 0.1
    return A


def _draw(family, n, seed, least, cd_size):
    """family(n, seed, A, B, a, b, c, d) drawn by PCG64 from seed in the
    order A, B, a, b, c, d, after refusing an n below least or a negative
    seed.  c and d have shape cd_size: None draws each as a Python float."""
    n = integer("n", n, least)
    seed = integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    A = _random_curved_matrix(rng, n)
    B = _random_curved_matrix(rng, n)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    c = rng.standard_normal(cd_size)
    d = rng.standard_normal(cd_size)
    return family(n=n, seed=seed, A=A, B=B, a=a, b=b, c=c, d=d)


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
            f_value=lambda x: 0.5 * float(x.dot(A).dot(x)) + float(a.dot(x)) + c,
            f_grad=lambda x: A.dot(x) + a,
            g_value=lambda x: 0.5 * float(x.dot(B).dot(x)) + float(b.dot(x)) + d,
            g_subgrad=lambda x: B.dot(x) + b,
            lmo=ProbabilitySimplex(self.n),
            quadratic=True,
        )

    def lipschitz_f(self):
        """Largest eigenvalue of A, the gradient Lipschitz constant of f."""
        return float(np.linalg.eigvalsh(self.A)[-1])


def gen_quadratic_dc(n, seed):
    """Random DC quadratic over the simplex with curvature floor 0.1; needs
    n >= 1 and seed >= 0."""
    return _draw(QuadraticDcInstance, n, seed, QUADRATIC_MIN_N, None)


@dataclass
class HardDcInstance:
    """Quadratic plus exponential versus quadratic plus logistic terms.

    f(x) = 1/2 x'Ax + a'x + (1/n) exp(c'x / n)
    g(x) = 1/2 x'Bx + b'x + 0.1 sum_i log(1 + exp(d_i x_i))

    over the k-sparse polytope with tau = HARD_TAU = 10 and k = HARD_K = 10.
    The logistic in g's gradient takes libm's exp, so its bits equal
    scipy.special.expit's.
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
        A, B, a, b, c, d, n = self.A, self.B, self.a, self.b, self.c, self.d, self.n

        def f_value(x):
            return (
                0.5 * float(x.dot(A).dot(x))
                + float(a.dot(x))
                + np.exp(float(c.dot(x)) / n) / n
            )

        def f_grad(x):
            return A.dot(x) + a + (np.exp(float(c.dot(x)) / n) / n**2) * c

        def g_value(x):
            # log(1 + exp(z)) evaluated without overflow for large z
            return 0.5 * float(x.dot(B).dot(x)) + float(b.dot(x)) + 0.1 * float(
                np.logaddexp(0.0, d * x).sum()
            )

        def g_subgrad(x):
            return B.dot(x) + b + 0.1 * d * _logistic(d * x)

        return DcProblem(
            f_value=f_value,
            f_grad=f_grad,
            g_value=g_value,
            g_subgrad=g_subgrad,
            lmo=KSparsePolytope(n, HARD_TAU, HARD_K),
        )


def gen_hard_dc(n, seed):
    """Random instance of the exponential/logistic family; needs n >= k and
    seed >= 0."""
    return _draw(HardDcInstance, n, seed, HARD_K, n)


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
    n, AT, BT = inst.n, A.T, B.T

    def f_value(x):
        X = x.reshape(n, n)
        Y = AT.dot(X) + X.dot(B)
        return 0.25 * float((Y * Y).sum())

    def f_grad(x):
        X = x.reshape(n, n)
        Y = AT.dot(X) + X.dot(B)
        return (0.5 * (A.dot(Y) + Y.dot(BT))).ravel()

    def g_value(x):
        X = x.reshape(n, n)
        Z = AT.dot(X) - X.dot(B)
        return 0.25 * float((Z * Z).sum())

    def g_subgrad(x):
        X = x.reshape(n, n)
        Z = AT.dot(X) - X.dot(B)
        return (0.5 * (A.dot(Z) - Z.dot(BT))).ravel()

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
