"""Shared oracles and generators for the test suite.

Everything here is independent of the library's own numerics: central
differences, factorial/combinatorial enumeration, dense simplex grids, and
a small active-set QP solver that certifies optimal values on the simplex.
Oracles fail loudly instead of returning a doubtful answer.
"""

import itertools

import numpy as np


def central_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def rel_err(approx, exact):
    exact = np.asarray(exact, dtype=float)
    denom = max(float(np.linalg.norm(exact)), 1.0)
    return float(np.linalg.norm(np.asarray(approx, dtype=float) - exact)) / denom


# ---------------------------------------------------------------------------
# random feasible points


def rand_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


def rand_birkhoff(rng, n, atoms=4):
    """Random doubly stochastic matrix as a mix of permutation matrices."""
    w = rng.dirichlet(np.ones(atoms))
    X = np.zeros((n, n))
    for j in range(atoms):
        X += w[j] * np.eye(n)[rng.permutation(n)]
    return X


def rand_ksparse(rng, n, tau, k, atoms=4):
    """Random point of the k-sparse polytope as a mix of its vertices."""
    w = rng.dirichlet(np.ones(atoms))
    x = np.zeros(n)
    for j in range(atoms):
        idx = rng.choice(n, size=k, replace=False)
        v = np.zeros(n)
        v[idx] = tau * rng.choice([-1.0, 1.0], size=k)
        x += w[j] * v
    return x


# ---------------------------------------------------------------------------
# exact simplex QP


def _equality_qp(Q, q, support):
    """Minimize 1/2 x'Qx + q'x over {x_S : sum = 1}, other coords fixed at 0.

    Returns (x_S, nu) from the KKT system; raises LinAlgError if singular.
    """
    S = list(support)
    k = len(S)
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = Q[np.ix_(S, S)]
    K[:k, k] = 1.0
    K[k, :k] = 1.0
    rhs = np.concatenate([-np.asarray(q, dtype=float)[S], [1.0]])
    sol = np.linalg.solve(K, rhs)
    return sol[:k], sol[k]


def simplex_qp_minimize(Q, q, tol=1e-11):
    """Exact minimizer of 1/2 x'Qx + q'x over the probability simplex.

    Primal active-set method with ratio tests.  Q must be positive definite
    so every equality-constrained subproblem has a unique solution.  The
    returned point is verified against the KKT conditions; a violation
    raises instead of returning a doubtful certificate.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    x = np.full(n, 1.0 / n)
    bound = np.zeros(n, dtype=bool)
    for _ in range(200 * n):
        free = np.flatnonzero(~bound)
        xf, nu = _equality_qp(Q, q, free)
        target = np.zeros(n)
        target[free] = xf
        if np.max(np.abs(target - x)) <= 1e-13:
            grad = Q @ x + q
            # stationarity reads grad + nu = lam on the bounds (grad = -nu free)
            lam = grad + nu
            at_bound = np.flatnonzero(bound)
            if at_bound.size == 0 or np.min(lam[at_bound]) >= -1e-10:
                break
            bound[at_bound[np.argmin(lam[at_bound])]] = False
            continue
        d = target - x
        alpha, blocker = 1.0, -1
        for i in free:
            if d[i] < -1e-15 and x[i] / -d[i] < alpha:
                alpha, blocker = x[i] / -d[i], i
        x = x + alpha * d
        if blocker >= 0:
            x[blocker] = 0.0
            bound[blocker] = True
    else:
        raise RuntimeError("active-set oracle did not terminate")

    grad = Q @ x + q
    free = np.flatnonzero(x > tol)
    nu = float(np.mean(grad[free]))
    if (
        abs(float(np.sum(x)) - 1.0) > 1e-10
        or float(np.min(x)) < -1e-12
        or float(np.max(np.abs(grad[free] - nu))) > 1e-7
        or float(np.min(grad - nu)) < -1e-7
    ):
        raise RuntimeError("active-set oracle produced a non-KKT point")
    return x


def simplex_qp_value(Q, q):
    x = simplex_qp_minimize(Q, q)
    return float(0.5 * x @ Q @ x + q @ x), x


def simplex_qp_brute(Q, q):
    """Support enumeration; exponential, for small-n cross checks only."""
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.size
    best, best_x = np.inf, None
    for size in range(1, n + 1):
        for S in itertools.combinations(range(n), size):
            try:
                xs, _ = _equality_qp(Q, q, S)
            except np.linalg.LinAlgError:
                continue
            if np.min(xs) < -1e-10:
                continue
            x = np.zeros(n)
            x[list(S)] = np.maximum(xs, 0.0)
            x /= np.sum(x)
            v = float(0.5 * x @ Q @ x + q @ x)
            if v < best:
                best, best_x = v, x
    return best, best_x


# ---------------------------------------------------------------------------
# dense simplex grid (3 coordinates)


def simplex_grid3(step=1e-3):
    """All points of the 2-simplex with coordinates on a uniform grid."""
    m = int(round(1.0 / step))
    i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    keep = (i + j) <= m
    i, j = i[keep], j[keep]
    return np.column_stack([i, j, m - i - j]).astype(float) / m


# ---------------------------------------------------------------------------
# brute-force linear minimization


_PERM_CACHE = {}


def all_permutations(n):
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = np.array(list(itertools.permutations(range(n))))
    return _PERM_CACHE[n]


def assignment_costs(C):
    """Cost of every permutation, summed in row order (n! rows)."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    perms = all_permutations(n)
    return perms, C[np.arange(n)[None, :], perms].sum(axis=1)


def brute_force_assignment(C):
    """Exact minimum assignment cost by factorial enumeration."""
    _, costs = assignment_costs(C)
    return float(costs.min())


def perm_cost(C, X):
    """Assignment cost of a permutation matrix, same summation order as
    assignment_costs so exact float comparison is meaningful."""
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    perm = np.argmax(X, axis=1)
    return float(C[np.arange(n), perm].sum())


def brute_force_ksparse_min(c, tau, k):
    """Minimum of <c, x> over the k-sparse polytope by vertex enumeration.

    Enumerates every support of size <= k with every sign pattern; supports
    smaller than k only matter for ties, which keeps the sweep exhaustive.
    """
    c = np.asarray(c, dtype=float)
    best = 0.0  # empty support
    for size in range(1, k + 1):
        for idx in itertools.combinations(range(c.size), size):
            for signs in itertools.product((-tau, tau), repeat=size):
                v = float(np.dot(signs, c[list(idx)]))
                best = min(best, v)
    return best


def quad_value_grad(Q, q):
    """Closures for h(x) = 1/2 x'Qx + q'x."""
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)

    def value(x):
        return 0.5 * float(x @ Q @ x) + float(q @ x)

    def grad(x):
        return Q @ x + q

    return value, grad


def synthetic_qap(rng, n):
    """(flows, distances) of an n x n QAP in the style of QAPLIB's nug set:
    a symmetric integer flow matrix against Manhattan distances of random
    grid points, both with zero diagonal."""
    points = rng.integers(0, n, size=(n, 2))
    distances = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=2)
    flows = rng.integers(1, 10, size=(n, n)) * (rng.random((n, n)) < 0.6)
    flows = np.triu(flows, 1)
    return flows + flows.T, distances


def random_pd_matrix(rng, n, ridge=0.1):
    M = rng.standard_normal((n, n))
    return M.T @ M + ridge * np.eye(n)


class Counter:
    """Wrap a function and count invocations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def make_objective(value, grad):
    """Objective object for the solvers from bare closures."""
    from types import SimpleNamespace

    return SimpleNamespace(value=value, grad=grad)
