"""Linear minimization oracles over the feasible regions used by the solvers.

Each oracle returns an exact vertex of its polytope minimizing <c, v> and
counts how many times it has been called.
"""

import numpy as np

# slack a point may have in contains() and still count as inside
_TOL = 1e-9


class LinearMinimizationOracle:
    """Base oracle: argmin of <c, v> over the vertices of a polytope."""

    def __init__(self, dimension):
        if dimension < 1:
            raise ValueError(f"dimension must be positive, got {dimension}")
        self.dimension = int(dimension)
        self.call_count = 0

    def __call__(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dimension,):
            raise ValueError(
                f"cost vector has shape {c.shape}, expected ({self.dimension},)"
            )
        # count_nonzero is a C call; .all() goes through a Python wrapper
        # that costs more than the check itself at these sizes
        if np.count_nonzero(np.isfinite(c)) != c.size:
            raise ValueError("cost vector has non-finite entries")
        self.call_count += 1
        return self._minimize(c)

    def _minimize(self, c):
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError


class ProbabilitySimplex(LinearMinimizationOracle):
    """Unit probability simplex in R^n; vertices are coordinate basis vectors."""

    def _minimize(self, c):
        v = np.zeros(self.dimension)
        v[c.argmin()] = 1.0  # ties resolve to the lowest index
        return v

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return bool(x.min() >= -_TOL and abs(x.sum() - 1.0) <= _TOL)


class KSparsePolytope(LinearMinimizationOracle):
    """Intersection of the l1 ball of radius k*tau with the box ||x||_inf <= tau.

    Vertices have exactly k entries of magnitude tau.
    """

    def __init__(self, dimension, tau, k):
        super().__init__(dimension)
        if not 1 <= k <= dimension:
            raise ValueError(f"need 1 <= k <= {dimension}, got k={k}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.tau = float(tau)
        self.k = int(k)

    def _minimize(self, c):
        # stable sort keeps lower indices first among tied magnitudes
        top = (-np.abs(c)).argsort(kind="stable")[: self.k]
        v = np.zeros(self.dimension)
        v[top] = np.where(c[top] >= 0, -self.tau, self.tau)
        return v

    def contains(self, x):
        a = np.abs(np.asarray(x, dtype=float))
        return bool(a.max() <= self.tau + _TOL and a.sum() <= self.k * self.tau + _TOL)


class BirkhoffPolytope(LinearMinimizationOracle):
    """Doubly stochastic matrices of order n, handled as flattened n^2 vectors."""

    # scipy's assignment solver, imported on the first call so that
    # importing dcfw does not import scipy
    _assign = None

    def __init__(self, n):
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        self.n = int(n)
        super().__init__(n * n)

    def _minimize(self, c):
        # c is a finite float vector of length n^2, so the solver takes it
        # without birkhoff_lmo's checks
        assign = BirkhoffPolytope._assign
        if assign is None:
            from scipy.optimize import linear_sum_assignment as assign

            BirkhoffPolytope._assign = assign
        n = self.n
        rows, cols = assign(c.reshape(n, n))
        v = np.zeros(self.dimension)
        v[rows * n + cols] = 1.0
        return v

    def contains(self, x):
        X = np.asarray(x, dtype=float).reshape(self.n, self.n)
        return bool(
            X.min() >= -_TOL
            and np.abs(X.sum(axis=0) - 1.0).max() <= _TOL
            and np.abs(X.sum(axis=1) - 1.0).max() <= _TOL
        )


def birkhoff_lmo(C):
    """Exact permutation matrix minimizing <C, X> over doubly stochastic X.

    Solves the linear assignment problem for the n x n cost matrix C and
    returns the optimal permutation as a 0/1 matrix.
    """
    # imported here, so that importing dcfw does not import scipy
    from scipy.optimize import linear_sum_assignment

    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {C.shape}")
    rows, cols = linear_sum_assignment(C)
    X = np.zeros(C.shape)
    X[rows, cols] = 1.0
    return X
