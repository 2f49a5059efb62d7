"""Linear minimization oracles over the feasible regions used by the solvers.

Each oracle returns an exact vertex of its polytope minimizing <c, v> and
counts how many times it has been called.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np

from ._checks import integer, real

# slack a point may have in contains() and still count as inside
_TOL = 1e-9


class LinearMinimizationOracle:
    """Base oracle: argmin of <c, v> over the vertices of a polytope."""

    def __init__(self, dimension):
        self.dimension = integer("dimension", dimension, 1)
        self.call_count = 0

    def __call__(self, c):
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dimension,):
            raise ValueError(
                f"cost vector has shape {c.shape}, expected ({self.dimension},)"
            )
        # count_nonzero is the cheapest finiteness test measured, isfinite
        # included: 0.64-0.73 us against 1.29-1.36 us for .all() at n = 50-300
        # (numpy 2.4, where both go through a Python-level wrapper)
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
        self.k = integer("k", k, 1)
        if self.k > self.dimension:
            raise ValueError(f"need k <= dimension = {self.dimension}, got {k}")
        self.tau = real("tau", tau, positive=True, finite=True)

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

    # scipy.optimize.linear_sum_assignment, loaded on the first call so that
    # importing dcfw does not import scipy.  It comes from the C extension
    # scipy/optimize/_lsap that defines it, loaded alone: importing
    # scipy.optimize would run its __init__, about 0.45 s and 48 MB of RSS,
    # where the extension loads in under a millisecond.  The module is not
    # put in sys.modules, so a later import of scipy.optimize loads its own.
    _assign = None

    def __init__(self, n):
        self.n = integer("n", n, 1)
        super().__init__(self.n * self.n)

    def _minimize(self, c):
        # c is a finite float vector of length n^2, so the solver takes it
        # without further checks
        assign = BirkhoffPolytope._assign
        if assign is None:
            import scipy

            directory = os.path.join(os.path.dirname(scipy.__file__), "optimize")
            spec = importlib.machinery.PathFinder.find_spec("_lsap", [directory])
            if spec is None:
                raise ImportError(
                    f"scipy {scipy.__version__} has no _lsap extension in {directory}"
                )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            assign = BirkhoffPolytope._assign = module.linear_sum_assignment
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

