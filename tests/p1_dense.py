"""Dense P1 operators of a uniform mesh: the tests' oracle for the library's stencils.

The library applies the mass and stiffness matrices only as stencils of
the spacing h and solves each step in a sine basis.  These build the
matrices entry by entry and solve with ``np.linalg.solve``, so they
share neither the stencils nor the basis.
"""

import numpy as np


def mass_matrix(N: int, h: float) -> np.ndarray:
    """P1 mass matrix of N elements of spacing h: h tridiag(1/6, 2/3, 1/6), h/3 at both ends."""
    diag = np.full(N + 1, 2.0 * h / 3.0)
    diag[0] = diag[-1] = h / 3.0
    off = np.full(N, h / 6.0)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def stiffness_matrix(N: int, h: float) -> np.ndarray:
    """P1 stiffness matrix of N elements of spacing h: tridiag(-1, 2, -1)/h, 1/h at both ends."""
    diag = np.full(N + 1, 2.0 / h)
    diag[0] = diag[-1] = 1.0 / h
    off = np.full(N, -1.0 / h)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def dense_step(h: float, dt: float, rhs: np.ndarray, v_left: float) -> np.ndarray:
    """Solve (M/dt^2 + K) v = rhs on the interior nodes, with the Dirichlet
    values v_left at x = 0 and 0 at the right end eliminated by rows."""
    N = len(rhs) - 1
    A = stiffness_matrix(N, h) + mass_matrix(N, h) / dt**2
    out = np.zeros(N + 1)
    out[0] = v_left
    out[1:-1] = np.linalg.solve(A[1:-1, 1:-1], rhs[1:-1] - A[1:-1, 0] * v_left)
    return out
