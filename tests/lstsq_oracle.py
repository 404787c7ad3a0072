"""Reference rates of the general flow by least squares.

The package solves the general flow's rate system in the coframe
eta0..eta3, through a fixed pseudo-inverse, and measures the defect of
the rates it solved by one gather of wedges.  This is the solve both
replaced: the 18 x 12 system A(y) x = b(y) over e1..e4, assembled from
stacked ``wedge_coefficients`` calls and a scatter into the matrix, and
``np.linalg.lstsq`` (an SVD) on it, whose residual is the smallest
defect |A x - b| any rates reach.  Slow, and independent of the coframe
kernel.
"""

import math

import numpy as np

from esasaki import exterior

# the rate matrix by blocks, np.block([[0, L3, -L2], [-L3, 0, L1], [L2, -L1, 0]])
# with L_v the 6x4 matrix of x -> x ^ eta_v: entry +-v of a row is +-L_v
_A_BLOCKS = ((0, 3, -2), (-3, 0, 1), (2, -1, 0))


def _rate_matrix_gather() -> tuple:
    flat, source, sign = [], [], []
    for eq, blocks in enumerate(_A_BLOCKS):
        for unknown, v in enumerate(blocks):
            for pair in range(6) if v else ():
                for k in range(4):
                    flat.append((6 * eq + pair) * 12 + 4 * unknown + k)
                    source.append((4 * (abs(v) - 1) + k) * 6 + pair)
                    sign.append(math.copysign(1.0, v))
    return np.array(flat), np.array(source), np.array(sign)


_A_FLAT, _A_SOURCE, _A_SIGN = _rate_matrix_gather()
_UNITS = np.eye(4).reshape(-1)
_LEFT = np.array([4, 5, 6, 7] * 3 + [0, 0, 7, 7])
_RIGHT = np.array([1] * 4 + [2] * 4 + [3] * 4 + [3, 2, 3, 2])
_B_SIGNS = np.array([[1.0], [-1.0]])


def reference_general_system(y: np.ndarray, m: int):
    """The rate system (A, b) of the rates of eta1..eta3 at the coframe y:

        x2 ^ eta3 + eta2 ^ x3 = -d eta1
        x3 ^ eta1 + eta3 ^ x1 = 3 eta0 ^ eta3 - d eta2 + m e4 ^ eta3
        x1 ^ eta2 + eta1 ^ x2 = -3 eta0 ^ eta2 - m e4 ^ eta2 - d eta3
    """
    rows = np.concatenate((y, _UNITS)).reshape(8, 4)
    w = exterior.wedge_coefficients(rows[_LEFT], rows[_RIGHT], exterior.WEDGE_1_1)
    A = np.zeros(216)
    A[_A_FLAT] = _A_SIGN * w.reshape(-1)[_A_SOURCE]
    d = rows[1:4] @ exterior.D_1.T
    b = np.concatenate((-d[0], (3.0 * _B_SIGNS * w[12:14] - d[1:] + m * _B_SIGNS * w[14:]).reshape(-1)))
    return A.reshape(18, 12), b


def lstsq_rhs(y: np.ndarray, m: int):
    """Flow right-hand side by least squares, and its residual."""
    A, b = reference_general_system(y, m)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return np.concatenate((2.0 * y[4:8], x)), float(np.linalg.norm(A @ x - b))


def defect_rounding(y: np.ndarray, x: np.ndarray, m: int) -> float:
    """A bound on the rounding of b - A x in float at the coframe y and
    the rates x, stated before measuring.  Each coefficient sums at most
    eight terms: four products of a rate and a coefficient of y, two of
    3 eta0 ^ eta, one of d and one of m e4 ^ eta.  Each term goes through
    at most six roundings, so the sum is off by at most 6 * 8 eps / 2
    times the largest term; twice that, plus 2^-1074 for each of the
    eight products, which may underflow."""
    ey, ex = np.abs(y).max(), np.abs(x).max()
    largest = max(3.0 * ey * ey, ex * ey, max(1, abs(m)) * ey)
    return 48 * np.finfo(float).eps * largest + 8 * 2.0**-1074
