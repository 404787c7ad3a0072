"""Reference rates of the general flow by least squares.

The package solves the general flow's rate system in the coframe
eta0..eta3, through a fixed pseudo-inverse.  This is the solve it
replaced: ``np.linalg.lstsq`` (an SVD) on the 18 x 12 system over
e1..e4, whose residual is the smallest defect |A x - b| any rates reach.
Slow, and independent of the coframe kernel.
"""

import numpy as np

from esasaki.evolution import _general_system


def lstsq_rhs(y: np.ndarray, m: int):
    """Flow right-hand side by least squares, and its residual."""
    A, b = _general_system(y, m)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    return np.concatenate((2.0 * y[4:8], x)), float(np.linalg.norm(A @ x - b))
