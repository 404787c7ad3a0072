"""Reference Ricci tensor by nested central differences.

The package takes Ricci from one stencil of metric jets (g, dg, ddg).
This is the scheme it replaced: Christoffel symbols by fourth-order
central differences of the metric at each point and at its stencil
points, then fourth-order central differences of those Christoffels.
Two derivative levels, 81 metric rows a point on the Y^{p,q} chart and
441 with no cyclic coordinate: slow, and independent of the jets.
"""

import numpy as np

from esasaki.geometry import _inv

_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h), fourth order
_OFFSETS = np.array([offset for offset, _ in _STENCIL])


def _metric_at(chart, x):
    return np.asarray(chart.metric(x, dtype=np.longdouble), dtype=np.longdouble)


def _stencil_points(x, varying, h):
    """The points x + offset h e_k of rows x (M, n), shaped (len(varying), 4, M, n)."""
    xs = np.tile(x, (len(varying), len(_STENCIL), 1, 1))
    for v, k in enumerate(varying):
        xs[v, :, :, k] = x[:, k] + (_OFFSETS * h)[:, None]
    return xs


def _difference(fs, h):
    """Central differences from values fs (V, 4, M, ...) at the stencil
    points, returned as (M, V, ...)."""
    acc = 0.0
    for j, (_, weight) in enumerate(_STENCIL):
        acc = acc + weight * fs[:, j]
    return np.moveaxis(acc / (12.0 * h), 0, 1)


def _christoffel(chart, x, varying, h):
    """Gamma^k_ij at the rows of x (M, n)."""
    m, n = x.shape
    dg = np.zeros((m, n, n, n), dtype=np.longdouble)  # dg[., l, i, j] = d_l g_ij
    dg[:, varying] = _difference(_metric_at(chart, _stencil_points(x, varying, h)), h)
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    return 0.5 * np.einsum("mkl,mijl->mkij", _inv(_metric_at(chart, x)), sym)


def nested_ricci(chart, points, fd_step):
    """Ricci tensors (N, n, n) at points (N, n), in extended precision."""
    x = np.asarray(points, dtype=np.longdouble)
    N, n = x.shape
    h = np.longdouble(fd_step)
    varying = [k for k in range(n) if k not in chart.cyclic]
    gamma0 = _christoffel(chart, x, varying, h)
    neighbours = _christoffel(chart, _stencil_points(x, varying, h).reshape(-1, n), varying, h)
    dgamma = np.zeros((N, n, n, n, n), dtype=np.longdouble)  # dgamma[., m, r, i, j] = d_m G^r_ij
    dgamma[:, varying] = _difference(neighbours.reshape(len(varying), len(_STENCIL), N, n, n, n), h)
    riemann = (
        np.einsum("Pmrns->Prsmn", dgamma)
        - np.einsum("Pnrms->Prsmn", dgamma)
        + np.einsum("Prml,Plns->Prsmn", gamma0, gamma0)
        - np.einsum("Prnl,Plms->Prsmn", gamma0, gamma0)
    )
    return np.einsum("Prsrn->Psn", riemann)
