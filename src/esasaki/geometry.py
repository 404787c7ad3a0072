"""Metric assembly and finite-difference curvature verification.

The invariant metric of a coframe is g = dt (x) dt + sum_i eta^i (x)
eta^i over the basis (e1..e4, dt).  For the conformal family the same
metric has the explicit five-coordinate form in (theta, phi, y, beta,
psi), with y = 1 - 6 Delta ranging over the open interval between the
turning values:

    (1-y)/6 (dtheta^2 + sin^2 theta dphi^2) + dy^2 / wq
    + wq/36 (dbeta + cos theta dphi)^2
    + 1/9 (dpsi - cos theta dphi + y (dbeta + cos theta dphi))^2

where wq(y) = 2 (108 A + 1 - 3 y^2 + 2 y^3) / (1 - y).

Curvature is verified numerically from the metric jets: g, its first
and its second derivatives by fourth-order central differences, then
Christoffel symbols, their derivatives (with d g^-1 = -g^-1 dg g^-1),
Riemann and Ricci.  Second differences cost roughly eight digits, so the
stencils run in extended precision and the Einstein constant lambda = 4
(the unit-sphere normalization, under which the A = 0 chart is the round
five-sphere with Ric = 4 g) is resolved with margin to spare.

A chart's metric takes stacked coordinates, shape (..., 5), to stacked
metrics, shape (..., 5, 5).  :func:`ricci_fd_many` evaluates it once
per batch of sample points: at the points, at 4 stencil points along
each coordinate and at a 4 x 4 product stencil across each pair of
coordinates.  Derivatives along a coordinate the chart declares cyclic
(one its metric does not depend on: phi, beta and psi above) are taken
as exactly zero and never stenciled, so a sample point of that chart
needs the metric at 1 + 2 x 4 + 16 = 25 points instead of 181.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from esasaki import moduli
from esasaki.structures import IdStructure

__all__ = [
    "EINSTEIN_CONSTANT",
    "CoordinateChart",
    "CurvatureReport",
    "ChartDomainError",
    "metric_from_frame",
    "wq",
    "ypq_chart",
    "ricci_fd_many",
    "case_ii_frame_metric_in_chart",
    "sample_interior_points",
]

EINSTEIN_CONSTANT = 4.0

_REAL = np.longdouble
# sample_interior_points keeps this share of each bounded interval free at both ends
SAMPLE_MARGIN = 0.1


class ChartDomainError(ValueError):
    """Point outside the admissible coordinate box."""


class SingularMetricError(ValueError):
    """Metric not invertible at a stencil point."""


def metric_from_frame(eta: IdStructure) -> np.ndarray:
    """The 5x5 metric dt (x) dt + sum eta^i (x) eta^i over (e1..e4, dt)."""
    E = eta.matrix
    g = np.zeros((5, 5))
    g[:4, :4] = E.T @ E
    g[4, 4] = 1.0
    return g


def _profile(A, y, one=1.0):
    """wq(y) in the arithmetic of ``one``, ``A`` and ``y``."""
    return 2.0 * (108.0 * A + one - 3.0 * y * y + 2.0 * y**3) / (one - y)


def wq(A: float, y: float) -> float:
    """The radial profile function of the coordinate chart; y = 1 is a pole."""
    if y == 1:
        raise ZeroDivisionError("wq has a pole at y = 1")
    return _profile(A, y)


def _chart_components(A, theta, y, dtype=float) -> np.ndarray:
    one = dtype(1.0)
    A, theta, y = dtype(A), np.asarray(theta, dtype=dtype), np.asarray(y, dtype=dtype)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    w = _profile(A, y, one)
    g = np.zeros(y.shape + (5, 5), dtype=dtype)
    g[..., 0, 0] = (one - y) / 6.0
    g[..., 1, 1] = (one - y) / 6.0 * sin_t**2 + (w / 36.0) * cos_t**2 + (y - one) ** 2 * cos_t**2 / 9.0
    g[..., 2, 2] = one / w
    g[..., 3, 3] = w / 36.0 + y * y / 9.0
    g[..., 4, 4] = one / 9.0
    g[..., 1, 3] = g[..., 3, 1] = (w / 36.0) * cos_t + y * (y - one) * cos_t / 9.0
    g[..., 1, 4] = g[..., 4, 1] = (y - one) * cos_t / 9.0
    g[..., 3, 4] = g[..., 4, 3] = y / 9.0
    return g


@dataclass(frozen=True)
class CoordinateChart:
    """A metric chart: a stacked point -> matrix map plus its admissible box.

    ``metric(points, dtype=float)`` maps coordinates of shape (..., 5)
    to metrics of shape (..., 5, 5).  ``box`` holds per-coordinate open
    intervals, or None for periodic / unconstrained coordinates.
    ``cyclic`` holds the indices of the coordinates the metric does not
    depend on: the finite differences take their derivatives as exactly
    zero instead of stenciling them.
    """

    name: str
    coords: tuple
    metric: Callable
    box: tuple
    cyclic: tuple = ()

    def contains(self, point: Sequence[float], margin: float = 0.0) -> bool:
        """Whether the point lies further than ``margin`` inside the box;
        a point without one coordinate per chart coordinate raises
        ValueError."""
        if len(point) != len(self.coords):
            raise ValueError(f"point {tuple(point)} has {len(point)} coordinates; the chart has {len(self.coords)}")
        for x, bounds in zip(point, self.box):
            if bounds is None:
                continue
            lo, hi = bounds
            if not (lo + margin < x < hi - margin):
                return False
        return True


def ypq_chart(A: float) -> CoordinateChart:
    """Chart record for the explicit metric at level A.

    y = 1 - 6 Delta ranges over the open interval between the turning
    values; A outside (-1/108, 0] has no such band.  The metric does not
    involve C: it is absorbed into the beta coordinate.
    """
    if A == 0:
        lo_delta, hi_delta = 0.0, 0.25
    else:
        positive = [r for r, _ in moduli.cubic_roots(float(A)) if r > 0]
        if len(positive) != 2:
            raise ChartDomainError(f"A={A} is outside (-1/108, 0]: no band between turning values")
        lo_delta, hi_delta = positive

    def metric(points, dtype=float):
        x = np.asarray(points, dtype=dtype)
        return _chart_components(A, x[..., 0], x[..., 2], dtype=dtype)

    return CoordinateChart(
        name="ypq",
        coords=("theta", "phi", "y", "beta", "psi"),
        metric=metric,
        box=((0.0, math.pi), None, (1.0 - 6.0 * hi_delta, 1.0 - 6.0 * lo_delta), None, None),
        cyclic=(1, 3, 4),
    )


# ---------------------------------------------------------------------------
# finite differences
#
# Every array below carries the sample points on its leading axis, so
# the metric jets of a batch come from one metric call.

_OFFSETS = (-2, -1, 1, 2)  # stencil points, in steps of h
_FIRST = (1.0, -8.0, 8.0, -1.0)  # d f /(12 h), fourth order
_SECOND = (-1.0, 16.0, 16.0, -1.0)  # d^2 f on f - f0, /(12 h^2), fourth order

# sample points per batch: the arrays of a batch take about 0.07 MB a
# point, so they stay near 2.5 MB however many points are asked for
_BLOCK = 32


def _inv(mat: np.ndarray) -> np.ndarray:
    """Extended-precision inverse of each matrix of a stack: double-precision
    seed plus Newton refinement (LAPACK has no extended-precision path)."""
    seed = np.linalg.inv(np.asarray(mat, dtype=float))
    x = np.asarray(seed, dtype=mat.dtype)
    for _ in range(2):
        x = x @ (2.0 * np.eye(mat.shape[-1], dtype=mat.dtype) - mat @ x)
    return x


def _weighted(weights, fs):
    """sum_j weights[j] fs[j], summed in stencil order."""
    acc = 0.0
    for weight, f in zip(weights, fs):
        acc = acc + weight * f
    return acc


def _jets(chart: CoordinateChart, x: np.ndarray, h) -> tuple:
    """The metric g (N, n, n) at the rows of x (N, n) and its derivatives
    dg[., l, i, j] = d_l g_ij and ddg[., m, l, i, j] = d_m d_l g_ij, from
    one metric call on the rows, 4 points along each non-cyclic coordinate
    and a 4 x 4 grid across each pair of them.  The second and mixed
    differences act on f - f0 and f_ab - f_a - f_b + f0, which vanish
    exactly along a coordinate the metric ignores."""
    N, n = x.shape
    varying = [k for k in range(n) if k not in chart.cyclic]
    pairs = list(combinations(enumerate(varying), 2))
    e = np.eye(n)
    shifts = [np.zeros(n)] + [o * e[k] for k in varying for o in _OFFSETS]
    shifts += [a * e[k] + b * e[l] for (_, k), (_, l) in pairs for a in _OFFSETS for b in _OFFSETS]
    xs = x + np.array(shifts, dtype=_REAL)[:, None] * h
    fs = np.asarray(chart.metric(xs, dtype=_REAL), dtype=_REAL)
    singular = np.flatnonzero(np.abs(np.linalg.det(np.asarray(fs, dtype=float))) < 1e-300)
    if singular.size:
        row = xs.reshape(-1, n)[singular[0]]
        raise SingularMetricError(f"metric singular at {tuple(float(v) for v in row)}")

    g, f_axes = fs[0], fs[1:1 + 4 * len(varying)].reshape(len(varying), 4, N, n, n)
    dg = np.zeros((N, n, n, n), dtype=_REAL)
    ddg = np.zeros((N, n, n, n, n), dtype=_REAL)
    for v, k in enumerate(varying):
        dg[:, k] = _weighted(_FIRST, f_axes[v]) / (12.0 * h)
        ddg[:, k, k] = _weighted(_SECOND, f_axes[v] - g) / (12.0 * h * h)
    for ((u, k), (v, l)), f_kl in zip(pairs, fs[1 + 4 * len(varying):].reshape(len(pairs), 4, 4, N, n, n)):
        cross = f_kl - f_axes[u][:, None] - f_axes[v][None, :] + g
        ddg[:, k, l] = ddg[:, l, k] = _weighted(_FIRST, [_weighted(_FIRST, c) for c in cross]) / (144.0 * h * h)
    return g, dg, ddg


@dataclass(frozen=True)
class CurvatureReport:
    """Pointwise curvature check against the Einstein normalization."""

    point: tuple
    ricci: np.ndarray
    einstein_residual: float
    sectional_spread: float
    sectional_values: tuple
    fd_step: float

    def to_json_dict(self) -> dict:
        return {
            "point": list(self.point),
            "ricci": np.asarray(self.ricci, dtype=float).tolist(),
            "einstein_residual": self.einstein_residual,
            "sectional_spread": self.sectional_spread,
            "sectional_values": list(self.sectional_values),
            "fd_step": self.fd_step,
        }


def ricci_fd_many(chart: CoordinateChart, points: Sequence, fd_step: float = 1e-3) -> list:
    """Ricci tensor from the metric jets at each point, and the relative
    Frobenius residual of Ric - lambda g with lambda = 4.

    Every point has one coordinate per chart coordinate and must sit
    further than 2 fd_step from the box boundary, so that every stencil
    point is admissible.  Points are handled in batches of ``_BLOCK``; a
    point's report does not depend on the others.
    """
    if not fd_step > 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    for point in points:
        if not chart.contains(point, margin=2.0 * fd_step):
            raise ChartDomainError(f"point {point} within 2 fd_step of the chart boundary")
    reports = []
    for start in range(0, len(points), _BLOCK):
        reports += _ricci_block(chart, points[start:start + _BLOCK], fd_step)
    return reports


def _ricci_block(chart: CoordinateChart, points: Sequence, fd_step: float) -> list:
    x = np.asarray(points, dtype=_REAL)
    n = x.shape[1]
    g, dg, ddg = _jets(chart, x, _REAL(fd_step))

    # Gamma^k_ij = 1/2 g^kl S_ijl with S_ijl = d_i g_jl + d_j g_il - d_l g_ij,
    # d_m Gamma^k_ij = 1/2 (d_m g^kl S_ijl + g^kl d_m S_ijl), d_m g^-1 = -g^-1 d_m g g^-1
    ginv = _inv(g)
    sym = dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)
    dsym = ddg + ddg.transpose(0, 1, 3, 2, 4) - ddg.transpose(0, 1, 3, 4, 2)
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    gamma0 = 0.5 * np.einsum("Pkl,Pijl->Pkij", ginv, sym)
    # dgamma[., m, r, i, j] = d_m G^r_ij
    dgamma = 0.5 * (np.einsum("Pmkl,Pijl->Pmkij", dginv, sym) + np.einsum("Pkl,Pmijl->Pmkij", ginv, dsym))

    # Riemann R^r_{s m n} = d_m G^r_{n s} - d_n G^r_{m s} + G^r_{m l} G^l_{n s} - G^r_{n l} G^l_{m s}
    riemann = (
        np.einsum("Pmrns->Prsmn", dgamma)
        - np.einsum("Pnrms->Prsmn", dgamma)
        + np.einsum("Prml,Plns->Prsmn", gamma0, gamma0)
        - np.einsum("Prnl,Plms->Prsmn", gamma0, gamma0)
    )
    ricci = np.einsum("Prsrn->Psn", riemann)

    # the Frobenius norms point by point, one np.linalg.norm call each
    diff = np.asarray(ricci - _REAL(EINSTEIN_CONSTANT) * g, dtype=float)
    gf = np.asarray(g, dtype=float)
    residuals = [float(np.linalg.norm(d) / np.linalg.norm(q)) for d, q in zip(diff, gf)]

    riem_low = np.einsum("Prl,Plsmn->Prsmn", g, riemann)
    i, j = np.array(list(combinations(range(n), 2))).T
    numer = riem_low[:, i, j, i, j]
    denom = g[:, i, i] * g[:, j, j] - g[:, i, j] ** 2
    sectionals = np.asarray(numer / denom, dtype=float)
    spreads = sectionals.max(axis=1) - sectionals.min(axis=1)

    return [
        CurvatureReport(
            point=tuple(float(p) for p in point),
            ricci=ricci_k,
            einstein_residual=residual,
            sectional_spread=spread,
            sectional_values=tuple(values),
            fd_step=float(fd_step),
        )
        for point, ricci_k, residual, spread, values in zip(
            points, np.asarray(ricci, dtype=float), residuals, spreads.tolist(), sectionals.tolist()
        )
    ]


def sample_interior_points(chart: CoordinateChart, count: int, seed: int = 0) -> list:
    """Deterministic interior sample, shrinking each bounded interval by
    the relative margin SAMPLE_MARGIN."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        coords = []
        for bounds in chart.box:
            if bounds is None:
                coords.append(float(rng.uniform(0.0, 2.0 * math.pi)))
            else:
                lo, hi = bounds
                pad = SAMPLE_MARGIN * (hi - lo)
                coords.append(float(rng.uniform(lo + pad, hi - pad)))
        points.append(tuple(coords))
    return points


# ---------------------------------------------------------------------------
# frame / chart consistency


def case_ii_frame_metric_in_chart(A: float, C: float, point: Sequence[float]) -> np.ndarray:
    """The invariant-frame metric of the conformal family pushed through
    the coordinate change to the chart coordinates (m = 0, C != 0).

    The group coordinates are Euler angles (theta, psi, phi), the circle
    coordinate is alpha with beta = -psi + C alpha, and y = 1 - 6 h^2;
    the frame covectors are expressed in the chart differentials and the
    frame metric is pulled back.
    """
    if C == 0:
        raise ValueError("the beta coordinate requires C != 0")
    from esasaki.evolution import CaseIIState

    theta, phi, y, beta, psi = (float(p) for p in point)
    delta = (1.0 - y) / 6.0
    radicand = A + delta**2 - 4.0 * delta**3
    if delta <= 0 or radicand <= 0:
        raise ChartDomainError(f"y={y} is not strictly between the turning values")
    h = math.sqrt(delta)
    a = math.sqrt(radicand) / h
    frame = metric_from_frame(CaseIIState(h, a, C, 0).to_id_structure())

    # rows: e1..e4, dt over (dtheta, dphi, dy, dbeta, dpsi)
    J = np.zeros((5, 5))
    J[0] = [0.0, math.cos(theta), 0.0, 0.0, -1.0]
    J[1] = [math.cos(psi), -math.sin(psi) * math.sin(theta), 0.0, 0.0, 0.0]
    J[2] = [math.sin(psi), math.cos(psi) * math.sin(theta), 0.0, 0.0, 0.0]
    J[3] = [0.0, 0.0, 0.0, 1.0 / C, 1.0 / C]
    J[4] = [0.0, 0.0, -1.0 / (6.0 * a), 0.0, 0.0]
    return J.T @ frame @ J
