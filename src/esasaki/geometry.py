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

Curvature is verified numerically: Christoffel symbols by fourth-order
central differences of the metric, Ricci by central differences of the
Christoffels.  Two derivative levels cost roughly eight digits, so the
stencils run in extended precision and the Einstein constant lambda = 4
(the unit-sphere normalization, under which the A = 0 chart is the round
five-sphere with Ric = 4 g) is resolved with margin to spare.

A chart may declare cyclic coordinates, the ones its metric does not
depend on (phi, beta and psi for the chart above).  Derivatives along a
declared coordinate are taken as exactly zero and never stenciled, so a
point of that chart costs 82 metric evaluations instead of 442.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "ypq_chart_metric",
    "ypq_chart",
    "flat_torus_chart",
    "christoffel_fd",
    "ricci_fd",
    "case_ii_frame_metric_in_chart",
    "sample_interior_points",
]

EINSTEIN_CONSTANT = 4.0

_REAL = np.longdouble


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


def wq(A: float, y: float) -> float:
    """The radial profile function of the coordinate chart; y = 1 is a pole."""
    if y == 1:
        raise ZeroDivisionError("wq has a pole at y = 1")
    return 2.0 * (108.0 * A + 1.0 - 3.0 * y * y + 2.0 * y**3) / (1.0 - y)


def ypq_chart_metric(A: float, C: float, point: Sequence[float]) -> np.ndarray:
    """Chart metric at (theta, phi, y, beta, psi); errors outside the box.

    A one-off evaluation through :func:`ypq_chart`, which solves the
    turning cubic: loops should build the chart once and call its metric.
    The components do not involve C (it is absorbed into the beta
    coordinate); C is kept in the signature as part of the chart data.
    """
    chart = ypq_chart(A, C)
    if not chart.contains(point):
        raise ChartDomainError(f"point {tuple(point)} outside the chart box {chart.box}")
    return chart.metric(point)


def _chart_components(A, theta, y, dtype=float) -> np.ndarray:
    one = dtype(1.0)
    A, theta, y = dtype(A), dtype(theta), dtype(y)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    w = 2.0 * (108.0 * A + one - 3.0 * y * y + 2.0 * y**3) / (one - y)
    g = np.zeros((5, 5), dtype=dtype)
    g[0, 0] = (one - y) / 6.0
    g[1, 1] = (one - y) / 6.0 * sin_t**2 + (w / 36.0) * cos_t**2 + (y - one) ** 2 * cos_t**2 / 9.0
    g[2, 2] = one / w
    g[3, 3] = w / 36.0 + y * y / 9.0
    g[4, 4] = one / 9.0
    g[1, 3] = g[3, 1] = (w / 36.0) * cos_t + y * (y - one) * cos_t / 9.0
    g[1, 4] = g[4, 1] = (y - one) * cos_t / 9.0
    g[3, 4] = g[4, 3] = y / 9.0
    return g


@dataclass(frozen=True)
class CoordinateChart:
    """A metric chart: a point -> 5x5 matrix map plus its admissible box.

    ``box`` holds per-coordinate open intervals, or None for periodic /
    unconstrained coordinates.  ``cyclic`` holds the indices of the
    coordinates the metric does not depend on: the finite differences
    take their derivatives as exactly zero instead of stenciling them.
    """

    name: str
    coords: tuple
    metric: Callable
    box: tuple
    params: dict = field(default_factory=dict)
    cyclic: tuple = ()

    def contains(self, point: Sequence[float], margin: float = 0.0) -> bool:
        for x, bounds in zip(point, self.box):
            if bounds is None:
                continue
            lo, hi = bounds
            if not (lo + margin < x < hi - margin):
                return False
        return True


def ypq_chart(A: float, C: float = 0.0) -> CoordinateChart:
    """Chart record for the explicit metric with parameters (A, C).

    y = 1 - 6 Delta ranges over the open interval between the turning
    values; A outside (-1/108, 0] has no such band.
    """
    if A == 0:
        lo_delta, hi_delta = 0.0, 0.25
    else:
        positive = [r for r, _ in moduli.cubic_roots(float(A)) if r > 0]
        if len(positive) != 2:
            raise ChartDomainError(f"A={A} is outside (-1/108, 0]: no band between turning values")
        lo_delta, hi_delta = positive

    def metric(point, dtype=float):
        theta, phi, y, beta, psi = (dtype(p) for p in point)
        return _chart_components(A, theta, y, dtype=dtype)

    return CoordinateChart(
        name="ypq",
        coords=("theta", "phi", "y", "beta", "psi"),
        metric=metric,
        box=((0.0, math.pi), None, (1.0 - 6.0 * hi_delta, 1.0 - 6.0 * lo_delta), None, None),
        params={"A": float(A), "C": float(C)},
        cyclic=(1, 3, 4),
    )


def flat_torus_chart(radii: Sequence[float] = (1.0, 1.0, 1.0, 1.0, 1.0)) -> CoordinateChart:
    """Diagnostic flat metric (constant diagonal); Ricci must vanish."""
    diag = [float(r) ** 2 for r in radii]

    def metric(point, dtype=float):
        return np.diag(np.array(diag, dtype=dtype))

    return CoordinateChart(
        name="flat_torus",
        coords=("x1", "x2", "x3", "x4", "x5"),
        metric=metric,
        box=(None, None, None, None, None),
        params={"radii": list(radii)},
    )


# ---------------------------------------------------------------------------
# finite differences

_STENCIL = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))  # /(12 h), fourth order


def _metric_at(chart: CoordinateChart, x: np.ndarray, dtype) -> np.ndarray:
    try:
        return np.asarray(chart.metric(x, dtype=dtype), dtype=dtype)
    except TypeError:
        return np.asarray(chart.metric(x), dtype=dtype)


def _inv(mat: np.ndarray) -> np.ndarray:
    """Extended-precision inverse: double-precision seed plus one Newton
    refinement step (LAPACK has no extended-precision path)."""
    seed = np.linalg.inv(np.asarray(mat, dtype=float))
    x = np.asarray(seed, dtype=mat.dtype)
    for _ in range(2):
        x = x @ (2.0 * np.eye(mat.shape[0], dtype=mat.dtype) - mat @ x)
    return x


def _derivative(f: Callable, x: np.ndarray, k: int, h) -> np.ndarray:
    """Fourth-order central difference of f along coordinate k."""
    acc = 0.0
    for offset, weight in _STENCIL:
        xs = x.copy()
        xs[k] = xs[k] + offset * h
        acc = acc + weight * f(xs)
    return acc / (12.0 * h)


def _varying(chart: CoordinateChart, n: int) -> list:
    return [k for k in range(n) if k not in chart.cyclic]


def christoffel_fd(chart: CoordinateChart, point: Sequence[float], fd_step: float, dtype=_REAL) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij by fourth-order central differences."""
    x = np.asarray(point, dtype=dtype)
    return _christoffel(chart, x, _metric_at(chart, x, dtype), fd_step, dtype)


def _christoffel(chart: CoordinateChart, x: np.ndarray, g: np.ndarray, fd_step: float, dtype) -> np.ndarray:
    """:func:`christoffel_fd` at x, given the metric g there."""
    n = len(x)
    if abs(float(np.linalg.det(np.asarray(g, dtype=float)))) < 1e-300:
        raise SingularMetricError(f"metric singular at {tuple(float(v) for v in x)}")
    dg = np.zeros((n, n, n), dtype=dtype)  # dg[l, i, j] = d_l g_ij
    for k in _varying(chart, n):
        dg[k] = _derivative(lambda xs: _metric_at(chart, xs, dtype), x, k, dtype(fd_step))
    # Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)
    return 0.5 * np.einsum("kl,ijl->kij", _inv(g), dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))


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


def ricci_fd(chart: CoordinateChart, point: Sequence[float], fd_step: float = 1e-3, dtype=_REAL) -> CurvatureReport:
    """Ricci tensor by nested central differences, and the relative
    Frobenius residual of Ric - lambda g with lambda = 4.

    The point must sit further than 2 fd_step from the box boundary so
    that every stencil point is admissible.
    """
    if not fd_step > 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    if not chart.contains(point, margin=2.0 * fd_step):
        raise ChartDomainError(f"point {point} within 2 fd_step of the chart boundary")
    x = np.asarray(point, dtype=dtype)
    n = len(x)

    g = _metric_at(chart, x, dtype)
    gamma0 = _christoffel(chart, x, g, fd_step, dtype)
    dgamma = np.zeros((n, n, n, n), dtype=dtype)
    for k in _varying(chart, n):
        dgamma[k] = _derivative(lambda xs: christoffel_fd(chart, xs, fd_step, dtype), x, k, dtype(fd_step))

    # Riemann R^r_{s m n} = d_m G^r_{n s} - d_n G^r_{m s} + G^r_{m l} G^l_{n s} - G^r_{n l} G^l_{m s}
    riemann = (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma0, gamma0)
        - np.einsum("rnl,lms->rsmn", gamma0, gamma0)
    )
    ricci = np.einsum("rsrn->sn", riemann)

    target = dtype(EINSTEIN_CONSTANT) * g
    residual = float(np.linalg.norm(np.asarray(ricci - target, dtype=float)) / np.linalg.norm(np.asarray(g, dtype=float)))

    riem_low = np.einsum("rl,lsmn->rsmn", g, riemann)
    sectionals = []
    for i, j in combinations(range(n), 2):
        numer = riem_low[i, j, i, j]
        denom = g[i, i] * g[j, j] - g[i, j] ** 2
        sectionals.append(float(numer / denom))
    spread = max(sectionals) - min(sectionals)

    return CurvatureReport(
        point=tuple(float(p) for p in point),
        ricci=np.asarray(ricci, dtype=float),
        einstein_residual=residual,
        sectional_spread=spread,
        sectional_values=tuple(sectionals),
        fd_step=float(fd_step),
    )


def sample_interior_points(chart: CoordinateChart, count: int, seed: int = 0, margin: float = 0.1) -> list:
    """Deterministic interior sample, shrinking each bounded interval by
    the given relative margin."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        coords = []
        for bounds in chart.box:
            if bounds is None:
                coords.append(float(rng.uniform(0.0, 2.0 * math.pi)))
            else:
                lo, hi = bounds
                pad = margin * (hi - lo)
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
