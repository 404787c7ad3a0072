import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esasaki.evolution import CaseIIState
from esasaki.geometry import (
    _BLOCK,
    EINSTEIN_CONSTANT,
    ChartDomainError,
    CoordinateChart,
    case_ii_frame_metric_in_chart,
    metric_from_frame,
    ricci_fd_many,
    sample_interior_points,
    wq,
    ypq_chart,
)
from esasaki.structures import IdStructure
from nested_ricci_oracle import nested_ricci

A_EX = -9 / 2197
S6 = 1.0 / math.sqrt(6.0)


@pytest.fixture
def flat_torus() -> CoordinateChart:
    """A flat metric with constant diagonal radii^2; its Ricci tensor vanishes."""
    diag = [r**2 for r in (1.0, 0.7, 1.3, 2.0, 0.4)]

    def metric(points, dtype=float):
        shape = np.shape(points)[:-1]
        return np.broadcast_to(np.diag(np.array(diag, dtype=dtype)), shape + (5, 5)).copy()

    return CoordinateChart(name="flat_torus", coords=("x1", "x2", "x3", "x4", "x5"), metric=metric,
                           box=(None, None, None, None, None))


# ---------------------------------------------------------------------------
# wq


def test_wq_values():
    assert wq(0.0, 0.0) == pytest.approx(2.0)
    assert wq(A_EX, 1 - 6 / 13) == pytest.approx(0.0, abs=1e-14)
    assert wq(A_EX, 1 - 18 / 13) == pytest.approx(0.0, abs=1e-14)


def test_wq_factored_form_at_zero_level():
    # 2 y^3 - 3 y^2 + 1 = (y-1)^2 (2y+1), so wq = 2 (1-y)(1+2y) at A = 0
    for y in np.linspace(-0.4, 0.9, 17):
        assert wq(0.0, float(y)) == pytest.approx(2 * (1 - y) * (1 + 2 * y), abs=1e-12)
    assert wq(0.0, -0.5) == pytest.approx(0.0, abs=1e-15)


def test_wq_pole():
    with pytest.raises(ZeroDivisionError):
        wq(0.0, 1.0)


# ---------------------------------------------------------------------------
# chart metric


def test_chart_point_values():
    g = ypq_chart(0.0).metric((math.pi / 2, 0.0, 0.0, 0.0, 0.0))
    assert np.diag(g) == pytest.approx([1 / 6, 1 / 6, 1 / 2, 1 / 18, 1 / 9])
    assert g[3, 4] == pytest.approx(0.0)  # beta-psi coupling vanishes at y = 0


def test_chart_metric_symmetric_positive_definite():
    rng = np.random.default_rng(1)
    chart = ypq_chart(A_EX)
    for p in sample_interior_points(chart, 10, seed=3):
        g = chart.metric(p)
        assert np.allclose(g, g.T)
        assert np.linalg.eigvalsh(g).min() > 0


def test_chart_degenerates_at_y_endpoints():
    # the profile direction collapses: the smallest eigenvalue tends to 0
    # at both endpoints, and for A = 0 the volume itself vanishes at the
    # round end y -> 1 (elsewhere the determinant limit is positive)
    theta = 1.1
    for A, y_end in ((A_EX, 1 - 18 / 13), (A_EX, 1 - 6 / 13), (0.0, -0.5)):
        eigs = []
        for eps in (1e-2, 1e-3, 1e-4):
            y = y_end + eps if y_end < 0.5 else y_end - eps
            g = ypq_chart(A).metric((theta, 0.0, y, 0.0, 0.0))
            eigs.append(np.linalg.eigvalsh(g).min())
        assert eigs[2] < eigs[0]
        assert eigs[2] < 1e-3
    dets = [
        np.linalg.det(ypq_chart(0.0).metric((theta, 0.0, 1.0 - eps, 0.0, 0.0)))
        for eps in (1e-2, 1e-3, 1e-4)
    ]
    assert dets[2] < dets[1] < dets[0]
    assert dets[2] < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    A=st.floats(min_value=-1 / 108, max_value=0.0, exclude_min=True),
    theta=st.floats(min_value=0.0, max_value=math.pi, exclude_min=True, exclude_max=True),
    u=st.floats(min_value=0.01, max_value=0.99),
    angles=st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=5, max_size=5),
    shifts=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=5, max_size=5),
)
def test_ypq_metric_ignores_its_cyclic_coordinates(A, theta, u, angles, shifts):
    # the curvature stencils skip the declared coordinates, so shifting
    # any of them must leave the metric bitwise unchanged
    chart = ypq_chart(A)
    assert [chart.coords[k] for k in chart.cyclic] == ["phi", "beta", "psi"]
    lo, hi = chart.box[2]
    point = list(angles)
    point[0], point[2] = theta, lo + u * (hi - lo)
    moved = [x + shifts[k] if k in chart.cyclic else x for k, x in enumerate(point)]
    for dtype in (float, np.longdouble):
        g = chart.metric(point, dtype=dtype)
        assert np.array_equal(chart.metric(moved, dtype=dtype), g)


def test_chart_domain_errors():
    chart = ypq_chart(A_EX)
    for point in ((0.0, 0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.9, 0.0, 0.0)):  # theta = 0, y too large
        assert not chart.contains(point)
        with pytest.raises(ChartDomainError):
            ricci_fd_many(chart, [point], 1e-3)
    with pytest.raises(ChartDomainError):
        ypq_chart(-0.02)  # A below the admissible interval


# ---------------------------------------------------------------------------
# frame metric


def test_metric_from_frame_identity():
    ident = IdStructure(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert np.allclose(metric_from_frame(ident), np.eye(5))


def test_metric_from_frame_homogeneous():
    hom = IdStructure(((1 / 3, 0, 0, 1), (0, 0, 0, 1), (0, S6, 0, 0), (0, 0, S6, 0)))
    g = metric_from_frame(hom)
    assert g[0, 0] == pytest.approx(1 / 9)
    assert g[0, 3] == pytest.approx(1 / 3)  # (1/3) * 1 cross term
    assert g[1, 1] == pytest.approx(1 / 6)
    assert g[2, 2] == pytest.approx(1 / 6)
    assert g[3, 3] == pytest.approx(2.0)
    assert g[4, 4] == pytest.approx(1.0)


def test_metric_from_frame_case_ii_block_expression():
    h, a, C, m = 0.35, 0.22, 6.0, 2
    g = metric_from_frame(CaseIIState(h, a, C, m).to_id_structure())
    delta, dprime = h * h, a
    mu4 = 2 * C * delta - (C + m) / 3
    assert g[0, 0] == pytest.approx(4 * delta**2 + dprime**2)
    assert g[3, 3] == pytest.approx(mu4**2 + (C * dprime) ** 2)
    assert g[0, 3] == pytest.approx(C * dprime**2 + 2 * delta * mu4)
    assert g[1, 1] == pytest.approx(h * h)  # h^2 + c^2 with c = 0
    assert g[2, 2] == pytest.approx(h * h)  # k^2 + b^2 with b = 0, k = h
    assert g[1, 2] == pytest.approx(0.0)  # hb + ck
    assert g[4, 4] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# curvature


def test_flat_torus_ricci_vanishes(flat_torus):
    rep = ricci_fd_many(flat_torus, [(0.1, 0.2, 0.3, 0.4, 0.5)], 1e-3)[0]
    assert np.abs(rep.ricci).max() < 1e-8


def test_sphere_chart_is_einstein_and_constant_curvature():
    chart = ypq_chart(0.0)
    rep = ricci_fd_many(chart, [(1.3, 0.7, 0.1, 0.4, 0.9)], 1e-3)[0]
    assert rep.einstein_residual < 1e-4
    assert rep.sectional_spread < 1e-3
    assert np.mean(rep.sectional_values) == pytest.approx(1.0, abs=1e-6)


def test_ypq_chart_is_einstein_at_random_points():
    chart = ypq_chart(A_EX)
    for p in sample_interior_points(chart, 10, seed=7):
        rep = ricci_fd_many(chart, [p], 1e-3)[0]
        assert rep.einstein_residual < 1e-4


def test_ricci_symmetry_within_tolerance():
    chart = ypq_chart(A_EX)
    rep = ricci_fd_many(chart, [(1.2, 0.5, 0.05, 0.3, 0.8)], 1e-3)[0]
    asym = np.abs(rep.ricci - rep.ricci.T).max()
    assert asym <= 10 * max(rep.einstein_residual, 1e-12)


def test_convergence_order_on_halving():
    chart = ypq_chart(A_EX)
    point = (1.2, 0.5, 0.05, 0.3, 0.8)
    res_coarse = ricci_fd_many(chart, [point], 2e-3)[0].einstein_residual
    res_fine = ricci_fd_many(chart, [point], 1e-3)[0].einstein_residual
    assert res_coarse / res_fine > 8.0


@pytest.mark.parametrize("A", [0.0, A_EX, -0.008])
def test_skipping_cyclic_stencils_matches_the_full_stencil(A):
    chart = ypq_chart(A)
    full = dataclasses.replace(chart, cyclic=())
    for p in sample_interior_points(chart, 5, seed=13):
        skipped, stenciled = ricci_fd_many(chart, [p])[0], ricci_fd_many(full, [p])[0]
        assert np.abs(skipped.ricci - stenciled.ricci).max() < 1e-10
        assert abs(skipped.einstein_residual - stenciled.einstein_residual) < 1e-10


def test_metric_evaluations_per_point():
    chart = ypq_chart(A_EX)
    rows = []

    def counted(points, dtype=float):
        rows.append(np.prod(np.shape(points)[:-1], dtype=int))
        return chart.metric(points, dtype=dtype)

    # the centre, 4 points along each stenciled coordinate and 4 x 4
    # across each pair of them: 1 + 4 * 2 + 16 for (theta, y), 1 + 4 * 5
    # + 16 * 10 for all five coordinates
    point = (1.2, 0.5, 0.05, 0.3, 0.8)
    for cyclic, expected in (((1, 3, 4), 25), ((), 181)):
        for npoints in (1, 3):
            rows.clear()
            ricci_fd_many(dataclasses.replace(chart, metric=counted, cyclic=cyclic), [point] * npoints)
            assert sum(rows) == npoints * expected
            assert len(rows) == 1  # one metric call a batch


@pytest.mark.parametrize("A", [0.0, A_EX, -0.008])
@pytest.mark.parametrize("cyclic", [True, False])
def test_jets_agree_with_the_nested_stencil_to_fourth_order(A, cyclic):
    # the nested scheme the jets replaced (Christoffels from the metric,
    # Ricci from the Christoffels) as an oracle: two fourth-order schemes
    # differ by O(h^4), so at verify's default step they agree within
    # criterion 4's tolerance and their distance shrinks about 16-fold
    # on halving
    chart = ypq_chart(A)
    if not cyclic:
        chart = dataclasses.replace(chart, cyclic=())
    lo, hi = chart.box[2]
    fd_step = min(1e-3, (hi - lo) / 400.0)
    points = sample_interior_points(chart, 5, seed=13)
    scale = [np.linalg.norm(chart.metric(p)) for p in points]

    def distance(h):
        jets = [rep.ricci for rep in ricci_fd_many(chart, points, h)]
        nested = np.asarray(nested_ricci(chart, points, h), dtype=float)
        return max(np.linalg.norm(a - b) / s for a, b, s in zip(jets, nested, scale))

    coarse, fine = distance(fd_step), distance(fd_step / 2.0)
    assert coarse <= 1e-4
    assert coarse / fine > 8.0


def test_chart_metrics_take_stacked_points(flat_torus):
    rng = np.random.default_rng(4)
    for chart in (ypq_chart(A_EX), flat_torus):
        points = np.array(sample_interior_points(chart, 6, seed=2)).reshape(2, 3, 5)
        for dtype in (float, np.longdouble):
            stacked = chart.metric(points, dtype=dtype)
            assert stacked.shape == (2, 3, 5, 5) and stacked.dtype == np.dtype(dtype)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(stacked[idx], chart.metric(points[idx], dtype=dtype))


@settings(max_examples=12, deadline=None)
@given(
    A=st.one_of(st.just(0.0), st.floats(min_value=-1 / 108, max_value=0.0, exclude_min=True)),
    cyclic=st.booleans(),
    seed=st.integers(0, 2**16),
    count=st.integers(_BLOCK + 1, 2 * _BLOCK + 3),
    repeats=st.lists(st.integers(0, _BLOCK), min_size=1, max_size=4),
)
def test_ricci_fd_many_equals_ricci_fd_bit_for_bit(A, cyclic, seed, count, repeats):
    # batching and blocking change no bit of any report, duplicates and
    # block boundaries included
    chart = ypq_chart(A)
    if not cyclic:
        chart = dataclasses.replace(chart, cyclic=())
    lo, hi = chart.box[2]
    fd_step = min(1e-3, (hi - lo) / 400.0)  # verify's default step
    points = sample_interior_points(chart, count, seed=seed)
    points += [points[r] for r in repeats]
    many = ricci_fd_many(chart, points, fd_step)
    assert len(many) == len(points)
    for point, rep in zip(points, many):
        one = ricci_fd_many(chart, [point], fd_step)[0]
        assert rep.point == one.point
        assert rep.ricci.tobytes() == one.ricci.tobytes()
        assert repr(rep.einstein_residual) == repr(one.einstein_residual)
        assert repr(rep.sectional_values) == repr(one.sectional_values)
        assert repr(rep.sectional_spread) == repr(one.sectional_spread)


def _pointwise_ricci(chart, point, h):
    """Reference: the jets one stencil point at a time, in the arithmetic
    order of the batched code (longdouble, stencil sums from 0.0 in
    offset order)."""
    L = np.longdouble
    offsets, first, second = (-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), (-1.0, 16.0, 16.0, -1.0)
    varying = [k for k in range(5) if k not in chart.cyclic]
    h = L(h)

    def weighted(weights, fs):
        acc = 0.0
        for w, f in zip(weights, fs):
            acc = acc + w * f
        return acc

    def metric(x, shifts):
        xs = x.copy()
        for k, offset in shifts:
            xs[k] = xs[k] + offset * h
        return chart.metric(xs, dtype=L)

    x = np.asarray(point, dtype=L)
    g = chart.metric(x, dtype=L)
    dg = np.zeros((5, 5, 5), dtype=L)
    ddg = np.zeros((5, 5, 5, 5), dtype=L)
    for k in varying:
        fs = [metric(x, [(k, o)]) for o in offsets]
        dg[k] = weighted(first, fs) / (12.0 * h)
        ddg[k, k] = weighted(second, [f - g for f in fs]) / (12.0 * h * h)
    for a, k in enumerate(varying):
        for l in varying[a + 1:]:
            mixed = [
                [metric(x, [(k, o), (l, q)]) - metric(x, [(k, o)]) - metric(x, [(l, q)]) + g for q in offsets]
                for o in offsets
            ]
            ddg[k, l] = ddg[l, k] = weighted(first, [weighted(first, row) for row in mixed]) / (144.0 * h * h)

    ginv = np.asarray(np.linalg.inv(np.asarray(g, dtype=float)), dtype=L)
    for _ in range(2):
        ginv = ginv @ (2.0 * np.eye(5, dtype=L) - g @ ginv)
    sym = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    dsym = ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1)
    dginv = np.array([-(ginv @ dg[m] @ ginv) for m in range(5)])
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, sym)
    dgamma = 0.5 * (np.einsum("mkl,ijl->mkij", dginv, sym) + np.einsum("kl,mijl->mkij", ginv, dsym))
    riemann = (
        np.einsum("mrns->rsmn", dgamma) - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma, gamma) - np.einsum("rnl,lms->rsmn", gamma, gamma)
    )
    ricci = np.einsum("rsrn->sn", riemann)
    diff, gf = np.asarray(ricci - L(EINSTEIN_CONSTANT) * g, dtype=float), np.asarray(g, dtype=float)
    riem_low = np.einsum("rl,lsmn->rsmn", g, riemann)
    sectionals = [float(riem_low[i, j, i, j] / (g[i, i] * g[j, j] - g[i, j] ** 2)) for i in range(5) for j in range(i + 1, 5)]
    return np.asarray(ricci, dtype=float), float(np.linalg.norm(diff) / np.linalg.norm(gf)), sectionals


@pytest.mark.parametrize("A, cyclic", [(0.0, True), (A_EX, True), (-0.008, False)])
def test_ricci_fd_many_matches_the_pointwise_reference_bit_for_bit(A, cyclic):
    chart = ypq_chart(A)
    if not cyclic:
        chart = dataclasses.replace(chart, cyclic=())
    points = sample_interior_points(chart, 3, seed=21)
    for point, rep in zip(points, ricci_fd_many(chart, points, 1e-3)):
        ricci, residual, sectionals = _pointwise_ricci(chart, point, 1e-3)
        assert rep.ricci.tobytes() == ricci.tobytes()
        assert repr(rep.einstein_residual) == repr(residual)
        assert repr(rep.sectional_values) == repr(tuple(sectionals))
        assert repr(rep.sectional_spread) == repr(max(sectionals) - min(sectionals))


def test_ricci_fd_many_rejects_any_point_near_the_boundary():
    chart = ypq_chart(0.0)
    inside = (1.3, 0.7, 0.1, 0.4, 0.9)
    assert ricci_fd_many(chart, [], 1e-3) == []
    with pytest.raises(ChartDomainError):
        ricci_fd_many(chart, [inside] * 40 + [(1e-4, 0.5, 0.1, 0.3, 0.8)], 1e-3)
    for step in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            ricci_fd_many(chart, [inside], step)


@pytest.mark.parametrize(
    "point", [(1.3,), (1.3, 0.7, 0.1), (1.3, 0.7, 0.1, 0.4, 0.9, 0.2), (1.0,), (1.0, 0.0, 0.1)]
)
def test_ricci_fd_many_rejects_a_point_of_the_wrong_length(point):
    # CoordinateChart.contains holds the rule for each of its callers;
    # (1.0, 0.0, 0.1) lies inside the box of A_EX in its first and third
    # coordinates
    calls = (
        lambda: ricci_fd_many(ypq_chart(0.0), [(1.3, 0.7, 0.1, 0.4, 0.9), point], 1e-3),
        lambda: ypq_chart(A_EX).contains(point),
    )
    for call in calls:
        with pytest.raises(ValueError, match=rf"point \({point[0]},.* has {len(point)} coordinates; the chart has 5"):
            call()


def test_ricci_fd_near_boundary_error():
    chart = ypq_chart(0.0)
    with pytest.raises(ChartDomainError):
        ricci_fd_many(chart, [(1e-4, 0.5, 0.1, 0.3, 0.8)], 1e-3)


def test_singular_metric_at_stencil_point_errors():
    from esasaki.geometry import CoordinateChart, SingularMetricError

    def metric(points, dtype=float):
        x = np.asarray(points, dtype=dtype)
        g = np.zeros(x.shape + (5,), dtype=dtype)
        g[...] = np.eye(5, dtype=dtype)
        g[..., 0, 0] = x[..., 0]
        return g

    chart = CoordinateChart("degenerate", ("x",) * 5, metric, (None,) * 5)
    with pytest.raises(SingularMetricError):
        ricci_fd_many(chart, [(1e-3, 0.0, 0.0, 0.0, 0.0)], 1e-3)  # stencil reaches x <= 0


def test_symbolic_curvature_oracle_single_point():
    # independent second opinion: symbolic Ricci of the explicit chart
    # (components depend on theta and y only) evaluated at one point
    import sympy as sp

    theta, y = sp.symbols("theta y", positive=True)
    A = sp.Rational(-9, 2197)
    w = 2 * (108 * A + 1 - 3 * y**2 + 2 * y**3) / (1 - y)
    sin_t, cos_t = sp.sin(theta), sp.cos(theta)
    g = sp.zeros(5, 5)
    g[0, 0] = (1 - y) / 6
    g[1, 1] = (1 - y) / 6 * sin_t**2 + w / 36 * cos_t**2 + (y - 1) ** 2 * cos_t**2 / 9
    g[2, 2] = 1 / w
    g[3, 3] = w / 36 + y**2 / 9
    g[4, 4] = sp.Rational(1, 9)
    g[1, 3] = g[3, 1] = w / 36 * cos_t + y * (y - 1) * cos_t / 9
    g[1, 4] = g[4, 1] = (y - 1) * cos_t / 9
    g[3, 4] = g[4, 3] = sp.Rational(1, 9) * y

    coords = [theta, sp.Symbol("phi"), y, sp.Symbol("beta"), sp.Symbol("psi")]
    ginv = g.inv()
    n = 5
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                expr = sum(
                    ginv[k, l]
                    * (sp.diff(g[j, l], coords[i]) + sp.diff(g[i, l], coords[j]) - sp.diff(g[i, j], coords[l]))
                    for l in range(n)
                ) / 2
                gamma[k][i][j] = gamma[k][j][i] = sp.simplify(expr)

    point = {theta: sp.Rational(11, 10), y: sp.Rational(1, 20)}

    def ricci_entry(s, t_idx):
        # R_{s t} = d_r G^r_{t s} - d_t G^r_{r s} + G^r_{r l} G^l_{t s} - G^r_{t l} G^l_{r s}
        expr = sum(sp.diff(gamma[r][t_idx][s], coords[r]) for r in range(n))
        expr -= sum(sp.diff(gamma[r][r][s], coords[t_idx]) for r in range(n))
        expr += sum(gamma[r][r][l] * gamma[l][t_idx][s] for r in range(n) for l in range(n))
        expr -= sum(gamma[r][t_idx][l] * gamma[l][r][s] for r in range(n) for l in range(n))
        return float(expr.subs(point))

    g_num = np.array([[float(g[i, j].subs(point)) for j in range(n)] for i in range(n)])
    ric_sym = np.array([[ricci_entry(i, j) for j in range(n)] for i in range(n)])
    assert np.abs(ric_sym - EINSTEIN_CONSTANT * g_num).max() < 1e-9

    chart = ypq_chart(float(A))
    ric_fd_point = ricci_fd_many(chart, [(1.1, 0.0, 0.05, 0.0, 0.0)], 1e-3)[0].ricci
    assert np.abs(ric_fd_point - ric_sym).max() < 1e-6


# ---------------------------------------------------------------------------
# frame / chart consistency


def test_frame_metric_matches_chart_metric():
    rng = np.random.default_rng(9)
    chart = ypq_chart(A_EX)
    for p in sample_interior_points(chart, 10, seed=11):
        push = case_ii_frame_metric_in_chart(A_EX, 6.0, p)
        direct = chart.metric(p)
        assert np.abs(push - direct).max() < 1e-9


def test_frame_chart_requires_nonzero_C():
    with pytest.raises(ValueError):
        case_ii_frame_metric_in_chart(A_EX, 0.0, (1.0, 0.0, 0.1, 0.0, 0.0))
