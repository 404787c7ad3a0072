import dataclasses
import math
from fractions import Fraction as F

import numpy as np
import pytest

from esasaki.evolution import (
    CaseIIState,
    CaseIIIState,
    ConstraintError,
    closed_form_case_i,
    evolve_case_ii,
    evolve_case_iii,
    evolve_general,
    fit_case_i,
    general_rhs,
    rk4_path,
    round_series,
    turning_series,
)
from esasaki import evolution
from esasaki.evolution import _case_ii_rhs
from esasaki.moduli import cubic_roots, enumerate_rational_families
from esasaki.structures import IdStructure, residual_es, residual_hypo, residual_hypo_batch

from exact_forms import rate_defect
from lstsq_oracle import defect_rounding

S6 = 1.0 / math.sqrt(6.0)


def homogeneous_structure():
    return IdStructure(((1 / 3, 0, 0, 1), (0, 0, 0, 1), (0, S6, 0, 0), (0, 0, S6, 0)), m=0)


# ---------------------------------------------------------------------------
# closed form (case i)


def test_closed_form_values_at_zero():
    st = closed_form_case_i(1.0, 0, 0.0)
    assert st.eta[0] == pytest.approx((1 / 3, 0, 0, 1))
    assert st.eta[1] == pytest.approx((0, 0, 0, 0))
    assert st.eta[2][1] == pytest.approx(S6)
    assert st.eta[3][2] == pytest.approx(S6)


def test_closed_form_rate_identity():
    # d/dt eta0 = 2 eta1, by a central difference in t
    delta = 1e-5
    for k, m, t in [(1.0, 0, 0.3), (0.7, 2, 1.2), (2.0, -1, -0.4)]:
        g_plus = closed_form_case_i(k, m, t + delta).eta[0][3]
        g_minus = closed_form_case_i(k, m, t - delta).eta[0][3]
        rate = (g_plus - g_minus) / (2 * delta)
        assert rate == pytest.approx(2 * closed_form_case_i(k, m, t).eta[1][3], abs=1e-7)


def test_closed_form_solves_structure_equations():
    for t in np.linspace(-1.0, 2.0, 25):
        for k, m in [(1.0, 0), (1.3, 2)]:
            assert max(residual_hypo(closed_form_case_i(k, m, float(t)))) < 1e-13


def test_fit_case_i_recovers_parameters():
    k, m, phase = 1.37, 2, 0.41
    st = closed_form_case_i(k, m, phase)
    k_fit, phase_fit = fit_case_i(st)
    assert k_fit == pytest.approx(k)
    assert math.cos(math.sqrt(6) * phase_fit) == pytest.approx(math.cos(math.sqrt(6) * phase))


# ---------------------------------------------------------------------------
# case ii


def test_stationary_point_is_fixed():
    st = CaseIIState(6 ** -0.5, 0.0)
    assert st.A == pytest.approx(-1 / 108)
    flow = evolve_case_ii(st, (0, 1.0), 1e-3)
    assert flow.stopped_reason is None
    for h, a in flow.coefficients[:, [9, 4]].tolist():
        assert h == pytest.approx(6 ** -0.5, abs=1e-14)
        assert a == pytest.approx(0.0, abs=1e-14)


def test_case_ii_monotone_with_quadrature_oracle():
    import mpmath

    A = -9 / 2197
    h0 = 0.3
    a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
    flow = evolve_case_ii(CaseIIState(h0, a0), (0, 2.0), 1e-4)
    hs = flow.coefficients[:, 9].tolist()
    assert all(h2 > h1 for h1, h2 in zip(hs, hs[1:]))
    assert flow.stopped_reason == "turning_point"
    assert hs[-1] == pytest.approx(math.sqrt(3 / 13), abs=1e-5)

    # oracle: t(h) by quadrature of the reduced first-order equation
    def t_of_h(h):
        integrand = lambda s: 2 * s**2 / mpmath.sqrt(A + s**4 - 4 * s**6)
        return float(mpmath.quad(integrand, [h0, h]))

    for idx in (100, 400, 800):
        t_flow = float(flow.times[idx])
        assert t_of_h(hs[idx]) == pytest.approx(t_flow, abs=1e-7)


def test_case_ii_conservation_random_starts():
    rng = np.random.default_rng(5)
    for _ in range(4):
        h0 = float(rng.uniform(0.15, 0.45))
        a0 = float(rng.uniform(0.05, 0.5))
        flow = evolve_case_ii(CaseIIState(h0, a0), (0, 1.0), 1e-3)
        assert flow.drift["A"].max() < 1e-10


def test_case_ii_orientation_precondition():
    with pytest.raises(ValueError, match="orientation"):
        evolve_case_ii(CaseIIState(0.3, -0.1), (0, 1.0), 1e-3)


def test_case_ii_step_overshooting_h_zero_names_the_stage():
    # at step 0.7 the span takes four steps of 0.75, and the first step's
    # k4 stage lands at h^2 < 0; at step 0.01 the flow stops at its
    # turning point near t = 0.975
    state0 = CaseIIState.from_A(0.05, 0.01)
    with pytest.raises(ValueError, match=r"t = 0\.75 reached h\^2 = -3\.38 < 0; the step is too coarse"):
        evolve_case_ii(state0, (0, 3.0), 0.7)
    assert evolve_case_ii(state0, (0, 3.0), 0.01).stopped_reason == "turning_point"


def test_round_end_series_is_quarter_cos_squared():
    # at the A = 0 upper end Delta = cos(r)^2/4 = 1/8 + cos(2r)/8
    expected = [F(1, 4)] + [
        F((-1) ** (k // 2) * 2**k, 8 * math.factorial(k)) if k % 2 == 0 else F(0) for k in range(1, 13)
    ]
    series = turning_series(F(0), F(1, 4))
    assert list(series) == expected
    assert series[:7] == (F(1, 4), 0, F(-1, 4), 0, F(1, 12), 0, F(-1, 90))


def test_round_series_is_the_upper_end_series_seen_from_the_round_end():
    # the A = 0 interval has length pi/2: sin(r)^2/4 = 1/4 - cos(r)^2/4,
    # so the closed form at the round end is 1/4 minus the recursion's
    # series at the upper turning value
    upper = turning_series(F(0), F(1, 4))
    expected = [F(1, 4) - upper[0]] + [-c for c in upper[1:]]
    assert list(round_series()) == expected
    assert all(isinstance(c, F) for c in round_series())


def test_case_ii_residuals_along_flow():
    flow = evolve_case_ii(CaseIIState(0.3, 0.11), (0, 1.0), 1e-3)
    assert flow.residuals.max() < 1e-13


# ---------------------------------------------------------------------------
# turning points


def test_turning_series_exact_at_every_enumerated_end():
    for fam in enumerate_rational_families(400):
        for delta in (fam.delta_minus, fam.delta_plus):
            series = turning_series(fam.A, delta)
            assert all(type(c) is F for c in series)
            assert all(c == 0 for c in series[1::2]), (fam.S, delta)
            assert 2 * series[2] == 1 - 6 * delta, (fam.S, delta)


@pytest.mark.parametrize("S", [F(4, 13), F(9, 28), F(25, 91), F(16, 49)])
def test_float_turning_series_matches_rk4(S):
    fam = next(f for f in enumerate_rational_families(S.denominator) if f.S == S)
    for delta in (fam.delta_minus, fam.delta_plus):
        series = turning_series(float(fam.A), float(delta))
        for r in (0.002, 0.008, 0.016):
            _, ys, _ = rk4_path(_case_ii_rhs, [float(delta), 0.0], 0.0, r, r / 200)
            summed = sum(c * r**k for k, c in enumerate(series))
            assert summed == pytest.approx(ys[-1][0], rel=1e-13, abs=0.0), (S, delta, r)


# ---------------------------------------------------------------------------
# case iii


def test_case_iii_rejects_disguised_case_ii():
    with pytest.raises(ValueError, match="case ii"):
        evolve_case_iii(CaseIIIState(0.4, 0.4, 0.0, 0.0, 0.2), (0, 1.0), 1e-3)
    # b = -c with h = k is also the conformal family after a phase rotation
    with pytest.raises(ValueError, match="case ii"):
        evolve_case_iii(CaseIIIState(0.4, 0.4, 0.1, -0.1, 0.2), (0, 1.0), 1e-3)


def test_case_iii_conserved_ratios():
    flow = evolve_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), (0, 5.0), 1e-3)
    assert flow.boundary_time is not None
    assert np.nanmax(flow.drift["lambda"]) < 1e-8
    assert np.nanmax(flow.drift["mu"]) < 1e-8
    assert np.nanmax(flow.drift["delta_relation"]) < 1e-10
    deltas = flow.coefficients[:, 0] / 2
    assert min(deltas) > 0  # sign of Delta preserved


def test_case_iii_delta_rate_matches_a():
    flow = evolve_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), (0, 0.5), 1e-3, record_every=1)
    t = flow.times
    deltas = flow.coefficients[:, 0] / 2
    a = flow.coefficients[:, 4]
    # fourth-order central difference on the uniform record grid
    h = t[1] - t[0]
    for i in range(2, len(t) - 2):
        ddelta = (-deltas[i + 2] + 8 * deltas[i + 1] - 8 * deltas[i - 1] + deltas[i - 2]) / (12 * h)
        assert ddelta == pytest.approx(a[i], abs=1e-9)


def test_case_iii_residuals_along_flow():
    flow = evolve_case_iii(CaseIIIState(0.5, 0.3, -0.05, 0.1, 0.3), (0, 1.0), 1e-3, m=2)
    assert flow.residuals.max() < 1e-13


# ---------------------------------------------------------------------------
# general flow


def test_general_flow_matches_closed_form_after_phase_fit():
    hom = homogeneous_structure()
    k_fit, phase = fit_case_i(hom)
    assert k_fit == pytest.approx(math.sqrt(5 / 3))
    flow = evolve_general(hom, (0, 1.0), 1e-4, record_every=200)
    worst = 0.0
    for t, eta in zip(flow.times, flow.coefficients.reshape(-1, 4, 4)):
        ref = closed_form_case_i(k_fit, 0, float(t) + phase)
        worst = max(worst, float(np.abs(eta - ref.matrix).max()))
    assert worst < 1e-8


@pytest.mark.parametrize("C, m", [(6.0, 0), (2.0, 3), (-1.0, 2)])
def test_general_flow_stays_in_case_ii_family(C, m):
    st0 = CaseIIState(0.38, 0.1, C, m)
    flow = evolve_general(st0.to_id_structure(), (0, 0.5), 1e-3, record_every=25)
    ref = evolve_case_ii(st0, (0, 0.5), 1e-3, record_every=25)
    assert len(flow.times) == len(ref.times)
    for M, M_ii in zip(flow.coefficients.reshape(-1, 4, 4), ref.coefficients.reshape(-1, 4, 4)):
        off_family = max(
            abs(M[2, 0]), abs(M[2, 2]), abs(M[2, 3]), abs(M[3, 0]), abs(M[3, 1]), abs(M[3, 3])
        )
        assert off_family < 1e-9
        assert np.abs(M - M_ii).max() < 1e-9


def test_general_flow_matches_rotated_closed_form_nonzero_m():
    # the phase-correction terms of the general flow, validated against
    # the closed form with a nonzero rotation weight
    k, m, t0 = 1.2, 3, 0.35
    eta0 = closed_form_case_i(k, m, t0)
    flow = evolve_general(eta0, (0, 0.8), 1e-3, record_every=50)
    worst = 0.0
    for t, eta in zip(flow.times, flow.coefficients.reshape(-1, 4, 4)):
        ref = closed_form_case_i(k, m, t0 + float(t))
        worst = max(worst, float(np.abs(eta - ref.matrix).max()))
    assert worst < 1e-9


def test_general_flow_constraint_residuals_scale_with_step(monkeypatch):
    # the structure-equation defect along the flow scales like step^4
    monkeypatch.setattr(evolution, "GENERAL_ABORT_TOL", 1.0)
    st0 = CaseIIState(0.3, 0.4, 2.0, 1).to_id_structure()
    res = {}
    for step in (0.02, 0.01):
        flow = evolve_general(st0, (0, 0.4), step, record_every=1)
        res[step] = flow.residuals.max()
    ratio = res[0.02] / res[0.01]
    assert 8.0 < ratio < 40.0


def test_general_flow_aborts_on_non_solution():
    bad = IdStructure(((1, 0, 0, 0.3), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0.2, 0, 1)))
    with pytest.raises(ConstraintError):
        evolve_general(bad, (0, 0.1), 1e-3)


def test_general_system_matches_exact_product_rule():
    # the defect b - A x of the rate system by the kernel's one gather,
    # against the three product-rule equations in the exact exterior
    # algebra at the same float coframe and rates (random rationals)
    rng = np.random.default_rng(23)

    for _ in range(50):
        eta = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(4)] for _ in range(4)]
        rates = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(4)] for _ in range(3)]
        m = int(rng.integers(-2, 3))
        y, x = np.array(eta, dtype=float).reshape(-1), np.array(rates, dtype=float).reshape(-1)
        defect = evolution._rate_defect(y, x, (y[4:] @ evolution._linear_rhs(m)).reshape(3, 6))
        exact = rate_defect(y, x, m)
        assert max(abs(F(v) - e) for v, e in zip(defect.reshape(-1).tolist(), exact)) <= defect_rounding(y, x, m)


@pytest.mark.parametrize(
    "start",
    [CaseIIState(0.3, 0.4, 2.0, 1).to_id_structure(), closed_form_case_i(1.2, 3, 0.35)],
    ids=["case-ii-m1", "case-i-m3"],
)
def test_five_dimensional_equations_hold_along_the_general_flow(start):
    # alpha, omega_i built from the flow's states and its own rates solve
    # d alpha = -2 omega1, d omega2 = 3 alpha ^ omega3, d omega3 = -3 alpha ^ omega2
    m = start.m
    flow = evolve_general(start, (0.0, 0.5), 1e-3, record_every=25)
    ys = flow.coefficients
    rates, consistency = map(np.array, zip(*(general_rhs(y, m) for y in ys)))
    etas, dots = ys.reshape(-1, 4, 4), rates.reshape(-1, 4, 4)
    es, hypo = residual_es(etas, dots, m), residual_hypo_batch(etas, m)
    # the dt part of the first residual, 2 eta1 - eta0', is exactly zero
    assert (np.abs(es[:, 0] - hypo[:, 0]) <= 4 * np.spacing(hypo[:, 0])).all()
    # the dt parts of the other two are six of the equations whose
    # least-squares residual is the consistency; both are evaluated in
    # float, each of their coefficients a sum of at most 16 products
    # bounded by `size`, hence 2 * 6 * 16 * 16 eps * size for rounding
    size = (1 + abs(m)) * max(1.0, np.abs(ys).max(), np.abs(rates).max()) ** 2
    bound = np.hypot(hypo[:, 1:], consistency[:, None]) + 2 * 6 * 16 * 16 * np.finfo(float).eps * size
    assert (es[:, 1:] <= bound).all()
    # control: a rate of eta0 off by 1% leaves 0.02 eta1 in the first residual
    wrong = dots.copy()
    wrong[:, 0] *= 1.01
    assert residual_es(etas, wrong, m)[:, 0].min() > 1e-3


def test_general_flow_stops_at_coframe_degeneration(monkeypatch):
    # ride the conformal flow into its turning point, where eta1 -> 0
    A = -0.9 / 108
    h0 = math.sqrt(cubic_roots(A)[0][0]) + 1e-3
    a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
    st0 = CaseIIState(h0, a0, 6.0, 0)
    monkeypatch.setattr(evolution, "GENERAL_DET_THRESHOLD", 1e-5)
    flow = evolve_general(st0.to_id_structure(), (0, 3.0), 1e-3)
    assert flow.stopped_reason == "coframe degenerate"
    assert flow.boundary_time is not None
    assert flow.boundary_time < 3.0


def test_time_symmetry_discrete():
    # orientation flip of the data reverses the discrete flow exactly
    y0 = CaseIIState(0.38, 0.1, 6.0, 0).to_id_structure().matrix.reshape(-1)
    sign = np.ones(16)
    sign[4:] = -1.0
    f = lambda t, y: general_rhs(y, 0)[0]
    _, fwd, _ = rk4_path(f, y0 * sign, 0.0, 0.2, 1e-3)
    _, bwd, _ = rk4_path(f, y0, 0.0, -0.2, 1e-3)
    assert np.abs(fwd - bwd * sign).max() < 1e-15


# ---------------------------------------------------------------------------
# the RK4 driver


def test_rk4_path_locates_exit_by_bisection():
    times, ys, reason = rk4_path(
        lambda t, y: np.array([-1.0]), np.array([0.3]), 0.0, 1.0, 0.07,
        exits=lambda y: "empty" if not y[0] > 0.0 else None,
    )
    assert reason == "empty"
    assert times[-1] == pytest.approx(0.3, abs=1e-12)
    assert ys[-1][0] == pytest.approx(0.0, abs=1e-12)


def test_rk4_path_takes_at_most_the_step_limit(monkeypatch):
    monkeypatch.setattr(evolution, "CASE_I_MAX_SAMPLES", 10)
    times, _, _ = rk4_path(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 0.1)
    assert len(times) == 11
    calls = []
    with pytest.raises(ValueError, match="11 steps exceeds the limit of 10 steps"):
        rk4_path(lambda t, y: calls.append(t) or -y, np.array([1.0]), 0.0, 1.1, 0.1)
    assert not calls
    for t0, t1, step in ((-1e308, 1e308, 1.0), (0.0, 1.0, math.nan)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            rk4_path(lambda t, y: -y, np.array([1.0]), t0, t1, step)


@pytest.mark.parametrize("t1", [1.0, -1.0])
def test_rk4_path_keeps_every_kth_state_and_the_last(t1):
    times, ys, reason = rk4_path(lambda t, y: -y, np.array([1.0]), 0.0, t1, 0.1, every=3)
    assert reason is None
    # ten steps: the start, steps 3, 6, 9 and the last
    assert times == pytest.approx([0.0, 0.3 * t1, 0.6 * t1, 0.9 * t1, t1], abs=1e-15)
    assert times[-1] == t1
    _, every_step, _ = rk4_path(lambda t, y: -y, np.array([1.0]), 0.0, t1, 0.1)
    assert len(every_step) == 11
    assert np.array_equal(ys, every_step[[0, 3, 6, 9, 10]])


def test_case_iii_samples_land_on_the_grid():
    flow = evolve_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), (0, 0.2), 1e-3)
    assert len(flow.times) == 21
    assert flow.times[-1] == 0.2
    assert flow.stopped_reason is None and flow.boundary_time is None


def test_flow_result_serialization(tmp_path):
    flow = evolve_case_ii(CaseIIState(0.3, 0.11, 6.0, 0), (0, 0.2), 1e-3, record_every=20)
    csv_path = tmp_path / "flow.csv"
    json_path = tmp_path / "flow.json"
    flow.write(csv_path, json_path)
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert len([c for c in header if c.startswith("eta")]) == 16
    assert "drift_A" in header
    import json as json_mod

    data = json_mod.loads(json_path.read_text())
    assert len(data["times"]) == len(flow.times)
    assert len(data["coefficients"][0]) == 16


def test_flow_csv_writes_every_value_as_its_float_repr(tmp_path):
    flow = evolve_case_ii(CaseIIState(0.3, 0.11, 6.0, 0), (0, 0.2), 1e-3, record_every=20)
    flow = dataclasses.replace(flow, consistency=np.linspace(0.0, 1e-13, len(flow.times)))
    flow.write(tmp_path / "flow.csv", tmp_path / "flow.json")
    lines = (tmp_path / "flow.csv").read_text().splitlines()
    assert lines[0].split(",")[-2:] == ["lsq_residual", "drift_A"]
    coeff = flow.coefficients
    for i, line in enumerate(lines[1:]):
        values = [flow.times[i], *coeff[i], *flow.residuals[i], flow.consistency[i], flow.drift["A"][i]]
        assert line == ",".join(repr(float(v)) for v in values)
