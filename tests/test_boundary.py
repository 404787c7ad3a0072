import math
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esasaki.boundary import (
    FIT_NODES,
    ConditionCheck,
    ExtensionReport,
    check_circle_branch,
    check_round_branch,
    check_round_series,
    kw_extends,
    parity_fit,
    reject_case_iii,
    richardson_limit,
)
from esasaki.evolution import CaseIIIState, round_series, turning_series
from esasaki.moduli import enumerate_rational_families

A_EX = Fraction(-9, 2197)
LOWER_EX, UPPER_EX = Fraction(1, 13), Fraction(3, 13)
# the radius grid reject_case_iii uses when an end is far from the start
CASE_III_RADII = [0.128 * 0.5**i for i in range(5)]


def round_end(r):
    """The h -> 0 end of the A = 0 flow in closed form, h = sin(r)/2: the
    sampled reference for the series check of that end."""
    h = 0.5 * math.sin(r)
    return CaseIIIState(h, h, 0.0, 0.0, 0.25 * math.sin(2 * r))


def series_profile(series):
    """The conformal profile (h, h, 0, 0) with h^2 the summed series."""
    def profile(r):
        h = math.sqrt(sum(float(c) * r**k for k, c in enumerate(series)))
        return CaseIIIState(h, h, 0.0, 0.0, 0.0)  # a is not read

    return profile


def counted(profile):
    """``profile`` with a list of the radii it was called at."""
    radii = []

    def wrapped(r):
        radii.append(r)
        return profile(r)

    return wrapped, radii


def model_obstructed_end(r):
    """Criterion 8's model of an obstructed end: Delta = r^2/4, U
    matching, V = c r^-3, so r (dV/dr)/V = -3 exactly."""
    v = 1e-4 * r**-3
    u = math.sqrt(r * r / 4.0 + v * v)
    # the simplest representative: h + k = 2U, h - k = 2V, b = c = 0
    return CaseIIIState(u + v, u - v, 0.0, 0.0, 0.0)  # a is not read


def monomial_taylor(j, order=10):
    coeffs = [0.0] * (order + 1)
    coeffs[j] = 1.0
    return coeffs


# ---------------------------------------------------------------------------
# the equivariant criterion


def test_kw_examples():
    assert kw_extends(monomial_taylor(2), sigma=1, n=2) == (True, None)
    assert kw_extends(monomial_taylor(0), sigma=1, n=2) == (False, 0)
    # r^3 with sigma = 2, n = 2: weight 1, k = 3 has k - 1 even, so it extends
    assert kw_extends(monomial_taylor(3), sigma=2, n=2) == (True, None)


def test_kw_divisibility():
    assert kw_extends(monomial_taylor(2), sigma=3, n=2) == (False, None)


def test_kw_randomized_monomials_match_closed_form_rule():
    rng = np.random.default_rng(23)
    for _ in range(40):
        sigma = int(rng.integers(1, 4))
        n = int(rng.integers(0, 9))
        j = int(rng.integers(0, 9))
        got, _ = kw_extends(monomial_taylor(j, order=12), sigma=sigma, n=n)
        if n % sigma != 0:
            expected = False
        else:
            w = abs(n // sigma)
            expected = j >= w and (j - w) % 2 == 0
        assert got == expected, (sigma, n, j)


def test_kw_monotone_under_even_radial_powers():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sigma = int(rng.integers(1, 4))
        w = int(rng.integers(0, 3))
        n = sigma * w
        order = 12
        coeffs = [0.0] * (order + 1)
        for j in range(order + 1):
            if j >= w and (j - w) % 2 == 0:
                coeffs[j] = float(rng.normal())
        assert kw_extends(coeffs, sigma, n)[0]
        shifted = [0.0, 0.0] + coeffs[:-2]
        assert kw_extends(shifted, sigma, n)[0]


def test_kw_errors():
    with pytest.raises(ValueError):
        kw_extends(monomial_taylor(2), sigma=0, n=2)
    with pytest.raises(ValueError):
        kw_extends((0.0, 0.0, 1.0), sigma=1, n=4)  # order too low


# ---------------------------------------------------------------------------
# parity and limits


def fit_samples(profile, rmax):
    return [profile(j / FIT_NODES * rmax) for j in range(1, FIT_NODES + 1)]


def solve_exact_reference(matrix, rhs):
    """Gaussian elimination over exact rationals."""
    n = len(rhs)
    M = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(M[r][col]))
        if M[pivot][col] == 0:
            raise ZeroDivisionError("singular fit system")
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                factor = M[r][col]
                M[r] = [x - factor * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def parity_fit_reference(profile: Callable, rmax: float, npts: int = 9):
    """The parity fit that solved its Vandermonde system anew on each
    call; returns (coeffs, even_defect, odd_defect)."""
    nodes = [Fraction(j, npts) for j in range(1, npts + 1)]
    samples = [Fraction(float(profile(float(s) * rmax))) for s in nodes]
    vmax = max(abs(float(v)) for v in samples)
    if vmax == 0.0:
        zeros = tuple(0.0 for _ in range(npts))
        return zeros, 0.0, 0.0
    vander = [[s**j for j in range(npts)] for s in nodes]
    coeffs = solve_exact_reference(vander, samples)
    coeffs = tuple(float(c) for c in coeffs)
    even_defect = max(abs(c) for j, c in enumerate(coeffs) if j % 2 == 0) / vmax
    odd_defect = max(abs(c) for j, c in enumerate(coeffs) if j % 2 == 1) / vmax
    return coeffs, even_defect, odd_defect


def test_parity_detector_resolves_monomials():
    for j in range(9):
        even_defect, odd_defect = parity_fit(fit_samples(lambda r, j=j: r**j, 0.4))
        if j % 2 == 0:
            assert odd_defect <= 1e-9, j
            assert even_defect > 0.1
        else:
            assert even_defect <= 1e-9, j
            assert odd_defect > 0.1


def test_richardson_limit_on_smooth_even_function():
    radii = [0.256 * 0.5**i for i in range(9)]
    values = [math.sin(r) ** 2 / r**2 for r in radii]
    limit = richardson_limit(radii, values)
    assert limit == pytest.approx(1.0, abs=1e-12)


# random analytic profiles, and with freq = 0 the monomials r^j, j < 9
_COEFFS = st.one_of(
    st.integers(0, 8).map(lambda j: [0.0] * j + [1.0]),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=14),
)


@settings(max_examples=200, deadline=None)
@given(coeffs=_COEFFS, rmax=st.floats(1e-3, 1.0), freq=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)))
def test_parity_fit_matches_reference(coeffs, rmax, freq):
    def profile(r):
        return sum(c * r**k for k, c in enumerate(coeffs)) * math.cos(freq * r)

    assert parity_fit(fit_samples(profile, rmax)) == parity_fit_reference(profile, rmax)[1:]


def test_round_branch_evaluates_profile_once_per_radius():
    # five limit radii and nine fit radii; the model's V adds the three
    # points of one central difference
    profile, radii = counted(round_end)
    check_round_branch(profile, CASE_III_RADII)
    assert len(radii) == 14
    profile, radii = counted(model_obstructed_end)
    check_round_branch(profile, CASE_III_RADII)
    assert len(radii) == 17


# ---------------------------------------------------------------------------
# round branch


def test_round_branch_passes_on_sphere_end():
    rep = check_round_branch(round_end, CASE_III_RADII)
    assert rep.passed
    names = [c.name for c in rep.conditions]
    assert "delta_over_r2_limit" in names
    limit = next(c for c in rep.conditions if c.name == "delta_over_r2_limit")
    assert limit.measured == pytest.approx(0.25, abs=1e-6)


def test_round_branch_inapplicable_away_from_zero():
    rep = check_round_branch(series_profile(turning_series(A_EX, LOWER_EX)), CASE_III_RADII)
    assert not rep.applicable
    assert not rep.passed
    assert "bounded away" in rep.notes


def test_round_branch_detects_minus_three_obstruction():
    rep = check_round_branch(model_obstructed_end, CASE_III_RADII)
    cond = next(c for c in rep.conditions if c.name == "v_log_derivative_nonnegative")
    assert cond.measured == pytest.approx(-3.0, abs=1e-4)
    assert not cond.passed
    assert not rep.passed


def test_round_series_matches_the_sampled_check_on_the_sphere_end():
    series = check_round_series(round_series())
    sampled = check_round_branch(round_end, CASE_III_RADII)
    assert [(c.name, c.passed) for c in series.conditions] == [(c.name, c.passed) for c in sampled.conditions]
    assert series.passed and series.branch == sampled.branch == "RoundSU2"
    # the exact series measures exact values
    measured = {c.name: c.measured for c in series.conditions}
    assert measured["delta_vanishes_at_origin"] == 0.0
    assert measured["delta_over_r2_limit"] == 0.25
    assert measured["delta_over_r2_even"] == 0.0


def test_round_series_rejects_odd_and_misplaced_terms():
    series = list(round_series())
    series[5] = Fraction(1, 10**9)  # an r^3 term of Delta/r^2
    rep = check_round_series(series)
    assert rep.failing() == ["delta_over_r2_even", "h2c2_over_r2_even", "k2b2_over_r2_even"]
    # a circle end: Delta does not vanish there
    rep = check_round_series(turning_series(A_EX, LOWER_EX))
    assert "delta_vanishes_at_origin" in rep.failing()
    assert not rep.passed


# ---------------------------------------------------------------------------
# circle branch


def test_circle_branch_passes_at_both_ends_of_rational_family():
    upper = check_circle_branch(turning_series(A_EX, UPPER_EX), q=6, sigma=-10, C=6.0, m=0)
    lower = check_circle_branch(turning_series(A_EX, LOWER_EX), q=2, sigma=14, C=6.0, m=0)
    assert upper.passed and lower.passed
    cond = next(c for c in upper.conditions if c.name == "curvature_matches_sigma")
    assert cond.target == pytest.approx(10 / 26)
    assert cond.measured == pytest.approx(abs(1 - 18 / 13), abs=1e-6)


def test_circle_branch_endpoint_identity_fd():
    rep = check_circle_branch(turning_series(A_EX, UPPER_EX), q=6, sigma=-10, C=6.0, m=0)
    cond = next(c for c in rep.conditions if c.name == "delta_pp_fd_matches_identity")
    assert cond.passed
    # 2 c_2 of the exact series is 1 - 6 Delta* = -5/13 exactly
    assert cond.measured == cond.target == float(Fraction(-5, 13))
    even = next(c for c in rep.conditions if c.name == "delta_even")
    assert even.passed and even.measured == 0.0


def test_circle_branch_rejects_odd_series():
    # kw_extends decides evenness: an odd term at the origin fails it
    series = list(turning_series(A_EX, UPPER_EX))
    series[3] = Fraction(1, 10**9)
    rep = check_circle_branch(series, q=6, sigma=-10, C=6.0, m=0)
    assert rep.failing() == ["delta_even"]


def test_circle_branch_degenerate_sixth():
    # the stationary solution Delta = 1/6 of A = -1/108 has Delta'' = 0:
    # the curvature condition cannot match any positive sigma/(p+qC)
    series = turning_series(Fraction(-1, 108), Fraction(1, 6))
    assert series == (Fraction(1, 6),) + (0,) * (len(series) - 1)
    rep = check_circle_branch(series, q=2, sigma=14, C=6.0, m=0)
    cond = next(c for c in rep.conditions if c.name == "curvature_matches_sigma")
    assert not cond.passed
    assert not rep.passed


def test_circle_branch_sign_normalization_error():
    with pytest.raises(ValueError, match="sign normalization"):
        check_circle_branch(turning_series(A_EX, UPPER_EX), q=-6, sigma=10, C=6.0, m=0)


# ---------------------------------------------------------------------------
# rejection of the non-conformal family


def test_reject_example_flow():
    report = reject_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), 1e-3)
    assert report.branch == "Reject"
    assert not report.passed
    assert set(report.end_reports) == {"lower", "upper"}
    assert report.failing()


def test_reject_requires_nonconformal_flow():
    with pytest.raises(ValueError, match="case ii"):
        reject_case_iii(CaseIIIState(0.4, 0.4, 0.1, -0.1, 0.2), 1e-3)  # V = 0 data
    with pytest.raises(ValueError, match="a must be positive"):
        reject_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.0), 1e-3)
    with pytest.raises(ValueError, match="hk - bc"):
        reject_case_iii(CaseIIIState(0.4, 0.3, 0.4, 0.3, 0.2), 1e-3)
    with pytest.raises(ValueError, match="step"):
        reject_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), 0.0)


def test_reject_randomized_flows():
    rng = np.random.default_rng(29)
    rejected = 0
    trials = 0
    while rejected < 5 and trials < 20:
        trials += 1
        h = float(rng.uniform(0.25, 0.55))
        k = float(rng.uniform(0.25, 0.55))
        b = float(rng.uniform(-0.15, 0.15))
        c = float(rng.uniform(-0.15, 0.15))
        a = float(rng.uniform(0.08, 0.35))
        st = CaseIIIState(h, k, b, c, a)
        if st.delta < 0.05 or (st.v == 0 and st.z == 0):
            continue
        report = reject_case_iii(st, 1e-3)
        assert not report.passed, (st, report.to_json_dict())
        rejected += 1
    assert rejected == 5


def test_reject_skips_the_log_derivative_where_v_has_cancelled():
    # criterion 8's flow whose upper end has V = 4.1e-9 ... 2.8e-16, 0.0
    # at r = 0.128 ... 0.008: h - k and b + c cancel to rounding there
    st = CaseIIIState(0.30208948555943493, 0.48124419511852745, -0.0558409367595199,
                      0.03262639698485434, 0.10557521695899841)
    report = reject_case_iii(st, 1e-3)
    measured = [c.measured for rep in report.end_reports.values() for c in rep.conditions]
    assert all(not math.isnan(x) for x in measured)
    # r (dV/dr)/V is about 8 wherever V is resolved (r >= 0.032)
    upper = {c.name: c for c in report.end_reports["upper"].conditions}
    assert upper["circle_v_log_derivative_nonnegative"].measured == pytest.approx(8.0, abs=0.1)
    assert report.end_reports["upper"].passed
    assert not report.end_reports["lower"].passed
    assert not report.passed


def test_reject_round_type_end_integrates_each_radius_once(monkeypatch):
    # one RK4 leg per profile radius.  Round-type lower end: five limit
    # radii, nine fit radii (the largest is the third limit radius) and
    # two central-difference neighbours, 15.  Circle-type upper end: five
    # radii and the neighbours of the two smallest, 9.
    import esasaki.boundary as boundary

    legs = []
    real = boundary.rk4_path

    def counted(*args):
        legs.append(args[2])
        return real(*args)

    monkeypatch.setattr(boundary, "rk4_path", counted)
    st = CaseIIIState(0.16888014917517297, 0.407892864503532, 0.12613615814277324,
                      0.14661975665727922, 0.46499963829121627)
    reject_case_iii(st, 2e-3)
    assert len(legs) == 24


def test_reject_round_type_end():
    st = CaseIIIState(0.16888014917517297, 0.407892864503532, 0.12613615814277324,
                      0.14661975665727922, 0.46499963829121627)
    report = reject_case_iii(st, 2e-3)
    lower = report.end_reports["lower"]
    assert lower.branch == "RoundSU2" and lower.applicable
    assert "t* = -0.100" in lower.notes
    assert lower.failing() == [
        "delta_over_r2_limit", "delta_over_r2_even", "h2c2_over_r2_limit", "h2c2_over_r2_even",
        "k2b2_over_r2_limit", "k2b2_over_r2_even", "hbck_over_r4_even",
    ]
    assert report.end_reports["upper"].branch == "CircleU1"
    assert not report.passed


def test_soundness_hook_enumerated_families_pass_both_ends():
    # every family accepted by the classification passes the circle-end
    # checks at both turning values with its own integer witnesses
    for fam in enumerate_rational_families(31):
        for delta, end in ((fam.delta_minus, fam.minus), (fam.delta_plus, fam.plus)):
            rep = check_circle_branch(
                turning_series(fam.A, delta),
                q=end.q,
                sigma=end.sigma_signed,
                C=float(fam.C),
                m=fam.m,
            )
            assert rep.passed, (fam.S, delta, rep.failing())


@pytest.mark.parametrize("S", ["25/91", "36/133", "49/183", "64/241", "81/307", "100/381"])
def test_circle_window_scales_with_small_lower_end(S):
    # the lower turning value of these families is below 0.064, where a
    # sampled parity fit needs a window that shrinks with Delta; the
    # series check reads the same conditions off exact coefficients
    fam = next(f for f in enumerate_rational_families(381) if f.S == Fraction(S))
    assert fam.delta_minus < Fraction(64, 1000)
    for delta, end in ((fam.delta_minus, fam.minus), (fam.delta_plus, fam.plus)):
        rep = check_circle_branch(
            turning_series(fam.A, delta), q=end.q, sigma=end.sigma_signed, C=float(fam.C), m=fam.m
        )
        assert rep.passed, (delta, rep.failing())


def test_soundness_hook_round_branch_level():
    # the A = 0 level passes the round check at the vanishing end and the
    # circle check at the upper end with its classification witnesses
    from esasaki.moduli import classify_A

    verdict = classify_A(Fraction(0), Fraction(6), 0)
    assert check_round_series(round_series()).passed
    end = verdict.family.plus
    rep = check_circle_branch(
        turning_series(Fraction(0), verdict.family.delta_plus), q=end.q, sigma=end.sigma_signed, C=6.0, m=0
    )
    assert rep.passed, rep.failing()


# ---------------------------------------------------------------------------
# report plumbing


def test_extension_report_json_fields():
    rep = ExtensionReport(
        branch="CircleU1",
        conditions=[ConditionCheck("demo", 1.0, 1.0, 0.1, True)],
    )
    data = rep.to_json_dict()
    assert data["pass"] is True
    assert data["conditions"][0] == {
        "name": "demo",
        "measured": 1.0,
        "target": 1.0,
        "tolerance": 0.1,
        "pass": True,
    }
