"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (visible with pytest -s); pytest -v
reports the same per-criterion outcome through the test names.
"""

import math
import time
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from esasaki.boundary import (
    check_round_branch,
    kw_extends,
    reject_case_iii,
)
from esasaki.evolution import (
    CaseIIState,
    CaseIIIState,
    closed_form_case_i,
    evolve_case_ii,
    evolve_general,
)
from esasaki.geometry import (
    case_ii_frame_metric_in_chart,
    ricci_fd_many,
    sample_interior_points,
    ypq_chart,
)
from esasaki.moduli import (
    EndData,
    YpqFamily,
    build_diagram,
    cubic_roots,
    enumerate_rational_families,
)
from esasaki.structures import residual_hypo

A_EX = -9 / 2197


def _report(num, text):
    print(f"[criterion {num}] PASS - {text}")


def test_criterion_1_structure_equation_closure():
    start = time.monotonic()
    worst = 0.0
    for t in np.linspace(-2.0, 2.0, 100):
        for k, m in ((1.0, 0), (1.3, 2)):
            worst = max(worst, max(residual_hypo(closed_form_case_i(k, m, float(t)))))
    flow = evolve_case_ii(CaseIIState(0.3, 0.11, 6.0, 0), (0, 1.0), 1e-3, record_every=10)
    assert len(flow.times) >= 100
    worst = max(worst, float(flow.residuals.max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(1, f"closed-form and conformal-flow residuals {worst:.2e} <= 1e-9 at 100+ samples ({elapsed:.2f}s)")


def test_criterion_2_conserved_quantity_drift():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(10):
        # start at the lower turning value of a level set near the branch
        # minimum: the half-period there exceeds one time unit
        A = -float(rng.uniform(0.3, 0.98)) / 108.0
        lower = min(r for r, _ in cubic_roots(A) if r > 0)
        state0 = CaseIIState(math.sqrt(lower), 0.0, 6.0, 0)
        flow = evolve_case_ii(state0, (0.0, 1.0), 1e-4, record_every=100)
        assert flow.stopped_reason is None, flow.stopped_reason
        worst = max(worst, float(flow.drift["A"].max()))
    elapsed = time.monotonic() - start
    assert worst <= 1e-8
    assert elapsed < 10.0
    _report(2, f"relative drift of A over unit time at step 1e-4: {worst:.2e} <= 1e-8, 10 starts ({elapsed:.1f}s)")


def test_criterion_3_general_flow_constraint_propagation():
    start = time.monotonic()
    A = -0.9 / 108.0
    lower = min(r for r, _ in cubic_roots(A) if r > 0)
    h0 = math.sqrt(lower) + 1e-3
    a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
    eta0 = CaseIIState(h0, a0, 6.0, 0).to_id_structure()
    flow = evolve_general(eta0, (0.0, 1.0), 1e-4, record_every=100)
    elapsed = time.monotonic() - start
    assert flow.stopped_reason is None
    assert float(flow.residuals.max()) <= 1e-7
    assert float(flow.consistency.max()) <= 1e-9
    assert elapsed < 30.0
    _report(
        3,
        f"structure-equation residuals {flow.residuals.max():.2e} <= 1e-7 and "
        f"least-squares residual {flow.consistency.max():.2e} <= 1e-9 over unit time ({elapsed:.1f}s)",
    )


def test_criterion_4_einstein_verification():
    start = time.monotonic()
    worst = {}
    for A in (0.0, A_EX):
        chart = ypq_chart(A)
        residuals = [
            ricci_fd_many(chart, [p], fd_step=1e-3)[0].einstein_residual
            for p in sample_interior_points(chart, 10, seed=4)
        ]
        worst[A] = max(residuals)
        assert worst[A] <= 1e-4
    point = (1.2, 0.5, 0.05, 0.3, 0.8)
    chart = ypq_chart(A_EX)
    coarse = ricci_fd_many(chart, [point], fd_step=1e-3)[0].einstein_residual
    fine = ricci_fd_many(chart, [point], fd_step=5e-4)[0].einstein_residual
    ratio = coarse / fine
    elapsed = time.monotonic() - start
    assert ratio >= 8.0
    assert elapsed < 60.0
    _report(
        4,
        f"|Ric - 4g|/|g| worst {max(worst.values()):.2e} <= 1e-4 at 10+10 points; "
        f"halving the stencil reduced the residual {ratio:.1f}x >= 8x ({elapsed:.1f}s)",
    )


def test_criterion_5_classification_arithmetic():
    assert cubic_roots(F(-1, 108)) == [(F(1, 6), 2)]
    families = enumerate_rational_families(13)
    match = [
        f
        for f in families
        if (f.delta_minus, f.delta_plus, f.A) == (F(1, 13), F(3, 13), F(-9, 2197))
    ]
    assert match
    fam = match[0]
    for root in (fam.delta_minus, fam.delta_plus):
        assert fam.A + root**2 - 4 * root**3 == 0
    _report(5, "double root 1/6 at -1/108 exact; family (1/13, 3/13, -9/2197) with zero cubic remainder")


def test_criterion_6_coprimality_topology():
    rng = np.random.default_rng(66)
    checked = 0
    coprime_seen = non_coprime_seen = 0
    while checked < 50:
        q_m, s_m, q_p, s_p = (int(x) for x in rng.integers(1, 40, size=4))
        ends = []
        ok = True
        for q, s in ((q_m, s_m), (q_p, s_p)):
            if rng.random() < 0.5:
                q = -q
            p = s  # m = 0
            if p % 2 != 0 or gcd(abs(q), abs(p) // 2) != 1:
                ok = False
                break
            ends.append(EndData(None, F(q, s), q, abs(s), s, p))
        if not ok:
            continue
        fam = YpqFamily(
            A=F(-1, 200), C=F(1), m=0, delta_minus=None, delta_plus=None,
            minus=ends[0], plus=ends[1], quasi_regular=True,
            simply_connected=gcd(abs(ends[0].q), abs(ends[1].q)) == 1,
        )
        diagram = build_diagram(fam)
        coprime = gcd(abs(fam.plus.q), abs(fam.minus.q)) == 1
        assert diagram.simply_connected == coprime
        checked += 1
        coprime_seen += coprime
        non_coprime_seen += not coprime
    assert coprime_seen and non_coprime_seen
    _report(6, f"simply_connected <=> gcd(q+, q-) = 1 on 50 candidates ({coprime_seen} coprime, {non_coprime_seen} not)")


def test_criterion_7_kazdan_warner_suite():
    def monomial(j, order=12):
        coeffs = [0.0] * (order + 1)
        coeffs[j] = 1.0
        return coeffs

    assert kw_extends(monomial(2), sigma=1, n=2) == (True, None)
    assert kw_extends(monomial(0), sigma=1, n=2) == (False, 0)
    assert kw_extends(monomial(3), sigma=2, n=2) == (True, None)

    rng = np.random.default_rng(77)
    for _ in range(20):
        sigma = int(rng.integers(1, 5))
        n = int(rng.integers(0, 10))
        j = int(rng.integers(0, 10))
        got, _ = kw_extends(monomial(j, order=14), sigma=sigma, n=n)
        if n % sigma != 0:
            expected = False
        else:
            w = abs(n // sigma)
            expected = j >= w and (j - w) % 2 == 0
        assert got == expected, (sigma, n, j)
    _report(7, "three worked examples plus 20 randomized monomial cases match the divisibility/vanishing rule exactly")


def test_criterion_8_case_iii_rejection_property():
    start = time.monotonic()
    rng = np.random.default_rng(88)
    rejected = 0
    obstructions = set()
    while rejected < 20:
        st = CaseIIIState(
            float(rng.uniform(0.25, 0.6)),
            float(rng.uniform(0.25, 0.6)),
            float(rng.uniform(-0.15, 0.15)),
            float(rng.uniform(-0.15, 0.15)),
            float(rng.uniform(0.08, 0.35)),
        )
        if st.delta < 0.05 or (st.v == 0 and st.z == 0):
            continue
        report = reject_case_iii(st, 1e-3)
        assert not report.passed, st
        assert report.failing(), st
        obstructions.update(report.failing())
        rejected += 1

    # the round-type diagnostic measures r (dV/dr)/V = -3 on the model
    # profile of an obstructed three-dimensional end
    def model(r):
        v = 1e-4 * r**-3
        u = math.sqrt(r * r / 4.0 + v * v)
        return CaseIIIState(u + v, u - v, 0.0, 0.0, 0.0)  # a is not read

    round_report = check_round_branch(model, [0.128 * 0.5**i for i in range(5)])
    cond = next(c for c in round_report.conditions if c.name == "v_log_derivative_nonnegative")
    assert cond.measured == pytest.approx(-3.0, abs=1e-4)
    assert not cond.passed

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(
        8,
        f"20/20 randomized non-conformal flows rejected with named obstructions {sorted(obstructions)}; "
        f"round-type diagnostic measures the -3 limit ({elapsed:.1f}s)",
    )


def test_criterion_9_frame_chart_consistency():
    chart = ypq_chart(A_EX)
    worst = 0.0
    for p in sample_interior_points(chart, 10, seed=9):
        push = case_ii_frame_metric_in_chart(A_EX, 6.0, p)
        direct = chart.metric(p)
        worst = max(worst, float(np.abs(push - direct).max()))
    assert worst <= 1e-9
    _report(9, f"invariant-frame metric equals the coordinate metric entrywise to {worst:.2e} <= 1e-9 at 10 points")
