import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esasaki.exterior import DT, E1, E2, E3, E4, InvariantForm, d_invariant, monomial, wedge
from esasaki.structures import (
    DegenerateCoframeError,
    FamilyTag,
    IdStructure,
    NotASolutionError,
    assemble_su2_forms,
    assemble_su2_rates,
    normal_form,
    residual_es,
    residual_hypo,
    residual_hypo_batch,
)
from esasaki.evolution import CaseIIState, closed_form_case_i

S6 = 1.0 / math.sqrt(6.0)


def homogeneous_structure():
    return IdStructure(((1 / 3, 0, 0, 1), (0, 0, 0, 1), (0, S6, 0, 0), (0, 0, S6, 0)), m=0)


def case_ii_rates(h, a, C, m):
    hdot = a / (2 * h)
    adot = 1 - 6 * h * h - a * a / (2 * h * h)
    return (
        (2 * a, 0, 0, 2 * C * a),
        (adot, 0, 0, adot * C),
        (0, hdot, 0, 0),
        (0, 0, hdot, 0),
    )


def case_i_rates(k, m, t):
    eps = math.sqrt(6.0)
    gdot = -k * eps * math.sin(eps * t)
    fdot = -0.5 * k * eps * eps * math.cos(eps * t)
    return ((0, 0, 0, gdot), (0, 0, 0, fdot), (0, 0, 0, 0), (0, 0, 0, 0))


# ---------------------------------------------------------------------------
# residual_hypo



def exact_algebra_residuals(eta, m):
    """The three residual norms written out in the exact algebra."""
    e0, e1, e2, e3 = (InvariantForm(1, {(j + 1,): c for j, c in enumerate(row) if c != 0}) for row in eta)
    e23, e31, e12 = wedge(e2, e3), wedge(e3, e1), wedge(e1, e2)
    return (
        (d_invariant(e0) + 2 * e23).norm(),
        (d_invariant(e31) - 3 * wedge(e0, e12) - m * wedge(E4, e12)).norm(),
        (d_invariant(e12) + 3 * wedge(e0, e31) + m * wedge(E4, e31)).norm(),
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.floats(-4, 4), min_size=16, max_size=16), min_size=1, max_size=6),
    st.integers(0, 3),
)
def test_batched_residual_matches_exact_algebra(rows, m):
    etas = np.array(rows).reshape(-1, 4, 4)
    batch = residual_hypo_batch(etas, m)
    assert batch.shape == (len(etas), 3)
    for row, eta in zip(batch, etas):
        for value, reference in zip(row, exact_algebra_residuals(eta, m)):
            assert abs(value - reference) <= 4 * math.ulp(reference)
        assert tuple(row) == residual_hypo(IdStructure(eta, m))

def test_homogeneous_structure_solves():
    assert max(residual_hypo(homogeneous_structure())) < 1e-14


def test_doubled_eta2_breaks_first_equation():
    s = homogeneous_structure()
    rows = list(s.eta)
    rows[2] = tuple(2 * c for c in rows[2])
    broken = IdStructure(tuple(rows), 0)
    r = residual_hypo(broken)
    eta0, _, eta2, eta3 = broken.one_forms()
    expected = (d_invariant(eta0) + 2 * wedge(eta2, eta3)).norm()
    assert r[0] == pytest.approx(expected)
    assert r[0] > 0.1


def test_case_ii_family_solves_for_all_parameters():
    for h, a, C, m in [(0.35, 0.22, 6.0, 0), (0.4, 0.1, -2.0, 3), (0.17, 0.9, 0.5, -1)]:
        st = CaseIIState(h, a, C, m).to_id_structure()
        assert max(residual_hypo(st)) < 1e-14


def test_ypq_family_with_constraint_solves():
    # non-closed family: 3 a1 mu = 6 h^2 a4 - a4 - a1 m
    h, a1, a4, m = 0.45, 0.3, 0.7, 2
    mu = (6 * h * h * a4 - a4 - a1 * m) / (3 * a1)
    st = IdStructure(((2 * h * h, 0, 0, mu), (a1, 0, 0, a4), (0, h, 0, 0), (0, 0, h, 0)), m)
    assert max(residual_hypo(st)) < 1e-14


def test_u1_action_invariance_of_residuals():
    rng = np.random.default_rng(3)
    st = CaseIIState(0.3, 0.4, 2.0, 1).to_id_structure()
    base = residual_hypo(st)
    for _ in range(5):
        angle = float(rng.uniform(0, 2 * math.pi))
        rotated = st.apply_u1(angle)
        assert residual_hypo(rotated) == pytest.approx(base, abs=1e-12)


def test_sign_change_invariance_of_residuals():
    st = homogeneous_structure()
    assert residual_hypo(st.sign_change()) == pytest.approx(residual_hypo(st), abs=1e-15)


# ---------------------------------------------------------------------------
# assemble + residual_es


def test_assemble_homogeneous_values():
    forms = assemble_su2_forms(homogeneous_structure())
    assert forms.alpha.allclose(1 / 3 * E1 + E4)
    assert forms.omega1.allclose(1 / 6 * monomial(2, 3) + wedge(E4, DT))


def test_assemble_accepts_time_indexed_family():
    family = lambda t: closed_form_case_i(1.0, 0, t)
    forms = assemble_su2_forms(family, t=0.4)
    assert forms.alpha.allclose(closed_form_case_i(1.0, 0, 0.4).one_forms()[0])


def test_assemble_identity_rows_reference_pattern():
    ident = IdStructure(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    forms = assemble_su2_forms(ident)
    forms.validate()
    assert forms.omega1.allclose(monomial(3, 4) + wedge(E2, DT))


def test_assemble_case_ii_matches_explicit_shape():
    h, a, C, m = 0.35, 0.22, 6.0, 0
    forms = assemble_su2_forms(CaseIIState(h, a, C, m).to_id_structure())
    e14 = E1 + C * E4
    assert forms.omega1.allclose(h * h * monomial(2, 3) + a * wedge(e14, DT))
    # omega2 = eta3 ^ eta1 + eta2 ^ dt with eta3 = h e3, eta1 = a(e1 + C e4)
    expected2 = wedge(h * E3, a * e14) + wedge(h * E2, DT)
    assert forms.omega2.allclose(expected2)
    expected3 = wedge(a * e14, h * E2) + wedge(h * E3, DT)
    assert forms.omega3.allclose(expected3)


def test_assemble_degenerate_coframe_errors():
    degenerate = IdStructure(((1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(DegenerateCoframeError):
        assemble_su2_forms(degenerate)


def test_residual_es_exact_case_ii():
    h, a, C, m = 0.35, 0.22, 6.0, 0
    st = CaseIIState(h, a, C, m).to_id_structure()
    forms = assemble_su2_forms(st)
    rates = assemble_su2_rates(st, case_ii_rates(h, a, C, m))
    assert max(residual_es(forms, rates)) < 1e-12


def test_residual_es_exact_case_ii_nonzero_m():
    h, a, C, m = 0.3, 0.15, 4.0, 3
    st = CaseIIState(h, a, C, m).to_id_structure()
    forms = assemble_su2_forms(st)
    rates = assemble_su2_rates(st, case_ii_rates(h, a, C, m))
    assert max(residual_es(forms, rates)) < 1e-12


def test_residual_es_homogeneous_solution_any_t():
    for k, m, t in [(1.0, 0, 0.2), (1.0, 0, 1.0), (1.3, 2, 0.7)]:
        st = closed_form_case_i(k, m, t)
        forms = assemble_su2_forms(st)
        rates = assemble_su2_rates(st, case_i_rates(k, m, t))
        assert max(residual_es(forms, rates)) < 1e-12


def test_residual_es_scaled_alpha_offset():
    from dataclasses import replace

    h, a, C, m = 0.35, 0.22, 6.0, 0
    st = CaseIIState(h, a, C, m).to_id_structure()
    forms = assemble_su2_forms(st)
    rates = assemble_su2_rates(st, case_ii_rates(h, a, C, m))
    scaled_forms = replace(forms, alpha=2 * forms.alpha)
    scaled_rates = replace(rates, alpha=2 * rates.alpha)
    r = residual_es(scaled_forms, scaled_rates)
    d_alpha = (d_invariant(forms.alpha) + wedge(DT, rates.alpha)).norm()
    assert r[0] == pytest.approx(d_alpha)
    assert r[0] > 0.0


# ---------------------------------------------------------------------------
# normal form


def random_so3(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def test_normal_form_canonical_input_is_fixed():
    h, a1, a4, m = 0.4, 0.3, 0.7, 1
    mu = (6 * h * h * a4 - a4 - a1 * m) / (3 * a1)
    st = IdStructure(((2 * h * h, 0, 0, mu), (a1, 0, 0, a4), (0, h, 0, 0), (0, 0, h, 0)), m)
    tag, transform = normal_form(st)
    assert tag.variant == "GoGivingYpq"
    assert tag.h == pytest.approx(h)
    assert tag.a1 == pytest.approx(a1)
    assert tag.a4 == pytest.approx(a4)
    assert tag.mu == pytest.approx(mu)
    assert np.allclose(np.array(transform.so3), np.eye(3))
    assert transform.u1_angle == pytest.approx(0.0)
    assert transform.eta1_sign == 1


def test_normal_form_recovers_parameters_after_conjugation():
    rng = np.random.default_rng(11)
    h, a1, a4, m = 0.4, 0.3, 0.7, 1
    mu = (6 * h * h * a4 - a4 - a1 * m) / (3 * a1)
    st = IdStructure(((2 * h * h, 0, 0, mu), (a1, 0, 0, a4), (0, h, 0, 0), (0, 0, h, 0)), m)
    for _ in range(10):
        g = st.apply_so3(random_so3(rng)).apply_u1(float(rng.uniform(0, 2 * math.pi)))
        if rng.random() < 0.5:
            g = g.sign_change()
        tag, transform = normal_form(g)
        assert tag.variant == "GoGivingYpq"
        assert tag.h == pytest.approx(h, abs=1e-9)
        assert tag.a1 == pytest.approx(a1, abs=1e-9)
        assert tag.a4 == pytest.approx(a4, abs=1e-9)
        assert tag.mu == pytest.approx(mu, abs=1e-9)
        canon = transform.apply(g)
        assert max(residual_hypo(canon)) < 1e-9


def test_normal_form_equivalence_invariance_closed_variant():
    rng = np.random.default_rng(4)
    h, k, a, c, m = 0.8, 0.5, 0.45, -0.3, 2
    st = IdStructure(((2 * h * k, 0, 0, -m / 3), (a, 0, 0, 0), (0, h, 0, 0), (0, c, k, 0)), m)
    tag0, _ = normal_form(st)
    assert tag0.variant == "GoGivingNothing"
    assert tag0.h > 0 and tag0.k > 0 and tag0.a > 0
    assert tag0.h * tag0.k == pytest.approx(h * k, abs=1e-12)
    for _ in range(10):
        g = st.apply_so3(random_so3(rng)).apply_u1(float(rng.uniform(0, 2 * math.pi)))
        if rng.random() < 0.5:
            g = g.flip_eta1()
        tag1, _ = normal_form(g)
        assert tag1.variant == "GoGivingNothing"
        for name in ("h", "k", "a", "c"):
            assert getattr(tag1, name) == pytest.approx(getattr(tag0, name), abs=1e-9)


def test_normal_form_closed_variant_detection():
    # data with eta31 closed lands in the closed family regardless of c
    st = IdStructure(((2 * 0.35, 0, 0, -1 / 3), (0.2, 0, 0, 0), (0, 0.7, 0, 0), (0, 0.4, 0.5, 0)), 1)
    tag, _ = normal_form(st)
    assert tag.variant == "GoGivingNothing"


def test_normal_form_of_flowed_state():
    # integrator output is a solution only to integrator accuracy; the
    # reduction still recovers the family parameters along the flow
    from esasaki.evolution import evolve_general

    st0 = CaseIIState(0.38, 0.1, 6.0, 0)
    flow = evolve_general(st0.to_id_structure(), (0, 0.4), 1e-3, record_every=100)
    final = flow.states[-1]
    tag, _ = normal_form(final, tol=1e-8)
    assert tag.variant == "GoGivingYpq"
    w = final.matrix
    h_expected = w[2, 1]  # the eta2 e2-coefficient is h along this flow
    assert tag.h == pytest.approx(h_expected, abs=1e-9)
    assert tag.a4 == pytest.approx(6.0 * tag.a1, abs=1e-9)  # a4 = C a1


def test_normal_form_rejects_non_solution():
    bad = IdStructure(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    with pytest.raises(NotASolutionError):
        normal_form(bad)


def test_normal_form_degenerate_eta0():
    # an exact solution whose eta0 su(2) component is below tolerance:
    # the closed family with h k = eps/2 (a closed eta0 cannot carry a
    # genuine coframe, so the degenerate path is the near-closed one)
    eps = 1e-12
    hk = math.sqrt(eps / 2)
    st = IdStructure(((eps, 0, 0, -1 / 3), (0.5, 0, 0, 0), (0, hk, 0, 0), (0, 0, hk, 0)), 1)
    assert max(residual_hypo(st)) < 1e-15
    with pytest.raises(NotASolutionError, match="degenerate"):
        normal_form(st)


# ---------------------------------------------------------------------------
# serialization


def test_id_structure_json_roundtrip():
    st = CaseIIState(0.35, 0.22, 6.0, 2).to_id_structure()
    back = IdStructure.loads(st.dumps())
    assert back.m == 2
    assert np.allclose(back.matrix, st.matrix)


def test_id_structure_json_preserves_exact_coefficients():
    from fractions import Fraction as F

    st = IdStructure(((F(2, 9), 0, 0, F(-1, 3)), (F(1, 2), 0, 0, 0), (0, F(1, 3), 0, 0), (0, 0, F(1, 3), 0)), 1)
    back = IdStructure.loads(st.dumps())
    assert back.eta[0][0] == F(2, 9)
    assert isinstance(back.eta[0][0], F)
    assert back.eta == st.eta


def test_family_tag_json_fields():
    tag = FamilyTag(variant="GoGivingYpq", m=1, h=0.4, a1=0.3, a4=0.7, mu=-0.2)
    data = json.loads(tag.dumps())
    assert data["variant"] == "GoGivingYpq"
    assert set(data) == {"variant", "h", "m", "a1", "a4", "mu"}
    tag2 = FamilyTag(variant="GoGivingNothing", m=0, h=1.0, k=0.5, a=0.1, c=0.0)
    assert set(json.loads(tag2.dumps())) == {"variant", "h", "m", "k", "a", "c"}
