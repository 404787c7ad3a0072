import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esasaki.structures import (
    DegenerateCoframeError,
    FamilyTag,
    IdStructure,
    NotASolutionError,
    gauge,
    normal_form,
    residual_es,
    residual_hypo,
    residual_hypo_batch,
)
from esasaki.evolution import CaseIIState, closed_form_case_i

import exact_forms
import gauge_oracle

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
        for value, reference in zip(row, map(exact_forms.norm, exact_forms.hypo_residuals(eta, m))):
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
    expected = exact_forms.norm(exact_forms.hypo_residuals(broken.eta, 0)[0])
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
        rotated = IdStructure(gauge(st.matrix, u1_angle=angle), st.m)
        assert residual_hypo(rotated) == pytest.approx(base, abs=1e-12)


def test_sign_change_invariance_of_residuals():
    st = homogeneous_structure()
    r0, r1, r2, r3 = st.eta
    reversed_ = IdStructure((r0, tuple(-c for c in r1), tuple(-c for c in r2), tuple(-c for c in r3)), st.m)
    assert residual_hypo(reversed_) == pytest.approx(residual_hypo(st), abs=1e-15)


# ---------------------------------------------------------------------------
# residual_es


def es_residual(structure, rates):
    return residual_es(structure.matrix[None], np.array(rates, dtype=float)[None], structure.m)[0]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.floats(-4, 4), min_size=32, max_size=32), min_size=1, max_size=6),
    st.integers(-3, 3),
)
def test_residual_es_matches_exact_algebra(rows, m):
    # the five-dimensional residuals, dt monomials included, in the reference
    data = np.array(rows).reshape(-1, 2, 4, 4)
    etas, rates = data[:, 0], data[:, 1]
    batch = residual_es(etas, rates, m)
    assert batch.shape == (len(etas), 3)
    for row, eta, rate in zip(batch, etas, rates):
        for value, reference in zip(row, map(exact_forms.norm, exact_forms.es_residuals(eta, rate, m))):
            assert abs(value - reference) <= 4 * math.ulp(reference)


def test_require_coframe_rejects_degenerate_rows():
    degenerate = IdStructure(((1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    with pytest.raises(DegenerateCoframeError):
        degenerate.require_coframe()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), min_size=16, max_size=16))
def test_structure_forms_are_compatible_exactly_when_eta_is_a_coframe(entries):
    # alpha ^ omega_i ^ omega_j = 2 delta_ij det(eta) e1234 ^ dt for any
    # coefficients, so the compatibility of the forms is det(eta) != 0
    eta = [entries[4 * i:4 * i + 4] for i in range(4)]
    (alpha, *omegas), _ = exact_forms.su2_forms(eta, [[0] * 4] * 4)
    det = sum(
        exact_forms.brute_force_wedge_sign(perm, ())[1] * math.prod(eta[i][j - 1] for i, j in enumerate(perm))
        for perm in permutations(range(1, 5))
    )
    for i in range(3):
        for j in range(3):
            product = exact_forms.wedge(alpha, exact_forms.wedge(omegas[i], omegas[j]))
            expected = {(1, 2, 3, 4, 5): 2 * det} if i == j and det else {}
            assert product == expected


def test_residual_es_exact_case_ii():
    h, a, C, m = 0.35, 0.22, 6.0, 0
    st = CaseIIState(h, a, C, m).to_id_structure()
    assert max(es_residual(st, case_ii_rates(h, a, C, m))) < 1e-12


def test_residual_es_exact_case_ii_nonzero_m():
    h, a, C, m = 0.3, 0.15, 4.0, 3
    st = CaseIIState(h, a, C, m).to_id_structure()
    assert max(es_residual(st, case_ii_rates(h, a, C, m))) < 1e-12


def test_residual_es_homogeneous_solution_any_t():
    for k, m, t in [(1.0, 0, 0.2), (1.0, 0, 1.0), (1.3, 2, 0.7)]:
        st = closed_form_case_i(k, m, t)
        assert max(es_residual(st, case_i_rates(k, m, t))) < 1e-12


def test_residual_es_scaled_alpha_offset():
    # doubling alpha and its rate leaves d alpha + dt ^ alpha' as the first residual
    h, a, C, m = 0.35, 0.22, 6.0, 0
    st = CaseIIState(h, a, C, m).to_id_structure()
    rates = np.array(case_ii_rates(h, a, C, m), dtype=float)
    eta = st.matrix
    eta[0] *= 2
    rates[0] *= 2
    r = residual_es(eta[None], rates[None], m)[0]
    alpha = exact_forms.one_form(st.matrix[0])
    alpha_dot = exact_forms.one_form(rates[0] / 2)
    dt = exact_forms.basis(exact_forms.DT)
    d_alpha = exact_forms.add(exact_forms.d(alpha), exact_forms.wedge(dt, alpha_dot))
    assert r[0] == pytest.approx(exact_forms.norm(d_alpha))
    assert r[0] > 0.0


# ---------------------------------------------------------------------------
# normal form


def random_so3(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


# coefficients of the stacks below: floats, signed zeros and fractions,
# the last as rows of an IdStructure that converts them to float
_COEFFICIENT = st.one_of(
    st.floats(-4, 4),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
)
_SO3 = st.one_of(
    st.sampled_from([np.eye(3), np.diag([-1.0, 1.0, -1.0])]),
    st.integers(0, 2**32 - 1).map(lambda seed: random_so3(np.random.default_rng(seed))),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(_COEFFICIENT, min_size=16, max_size=16), min_size=1, max_size=5),
    _SO3,
    st.one_of(st.just(0.0), st.floats(-7, 7)),
)
def test_gauge_on_stacks_matches_the_per_row_oracle_bit_for_bit(rows, so3, angle):
    # gauge acts on the float coframes, so the oracle does too: negated,
    # a zero Fraction stays unsigned where the float 0.0 becomes -0.0
    frames = [IdStructure(IdStructure([r[4 * i:4 * i + 4] for i in range(4)], 1).matrix, 1) for r in rows]
    stack = np.stack([frame.matrix for frame in frames])
    parts = {
        "none": ({}, lambda s: s),
        "so3": ({"so3": so3}, lambda s: gauge_oracle.apply_so3(s, so3)),
        "u1": ({"u1_angle": angle}, lambda s: gauge_oracle.apply_u1(s, angle)),
        "flip": ({"eta1_sign": -1}, gauge_oracle.flip_eta1),
        "all": (
            {"so3": so3, "u1_angle": angle, "eta1_sign": -1},
            lambda s: gauge_oracle.flip_eta1(gauge_oracle.apply_u1(gauge_oracle.apply_so3(s, so3), angle)),
        ),
    }
    for name, (kwargs, oracle) in parts.items():
        out = gauge(stack, **kwargs)
        assert out.shape == stack.shape and not np.shares_memory(out, stack)
        for i, frame in enumerate(frames):
            assert out[i].tobytes() == oracle(frame).matrix.tobytes(), name
            assert out[i].tobytes() == gauge(stack[i], **kwargs).tobytes(), name

    # the orientation reversal commutes with the action, up to the sign of a zero
    def reverse(etas):
        return np.stack([gauge_oracle.sign_change(IdStructure(eta)).matrix for eta in etas])

    kwargs = parts["all"][0]
    assert np.array_equal(gauge(reverse(stack), **kwargs), reverse(gauge(stack, **kwargs)))


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
        w = gauge(st.matrix, random_so3(rng), float(rng.uniform(0, 2 * math.pi)))
        if rng.random() < 0.5:
            w[1:] = -w[1:]  # orientation reversal (eta0, -eta1, -eta2, -eta3)
        g = IdStructure(w, m)
        tag, transform = normal_form(g)
        assert tag.variant == "GoGivingYpq"
        assert tag.h == pytest.approx(h, abs=1e-9)
        assert tag.a1 == pytest.approx(a1, abs=1e-9)
        assert tag.a4 == pytest.approx(a4, abs=1e-9)
        assert tag.mu == pytest.approx(mu, abs=1e-9)
        canon = IdStructure(gauge(g.matrix, transform.so3, transform.u1_angle, transform.eta1_sign), m)
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
        so3, angle = random_so3(rng), float(rng.uniform(0, 2 * math.pi))
        g = IdStructure(gauge(st.matrix, so3, angle, -1 if rng.random() < 0.5 else 1), m)
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
    final = IdStructure(flow.coefficients[-1].reshape(4, 4).tolist(), 0)
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
    back = IdStructure.from_json_dict(json.loads(json.dumps(st.to_json_dict())))
    assert back.m == 2
    assert np.allclose(back.matrix, st.matrix)


def test_id_structure_json_preserves_exact_coefficients():
    from fractions import Fraction as F

    st = IdStructure(((F(2, 9), 0, 0, F(-1, 3)), (F(1, 2), 0, 0, 0), (0, F(1, 3), 0, 0), (0, 0, F(1, 3), 0)), 1)
    back = IdStructure.from_json_dict(json.loads(json.dumps(st.to_json_dict())))
    assert back.eta[0][0] == F(2, 9)
    assert isinstance(back.eta[0][0], F)
    assert back.eta == st.eta


def test_family_tag_json_fields():
    tag = FamilyTag(variant="GoGivingYpq", m=1, h=0.4, a1=0.3, a4=0.7, mu=-0.2)
    data = json.loads(json.dumps(tag.to_json_dict()))
    assert data["variant"] == "GoGivingYpq"
    assert set(data) == {"variant", "h", "m", "a1", "a4", "mu"}
    tag2 = FamilyTag(variant="GoGivingNothing", m=0, h=1.0, k=0.5, a=0.1, c=0.0)
    assert set(json.loads(json.dumps(tag2.to_json_dict()))) == {"variant", "h", "m", "k", "a", "c"}
