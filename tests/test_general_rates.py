"""The general flow's rate kernel.

The flow solves its 18 x 12 rate system by least squares in the coframe
eta0..eta3, where the matrix is the constant M = A(I): a literal
pseudo-inverse table and a 3x3 solve for the part of the right-hand side
outside the system's image.  Pinned here: the table is M's exact
pseudo-inverse, the kernel recovers random rational rates from their
exact right-hand side, it returns the least-squares rates of the solve
it replaced (``tests/lstsq_oracle.py``) on and off the solutions, the
flow keeps that solve's stability where the coframe degenerates, and a
singular or non-finite coframe gives non-finite rates instead of an
exception.
"""

import json
import math
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from esasaki import evolution
from esasaki.cli import main
from esasaki.moduli import cubic_roots
from esasaki.structures import IdStructure
from esasaki.evolution import (
    CaseIIIState,
    CaseIIState,
    _FRAME,
    _RATE_PINV,
    _coframe_solve,
    _general_rates,
    closed_form_case_i,
    evolve_general,
    general_rhs,
    rk4_path,
    rk4_step,
)

from exact_forms import add, one_form, rate_defect, wedge
from lstsq_oracle import lstsq_rhs, reference_general_system

EPS = np.finfo(float).eps
PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def exact_det(rows) -> F:
    """Determinant by the permutation expansion, exact on Fractions."""
    total = F(0)
    for perm in permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = F(sign)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def exact_product_rule(eta, rates) -> list:
    """A x over the monomials of e1..e4, from the product rule in the
    reference algebra: the left-hand sides of the three equations."""
    _, e1, e2, e3 = map(one_form, eta)
    x1, x2, x3 = map(one_form, rates)
    sides = (
        add(wedge(x2, e3), wedge(e2, x3)),
        add(wedge(x3, e1), wedge(e3, x1)),
        add(wedge(x1, e2), wedge(e1, x2)),
    )
    return [side.get(pair, F(0)) for side in sides for pair in PAIRS]


# ---------------------------------------------------------------------------
# the table


def test_rate_pinv_is_the_exact_pseudo_inverse_of_the_unit_coframe_system():
    A, _ = reference_general_system(np.eye(4).reshape(-1), 0)
    M = A.astype(int)
    assert (M == A).all() and set(np.unique(M).tolist()) == {-1, 0, 1}
    # the table in halves, as integers: 2 M+
    P = (2 * _RATE_PINV).astype(int)
    assert (P == 2 * _RATE_PINV).all()
    assert np.count_nonzero(P) == 21
    identity = np.eye(12, dtype=int)
    assert (P @ M == 2 * identity).all()
    assert (M @ P @ M == 2 * M).all()
    # the other two Penrose conditions: M+ M M+ = M+ and M M+ symmetric
    assert (P @ M @ P == 2 * P).all()
    assert (M @ P == (M @ P).T).all()


# ---------------------------------------------------------------------------
# exact recovery on rational coframes

_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@settings(max_examples=200, deadline=None)
@given(
    eta=st.lists(st.lists(_RATIONALS, min_size=4, max_size=4), min_size=4, max_size=4),
    rates=st.lists(st.lists(_RATIONALS, min_size=4, max_size=4), min_size=3, max_size=3),
)
def test_kernel_recovers_rational_rates_from_their_exact_right_hand_side(eta, rates):
    assume(abs(exact_det(eta)) >= F(1, 4))
    # b excludes the constant monomials 3 eta0 ^ eta3 and -3 eta0 ^ eta2,
    # which the kernel adds itself
    e0 = one_form(eta[0])
    constants = [F(0)] * 6 + [
        c for form in (wedge({k: 3 * v for k, v in e0.items()}, one_form(eta[3])),
                       wedge({k: -3 * v for k, v in e0.items()}, one_form(eta[2])))
        for c in (form.get(pair, F(0)) for pair in PAIRS)
    ]
    b = np.array([p - c for p, c in zip(exact_product_rule(eta, rates), constants)], dtype=float)
    y = np.array(eta, dtype=float).reshape(-1)
    x = np.array(rates, dtype=float).reshape(-1)
    out = _coframe_solve(y, b.reshape(3, 6))
    # Stated before measuring: on a consistent system least squares has a
    # forward error of a few eps cond(A) |x|; the float b and the constant
    # monomials add a few eps more.  Bound: 100 eps cond(A) max(1, |x|).
    bound = 100 * EPS * _cond(y) * max(1.0, np.linalg.norm(x))
    assert np.abs(out - x).max() <= bound


def test_frame_gather_gives_the_adjugate_of_the_second_compound():
    # adj = det(E) Lambda2(E)^-1 by Jacobi's complementary minors
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(size=16)
        E = y.reshape(4, 4)
        compound = np.array([[np.linalg.det(E[[p - 1, q - 1]][:, [a - 1, c - 1]]) for a, c in PAIRS]
                             for p, q in PAIRS])
        g = y[_FRAME]
        out = g[0] * g[1] - g[2] * g[3]
        adj = out[24:].reshape(6, 6).T
        assert np.allclose(compound @ adj, np.linalg.det(E) * np.eye(6), atol=1e-12)
        assert np.allclose(out[:18].reshape(3, 6), adj[:, :3].T, atol=0)
        assert np.allclose(out[18:24], compound[0], atol=1e-14)


# ---------------------------------------------------------------------------
# against the least-squares oracle


def _solution_coframes():
    """Solutions of the structure equations, where the rate system is
    consistent: conformal (case ii), rotating (case i) and
    five-parameter (case iii) coframes."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        h, a = rng.uniform(0.1, 0.6, size=2)
        C = rng.uniform(-6.0, 6.0)
        m = int(rng.integers(0, 4))
        if abs(C + m) > 0.05:  # C = -m is a degenerate conformal coframe
            yield CaseIIState(h, a, C, m).to_id_structure()
    for k, m, t in ((1.2, 3, 0.35), (0.7, 0, 0.2), (2.0, 1, 0.9)):
        yield closed_form_case_i(k, m, t)
    for h, k, b, c, a in ((0.4, 0.3, 0.05, 0.1, 0.2), (0.5, 0.3, -0.05, 0.1, 0.3), (0.8, 0.7, 0.1, -0.2, 0.6)):
        yield CaseIIIState(h, k, b, c, a).to_id_structure(m=2)


def _residual_rounding(y, m, *rates):
    """Rounding of |A x - b| in float: 16 eps (|A| max |x| + |b|)."""
    A, b = reference_general_system(y, m)
    return 16 * EPS * (np.linalg.norm(A) * max(np.linalg.norm(x[4:]) for x in rates) + np.linalg.norm(b))


def _cond(y):
    return np.linalg.cond(reference_general_system(y, 0)[0])


@pytest.mark.parametrize("structure", list(_solution_coframes()))
def test_rates_agree_with_least_squares_on_solutions(structure):
    y, m = structure.matrix.reshape(-1), structure.m
    rates, consistency = general_rhs(y, m)
    oracle, residual = lstsq_rhs(y, m)
    # on a consistent system both solve A x = b, each to a few eps cond(A)
    # relative to the size of the rates
    scale = max(1.0, np.abs(oracle).max())
    assert np.abs(rates - oracle).max() <= 100 * EPS * _cond(y) * scale
    assert (rates[:4] == 2.0 * y[4:8]).all()
    assert consistency >= residual - _residual_rounding(y, m, rates, oracle)
    assert consistency <= 1e-12 * scale


@settings(max_examples=100, deadline=None)
@given(
    y=st.lists(st.floats(-2.0, 2.0), min_size=16, max_size=16),
    m=st.integers(-3, 3),
)
# N^T N nearly of rank one (condition 1.5e5): its adjugate lost the rates
# to 1e-6 here, and the defect rose 1.2e-12 above the least-squares one
@example(y=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0078125, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0], m=0)
def test_rates_are_the_least_squares_rates_off_the_solutions(y, m):
    # off the solutions the system is inconsistent: the kernel returns the
    # rates of smallest defect, as the least-squares solve does
    y = np.array(y)
    assume(abs(np.linalg.det(y.reshape(4, 4))) > 1e-3)
    rates, consistency = general_rhs(y, m)
    oracle, residual = lstsq_rhs(y, m)
    A, _ = reference_general_system(y, m)
    rounding = _residual_rounding(y, m, rates, oracle)
    # the defect of the rates returned, against exact arithmetic
    exact = math.sqrt(sum(e * e for e in rate_defect(y, rates[4:], m)))
    assert abs(consistency - exact) <= rounding
    assert residual - rounding <= consistency <= residual + rounding
    # Least squares moves by about eps (cond(A) |x| + cond(A)^2 |r| / |A|)
    # under rounding.  The kernel takes the residual part of b through the
    # Gram matrix N^T N of :func:`_coframe_solve`, whose condition number
    # grows like c^2, c = tr(N^T N) / |det E|, and that part reaches the
    # rates through A: eps cond(A) c^2 |r| / |A| more.  100 times the sum.
    # (Without the c^2 term the bound fails by 2.4 times where c is 2e4.)
    kappa, norm_A = _cond(y), np.linalg.norm(A, 2)
    g = y[_FRAME]
    c = ((g[0] * g[1] - g[2] * g[3])[:18] ** 2).sum() / abs(np.linalg.det(y.reshape(4, 4)))
    bound = 100 * EPS * (kappa * np.linalg.norm(oracle[4:]) + kappa * (kappa + c**2) * residual / norm_A)
    assert np.abs(rates - oracle).max() <= bound


def test_general_flow_tracks_the_least_squares_flow():
    # the conformal flow of weight 1 from the README's family, well inside
    # its coframe domain: the two solves step to the same states
    structure = CaseIIState(0.3, 0.4, 2.0, 1).to_id_structure()
    flow = evolve_general(structure, (0.0, 0.5), 1e-3, record_every=1)
    _, states, _ = rk4_path(lambda t, y: lstsq_rhs(y, 1)[0], structure.matrix.reshape(-1), 0.0, 0.5, 1e-3)
    assert np.abs(flow.coefficients - states).max() <= 1e-13
    for y, consistency in zip(flow.coefficients, flow.consistency):
        oracle, residual = lstsq_rhs(y, 1)
        assert consistency >= residual - _residual_rounding(y, 1, general_rhs(y, 1)[0], oracle)
    assert flow.consistency.max() <= 1e-12


# ---------------------------------------------------------------------------
# flows into their coframe degeneration

# a conformal coframe whose flow degenerates at t = 1.19; with the rates
# of smallest defect measured over eta0..eta3 instead of e1..e4, this
# flow left the solutions near the crossing and aborted ("consistency
# defect 3.035e-05")
_DEGENERATING = CaseIIState(0.3383539545048488, 0.03274862989477612, 3.587273891557608, 0)
# one that degenerates at t = 0.035, with cond(A) above 5e7 at the RK4
# stages of its last step: rates off by 1e-10 along the near-null
# directions of A leave the defect at rounding but move the crossing
_SOON_DEGENERATING = CaseIIState(0.4756624599274639, 0.012598435400880181, 0.3496674530868358, 0)


def _lstsq_flow(y0, m, t1, step):
    """The flow of the least-squares oracle, stopped as evolve_general stops."""
    sign = math.copysign(1.0, np.linalg.det(y0.reshape(4, 4)))

    def exits(y):
        return None if np.linalg.det(y.reshape(4, 4)) * sign >= 1e-9 else "coframe degenerate"

    return rk4_path(lambda t, y: lstsq_rhs(y, m)[0], y0, 0.0, t1, step, exits=exits)


@pytest.mark.parametrize("start", [_DEGENERATING, _SOON_DEGENERATING], ids=["t1.19", "t0.035"])
def test_flow_into_its_coframe_degeneration_tracks_the_least_squares_flow(start):
    structure = start.to_id_structure()
    flow = evolve_general(structure, (0.0, 3.0), 1e-3, record_every=1)
    times, states, reason = _lstsq_flow(structure.matrix.reshape(-1), 0, 3.0, 1e-3)
    assert flow.stopped_reason == reason == "coframe degenerate"
    assert len(flow.times) == len(times)
    assert abs(flow.boundary_time - times[-1]) <= 1e-12
    assert np.abs(flow.coefficients - states).max() <= 1e-12
    assert flow.consistency.max() <= 1e-12


def test_an_off_solution_perturbation_stays_small_up_to_the_degeneration():
    # eta3 = h e3 moved off eta2 = h e2 by 1e-12: the least-squares flow
    # keeps them within 1e-10 of each other up to the crossing, where
    # eta1 has shrunk by 1e7
    eta = _DEGENERATING.to_id_structure().matrix
    eta[3, 2] += 1e-12
    flow = evolve_general(IdStructure(eta, 0), (0.0, 3.0), 1e-3, record_every=1)
    assert flow.stopped_reason == "coframe degenerate"
    coefficients = flow.coefficients.reshape(-1, 4, 4)
    assert np.abs(coefficients[:, 1]).max(axis=1)[-1] < 1e-7
    assert np.abs(coefficients[:, 3, 2] - coefficients[:, 2, 1]).max() <= 1e-10


def test_consistency_stays_at_rounding_at_the_crossing():
    # the README's general flow ends at its coframe degeneration, with
    # cond(E) 2.6e8 at the crossing: the refined rates keep the defect at
    # rounding there
    flow = evolve_general(CaseIIState(0.35, 0.22, 6.0, 0).to_id_structure(), (0.0, 1.0), 1e-3)
    assert flow.stopped_reason == "coframe degenerate"
    assert np.linalg.cond(flow.coefficients[-1].reshape(4, 4)) > 1e8
    assert flow.consistency.max() <= 1e-12


@pytest.mark.parametrize(
    "state0, t1, solves",
    [
        # 800 steps of four solves, and one for the last state, which
        # starts no step (the parent solved every kept state again: 3281)
        (CaseIIState(0.38, 0.1, 6.0, 2), 0.8, 4 * 800 + 1),
        # ends at its bisected coframe degeneration, which starts no step
        (CaseIIState(0.35, 0.22, 6.0, 0), 1.0, None),
    ],
)
def test_consistency_takes_each_kept_state_rates_from_its_k1(state0, t1, solves, monkeypatch):
    calls = []
    real = evolution._coframe_solve
    monkeypatch.setattr(evolution, "_coframe_solve", lambda y, b: calls.append(1) or real(y, b))
    flow = evolve_general(state0.to_id_structure(), (0.0, t1), 1e-3, record_every=10)
    assert solves is None or len(calls) == solves
    # bit for bit the consistency of rates solved afresh at every kept state
    fresh = [general_rhs(y, state0.m)[1] for y in flow.coefficients]
    assert flow.consistency.view(np.int64).tolist() == np.array(fresh).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# singular and non-finite coframes


def _conformal():
    return CaseIIState(0.3, 0.4, 2.0, 1).to_id_structure().matrix.reshape(-1)


def _singular():
    y = _conformal()
    y[4:8] = 0.0  # eta1 = 0
    return y


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("index", [0, 5, 14])
def test_non_finite_coframes_give_non_finite_rates(entry, index):
    y = _conformal()
    y[index] = entry
    with np.errstate(invalid="ignore"):
        rates, consistency = general_rhs(y, 1)
    assert not np.isfinite(rates).all()
    assert math.isnan(consistency)


def test_singular_coframe_gives_nan_rates():
    y = _singular()
    assert np.linalg.det(y.reshape(4, 4)) == 0.0
    rates, consistency = general_rhs(y, 1)
    assert (rates[:4] == 0.0).all() and np.isnan(rates[4:]).all()
    assert math.isnan(consistency)
    # the RK4 stages pass the NaN on rather than raising
    assert np.isnan(rk4_step(lambda t, y: _general_rates(y, 1), 0.0, y, 1e-3)).all()


def test_coarse_steps_into_the_degenerate_coframe_stop_the_flow(monkeypatch):
    # the conformal flow just above the lower turning value of
    # A = -0.9/108 degenerates near t = 1.2; steps of 0.3 overshoot it
    A = -0.9 / 108
    h0 = math.sqrt(cubic_roots(A)[0][0]) + 1e-3
    structure = CaseIIState.from_A(h0, A, 6.0, 0).to_id_structure()
    monkeypatch.setattr(evolution, "GENERAL_ABORT_TOL", math.inf)
    with np.errstate(all="ignore"):
        flow = evolve_general(structure, (0.0, 3.0), 0.3, record_every=1)
    assert flow.stopped_reason == "coframe degenerate"
    assert flow.boundary_time < 3.0


def test_singular_coframe_file_exits_2(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"eta": _singular().reshape(4, 4).tolist(), "m": 1}))
    assert main(["evolve", "--case", "general", "--input", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
