"""Bit-identity of the scalar flow kernels against their numpy-scalar and
full-recursion references (``tests/scalar_oracles.py``): the case-ii and
case-iii right-hand sides, the case-iii domain test, RK4 steps given
their k1, paths and marches stepped on Python float lists (through zero
denominators too), the turning series, and whole case-iii rejection
reports."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from esasaki import boundary, evolution
from esasaki.evolution import (
    CASE_III_A_FLOOR,
    CASE_III_NORM_CAP,
    CASE_III_UV_FLOOR,
    CaseIIState,
    CaseIIIState,
    _case_ii_rhs,
    case_iii_exit,
    case_iii_rhs,
    evolve_case_ii,
    rk4_path,
    rk4_step,
    turning_series,
)
from esasaki.moduli import enumerate_rational_families
from scalar_oracles import (
    full_turning_series,
    numpy_case_ii_rhs,
    numpy_case_iii_exit,
    numpy_case_iii_rhs,
    numpy_march,
    numpy_rk4_path,
)

# the two starts whose ends both pass the necessary conditions, at step
# 1e-3, and the start with a round-type lower end, at step 2e-3
BOTH_ENDS_PASS = [
    (0.7479046235545557, 0.7358691374113622, -0.43154992082753774, 0.4461503348073532, 0.5853265736028771),
    (0.8860664941172746, 0.8854937164451794, -0.24983824983779568, 0.2456021670539219, 0.6422931608786369),
]
ROUND_TYPE_END = (0.16888014917517297, 0.407892864503532, 0.12613615814277324, 0.14661975665727922,
                  0.46499963829121627)


def bits(values) -> list:
    """The bit patterns of a float array, with every NaN as one pattern
    (the text of an artifact spells them all "nan")."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).view(np.int64).tolist()


def numpy_rhs(rhs, t, y):
    with np.errstate(all="ignore"):
        return rhs(t, y)


def record_case_iii_rates(monkeypatch, raise_at=None) -> list:
    """Patch the case-iii rates to record, per call, whether they ran on
    Python floats (False: on the numpy scalars of the zero-denominator
    fallback); the float call numbered ``raise_at`` raises
    ZeroDivisionError, as a zero denominator would."""
    on_floats = []
    real = evolution._case_iii_rates

    def rates(*args):
        on_floats.append(type(args[0]) is float)
        if on_floats[-1] and len(on_floats) == raise_at:
            raise ZeroDivisionError
        return real(*args)

    monkeypatch.setattr(evolution, "_case_iii_rates", rates)
    return on_floats


# any float, ordinary magnitudes, zeros of both signs, and magnitudes whose
# squares overflow or underflow
_ENTRY = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e155, -1e200, 1e-170, 1.7e308]),
)


@st.composite
def case_iii_states(draw):
    h, k, b, c, a = (draw(_ENTRY) for _ in range(5))
    shape = draw(st.sampled_from(["free", "delta_zero", "a_zero", "both_zero"]))
    if shape in ("delta_zero", "both_zero"):
        b, c = h, k  # hk - bc is 0 exactly
    if shape in ("a_zero", "both_zero"):
        a = draw(st.sampled_from([0.0, -0.0]))
    return np.array([h, k, b, c, a])


@settings(max_examples=600, deadline=None)
@given(y=case_iii_states(), t=st.floats(-1.0, 1.0))
def test_case_iii_rhs_matches_numpy_scalars(y, t):
    assert bits(case_iii_rhs(t, y.tolist())) == bits(numpy_rhs(numpy_case_iii_rhs, t, y))


def test_zero_denominators_give_the_infinities_and_nans_of_numpy():
    # Delta = 0, a = 0, both, and h = 0 in the conformal family
    cases = [(case_iii_rhs, numpy_case_iii_rhs, y) for y in ([0.4, 0.3, 0.4, 0.3, 0.2], [0.4, 0.3, 0.0, 0.1, 0.0],
                                                            [0.0] * 5)]
    cases.append((_case_ii_rhs, numpy_case_ii_rhs, [0.0, 0.3]))
    for rhs, reference, y in cases:
        rates = rhs(0.0, y)
        assert not np.isfinite(rates).all()
        assert bits(rates) == bits(numpy_rhs(reference, 0.0, np.array(y)))


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, -0.0, 1e-320, 1e300, math.inf])),
    s=st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -0.0])),
)
def test_case_ii_rhs_matches_numpy_scalars(p, s):
    assert bits(_case_ii_rhs(0.0, [p, s])) == bits(numpy_rhs(numpy_case_ii_rhs, 0.0, np.array([p, s])))


@settings(max_examples=600, deadline=None)
@given(y=case_iii_states(), bounds=st.sampled_from([(CASE_III_A_FLOOR, CASE_III_UV_FLOOR, CASE_III_NORM_CAP),
                                                    (1e-10, 0.0, 1e8)]))
def test_case_iii_exit_matches_numpy_scalars(y, bounds):
    with np.errstate(all="ignore"):
        expected = numpy_case_iii_exit(y, *bounds)
    assert case_iii_exit(y.tolist(), *bounds) == expected


@settings(max_examples=300, deadline=None)
@given(
    hkbca=st.tuples(st.floats(0.5, 1.0), st.floats(0.5, 1.0), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
                    st.floats(0.1, 1.0)),
    scale=st.floats(1.0, 1e8),
    above=st.booleans(),
)
def test_case_iii_exit_rounds_the_norm_as_numpy_at_the_cap(hkbca, scale, above):
    # a cap equal to the state's np.linalg.norm, or one ulp below it: the
    # divergence test must round the norm as numpy does (a correctly
    # rounded norm differs from it by one ulp on about one state in eight)
    y = np.array(hkbca) * scale
    norm = float(np.linalg.norm(y))
    cap = float(np.nextafter(norm, 0.0)) if above else norm
    assert case_iii_exit(y.tolist(), 0.0, 0.0, cap) == numpy_case_iii_exit(y, 0.0, 0.0, cap)
    assert case_iii_exit(y.tolist(), 0.0, 0.0, cap) == ("divergence" if above else None)


@settings(max_examples=200, deadline=None)
@given(
    y=case_iii_states(),
    t=st.floats(-1.0, 1.0),
    h=st.one_of(st.floats(-0.1, 0.1), st.sampled_from([0.0, 1e-3, -2e-3])),
)
def test_rk4_step_given_k1_matches_the_step_that_evaluates_it(y, t, h):
    y = y.tolist()
    with np.errstate(all="ignore"):
        given_k1 = rk4_step(case_iii_rhs, t, y, h, case_iii_rhs(t, y))
        evaluated = rk4_step(case_iii_rhs, t, y, h)
    assert bits(given_k1) == bits(evaluated)


def case_iii_path_bits(start, t1, step) -> tuple:
    """Times, states and reason of the path from ``start`` to its exit,
    as bit patterns, stepped on Python float lists as evolve_case_iii
    steps it."""
    def exits(y):
        return case_iii_exit(y, CASE_III_A_FLOOR, CASE_III_UV_FLOOR, CASE_III_NORM_CAP)

    times, ys, reason = rk4_path(case_iii_rhs, list(start), 0.0, t1, step, exits=exits)
    return bits(times), bits(ys), reason


def numpy_case_iii_path_bits(start, t1, step) -> tuple:
    def exits(y):
        return numpy_case_iii_exit(y, CASE_III_A_FLOOR, CASE_III_UV_FLOOR, CASE_III_NORM_CAP)

    with np.errstate(all="ignore"):
        times, ys, reason = numpy_rk4_path(numpy_case_iii_rhs, np.array(start), 0.0, t1, step, exits=exits)
    return bits(times), bits(ys), reason


@pytest.mark.parametrize(
    "start, t1",
    [((0.4, 0.3, 0.0, 0.1, 0.2), 5.0), ((0.4, 0.4, 0.05, 0.05, 0.3), 0.05), (BOTH_ENDS_PASS[0], 5.0)],
)
def test_case_iii_path_matches_numpy_scalars(start, t1):
    # each flow ends at a bisected crossing; the last re-steps from k1
    reference = numpy_case_iii_path_bits(start, t1, 1e-3)
    assert reference[2] is not None
    assert case_iii_path_bits(start, t1, 1e-3) == reference


def test_case_iii_path_through_a_zero_denominator_matches_numpy_scalars(monkeypatch):
    # a_dot = -1 exactly, so the first k2 stage of a unit step has
    # a = 0.5 - 0.5 = 0: its rates come from numpy scalars
    start = (0.5, 0.5, 0.0, 0.0, 0.5)
    on_floats = record_case_iii_rates(monkeypatch)
    path = case_iii_path_bits(start, 1.0, 1.0)
    assert on_floats.count(False) == 1
    assert path == numpy_case_iii_path_bits(start, 1.0, 1.0)


@pytest.mark.parametrize(
    "state0, t1, reason",
    [(CaseIIState.from_A(0.3, -9 / 2197, 6.0, 1), 2.0, "turning_point"), (CaseIIState(0.25, 0.4, -2.0, 2), 0.8, None)],
)
def test_case_ii_flow_matches_numpy_scalars(state0, t1, reason, monkeypatch):
    # the first flow crosses its turning point at t = 1.093, and the
    # crossing is bisected on float lists too; the second ends at t1
    flow = evolve_case_ii(state0, (0.0, t1), 1e-3, record_every=1)
    monkeypatch.setattr(evolution, "rk4_path", numpy_rk4_path)
    monkeypatch.setattr(evolution, "_case_ii_rhs", numpy_case_ii_rhs)
    ref = evolve_case_ii(state0, (0.0, t1), 1e-3, record_every=1)
    assert flow.stopped_reason == ref.stopped_reason == reason
    assert bits(flow.times) == bits(ref.times)
    assert bits(flow.coefficients) == bits(ref.coefficients)
    assert bits(flow.drift["A"]) == bits(ref.drift["A"])


@pytest.mark.parametrize(
    "start, direction, step, raise_at",
    [
        # the first step tried has a k2 stage with k = 9/64 - (1/16)(9/4) = 0
        # exactly, so Delta = hk = 0; the march halves its step and goes on
        ((1 / 64, 9 / 64, 0.0, 0.0, 1 / 8), -1.0, 1 / 8, None),
        # a zero denominator forced on the 41st float rates, mid-march
        (BOTH_ENDS_PASS[0], 1.0, 1e-3, 41),
    ],
)
def test_march_through_a_zero_denominator_matches_numpy_scalars(start, direction, step, raise_at, monkeypatch):
    on_floats = record_case_iii_rates(monkeypatch, raise_at)
    times, ys, reason = boundary._locate_boundary(list(start), direction, step)
    assert on_floats.count(False) == 1 and len(times) > 20
    with np.errstate(all="ignore"):
        ref_times, ref_ys, ref_reason = numpy_march(np.array(start), direction, step)
    assert reason == ref_reason
    assert bits(times) == bits(ref_times) and bits(ys) == bits(ref_ys)


# ---------------------------------------------------------------------------
# the turning series


def _enumerated_ends() -> list:
    return [(fam.A, delta) for fam in enumerate_rational_families(200) for delta in (fam.delta_minus, fam.delta_plus)
            if delta > 0]


def test_turning_series_matches_the_full_recursion_at_enumerated_ends():
    ends = _enumerated_ends()
    assert len(ends) > 10
    for A, delta in ends:
        assert turning_series(A, delta) == full_turning_series(A, delta)
        floats = turning_series(float(A), float(delta))
        assert list(map(repr, floats)) == list(map(repr, full_turning_series(float(A), float(delta))))


def _rationals(bound, max_denominator):
    return st.one_of(st.integers(-3, 3), st.fractions(-bound, bound, max_denominator=max_denominator))


@settings(max_examples=200, deadline=None)
@given(
    A=_rationals(Fraction(1, 50), 10**12),
    delta=_rationals(Fraction(1, 2), 10**12).filter(bool),
    as_float=st.sampled_from(("", "A", "delta")),
)
def test_fraction_turning_series_matches_the_full_recursion(A, delta, as_float):
    # rational input (int or Fraction, either sign) takes the integer
    # recursion: exact, all Fractions; the oracle divides ints as floats,
    # so it is given the same values as Fractions
    series = turning_series(A, delta)
    assert series == full_turning_series(Fraction(A), Fraction(delta))
    assert all(type(c) is Fraction for c in series)
    if as_float:
        # one input a float takes the float recursion: its even terms
        # repr for repr; each odd term is 0 * Delta*, where the full
        # recursion sums to a float 0.0 once A is a float
        A, delta = (float(A), delta) if as_float == "A" else (A, float(delta))
        reference = full_turning_series(A, delta)
        assume(all(map(math.isfinite, reference)))
        series = turning_series(A, delta)
        assert list(map(repr, series[::2])) == list(map(repr, reference[::2]))
        assert series[1::2] == reference[1::2] and {type(c) for c in series[1::2]} == {type(0 * delta)}


@settings(max_examples=400, deadline=None)
@given(A=st.floats(-1.0, 1.0), delta=st.floats(0.01, 2.0))
def test_float_turning_series_matches_the_full_recursion(A, delta):
    reference = full_turning_series(A, delta)
    # a series whose terms overflow has NaN, 0 * inf, in the odd terms of
    # the full recursion; none does on these ranges
    assume(all(map(math.isfinite, reference)))
    series = turning_series(A, delta)
    assert list(map(repr, series)) == list(map(repr, reference))
    assert all(type(c) is float for c in series)


def test_turning_series_at_zero_turning_value_raises_like_the_full_recursion():
    for A, delta in ((Fraction(0), Fraction(0)), (0, 0), (Fraction(-1, 7), 0), (3, Fraction(0)),
                     (Fraction(1, 10**12), 0.0), (0.0, Fraction(0)), (0.0, 0.0)):
        with pytest.raises(ZeroDivisionError):
            full_turning_series(A, delta)
        with pytest.raises(ZeroDivisionError):
            turning_series(A, delta)


# ---------------------------------------------------------------------------
# whole rejection reports


def _report_text(start, step) -> str:
    return json.dumps(boundary.reject_case_iii(CaseIIIState(*start), step).to_json_dict())


@pytest.mark.parametrize(
    "start, step", [(BOTH_ENDS_PASS[0], 1e-3), (BOTH_ENDS_PASS[1], 1e-3), (ROUND_TYPE_END, 2e-3)]
)
def test_reject_case_iii_matches_the_numpy_scalar_march(start, step, monkeypatch):
    report = _report_text(start, step)
    monkeypatch.setattr(boundary, "_locate_boundary", numpy_march)
    monkeypatch.setattr(boundary, "rk4_path", numpy_rk4_path)
    monkeypatch.setattr(boundary, "case_iii_rhs", numpy_case_iii_rhs)
    assert report == _report_text(start, step)
