import math
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from esasaki.moduli import (
    A_MIN,
    DENOMINATOR_BOUND,
    NO_COMPACT_EXTENSION,
    ROUND_SPHERE_BRANCH,
    YPQ_BRANCH,
    EndData,
    ExactRootsUnavailable,
    YpqFamily,
    build_diagram,
    classify_A,
    cubic_roots,
    enumerate_rational_families,
    integer_witness,
    ratio_from_root,
    rational_reconstruct,
)
from esasaki.moduli import _cubic_value
from diagram_oracle import described_elements, fraction_diagram, lattice_order
from exact_roots import fraction_cubic_roots


# ---------------------------------------------------------------------------
# cubic roots


def test_double_root_at_minimum_exact():
    assert cubic_roots(F(-1, 108)) == [(F(1, 6), 2)]
    assert cubic_roots(-1 / 108) == [(1 / 6, 2)]


def test_roots_at_zero():
    assert cubic_roots(F(0)) == [(F(0), 2), (F(1, 4), 1)]
    assert cubic_roots(0.0) == [(0.0, 2), (0.25, 1)]


def test_roots_exact_rational_family():
    roots = cubic_roots(F(-9, 2197))
    assert roots == [(F(1, 13), 1), (F(3, 13), 1)]
    for root, _ in roots:
        assert F(-9, 2197) + root**2 - 4 * root**3 == 0


def test_roots_below_minimum_empty():
    assert cubic_roots(F(-1, 50)) == []
    assert cubic_roots(-0.02) == []


def test_roots_positive_A_single():
    roots = cubic_roots(0.1)
    assert len(roots) == 1
    root, mult = roots[0]
    assert mult == 1 and root > 0.25
    assert abs(0.1 + root**2 - 4 * root**3) < 1e-14


def test_float_and_rational_roots_agree():
    for fam in enumerate_rational_families(2000):
        roots = cubic_roots(fam.A)
        assert roots == [(fam.delta_minus, 1), (fam.delta_plus, 1)]
        exact = [float(r) for r, _ in roots]
        approx = [r for r, _ in cubic_roots(float(fam.A))]
        assert np.allclose(exact, approx, atol=1e-12)


# A with a chosen rational root r, so that the exact path also succeeds;
# denominators are bounded so that float(A) keeps every root to 1e-12
_rational_root_A = st.fractions(0, F(7, 10), max_denominator=1000).map(lambda r: 4 * r**3 - r**2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.fractions(A_MIN, 1, max_denominator=10**6),
    _rational_root_A,
).filter(lambda A: A_MIN < A < 1))
def test_exact_roots_are_roots_and_match_float_roots(A):
    try:
        exact = cubic_roots(A)
    except ExactRootsUnavailable:
        return
    for root, _ in exact:
        assert _cubic_value(A, root) == 0
    approx = cubic_roots(float(A))
    assert [m for _, m in exact] == [m for _, m in approx]
    assert np.allclose([float(r) for r, _ in exact], [r for r, _ in approx], rtol=0, atol=1e-12)


def test_exact_roots_at_large_denominator():
    # A has a denominator of 1.6e14; the roots come from a bisection of
    # about 100 halvings and a snap, not from a divisor search
    S = F(10201, 34203)
    root = F(6060, 34203)  # sqrt(S (1 - 3 S))
    d_minus, d_plus = (S - root) / 2, (S + root) / 2
    A = 4 * d_plus * d_minus * (F(1, 4) - S)
    assert A.denominator > 10**14
    assert cubic_roots(A) == [(d_minus, 1), (d_plus, 1)]
    verdict = classify_A(A, F(6), 0)
    assert verdict.branch == YPQ_BRANCH
    assert (verdict.family.delta_minus, verdict.family.delta_plus) == (d_minus, d_plus)


def _roots_or_unavailable(search, A):
    try:
        return search(A)
    except ExactRootsUnavailable:
        return ExactRootsUnavailable


def _two_rational_roots(t):
    # root sum S = t^2 / (3 (3 + t^2)) makes S (1 - 3S) = (t / (3 + t^2))^2
    # a square, so both positive roots are rational: A = -S (4S - 1)^2 / 4
    S = t * t / (3 * (3 + t * t))
    return -S * (4 * S - 1) ** 2 / 4


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _rational_root_A,
    st.fractions(0, F(7, 10), max_denominator=10**5).map(lambda r: 4 * r**3 - r**2),
    st.fractions(F(301, 100), 200, max_denominator=10**4).filter(lambda t: t > 3).map(_two_rational_roots),
    st.fractions(A_MIN, 0, max_denominator=10**6),
    st.fractions(0, 10**3, max_denominator=10**6),
    st.sampled_from([F(0), A_MIN, A_MIN - F(1, 10**5), F(6, 20027), F(-47610000, 5168743489)]),
))
def test_exact_roots_match_the_fraction_bisection(A):
    # rational A whose roots are all rational, one of them rational, none
    # (irrational roots), A > 0, A = 0, -1/108 and below; the integer
    # numerators give the very Fractions of a bisection on Fractions
    want = _roots_or_unavailable(fraction_cubic_roots, A)
    got = _roots_or_unavailable(cubic_roots, A)
    assert got == want
    if want is not ExactRootsUnavailable:
        assert all(type(root) is F for root, _ in got)


def test_exact_roots_match_the_fraction_bisection_at_large_denominators():
    for t in (F(10001, 3), F(999983, 997), F(123457, 2)):
        A = _two_rational_roots(t)
        assert A.denominator > 10**14
        S, r = t * t / (3 * (3 + t * t)), t / (3 + t * t)
        assert cubic_roots(A) == fraction_cubic_roots(A) == [((S - r) / 2, 1), ((S + r) / 2, 1)]


def test_irrational_exact_roots_fall_back_to_float():
    A = F(-1, 200)
    with pytest.raises(ExactRootsUnavailable):
        cubic_roots(A)
    verdict = classify_A(A, F(6), 0)
    assert verdict.roots == tuple(cubic_roots(-1 / 200))
    assert all(isinstance(r, float) for r, _ in verdict.roots)


# ---------------------------------------------------------------------------
# ratios


def test_ratio_at_quarter_matches_round_branch_relation():
    for C, m in [(F(6), 0), (F(9), 0), (F(3), 2)]:
        ratio = ratio_from_root(F(1, 4), C, m)
        # q/sigma = -3/(C+m), i.e. sigma = -(C+m) q / 3
        assert ratio == F(-3, 1) / (C + m)


def test_ratio_examples():
    assert ratio_from_root(F(1, 13), F(6), 0) == F(1, 7)
    assert ratio_from_root(F(3, 13), F(6), 0) == F(-3, 5)


def test_ratio_errors():
    with pytest.raises(ValueError):
        ratio_from_root(F(1, 6), F(6), 0)
    with pytest.raises(ValueError):
        ratio_from_root(F(1, 13), F(-2), 2)


def test_integer_witness_normalization():
    C = F(6)
    end = integer_witness(F(-3, 5), C, 0, F(3, 13))
    assert (end.q, end.sigma, end.sigma_signed, end.p) == (6, 10, -10, -10)
    assert end.p + end.q * C > 0
    end2 = integer_witness(F(1, 7), C, 0, F(1, 13))
    assert (end2.q, end2.sigma, end2.p) == (2, 14, 14)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_examples_and_invariants():
    fams = enumerate_rational_families(13)
    assert len(fams) == 1
    fam = fams[0]
    assert (fam.delta_minus, fam.delta_plus, fam.A) == (F(1, 13), F(3, 13), F(-9, 2197))
    assert fam.S == F(4, 13)
    assert fam.quasi_regular
    for f in enumerate_rational_families(40):
        assert A_MIN < f.A < 0
        assert isinstance(f.delta_plus - f.delta_minus, F)
        # Vieta: the three roots sum to 1/4 with vanishing pairwise sum
        third = F(1, 4) - f.S
        assert f.delta_plus + f.delta_minus + third == F(1, 4)
        pairwise = (
            f.delta_plus * f.delta_minus + third * (f.delta_plus + f.delta_minus)
        )
        assert pairwise == 0
        assert f.A + f.delta_plus**2 - 4 * f.delta_plus**3 == 0
        assert f.A + f.delta_minus**2 - 4 * f.delta_minus**3 == 0


def test_enumerate_monotone_completeness():
    small = {f.S for f in enumerate_rational_families(13)}
    large = {f.S for f in enumerate_rational_families(31)}
    assert small <= large
    assert len(large) == 3


def test_enumerate_small_bound_empty():
    assert enumerate_rational_families(2) == []


def test_enumerate_agrees_with_classifier():
    # loop closure: every emitted family classifies back to the same
    # integer orbit data, in exact and in float arithmetic
    for fam in enumerate_rational_families(31):
        for A, C in ((fam.A, fam.C), (float(fam.A), float(fam.C))):
            verdict = classify_A(A, C, fam.m)
            assert verdict.branch == YPQ_BRANCH
            got = verdict.family
            assert (got.minus.q, got.minus.sigma, got.minus.p) == (fam.minus.q, fam.minus.sigma, fam.minus.p)
            assert (got.plus.q, got.plus.sigma, got.plus.p) == (fam.plus.q, fam.plus.sigma, fam.plus.p)
            assert got.simply_connected == fam.simply_connected


def _orbit_data(verdict):
    ends = () if verdict.family is None else (verdict.family.minus, verdict.family.plus)
    return verdict.branch, [(end.q, end.sigma_signed) for end in ends]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(enumerate_rational_families(400)),
    st.integers(1, 12),
    st.integers(0, 3),
)
def test_exact_and_float_classification_agree(fam, C, m):
    exact = classify_A(fam.A, F(C), m)
    approx = classify_A(float(fam.A), float(C), m)
    assert _orbit_data(exact) == _orbit_data(approx)


# ---------------------------------------------------------------------------
# diagrams


def test_build_diagram_validates_intersection_orders():
    fam = enumerate_rational_families(13)[0]
    diag = build_diagram(fam)
    assert diag.intersection_orders == {"plus": 10, "minus": 14}
    assert len(diag.k_elements) == 70
    assert diag.pi1_order == 2
    assert not diag.simply_connected


def test_sphere_branch_diagram():
    # C + m = 6 admits the minimal round-branch data q = 1, sigma = 2
    verdict = classify_A(F(0), F(6), 0)
    assert verdict.branch == ROUND_SPHERE_BRANCH
    fam = verdict.family
    assert (fam.plus.q, fam.plus.sigma) == (1, 2)
    diag = build_diagram(fam)
    assert diag.h_minus == {"type": "su2_times_K"}
    assert diag.intersection_orders["plus"] == fam.plus.sigma
    # N = 2 and d = N: K = {(0, 0), (1/2, 1/2)}, a step of the whole circle
    data = diag.to_json_dict()
    assert (data["N"], data["K_step"], data["K_offset"], data["K_order"]) == (2, "1", "1/2", 2)
    assert diag.simply_connected


def test_sphere_branch_stabilizer_meeting_su2_rejected():
    # C + m = 9 clears denominators to q = 2, sigma = 6; the order-6
    # circle subgroup then contains (-1, 1), which no valid K may
    verdict = classify_A(F(0), F(9), 0)
    assert verdict.branch == NO_COMPACT_EXTENSION
    assert "gcd(q, sigma)" in verdict.reason


def test_diagram_rejects_odd_parity_data():
    # sigma = 3, q = -1 has (q m + sigma)/2 = 3/2: not an integer slope
    bad_end = EndData(delta=F(1, 4), ratio=F(-1, 3), q=-1, sigma=3, sigma_signed=3, p=3)
    fam = YpqFamily(
        A=F(0), C=F(9), m=0, delta_minus=F(0), delta_plus=F(1, 4),
        minus=None, plus=bad_end, quasi_regular=True, simply_connected=True,
        branch=ROUND_SPHERE_BRANCH,
    )
    with pytest.raises(ValueError, match="odd"):
        build_diagram(fam)


def test_diagram_rejects_non_coprime_data():
    bad_end = EndData(delta=F(1, 4), ratio=F(-2, 6), q=-2, sigma=12, sigma_signed=12, p=12)
    fam = YpqFamily(
        A=F(0), C=F(9), m=0, delta_minus=F(0), delta_plus=F(1, 4),
        minus=None, plus=bad_end, quasi_regular=True, simply_connected=True,
        branch=ROUND_SPHERE_BRANCH,
    )
    with pytest.raises(ValueError, match="coprime"):
        build_diagram(fam)


def _end(q, sigma_signed, m=0):
    return EndData(delta=None, ratio=F(q, sigma_signed), q=q, sigma=abs(sigma_signed),
                   sigma_signed=sigma_signed, p=q * m + sigma_signed)


def _family(plus, minus=None, m=0):
    """A family on the round branch (no minus end) or the two-root branch."""
    return YpqFamily(
        A=F(-1, 200), C=F(1), m=m, delta_minus=None, delta_plus=None, minus=minus, plus=plus,
        quasi_regular=True, simply_connected=True,
        branch=ROUND_SPHERE_BRANCH if minus is None else YPQ_BRANCH,
    )


def test_round_branch_diagram_meeting_su2_rejected():
    # q = 2, sigma = 6: N = 6, K's second phases step by d = 2 from r = 0,
    # so (1/2, 0) lies in K
    with pytest.raises(ValueError, match=r"K meets SU\(2\) x \{1\}"):
        build_diagram(_family(_end(2, 6)))


def test_build_diagram_describes_a_K_of_a_million_elements_and_more():
    # q = 1, sigma = 2,000,002: N = sigma, d = 2, r = 1 and |K| = N
    diag = build_diagram(_family(_end(1, 2_000_002)))
    assert (diag.N, diag.k_step, diag.k_offset, diag.k_order) == (2_000_002, 2, 1, 2_000_002)
    assert diag.k_order == lattice_order(diag.N, diag.k_generators)
    # the two-root family of extend-check whose K has 1,000,818 elements
    family = classify_A(F(-11905639707025, 1610339369154876), F(1), 0).family
    diag = build_diagram(family)
    assert diag.k_order == lattice_order(diag.N, diag.k_generators) == 1_000_818
    assert diag.intersection_orders == {"plus": family.plus.sigma, "minus": family.minus.sigma}


@pytest.mark.parametrize(
    "family, message",
    [
        # p = 2,000,001 is odd
        (_family(_end(1, 2_000_001)), "plus end: p = qm[+]sigma = 2000001 is odd"),
        # m = 1: N = 4,000,002 and |K| = N, but the slope (1000001, 1) meets K once
        (_family(_end(1, 2_000_001, m=1), m=1),
         "plus end: stabilizer intersection has order 1, expected 2000001"),
        (_family(_end(1, 2_000_001, m=1), _end(2, 4, m=1), m=1),
         "plus end: stabilizer intersection has order 2, expected 2000001"),
        # q = 2, sigma = 2,000,002: |K| = N, and K holds (1/2, 0)
        (_family(_end(2, 2_000_002)), "K meets SU"),
    ],
)
def test_invalid_data_over_the_k_limit_keeps_its_own_error(family, message):
    with pytest.raises(ValueError, match=message):
        build_diagram(family)


def _random_family(rng):
    """Random integer orbit data satisfying the per-end conditions."""
    while True:
        q_p = int(rng.integers(1, 30))
        s_p = int(rng.integers(1, 30))
        q_m = int(rng.integers(1, 30))
        s_m = int(rng.integers(1, 30))
        ends = []
        for q, s in ((q_m, s_m), (q_p, s_p)):
            p = s  # m = 0
            if p % 2 != 0 or gcd(abs(q), abs(p) // 2) != 1:
                ends = None
                break
            ends.append(EndData(delta=None, ratio=F(q, s), q=q, sigma=abs(s), sigma_signed=s, p=p))
        if ends:
            return YpqFamily(
                A=F(-1, 200), C=F(1), m=0, delta_minus=None, delta_plus=None,
                minus=ends[0], plus=ends[1],
                quasi_regular=True,
                simply_connected=gcd(abs(ends[0].q), abs(ends[1].q)) == 1,
            )


def test_simply_connected_iff_coprime_on_random_candidates():
    rng = np.random.default_rng(17)
    seen_connected = seen_not = 0
    for _ in range(50):
        fam = _random_family(rng)
        diag = build_diagram(fam)
        coprime = gcd(abs(fam.plus.q), abs(fam.minus.q)) == 1
        assert diag.simply_connected == coprime
        assert diag.pi1_order == gcd(abs(fam.plus.q), abs(fam.minus.q))
        if coprime:
            seen_connected += 1
        else:
            seen_not += 1
    assert seen_connected and seen_not


def test_pi1_order_two_example():
    fam = enumerate_rational_families(13)[0]
    diag = build_diagram(fam)
    assert gcd(abs(fam.plus.q), abs(fam.minus.q)) == 2
    assert diag.pi1_order == 2
    assert not diag.simply_connected


@st.composite
def _diagram_data(draw):
    """Integer orbit data for one or two ends (None at the round end); an
    even p = qm + sigma three times in four, m != 0 one time in three."""
    m = draw(st.sampled_from([0, 0, 1, 2, 0, 0]))

    def end():
        q = draw(st.integers(-30, 30))
        if draw(st.integers(0, 3)):
            sigma_signed = 2 * draw(st.integers(-15, 15)) - q * m
        else:
            sigma_signed = draw(st.integers(-30, 30))
        assume(sigma_signed != 0)
        return EndData(delta=None, ratio=F(q, sigma_signed), q=q, sigma=abs(sigma_signed),
                       sigma_signed=sigma_signed, p=q * m + sigma_signed)

    minus = end() if draw(st.booleans()) else None
    return YpqFamily(
        A=F(-1, 200), C=F(1), m=m, delta_minus=None, delta_plus=None, minus=minus, plus=end(),
        quasi_regular=True, simply_connected=True,
        branch=ROUND_SPHERE_BRANCH if minus is None else YPQ_BRANCH,
    )


def phases(diagram, pairs) -> list:
    """The phases (a/N, b/N) of the integer pairs (a, b) of a diagram."""
    return [(F(a, diagram.N), F(b, diagram.N)) for a, b in pairs]


def numerators_in_range(diagram) -> bool:
    return all(type(n) is int and 0 <= n < diagram.N for pair in diagram.k_generators + diagram.k_elements for n in pair)


@settings(max_examples=300, deadline=None)
@given(_diagram_data())
def test_build_diagram_matches_the_fraction_closure(fam):
    try:
        want = fraction_diagram(fam)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            build_diagram(fam)
        assert str(got.value) == str(exc)
        return
    diag = build_diagram(fam)
    assert (phases(diag, diag.k_generators), phases(diag, diag.k_elements), diag.intersection_orders) == want
    assert numerators_in_range(diag)
    data = diag.to_json_dict()
    assert described_elements(F(data["K_step"]), F(data["K_offset"])) == want[1]
    assert data["K_order"] == len(want[1])


@pytest.mark.parametrize("A, C, order", [(F(-9, 2197), F(6), 70), (F(-47610000, 5168743489), F(6), 10366)])
def test_diagram_phases_and_their_text_match_the_fraction_closure(A, C, order):
    # the README family and the large-K family of extend-check
    family = classify_A(A, C, 0).family
    diag = build_diagram(family)
    generators, elements, _ = fraction_diagram(family)
    assert len(elements) == order
    assert (phases(diag, diag.k_generators), phases(diag, diag.k_elements)) == (generators, elements)
    assert numerators_in_range(diag)
    data = diag.to_json_dict()
    assert "K_elements" not in data
    assert data["K_order"] == order and data["N"] == diag.N
    assert described_elements(F(data["K_step"]), F(data["K_offset"])) == elements
    assert (data["K_step"], data["K_offset"]) == (str(F(diag.k_step, diag.N)), str(F(diag.k_offset, diag.N)))
    assert data["K_generators"] == [[str(x), str(y)] for x, y in generators]


# ---------------------------------------------------------------------------
# classification


def test_classify_round_sphere():
    verdict = classify_A(F(0), F(6), 0)
    assert verdict.branch == ROUND_SPHERE_BRANCH
    # sigma = -(C+m) q / 3 holds in the signed convention
    end = verdict.family.plus
    assert 3 * end.sigma_signed == -6 * end.q


def test_classify_ypq_example():
    verdict = classify_A(F(-9, 2197), F(6), 0)
    assert verdict.branch == YPQ_BRANCH
    assert verdict.family.minus.ratio == F(1, 7)
    assert verdict.family.plus.ratio == F(-3, 5)
    assert verdict.family.quasi_regular


def test_classify_double_root_rejected():
    verdict = classify_A(F(-1, 108), F(6), 0)
    assert verdict.branch == NO_COMPACT_EXTENSION
    assert "distinct" in verdict.reason


def test_classify_below_minimum_and_positive():
    assert classify_A(-0.02, 6.0, 0).branch == NO_COMPACT_EXTENSION
    assert classify_A(0.5, 6.0, 0).branch == NO_COMPACT_EXTENSION


def test_classify_compares_A_with_the_minimum_of_its_own_arithmetic():
    minimum = "(A <= -1/108)"
    assert minimum in classify_A(A_MIN, F(6), 0).reason
    assert minimum in classify_A(float(A_MIN), 6.0, 0).reason
    assert minimum in classify_A(A_MIN - F(1, 10**30), F(6), 0).reason
    # the exact value of float(-1/108) lies above -1/108; its float roots
    # collapse to the double root 1/6
    above = F(float(A_MIN))
    assert above > A_MIN
    verdict = classify_A(above, F(6), 0)
    assert verdict.branch == NO_COMPACT_EXTENSION
    assert minimum not in verdict.reason and "distinct" in verdict.reason


def test_classify_float_inputs_reconstruct():
    verdict = classify_A(-9 / 2197, 6.0, 0)
    assert verdict.branch == YPQ_BRANCH
    assert verdict.family.minus.ratio == F(1, 7)
    assert verdict.family.plus.ratio == F(-3, 5)


def test_classify_takes_one_reconstructed_C():
    # 1e-14 reconstructs to C = 0, so C + m = 0: no witness is built from
    # the reconstruction while the ratio and C + m take the raw float
    verdict = classify_A(F(-9, 2197), 1e-14, 0)
    assert verdict.branch == NO_COMPACT_EXTENSION and verdict.family is None
    assert verdict.reason == "C + m = 0 degenerates the coframe"
    # a float a few ulps off 6 gives the witnesses of the exact C = 6
    exact = classify_A(F(-9, 2197), F(6), 0).family
    noisy = classify_A(F(-9, 2197), 6.0 + 4 * math.ulp(6.0), 0).family
    for got, want in ((noisy.minus, exact.minus), (noisy.plus, exact.plus)):
        assert (got.ratio, got.q, got.sigma_signed, got.p) == (want.ratio, want.q, want.sigma_signed, want.p)


def test_classify_irrational_C_is_irregular():
    verdict = classify_A(F(-9, 2197), math.sqrt(2) * 3, 0)
    # ratios are irrational: no integer witnesses within the bound
    assert verdict.branch == NO_COMPACT_EXTENSION


def test_classify_round_branch_with_irrational_looking_C():
    # 3/1234567 has a denominator above the bound, so C is not
    # reconstructed, while the ratio -1234567 at the circle end 1/4 is
    verdict = classify_A(0.0, 3 / 1234567, 0)
    assert verdict.branch == NO_COMPACT_EXTENSION
    assert verdict.family is None
    assert verdict.reason == "no rational orbit ratio within the denominator bound"


def test_rational_reconstruct():
    assert rational_reconstruct(1 / 7, 100) == F(1, 7)
    assert rational_reconstruct(math.sqrt(2), 50) is None


@pytest.mark.parametrize("x", [100 * math.sqrt(2), 1000 * math.pi, 50 * math.e, 10 * math.sqrt(3), 30 * math.sqrt(5)])
def test_rational_reconstruct_refuses_large_irrationals(x):
    # a tolerance growing with |x| accepted convergents such as
    # 97574089/689953 for 100 sqrt(2), 21 ulps away
    assert rational_reconstruct(x, DENOMINATOR_BOUND) is None


@pytest.mark.parametrize("frac", [F(1234567, 3), F(-1234567), F(35500, 113), F(199999, 2), F(-3, 5), F(17, 3)])
def test_rational_reconstruct_keeps_large_rationals(frac):
    assert rational_reconstruct(float(frac), DENOMINATOR_BOUND) == frac
