import json
from fractions import Fraction as F
from itertools import permutations

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from esasaki.exterior import (
    D_1,
    D_2,
    DT,
    DT_INDEX,
    E1,
    E2,
    E3,
    E4,
    GROUP_KEYS,
    WEDGE_1_1,
    WEDGE_1_2,
    InvariantForm,
    basis_one_form,
    d_invariant,
    monomial,
    wedge,
    wedge_coefficients,
)


def brute_force_wedge_sign(left, right):
    """Oracle: sign of sorting the concatenated index tuple, by explicit
    permutation parity; None on a repeated index."""
    combined = list(left) + list(right)
    if len(set(combined)) != len(combined):
        return None, None
    target = tuple(sorted(combined))
    for perm in permutations(range(len(combined))):
        if tuple(combined[i] for i in perm) == target:
            swaps = 0
            perm = list(perm)
            for i in range(len(perm)):
                while perm[i] != i:
                    j = perm[i]
                    perm[i], perm[j] = perm[j], perm[i]
                    swaps += 1
            return target, (-1) ** swaps
    raise AssertionError("unreachable")


def test_basis_products():
    assert wedge(E1, E2) == monomial(1, 2)
    assert wedge(E1, E1) == InvariantForm.zero(2)
    assert wedge(E2, E1) == -1 * monomial(1, 2)


def test_bilinearity_against_permutation_oracle():
    # (e1 + e4) ^ e23 expands to e123 + e234
    lhs = wedge(E1 + E4, monomial(2, 3))
    expected = InvariantForm.zero(3)
    for idx in [(1,), (4,)]:
        key, sign = brute_force_wedge_sign(idx, (2, 3))
        expected = expected + InvariantForm(3, {key: sign})
    assert lhs == expected
    assert lhs == monomial(1, 2, 3) + monomial(2, 3, 4)


@pytest.mark.parametrize(
    "left, right",
    [((1,), (2, 3)), ((2,), (1, 3)), ((1, 4), (2, 3)), ((3,), (1, 2, 4)), ((5,), (1, 4)), ((2, 5), (1, 3))],
)
def test_monomial_signs_match_oracle(left, right):
    key, sign = brute_force_wedge_sign(left, right)
    prod = wedge(monomial(*left), monomial(*right))
    assert prod == InvariantForm(len(key), {key: sign})


def test_wedge_degree_overflow():
    with pytest.raises(ValueError, match="degree overflow"):
        wedge(monomial(1, 2, 3), monomial(1, 2, 3))


def test_structure_equations():
    assert d_invariant(E1) == -1 * monomial(2, 3)
    assert d_invariant(E2) == monomial(1, 3)  # -e31
    assert d_invariant(E3) == -1 * monomial(1, 2)
    assert d_invariant(E4) == InvariantForm.zero(2)
    assert d_invariant(DT) == InvariantForm.zero(2)


def test_d_examples():
    assert d_invariant(monomial(2, 3)) == InvariantForm.zero(3)
    assert d_invariant(F(1, 3) * E1 + E4) == F(-1, 3) * monomial(2, 3)
    # linearity cross-check by symbolic expansion
    a, b = F(2, 7), F(-3, 5)
    combo = a * E1 + b * monomial(3)
    assert d_invariant(combo) == a * d_invariant(E1) + b * d_invariant(E3)


coefficients = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)


@st.composite
def invariant_forms(draw, degree=None):
    deg = degree if degree is not None else draw(st.integers(min_value=0, max_value=3))
    form = InvariantForm.zero(deg)
    keys = list(form.monomials())
    for key in draw(st.lists(st.sampled_from(keys), max_size=4)) if keys else []:
        form = form + InvariantForm(deg, {key: draw(coefficients)})
    return form


@settings(max_examples=60, deadline=None)
@given(invariant_forms(), invariant_forms())
def test_leibniz_rule(a, b):
    if a.degree + b.degree >= 5:
        return
    lhs = d_invariant(wedge(a, b))
    sign = (-1) ** a.degree
    rhs = wedge(d_invariant(a), b) + sign * wedge(a, d_invariant(b))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(invariant_forms())
def test_d_squared_is_zero_exactly(a):
    if a.degree >= 4:
        return
    assert d_invariant(d_invariant(a)) == InvariantForm.zero(a.degree + 2)


@settings(max_examples=60, deadline=None)
@given(invariant_forms(), invariant_forms())
def test_graded_antisymmetry(a, b):
    if a.degree + b.degree > 5:
        return
    sign = (-1) ** (a.degree * b.degree)
    assert wedge(a, b) == sign * wedge(b, a)


# ---------------------------------------------------------------------------
# index tables over e1..e4

exact_numbers = st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=12))


def group_form(degree, coefficients):
    return InvariantForm(degree, dict(zip(GROUP_KEYS[degree], coefficients)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(exact_numbers, min_size=4, max_size=4), min_size=2, max_size=2),
    st.lists(exact_numbers, min_size=6, max_size=6),
)
def test_tables_equal_the_exact_algebra(ones, two):
    (x, y), z = np.array(ones, dtype=object), np.array(two, dtype=object)
    fx, fy, fz = group_form(1, ones[0]), group_form(1, ones[1]), group_form(2, two)
    assert group_form(2, wedge_coefficients(x, y, WEDGE_1_1)) == wedge(fx, fy)
    assert group_form(3, wedge_coefficients(x, z, WEDGE_1_2)) == wedge(fx, fz)
    assert group_form(2, x @ D_1.T.astype(int)) == d_invariant(fx)
    assert group_form(3, z @ D_2.T.astype(int)) == d_invariant(fz)
    # leading axes broadcast: a stack of one-forms against one two-form
    stacked = wedge_coefficients(np.array(ones, dtype=object), z, WEDGE_1_2)
    assert [group_form(3, row) for row in stacked] == [wedge(fx, fz), wedge(fy, fz)]


def test_associativity():
    a = E1 + 2 * E2
    b = F(1, 3) * E3 + E4
    c = monomial(2, 5) + monomial(3, 4)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_exactness_preserved():
    a = F(1, 3) * E1 + F(2, 5) * E4
    b = wedge(a, monomial(2, 3))
    assert b.is_exact()
    assert d_invariant(b).is_exact()


def test_serialization_roundtrip():
    form = F(1, 3) * monomial(2, 3) + 2 * monomial(4, DT_INDEX) + (-0.5) * monomial(1, 5)
    data = json.loads(form.dumps())
    assert data["degree"] == 2
    keys = [entry[0] for entry in data["entries"]]
    assert keys == sorted(keys)  # lexicographic monomial order, dt last
    back = InvariantForm.loads(form.dumps())
    assert back.allclose(form, 0.0)
    assert back.coefficient((2, 3)) == F(1, 3)


def test_serialization_monomial_strings():
    form = monomial(2, 3)
    assert json.loads(form.dumps())["entries"] == [["23", 1]]


def test_basis_index_validation():
    with pytest.raises(ValueError):
        basis_one_form(6)
    with pytest.raises(ValueError):
        InvariantForm(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        InvariantForm(1, {(1, 2): 1})
