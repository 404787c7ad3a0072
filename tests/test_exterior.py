from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esasaki.exterior import D_1, D_2, GROUP_KEYS, WEDGE_1_1, WEDGE_1_2, wedge_coefficients

from exact_forms import DT, basis, brute_force_wedge_sign, d, group_form, wedge

exact_numbers = st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=12))
one_forms = st.lists(exact_numbers, min_size=4, max_size=4).map(lambda xs: np.array(xs, dtype=object))
two_forms = st.lists(exact_numbers, min_size=6, max_size=6).map(lambda xs: np.array(xs, dtype=object))
D1, D2 = D_1.T.astype(int), D_2.T.astype(int)


def test_structure_equations():
    rows = [group_form(2, column) for column in D1]
    assert rows == [{(2, 3): -1}, {(1, 3): 1}, {(1, 2): -1}, {}]  # de2 = -e31 = e13
    assert rows == [d(basis(i)) for i in range(1, 5)]
    assert d(basis(DT)) == {}


def basis_form(*indices):
    """The monomial e^indices over e1..e4 as a coefficient array."""
    form = np.zeros(len(GROUP_KEYS[len(indices)]), dtype=object)
    form[GROUP_KEYS[len(indices)].index(indices)] = 1
    return form


def table_wedge(x, y):
    return wedge_coefficients(x, y, WEDGE_1_1 if len(y) == 4 else WEDGE_1_2)


def test_basis_products():
    e1, e2 = basis_form(1), basis_form(2)
    assert (table_wedge(e1, e2) == basis_form(1, 2)).all()
    assert not table_wedge(e1, e1).any()
    assert (table_wedge(e2, e1) == -basis_form(1, 2)).all()


def test_bilinearity_against_permutation_oracle():
    # (e1 + e4) ^ e23 expands to e123 + e234
    lhs = table_wedge(basis_form(1) + basis_form(4), basis_form(2, 3))
    expected = np.zeros(4, dtype=object)
    for idx in [(1,), (4,)]:
        key, sign = brute_force_wedge_sign(idx, (2, 3))
        expected = expected + sign * basis_form(*key)
    assert (lhs == expected).all()
    assert (lhs == basis_form(1, 2, 3) + basis_form(2, 3, 4)).all()


@pytest.mark.parametrize(
    "left, right",
    [((1,), (2, 3)), ((2,), (1, 3)), ((4,), (1, 2)), ((3,), (1, 4)), ((2,), (3,)), ((4,), (1,))],
)
def test_monomial_signs_match_oracle(left, right):
    key, sign = brute_force_wedge_sign(left, right)
    assert (table_wedge(basis_form(*left), basis_form(*right)) == sign * basis_form(*key)).all()


def test_wedge_terms_follow_increasing_one_form_index():
    # term n of each output monomial takes the n-th smallest one-form index
    for table in (WEDGE_1_1, WEDGE_1_2):
        lefts = np.array([left for left, _ in table])
        assert (np.diff(lefts, axis=0) > 0).all()


def test_d_examples():
    assert not (basis_form(2, 3) @ D2).any()
    x = np.array([F(1, 3), 0, 0, 1], dtype=object)  # e1 / 3 + e4
    assert list(x @ D1) == list(F(-1, 3) * basis_form(2, 3))
    # linearity cross-check by expansion
    a, b = F(2, 7), F(-3, 5)
    combo = a * basis_form(1) + b * basis_form(3)
    assert list(combo @ D1) == list(a * (basis_form(1) @ D1) + b * (basis_form(3) @ D1))


@settings(max_examples=100, deadline=None)
@given(st.lists(one_forms, min_size=2, max_size=2), two_forms)
def test_tables_equal_the_exact_algebra(ones, z):
    x, y = ones
    fx, fy, fz = group_form(1, x), group_form(1, y), group_form(2, z)
    assert group_form(2, wedge_coefficients(x, y, WEDGE_1_1)) == wedge(fx, fy)
    assert group_form(3, wedge_coefficients(x, z, WEDGE_1_2)) == wedge(fx, fz)
    assert group_form(2, x @ D1) == d(fx)
    assert group_form(3, z @ D2) == d(fz)
    # leading axes broadcast: a stack of one-forms against one two-form
    stacked = wedge_coefficients(np.array(ones), z, WEDGE_1_2)
    assert [group_form(3, row) for row in stacked] == [wedge(fx, fz), wedge(fy, fz)]


def test_d_squared_is_zero_exactly():
    assert not (D_2 @ D_1).any()


@settings(max_examples=60, deadline=None)
@given(one_forms, one_forms)
def test_leibniz_rule(x, y):
    # d(x ^ y) = dx ^ y - x ^ dy, where the two-form dx commutes with y
    lhs = wedge_coefficients(x, y, WEDGE_1_1) @ D2
    rhs = wedge_coefficients(y, x @ D1, WEDGE_1_2) - wedge_coefficients(x, y @ D1, WEDGE_1_2)
    assert (lhs == rhs).all()


@settings(max_examples=60, deadline=None)
@given(one_forms, one_forms, two_forms)
def test_graded_antisymmetry(x, y, z):
    assert (wedge_coefficients(x, y, WEDGE_1_1) == -wedge_coefficients(y, x, WEDGE_1_1)).all()
    assert not wedge_coefficients(x, x, WEDGE_1_1).any()
    # a two-form commutes with a one-form, in the reference over 1..5 as well
    fx, fz = group_form(1, x), group_form(2, z)
    assert wedge(fz, fx) == wedge(fx, fz) == group_form(3, wedge_coefficients(x, z, WEDGE_1_2))


@settings(max_examples=60, deadline=None)
@given(one_forms, one_forms, one_forms)
def test_associativity(x, y, z):
    # x ^ (y ^ z) = (x ^ y) ^ z = z ^ (x ^ y)
    lhs = wedge_coefficients(x, wedge_coefficients(y, z, WEDGE_1_1), WEDGE_1_2)
    rhs = wedge_coefficients(z, wedge_coefficients(x, y, WEDGE_1_1), WEDGE_1_2)
    assert (lhs == rhs).all()


def test_exactness_preserved():
    x = np.array([F(1, 3), 0, 0, F(2, 5)], dtype=object)
    z = np.array([0, 0, 0, 0, 0, 1], dtype=object)  # e34
    w, dx = wedge_coefficients(x, z, WEDGE_1_2), x @ D1
    assert all(isinstance(c, (int, F)) for c in (*w, *dx))
    assert list(w) == [0, 0, F(1, 3), 0]  # e134
    assert list(dx) == [0, 0, 0, F(-1, 3), 0, 0]  # -e23 / 3


def test_reference_is_a_complex_over_five_indices():
    # the reference d, dt included, squares to zero on every monomial
    for degree in range(4):
        for key in combinations(range(1, 6), degree):
            assert d(d({key: 1})) == {}
