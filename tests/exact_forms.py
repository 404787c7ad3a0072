"""Reference exterior algebra for the tests, independent of the tables.

A form is a dict from strictly increasing index tuples over 1..5 to
coefficients, with 1..4 the group directions e1..e4 and 5 the interval
direction dt.  Wedge signs come from explicit permutation parity and d
from the structure equations written out, extended by the graded
Leibniz rule.  Coefficients may be ``Fraction`` (exact) or ``float``;
terms are summed in the order of expanding the products term by term.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

DT = 5


@lru_cache(maxsize=None)
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


def add(*forms):
    """Sum of forms, accumulated left to right; zeros are dropped."""
    out = {}
    for form in forms:
        for key, coeff in form.items():
            out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff != 0}


def scale(c, form):
    return {key: c * coeff for key, coeff in form.items()}


def wedge(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sign = brute_force_wedge_sign(ka, kb)
            if key is not None:
                out[key] = out.get(key, 0) + sign * ca * cb
    return {key: coeff for key, coeff in out.items() if coeff != 0}


def basis(i):
    return {(i,): 1}


# de1 = -e23, de2 = -e31, de3 = -e12, de4 = d(dt) = 0
D_BASIS = {
    1: wedge(scale(-1, basis(2)), basis(3)),
    2: wedge(scale(-1, basis(3)), basis(1)),
    3: wedge(scale(-1, basis(1)), basis(2)),
    4: {},
    DT: {},
}


def d(form):
    """d(e^{i1} ^ ... ^ e^{ik}) = sum over p of (-1)^p e^{i1} ^ .. ^ de^{ip} ^ .. ^ e^{ik}."""
    terms = []
    for key, coeff in form.items():
        for p, i in enumerate(key):
            before, after = {key[:p]: (-1) ** p * coeff}, {key[p + 1:]: 1}
            terms.append(wedge(wedge(before, D_BASIS[i]), after))
    return add(*terms)


def one_form(row):
    """The one-form sum_j row[j] e_{j+1} over the group directions."""
    return {(j + 1,): c for j, c in enumerate(row) if c != 0}


def group_form(degree, coefficients):
    """A form over e1..e4 from its coefficients in lexicographic monomial order."""
    keys = combinations(range(1, 5), degree)
    return {key: c for key, c in zip(keys, coefficients) if c != 0}


def norm(form):
    return math.sqrt(sum(float(c) * float(c) for c in form.values()))


def hypo_residuals(eta, m):
    """The three structure-equation residual forms of a coframe."""
    e0, e1, e2, e3 = map(one_form, eta)
    e23, e31, e12 = wedge(e2, e3), wedge(e3, e1), wedge(e1, e2)
    e4 = basis(4)
    return (
        add(d(e0), scale(2, e23)),
        add(d(e31), scale(-3, wedge(e0, e12)), scale(-m, wedge(e4, e12))),
        add(d(e12), scale(3, wedge(e0, e31)), scale(m, wedge(e4, e31))),
    )


MONOMIALS_2 = list(combinations(range(1, 5), 2))


def rate_defect(y, x, m):
    """b - A x of the general flow's rate system, in exact arithmetic on
    the values of the floats y (eta0..eta3 over e1..e4, 16 coefficients)
    and x (the rates of eta1..eta3, 12): the right-hand sides minus the
    product rule d/dt of the three structure equations, as 18 Fractions,
    equation by equation over the monomials 12, 13, 14, 23, 24, 34."""
    y, x = [Fraction(float(v)) for v in y], [Fraction(float(v)) for v in x]
    e0, e1, e2, e3 = (one_form(y[i:i + 4]) for i in range(0, 16, 4))
    x1, x2, x3 = (one_form(x[i:i + 4]) for i in range(0, 12, 4))
    e4 = basis(4)
    equations = (
        add(scale(-1, d(e1)), scale(-1, wedge(x2, e3)), scale(-1, wedge(e2, x3))),
        add(scale(3, wedge(e0, e3)), scale(-1, d(e2)), scale(m, wedge(e4, e3)),
            scale(-1, wedge(x3, e1)), scale(-1, wedge(e3, x1))),
        add(scale(-3, wedge(e0, e2)), scale(-1, d(e3)), scale(-m, wedge(e4, e2)),
            scale(-1, wedge(x1, e2)), scale(-1, wedge(e1, x2))),
    )
    return [eq.get(pair, Fraction(0)) for eq in equations for pair in MONOMIALS_2]


def su2_forms(eta, rates):
    """alpha, omega1, omega2, omega3 of a coframe and their rates."""
    e0, e1, e2, e3 = map(one_form, eta)
    x0, x1, x2, x3 = map(one_form, rates)
    dt = basis(DT)
    forms = (
        e0,
        add(wedge(e2, e3), wedge(e1, dt)),
        add(wedge(e3, e1), wedge(e2, dt)),
        add(wedge(e1, e2), wedge(e3, dt)),
    )
    dots = (
        x0,
        add(add(wedge(x2, e3), wedge(e2, x3)), wedge(x1, dt)),
        add(add(wedge(x3, e1), wedge(e3, x1)), wedge(x2, dt)),
        add(add(wedge(x1, e2), wedge(e1, x2)), wedge(x3, dt)),
    )
    return forms, dots


def es_residuals(eta, rates, m):
    """The three Einstein-Sasaki residual forms on the five-manifold,
    with d + dt ^ d/dt as the derivative and the phase correction
    m e4 ^ . on omega2 and omega3."""
    (alpha, w1, w2, w3), (alpha_dot, _, w2_dot, w3_dot) = su2_forms(eta, rates)
    dt, e4 = basis(DT), basis(4)

    def d5(form, rate):
        return add(d(form), wedge(dt, rate))

    return (
        add(d5(alpha, alpha_dot), scale(2, w1)),
        add(d5(w2, w2_dot), scale(-3, wedge(alpha, w3)), scale(-m, wedge(e4, w3))),
        add(d5(w3, w3_dot), scale(3, wedge(alpha, w2)), scale(m, wedge(e4, w2))),
    )
