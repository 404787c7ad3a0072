# Invariant exterior calculus on su(2) + u(1), as index tables.
#
# Forms over the basis one-forms e1..e4 are coefficient arrays in the
# lexicographic monomial order; the derivative is fixed by
# de1 = -e23 (cyclically) and de4 = 0.  With Fraction entries in object
# arrays every step below is exact.

from fractions import Fraction as F

import numpy as np

from esasaki.exterior import D_1, D_2, GROUP_KEYS, WEDGE_1_1, WEDGE_1_2, wedge_coefficients

D1, D2 = D_1.T.astype(int), D_2.T.astype(int)  # integer matrices keep Fractions exact


def show(form, degree: int) -> str:
    """A degree-form from its coefficient array, as a sum of monomials."""
    terms = [f"{c}*e{''.join(map(str, key))}" for key, c in zip(GROUP_KEYS[degree], form) if c != 0]
    return " + ".join(terms) if terms else "0"


def one_form(*coefficients):
    return np.array([F(c) for c in coefficients], dtype=object)


e = [one_form(*row) for row in np.eye(4, dtype=int).tolist()]

print("structure equations:")
for i, ei in enumerate(e, 1):
    print(f"  de{i} = {show(ei @ D1, 2)}")

# wedge products: one-forms anticommute, a two-form commutes with a one-form
x = one_form(F(1, 3), 0, 0, 1)
y = one_form(1, 2, 0, 0)
z = wedge_coefficients(e[1], e[2], WEDGE_1_1)  # e23
print("\nx = e1/3 + e4, y = e1 + 2 e2")
print("x ^ y =", show(wedge_coefficients(x, y, WEDGE_1_1), 2))
print("y ^ x =", show(wedge_coefficients(y, x, WEDGE_1_1), 2))
print("x ^ x =", show(wedge_coefficients(x, x, WEDGE_1_1), 2))
print("x ^ e23 =", show(wedge_coefficients(x, z, WEDGE_1_2), 3), "  (= e23 ^ x)")

# the derivative is a complex: d(d(anything)) = 0 exactly
print("\nD_2 @ D_1 == 0:", not (D_2 @ D_1).any())

# the graded Leibniz rule on a one-form pair: d(x ^ y) = dx ^ y - x ^ dy,
# with the two-form dx commuting past y
lhs = wedge_coefficients(x, y, WEDGE_1_1) @ D2
rhs = wedge_coefficients(y, x @ D1, WEDGE_1_2) - wedge_coefficients(x, y @ D1, WEDGE_1_2)
print("\nd(x ^ y)          =", show(lhs, 3))
print("dx ^ y - x ^ dy   =", show(rhs, 3))
print("Leibniz holds exactly:", all(lhs == rhs))
