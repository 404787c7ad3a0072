"""Reference group diagrams on ``Fraction`` phases.

``fraction_diagram`` closes K over pairs of phases in [0, 1) and counts
each stabilizer over the elements, with the checks of
``esasaki.moduli.build_diagram`` in the same order.  ``described_elements``
lists the elements that a diagram's step and offset describe, and
``lattice_order`` counts a subgroup of (Z/N)^2 without listing it.
"""

from fractions import Fraction as F
from itertools import combinations
from math import gcd

from esasaki.moduli import ROUND_SPHERE_BRANCH, YPQ_BRANCH


def fraction_diagram(family):
    """Reference for build_diagram: the closure of K over pairs of phases
    in [0, 1) as Fractions, with the same checks in the same order.
    Returns (generators, sorted elements, intersection orders)."""
    mod1 = lambda x: x - (x.numerator // x.denominator)
    ends = [("plus", family.plus)]
    if family.branch == YPQ_BRANCH:
        if family.minus is None:
            raise ValueError("two-root family requires orbit data at both ends")
        ends.append(("minus", family.minus))
    for name, end in ends:
        if end.p % 2 != 0:
            raise ValueError(f"{name} end: p = qm+sigma = {end.p} is odd")
        if gcd(abs(end.q), abs(end.p) // 2) != 1:
            raise ValueError(f"{name} end: q = {end.q} and (qm+sigma)/2 = {end.p // 2} are not coprime")
        if end.q == 0:
            raise ValueError(f"{name} end: q must be nonzero")
    generators = [(F(1, 2), mod1(F(end.q, end.sigma))) for _, end in ends]
    elements = {(F(0), F(0))}
    frontier = list(elements)
    while frontier:
        x, y = frontier.pop()
        for gx, gy in generators:
            new = (mod1(x + gx), mod1(y + gy))
            if new not in elements:
                elements.add(new)
                frontier.append(new)
    orders = {}
    for name, end in ends:
        P, Q = end.p // 2, end.q
        orders[name] = sum((Q * x - P * y).denominator == 1 for x, y in elements)
        if orders[name] != end.sigma:
            raise ValueError(
                f"{name} end: stabilizer intersection has order {orders[name]}, expected {end.sigma}"
            )
    if family.branch == ROUND_SPHERE_BRANCH and any(y == 0 and x != 0 for x, y in elements):
        raise ValueError("K meets SU(2) x {1} nontrivially on the round branch")
    return generators, sorted(elements), orders


def described_elements(step: F, offset: F) -> list:
    """The sorted phases (0, i step) and (1/2, offset + i step),
    0 <= i < 1/step, for a step 1/n and 0 <= offset < step."""
    assert step.numerator == 1 and 0 <= offset < step
    count = step.denominator
    return [(F(0), i * step) for i in range(count)] + [(F(1, 2), offset + i * step) for i in range(count)]


def lattice_order(N: int, generators) -> int:
    """The order of the subgroup of (Z/N)^2 spanned by integer pairs:
    N^2 over the index in Z^2 of the lattice they span with N Z^2, which
    is the gcd of the 2 x 2 minors."""
    columns = list(generators) + [(N, 0), (0, N)]
    return N * N // gcd(*(a * d - b * c for (a, b), (c, d) in combinations(columns, 2)))
