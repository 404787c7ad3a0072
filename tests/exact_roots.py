"""Reference exact root search for the turning cubic, on ``Fraction``s.

The bisection of ``esasaki.moduli.cubic_roots`` written out on rationals:
the same brackets and halving count, every midpoint a ``Fraction`` and
every sign read off A + Delta^2 - 4 Delta^3 evaluated in ``Fraction``
arithmetic, then the same snap to a denominator of at most 4b and the
same check by substitution.  Slow at large denominators (a gcd on every
step), and independent of the integer numerators the package runs on.
"""

from fractions import Fraction
from math import ceil

from esasaki.moduli import A_MIN, ExactRootsUnavailable


def cubic(A, delta):
    return A + delta * delta - 4 * delta**3


def fraction_cubic_roots(A):
    """Ordered nonnegative roots of the cubic at rational A, with
    multiplicity; raises ExactRootsUnavailable on an irrational root."""
    A = Fraction(A)
    if A == A_MIN:
        return [(Fraction(1, 6), 2)]
    if A < A_MIN:
        return []
    if A == 0:
        return [(Fraction(0), 2), (Fraction(1, 4), 1)]
    if A > 0:
        hi = Fraction(1, 2)
        while cubic(A, hi) > 0:
            hi *= 2
        brackets = [(Fraction(1, 4), hi)]
    else:
        brackets = [(Fraction(0), Fraction(1, 6)), (Fraction(1, 6), Fraction(1, 4))]
    den = 4 * A.denominator
    roots = []
    for lo, hi in brackets:
        positive = cubic(A, lo) > 0
        for _ in range(ceil(2 * (hi - lo) * den**2).bit_length()):
            mid = (lo + hi) / 2
            if (cubic(A, mid) > 0) == positive:
                lo = mid
            else:
                hi = mid
        root = ((lo + hi) / 2).limit_denominator(den)
        if cubic(A, root) != 0:
            raise ExactRootsUnavailable("cubic has irrational nonnegative roots")
        roots.append((root, 1))
    return roots
