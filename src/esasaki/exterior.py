"""Exterior algebra of invariant forms on su(2)+u(1), as index tables.

The coframe basis is e1, e2, e3, e4 on the group directions.  The
exterior derivative is fixed by the structure equations

    de1 = -e23,   de2 = -e31,   de3 = -e12,   de4 = 0,

extended to products by the graded Leibniz rule.  The algebra is kept
as index tables, derived once from that rule and the monomial merge
rule: ``WEDGE_1_1`` and ``WEDGE_1_2`` for the wedge of a one-form with a
one-form or a two-form, applied by :func:`wedge_coefficients`, and the
d-matrices ``D_1`` and ``D_2`` on one- and two-forms (float, with exact
entries 0 and +-1; ``D.astype(int)`` keeps object arrays exact).  They
act on coefficient arrays in the lexicographic monomial order
(``GROUP_KEYS``), batched over any leading axes; the wedge tables work
in any dtype (object arrays of ``Fraction`` stay exact).  Forms on the
five-manifold, with the interval direction dt, are handled by writing
them as F0 + F1 ^ dt (see :func:`esasaki.structures.residual_es`).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = ["GROUP_KEYS", "WEDGE_1_1", "WEDGE_1_2", "D_1", "D_2", "wedge_coefficients"]

_INDICES = (1, 2, 3, 4)

# d(e^i) over increasing-index 2-form monomials; -e31 is +e13.
_D_BASIS = {
    1: {(2, 3): -1},
    2: {(1, 3): 1},
    3: {(1, 2): -1},
    4: {},
}


def _merge_indices(left: tuple, right: tuple):
    """Merge two increasing index tuples, returning (merged, sign).

    Returns (None, 0) when an index repeats.  The sign is the parity of
    the permutation sorting the concatenation.
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining len(left)-i entries of `left`
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), sign


def _leibniz(key: tuple) -> tuple:
    """d of the monomial e^key as (monomial, sign) pairs, one per factor
    whose d is nonzero and misses the other factors, in factor order."""
    terms = []
    for pos, idx in enumerate(key):
        for middle, coeff in _D_BASIS[idx].items():
            merged, left = _merge_indices(key[:pos], middle)
            if merged is None:
                continue
            merged, right = _merge_indices(merged, key[pos + 1:])
            if merged is None:
                continue
            # d passes the pos one-forms before it: the sign (-1)^pos
            terms.append((merged, (-1) ** pos * left * coeff * right))
    return tuple(terms)


GROUP_KEYS = {degree: tuple(combinations(_INDICES, degree)) for degree in range(5)}


def _wedge_table(degree: int) -> tuple:
    """Index arrays of the wedge of a one-form with a ``degree``-form, one
    (left, right) pair per term: term n of output monomial k is
    x[left[k]] * y[right[k]] with the sign (-1)^n.

    The terms of a monomial are listed by increasing one-form index, the
    order of expanding x ^ y term by term; the n-th smallest index
    passes n others, which is the alternating sign.
    """
    out = {key: n for n, key in enumerate(GROUP_KEYS[degree + 1])}
    terms = [[] for _ in out]
    for a, left in enumerate(GROUP_KEYS[1]):
        for b, right in enumerate(GROUP_KEYS[degree]):
            merged, sign = _merge_indices(left, right)
            if merged is not None:
                assert sign == (-1) ** len(terms[out[merged]])
                terms[out[merged]].append((a, b))
    table = np.array(terms)
    return tuple((table[:, n, 0].copy(), table[:, n, 1].copy()) for n in range(degree + 1))


def _d_matrix(degree: int) -> np.ndarray:
    """Matrix of d from ``degree``-forms to ``degree + 1``-forms.

    Float, so that float coefficients meet no integer cast in ``@``."""
    rows = {key: n for n, key in enumerate(GROUP_KEYS[degree + 1])}
    matrix = np.zeros((len(rows), len(GROUP_KEYS[degree])))
    for col, key in enumerate(GROUP_KEYS[degree]):
        for merged, sign in _leibniz(key):
            matrix[rows[merged], col] += sign
    return matrix


WEDGE_1_1 = _wedge_table(1)
WEDGE_1_2 = _wedge_table(2)
D_1 = _d_matrix(1)
D_2 = _d_matrix(2)


def wedge_coefficients(x, y, table: tuple) -> np.ndarray:
    """Coefficients of x ^ y for a one-form x and the form y that
    ``table`` (``WEDGE_1_1`` or ``WEDGE_1_2``) expects, both held in the
    last axis; the leading axes broadcast.  d of a coefficient array y
    is ``y @ D.T``."""
    (left, right), *rest = table
    out = x[..., left] * y[..., right]
    for n, (left, right) in enumerate(rest, 1):
        term = x[..., left] * y[..., right]
        out = out - term if n % 2 else out + term
    return out
