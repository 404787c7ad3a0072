"""Exterior algebra of invariant forms on su(2)+u(1), extended by dt.

The coframe basis is e1, e2, e3, e4 on the group directions together with
the interval direction dt.  Basis one-forms are indexed 1..5, with dt = 5
(dt sorts last; all serialization uses the lexicographic monomial order).
The exterior derivative is fixed by the structure equations

    de1 = -e23,   de2 = -e31,   de3 = -e12,   de4 = 0,   d(dt) = 0,

extended to products by the graded Leibniz rule.  Coefficients may be
exact (``int`` / ``fractions.Fraction``) or floating point; every
operation preserves exactness when all operands are exact.

The same algebra is also kept as index tables over the group directions
e1..e4, derived once from the Leibniz table and the monomial merge
rule: ``WEDGE_1_1`` and ``WEDGE_1_2`` for the wedge of a one-form with a
one-form or a two-form, applied by :func:`wedge_coefficients`, and the
d-matrices ``D_1`` and ``D_2`` on one- and two-forms (float, with exact
entries 0 and +-1; ``D.astype(int)`` keeps object arrays exact).  They
act on coefficient arrays in the lexicographic monomial order
(``GROUP_KEYS``), batched over any leading axes; the wedge tables work
in any dtype (object arrays of ``Fraction`` stay exact).  The float paths of :mod:`esasaki.evolution`
(the general-flow rate system) and :mod:`esasaki.structures`
(``residual_hypo``) use these tables and build no ``InvariantForm``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "DT_INDEX",
    "InvariantForm",
    "basis_one_form",
    "monomial",
    "wedge",
    "d_invariant",
    "E1",
    "E2",
    "E3",
    "E4",
    "DT",
]

DT_INDEX = 5
_INDICES = (1, 2, 3, 4, 5)
_MAX_DEGREE = 5

# d(e^i) over increasing-index 2-form monomials; -e31 is +e13.
_D_BASIS = {
    1: {(2, 3): -1},
    2: {(1, 3): 1},
    3: {(1, 2): -1},
    4: {},
    5: {},
}


@lru_cache(maxsize=None)
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


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction))


class InvariantForm:
    """A differential form with constant coefficients over the invariant basis.

    Coefficients are stored in a dict keyed by strictly increasing index
    tuples of length ``degree``; zero entries are dropped.
    """

    __slots__ = ("degree", "entries")

    def __init__(self, degree: int, entries: Mapping[tuple, object] | None = None):
        if not 0 <= degree <= _MAX_DEGREE:
            raise ValueError(f"degree must be in 0..{_MAX_DEGREE}, got {degree}")
        self.degree = degree
        clean = {}
        if entries:
            for key, coeff in entries.items():
                key = tuple(key)
                if len(key) != degree:
                    raise ValueError(f"monomial {key} does not match degree {degree}")
                if any(k not in _INDICES for k in key) or list(key) != sorted(set(key)):
                    raise ValueError(f"monomial indices must be strictly increasing in 1..5, got {key}")
                if coeff != 0:
                    clean[key] = clean.get(key, 0) + coeff
        self.entries = {k: c for k, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, degree: int = 0) -> "InvariantForm":
        return cls(degree, {})

    @classmethod
    def scalar(cls, value) -> "InvariantForm":
        return cls(0, {(): value})

    # -- basic queries -----------------------------------------------

    def coefficient(self, key: Iterable[int]):
        return self.entries.get(tuple(key), 0)

    def is_exact(self) -> bool:
        return all(_is_exact(c) for c in self.entries.values())

    def norm(self) -> float:
        return math.sqrt(sum(float(c) * float(c) for c in self.entries.values()))

    def monomials(self):
        """Canonical (lexicographic) monomial order for this degree."""
        return list(combinations(_INDICES, self.degree))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        if not isinstance(other, InvariantForm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        entries = dict(self.entries)
        for key, coeff in other.entries.items():
            entries[key] = entries.get(key, 0) + coeff
        return InvariantForm(self.degree, entries)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-1) * other

    def __neg__(self) -> "InvariantForm":
        return (-1) * self

    def __mul__(self, scalar) -> "InvariantForm":
        if isinstance(scalar, InvariantForm):
            return NotImplemented
        return InvariantForm(self.degree, {k: scalar * c for k, c in self.entries.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InvariantForm)
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def allclose(self, other: "InvariantForm", tol: float = 1e-12) -> bool:
        if self.degree != other.degree:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(abs(float(self.entries.get(k, 0)) - float(other.entries.get(k, 0))) <= tol for k in keys)

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        return wedge(self, other)

    def d(self) -> "InvariantForm":
        return d_invariant(self)

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for key in self.monomials():
            if key in self.entries:
                coeff = self.entries[key]
                if isinstance(coeff, Fraction):
                    coeff = str(coeff)
                entries.append(["".join(str(i) for i in key), coeff])
        return {"degree": self.degree, "entries": entries}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "InvariantForm":
        entries = {}
        for key_str, coeff in data["entries"]:
            key = tuple(int(ch) for ch in key_str)
            if isinstance(coeff, str):
                coeff = Fraction(coeff)
            entries[key] = coeff
        return cls(data["degree"], entries)

    @classmethod
    def loads(cls, text: str) -> "InvariantForm":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        if not self.entries:
            return f"InvariantForm({self.degree}, 0)"
        parts = []
        for key in self.monomials():
            if key in self.entries:
                label = "e" + "".join("t" if i == DT_INDEX else str(i) for i in key) if key else "1"
                parts.append(f"{self.entries[key]}*{label}")
        return "InvariantForm(" + " + ".join(parts) + ")"


def basis_one_form(index: int) -> InvariantForm:
    """The basis one-form e^index (index 5 is dt)."""
    if index not in _INDICES:
        raise ValueError(f"basis index must be in 1..5, got {index}")
    return InvariantForm(1, {(index,): 1})


def monomial(*indices: int) -> InvariantForm:
    """Wedge monomial e^{i1...ik} for strictly increasing indices."""
    return InvariantForm(len(indices), {tuple(indices): 1})


E1 = basis_one_form(1)
E2 = basis_one_form(2)
E3 = basis_one_form(3)
E4 = basis_one_form(4)
DT = basis_one_form(DT_INDEX)


def wedge(a: InvariantForm, b: InvariantForm) -> InvariantForm:
    """Exterior product; raises on degree overflow past the 5-dim basis."""
    degree = a.degree + b.degree
    if degree > _MAX_DEGREE:
        raise ValueError(f"degree overflow: {a.degree} + {b.degree} > {_MAX_DEGREE}")
    entries: dict = {}
    for ka, ca in a.entries.items():
        for kb, cb in b.entries.items():
            merged, sign = _merge_indices(ka, kb)
            if merged is None:
                continue
            entries[merged] = entries.get(merged, 0) + sign * ca * cb
    return InvariantForm(degree, entries)


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


_D_MONOMIAL = {
    key: _leibniz(key) for degree in range(_MAX_DEGREE) for key in combinations(_INDICES, degree)
}


def d_invariant(a: InvariantForm) -> InvariantForm:
    """Exterior derivative for the fixed structure equations.

    Linear over monomials via the graded Leibniz rule; d of a 5-form (and
    of constants) is zero.  Satisfies d(d(a)) = 0 identically.
    """
    if a.degree >= _MAX_DEGREE:
        return InvariantForm.zero(min(a.degree + 1, _MAX_DEGREE))
    entries: dict = {}
    for key, coeff in a.entries.items():
        for merged, sign in _D_MONOMIAL[key]:
            total = entries.get(merged, 0) + sign * coeff
            # drop a cancelled monomial at once, as a sum of forms does, so
            # that the entries keep the order of summing term by term
            if total == 0:
                del entries[merged]
            else:
                entries[merged] = total
    return InvariantForm(a.degree + 1, entries)


# ---------------------------------------------------------------------------
# index tables over the group directions e1..e4

GROUP_KEYS = {degree: tuple(combinations(_INDICES[:4], degree)) for degree in range(5)}


def _wedge_table(degree: int) -> tuple:
    """Index arrays of the wedge of a one-form with a ``degree``-form, one
    (left, right) pair per term: term n of output monomial k is
    x[left[k]] * y[right[k]] with the sign (-1)^n.

    The terms of a monomial are listed by increasing one-form index, the
    order in which :func:`wedge` accumulates them; the n-th smallest
    index passes n others, which is the alternating sign.
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
        for merged, sign in _D_MONOMIAL[key]:
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
