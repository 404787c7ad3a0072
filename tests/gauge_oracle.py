"""The gauge action on one coframe, row by row: the reference that
``structures.gauge`` is checked against bit for bit.

Each function takes an ``IdStructure`` and returns a new one, with the
arithmetic of a per-row loop: every row converted to floats, ``rot @ row``
on its su(2) triple, the phase rotation as elementwise sums of whole rows
and the flips as negations.
"""

import math

import numpy as np

from esasaki.structures import IdStructure


def apply_so3(structure, rot):
    """Rotate the su(2) coefficient triples of every row by rot in SO(3)."""
    rows = []
    for row in structure.eta:
        xyz = rot @ np.array([float(c) for c in row[:3]])
        rows.append((xyz[0], xyz[1], xyz[2], float(row[3])))
    return IdStructure(tuple(rows), structure.m)


def apply_u1(structure, angle):
    """Rotate (eta2, eta3) by the residual phase action."""
    c, s = math.cos(angle), math.sin(angle)
    r0, r1, r2, r3 = (np.array([float(x) for x in row]) for row in structure.eta)
    new2 = c * r2 + s * r3
    new3 = -s * r2 + c * r3
    return IdStructure((tuple(r0), tuple(r1), tuple(new2), tuple(new3)), structure.m)


def sign_change(structure):
    """Orientation reversal (eta0, -eta1, -eta2, -eta3)."""
    r0, r1, r2, r3 = structure.eta
    neg = lambda row: tuple(-c for c in row)
    return IdStructure((r0, neg(r1), neg(r2), neg(r3)), structure.m)


def flip_eta1(structure):
    """Orientation reversal composed with the half-turn phase action."""
    r0, r1, r2, r3 = structure.eta
    return IdStructure((r0, tuple(-c for c in r1), r2, r3), structure.m)
