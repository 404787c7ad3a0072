"""Reference values computed apart from esasaki.

Nothing here imports the package under test.  Every check in
``workloads.py`` compares the program's output with a value from this
module:

- the rotating closed form of case i;
- the conserved quantity A of the conformal family and the conserved
  ratios w/u, z/v of the five-parameter family;
- the turning values (the nonnegative roots of A + x^2 - 4 x^3 = 0),
  found by exact Fraction bisection and rational reconstruction;
- the orbit ratio q/sigma = 6 Delta / ((1 - 6 Delta)(C + m)) and the
  integrality conditions of the orbit data;
- the order of the finite group K, from the lattice its generators span;
- the Y^{p,q} chart metric, assembled from its one-forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

EPS = math.sqrt(6.0)
A_MIN = Fraction(-1, 108)


class Mismatch(AssertionError):
    """The program's output disagrees with the reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# flows


def case_i_coefficients(k: float, m: int, t: float) -> list:
    """The 16 coframe coefficients of the rotating family at time t:
    eta0 = e1/3 + (k cos(sqrt6 t) - m/3) e4, eta1 = -(k sqrt6/2) sin(sqrt6 t) e4,
    eta2 = e2/sqrt6, eta3 = e3/sqrt6."""
    g = k * math.cos(EPS * t) - m / 3.0
    f = -0.5 * k * EPS * math.sin(EPS * t)
    return [1 / 3, 0.0, 0.0, g, 0.0, 0.0, 0.0, f, 0.0, 1 / EPS, 0.0, 0.0, 0.0, 0.0, 1 / EPS, 0.0]


def case_ii_rows(h, a, C, m) -> list:
    """Rows of the conformal-family coframe (h, a) with constants C, m;
    exact when h, a and C are Fractions."""
    return [
        [2 * h * h, 0, 0, 2 * C * h * h - (C + m) / 3],
        [a, 0, 0, a * C],
        [0, h, 0, 0],
        [0, 0, h, 0],
    ]


def conserved_A(h: float, a: float) -> float:
    return 4 * h**6 - h**4 + (a * h) ** 2


def case_iii_ratios(h: float, k: float, b: float, c: float) -> tuple:
    """The conserved ratios w/u and z/v, with u = h + k, w = b - c,
    v = h - k, z = b + c."""
    return (b - c) / (h + k), (b + c) / (h - k)


# ---------------------------------------------------------------------------
# turning values and orbit data


def _cubic(A: Fraction, x: Fraction) -> Fraction:
    return A + x * x - 4 * x**3


def _exact_root_in(A: Fraction, lo: Fraction, hi: Fraction):
    """The rational root of the turning cubic in (lo, hi), or None when
    the root there is irrational.  The cubic changes sign on (lo, hi).

    A rational root p/s of 4b x^3 - b x^2 - a (A = a/b) has s | 4b, and
    two such fractions differ by at least 1/(4b)^2; bisection below half
    that width leaves one candidate, checked by exact substitution.
    """
    bound = 4 * A.denominator
    width = Fraction(1, 2 * bound * bound)
    f_lo = _cubic(A, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        f_mid = _cubic(A, mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    cand = ((lo + hi) / 2).limit_denominator(bound)
    return cand if _cubic(A, cand) == 0 else None


def turning_roots(A: Fraction):
    """Nonnegative roots of A + x^2 - 4 x^3 with multiplicity, ascending,
    for -1/108 < A <= 0; None when a root is irrational."""
    A = Fraction(A)
    if A == 0:
        return [(Fraction(0), 2), (Fraction(1, 4), 1)]
    if not (A_MIN < A < 0):
        raise ValueError(f"A = {A} is outside (-1/108, 0]")
    # the cubic is positive at 0 and 1/4 and negative at 1/6
    lower = _exact_root_in(A, Fraction(0), Fraction(1, 6))
    upper = _exact_root_in(A, Fraction(1, 6), Fraction(1, 4))
    if lower is None or upper is None:
        return None
    return [(lower, 1), (upper, 1)]


def family_from_t(t: Fraction) -> dict:
    """The Y^{p,q} family with root sum S = t^2 / (3 (3 + t^2)), t > 3.

    S (1 - 3S) = (t / (3 + t^2))^2 is a rational square, so both turning
    values Delta = (S -+ t/(3 + t^2)) / 2 are rational, the third root is
    1/4 - S, and A = -S (4S - 1)^2 / 4."""
    t = Fraction(t)
    if t <= 3:
        raise ValueError("t must exceed 3")
    S = t * t / (3 * (3 + t * t))
    r = t / (3 + t * t)
    lower, upper = (S - r) / 2, (S + r) / 2
    A = -S * (4 * S - 1) ** 2 / 4
    return {"t": t, "S": S, "A": A, "delta_minus": lower, "delta_plus": upper}


def orbit_ratio(delta: Fraction, C: Fraction, m: int) -> Fraction:
    """q / sigma = 6 Delta / ((1 - 6 Delta)(C + m))."""
    return 6 * delta / ((1 - 6 * delta) * (C + m))


def orbit_witness(delta: Fraction, C: Fraction, m: int):
    """The smallest integer pair (q, sigma) with q/sigma the orbit ratio,
    qm + sigma even and p + qC > 0, as (q, sigma_signed, p); None when
    the pair violates gcd(q, p/2) = 1."""
    ratio = orbit_ratio(delta, Fraction(C), m)
    a, b = ratio.numerator, ratio.denominator
    scale = 1 if (a * m + b) % 2 == 0 else 2
    q, sig = scale * a, scale * b
    p = q * m + sig
    if p + q * C == 0:
        return None
    if p + q * C < 0:
        q, sig, p = -q, -sig, -p
    if gcd(abs(q), abs(p) // 2) != 1:
        return None
    return q, sig, p


def check_end_data(end: dict, delta: Fraction, C: Fraction, m: int, tag: str) -> None:
    """An EndData JSON record against the orbit ratio and integrality."""
    q, sig, p = int(end["q"]), int(end["sigma_signed"]), int(end["p"])
    require(sig != 0 and Fraction(q, sig) == orbit_ratio(delta, C, m),
            f"{tag}: q/sigma = {q}/{sig}, expected {orbit_ratio(delta, C, m)}")
    require(p == q * m + sig, f"{tag}: p = {p} is not qm + sigma")
    require(p % 2 == 0 and gcd(abs(q), abs(p) // 2) == 1, f"{tag}: p/2 = {p}/2 not an integer coprime to q")
    require(p + q * C > 0, f"{tag}: slope p + qC = {p + q * C} not positive")
    require(int(end["sigma"]) == abs(sig), f"{tag}: sigma {end['sigma']} != |sigma_signed|")


def k_order(ends) -> int:
    """Order of the subgroup of (Q/Z)^2 generated by (1/2, q/sigma) over
    the given ends.  With D a common denominator, K is L / D Z^2 for the
    lattice L spanned by D g_i and D Z^2, so |K| = D^2 / [Z^2 : L], and
    the index is the gcd of the 2x2 minors of the spanning vectors."""
    gens = [(Fraction(1, 2), Fraction(q, abs(s)) % 1) for q, s in ends]
    D = 1
    for x, y in gens:
        D = D * x.denominator // gcd(D, x.denominator)
        D = D * y.denominator // gcd(D, y.denominator)
    vecs = [(int(x * D), int(y * D)) for x, y in gens] + [(D, 0), (0, D)]
    index = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            index = gcd(index, vecs[i][0] * vecs[j][1] - vecs[i][1] * vecs[j][0])
    return D * D // index


# ---------------------------------------------------------------------------
# the Y^{p,q} chart


def chart_metric(A: float, point) -> np.ndarray:
    """The metric (1-y)/6 (dth^2 + sin^2 th dphi^2) + dy^2/w + w/36 s1^2
    + s2^2/9 in coordinates (theta, phi, y, beta, psi), where
    s1 = dbeta + cos th dphi, s2 = dpsi - cos th dphi + y s1 and
    w = 2 (108 A + 1 - 3 y^2 + 2 y^3) / (1 - y)."""
    theta, _, y, _, _ = (float(x) for x in point)
    w = 2.0 * (108.0 * A + 1.0 - 3.0 * y * y + 2.0 * y**3) / (1.0 - y)
    c, s = math.cos(theta), math.sin(theta)
    e = np.eye(5)
    s1 = e[3] + c * e[1]
    s2 = e[4] - c * e[1] + y * s1
    return (
        (1.0 - y) / 6.0 * (np.outer(e[0], e[0]) + s * s * np.outer(e[1], e[1]))
        + np.outer(e[2], e[2]) / w
        + w / 36.0 * np.outer(s1, s1)
        + np.outer(s2, s2) / 9.0
    )


def y_interval(A: Fraction) -> tuple:
    """Admissible y = 1 - 6 Delta between the turning values."""
    roots = [r for r, _ in turning_roots(A)] if A != 0 else [Fraction(0), Fraction(1, 4)]
    return float(1 - 6 * max(roots)), float(1 - 6 * min(roots))


# ---------------------------------------------------------------------------
# rational frame changes


def quaternion_rotation(w: int, x: int, y: int, z: int) -> list:
    """The rotation of a nonzero integer quaternion, with exact entries."""
    n = Fraction(w * w + x * x + y * y + z * z)
    return [
        [(w * w + x * x - y * y - z * z) / n, 2 * (x * y - w * z) / n, 2 * (x * z + w * y) / n],
        [2 * (x * y + w * z) / n, (w * w - x * x + y * y - z * z) / n, 2 * (y * z - w * x) / n],
        [2 * (x * z - w * y) / n, 2 * (y * z + w * x) / n, (w * w - x * x - y * y + z * z) / n],
    ]


def rotate_rows(rows, rot, slope: Fraction) -> list:
    """Rotate the su(2) part of every row by rot, then rotate (eta2, eta3)
    by the angle with tangent of half-angle ``slope``; exact throughout."""
    rows = [[Fraction(c) for c in row] for row in rows]
    turned = []
    for row in rows:
        xyz = [sum(rot[i][j] * row[j] for j in range(3)) for i in range(3)]
        turned.append(xyz + [row[3]])
    cos = (1 - slope * slope) / (1 + slope * slope)
    sin = 2 * slope / (1 + slope * slope)
    r2, r3 = turned[2], turned[3]
    turned[2] = [cos * u + sin * v for u, v in zip(r2, r3)]
    turned[3] = [-sin * u + cos * v for u, v in zip(r2, r3)]
    return turned
