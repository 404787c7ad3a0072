"""Admissibility and enumeration of compact families.

The turning values Delta of the conformal flow are the nonnegative roots
of the cubic A + Delta^2 - 4 Delta^3 = 0.  A compact extension exists for
A = 0 (the round branch: Delta runs from the round end 0 to the circle
end 1/4) or for -1/108 < A < 0 (two circle ends at the positive roots)
when every circle end carries integer orbit data (q, sigma) obtained
from the exact ratio

    q / sigma = (1 / (C + m)) * 6 Delta / (1 - 6 Delta),

cleared of denominators subject to the two integrality conditions
(half-slope (q m + sigma)/2 integral and coprime to q); the round branch
also needs gcd(q, sigma) = 1.  sigma is kept
signed internally -- its absolute value is the order of the intersection
with the principal stabilizer, and the sign normalization makes the
slope functional p + qC positive.

Everything runs in exact rational arithmetic when the inputs are
``fractions.Fraction``; float inputs use deterministic bisection plus
bounded rational reconstruction.  Exact and float roots of the cubic
come from one bisection: the exact path halves until a single rational
of admissible denominator fits the bracket, snaps to it and checks it
by substitution, in O(log b) halvings for A = a/b, each on integer
numerators over a common scale.

Group diagrams run on integers: every generator (1/2, q/sigma mod 1) of
K lies in (1/N)Z^2/Z^2 with N = lcm(2, sigma_-, sigma_+), so K is kept
as integer numerators over N.  Every first phase is 0 or 1/2, so K is
two arithmetic progressions of step d, kept as (N, d, r) rather than
listed; each stabilizer order counts the solutions of a linear
congruence, and |K| = 2N/d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, isqrt, lcm
from typing import Optional

__all__ = [
    "cubic_roots",
    "ratio_from_root",
    "rational_reconstruct",
    "integer_witness",
    "enumerate_rational_families",
    "EndData",
    "YpqFamily",
    "GroupDiagram",
    "build_diagram",
    "classify_A",
    "ClassificationVerdict",
    "ROUND_SPHERE_BRANCH",
    "YPQ_BRANCH",
    "NO_COMPACT_EXTENSION",
    "A_MIN",
]

A_MIN = Fraction(-1, 108)
# rational_reconstruct's relative tolerance, and the denominator bound of
# the float ratios and C that classify_A reconstructs
RECONSTRUCT_REL_TOL = 1e-13
DENOMINATOR_BOUND = 10**6

ROUND_SPHERE_BRANCH = "RoundSphereBranch"
YPQ_BRANCH = "YpqBranch"
NO_COMPACT_EXTENSION = "NoCompactExtension"


class ExactRootsUnavailable(ValueError):
    """The cubic does not split over the rationals."""


# ---------------------------------------------------------------------------
# cubic roots


def _cubic_value(A, delta):
    return A + delta * delta - 4 * delta**3


def _bisect(value, lo, hi, halvings: int):
    """The bracket (lo, hi) of a sign change of ``value`` after
    ``halvings`` halvings, or earlier once floats have no midpoint left.
    Brackets are floats, or integer numerators over a scale that leaves
    every midpoint an integer."""
    positive, integer = value(lo) > 0, isinstance(lo, int)
    for _ in range(halvings):
        mid = (lo + hi) // 2 if integer else (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if (value(mid) > 0) == positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


def cubic_roots(A):
    """Ordered nonnegative roots of A + Delta^2 - 4 Delta^3 = 0, with
    multiplicity, as a list of (root, multiplicity).

    Exact (``Fraction`` or ``int``) and float input bisect the same
    brackets: (0, 1/6) and (1/6, 1/4) when A < 0, (1/4, hi) when A > 0.
    Floats halve until no midpoint is left (at most 200 times).  With
    A = a/b in lowest terms, a rational root has a denominator dividing
    4b (rational root theorem) and two such rationals lie at least
    1/(4b)^2 apart, so the exact path halves below 1/(2 (4b)^2), snaps
    with ``limit_denominator(4b)`` and checks the root by substitution;
    it raises :class:`ExactRootsUnavailable` when a root is irrational.
    The exact halvings run on integer numerators n over a scale s, where
    the cubic at n/s has the sign of a s^3 + b n^2 s - 4 b n^3.
    Below the minimum -1/108 of the branch there are no nonnegative
    roots and the list is empty.
    """
    exact = isinstance(A, (Fraction, int))
    A = Fraction(A) if exact else float(A)
    one = Fraction(1) if exact else 1.0
    a_min = A_MIN if exact else float(A_MIN)
    if A == a_min:
        return [(one / 6, 2)]
    if A < a_min:
        return []
    if A == 0:
        return [(0 * one, 2), (one / 4, 1)]
    if A > 0:
        hi = one / 2
        while _cubic_value(A, hi) > 0:
            hi *= 2
        brackets = [(one / 4, hi)]
    else:
        brackets = [(0 * one, one / 6), (one / 6, one / 4)]
    if not exact:
        return [(sum(_bisect(lambda d: _cubic_value(A, d), lo, hi, 200)) / 2, 1) for lo, hi in brackets]

    a, b = A.numerator, A.denominator
    roots = []
    for lo, hi in brackets:
        # 2^halvings > 2 (hi - lo) (4b)^2: the final bracket is narrower
        # than 1/(2 (4b)^2), and its midpoint snaps to the rational root
        halvings = ceil(2 * (hi - lo) * (4 * b) ** 2).bit_length()
        # every midpoint is n/s with n an integer; b s^3 (A + n^2/s^2 -
        # 4 n^3/s^3) = a s^3 + n^2 (b s - 4 b n) has the sign of the cubic
        s = lcm(lo.denominator, hi.denominator) << halvings
        a_s3, b_s = a * s**3, b * s
        n_lo, n_hi = _bisect(lambda n: a_s3 + n * n * (b_s - 4 * b * n), int(lo * s), int(hi * s), halvings)
        root = Fraction(n_lo + n_hi, 2 * s).limit_denominator(4 * b)
        if _cubic_value(A, root) != 0:
            raise ExactRootsUnavailable(
                "cubic has irrational nonnegative roots; use float mode"
            )
        roots.append((root, 1))
    return roots


# ---------------------------------------------------------------------------
# orbit data from roots


def ratio_from_root(delta, C, m: int):
    """The exact ratio q/sigma determined by a turning value."""
    w = C + m
    if w == 0:
        raise ValueError("C + m must be nonzero")
    one = Fraction(1) if isinstance(delta, Fraction) else 1.0
    denom = one - 6 * delta
    if denom == 0:
        raise ValueError("delta = 1/6 gives no circle orbit data")
    return (6 * delta / denom) / w


def rational_reconstruct(x: float, max_den: int) -> Optional[Fraction]:
    """Best continued-fraction approximation with bounded denominator,
    or None when nothing within tolerance exists.

    The tolerance is tight by design: a genuinely rational value carries
    only rounding error (~1e-16 relative), while convergents of an
    irrational at denominators within the bound sit at distance of order
    1/q^2 >~ 1e-12 and must be refused.  So the relative tolerance is
    capped at 1/(4 max_den^2), below the spacing 1/max_den^2 of
    fractions with bounded denominators; where that is less than an
    ulp of x, only the float nearest a fraction reconstructs.
    """
    if isinstance(x, Fraction):
        return x if x.denominator <= max_den else None
    frac = Fraction(x).limit_denominator(max_den)
    if abs(float(frac) - x) <= min(RECONSTRUCT_REL_TOL * max(1.0, abs(x)), 0.25 / max_den**2):
        return frac
    return None


@dataclass(frozen=True)
class EndData:
    """Integer orbit data at one special orbit."""

    delta: object
    ratio: object
    q: int
    sigma: int          # order of the intersection with the stabilizer
    sigma_signed: int   # sign normalized so that p + qC > 0
    p: int              # p = q m + sigma_signed

    def to_json_dict(self) -> dict:
        return {
            "delta": _num_to_json(self.delta),
            "ratio": _num_to_json(self.ratio),
            "q": self.q,
            "sigma": self.sigma,
            "sigma_signed": self.sigma_signed,
            "p": self.p,
        }


def _num_to_json(x):
    return str(x) if isinstance(x, Fraction) else float(x)


def integer_witness(ratio: Fraction, C, m: int, delta=None) -> EndData:
    """Clear the exact ratio q/sigma to the unique integer pair.

    The scale is fixed by requiring (q m + sigma)/2 to be an integer
    coprime to q; the common sign is normalized so that p + qC > 0.
    """
    if ratio == 0:
        raise ValueError("ratio must be nonzero for a circle orbit")
    a, b = ratio.numerator, ratio.denominator
    k = 1 if (a * m + b) % 2 == 0 else 2
    q, sig = k * a, k * b
    p = q * m + sig
    if p + q * C == 0:
        raise ValueError("slope functional p + qC vanishes")
    if p + q * C < 0:
        q, sig, p = -q, -sig, -p
    if p % 2 != 0:
        raise ValueError(f"p = qm + sigma = {p} is odd: no admissible slope")
    if gcd(abs(q), abs(p) // 2) != 1:
        raise ValueError(f"q = {q} and p/2 = {p // 2} are not coprime")
    return EndData(delta=delta, ratio=ratio, q=q, sigma=abs(sig), sigma_signed=sig, p=p)


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class YpqFamily:
    """Admissibility record for one compact family."""

    A: object
    C: object
    m: int
    delta_minus: object
    delta_plus: object
    minus: Optional[EndData]
    plus: EndData
    quasi_regular: bool
    simply_connected: bool
    S: object = None
    branch: str = YPQ_BRANCH

    CSV_HEADER = (
        "S",
        "delta_minus",
        "delta_plus",
        "A",
        "q_minus",
        "sigma_minus",
        "q_plus",
        "sigma_plus",
        "C",
        "quasi_regular",
        "simply_connected",
    )

    def csv_row(self) -> list:
        return [
            _num_to_json(self.S) if self.S is not None else "",
            _num_to_json(self.delta_minus),
            _num_to_json(self.delta_plus),
            _num_to_json(self.A),
            self.minus.q if self.minus else "",
            self.minus.sigma if self.minus else "",
            self.plus.q,
            self.plus.sigma,
            _num_to_json(self.C),
            int(self.quasi_regular),
            int(self.simply_connected),
        ]

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch,
            "S": _num_to_json(self.S) if self.S is not None else None,
            "A": _num_to_json(self.A),
            "C": _num_to_json(self.C),
            "m": self.m,
            "delta_minus": _num_to_json(self.delta_minus),
            "delta_plus": _num_to_json(self.delta_plus),
            "minus": self.minus.to_json_dict() if self.minus else None,
            "plus": self.plus.to_json_dict(),
            "quasi_regular": self.quasi_regular,
            "simply_connected": self.simply_connected,
        }


def enumerate_rational_families(denominator_bound: int, m: int = 0) -> list:
    """All quasi-regular families with root-sum denominator within bound.

    Scans rational S = delta_plus + delta_minus in (1/4, 1/3) in lowest
    terms; S qualifies exactly when S(1 - 3S) is a rational square, and
    then delta_pm = (S +- sqrt(S - 3 S^2))/2, the third root is 1/4 - S,
    and A = 4 delta_plus delta_minus (1/4 - S) < 0.  The conventional
    constant C = 6 - m makes every ratio rational.  Results are sorted
    by S, so smaller bounds give prefixes of larger ones after a merge.
    """
    if denominator_bound < 2:
        raise ValueError("denominator bound must be at least 2")
    C = Fraction(6 - m)
    families = []
    for den in range(2, denominator_bound + 1):
        n_lo = den // 4 + 1
        n_hi = (den - 1) // 3
        for num in range(n_lo, n_hi + 1):
            if gcd(num, den) != 1:
                continue
            S = Fraction(num, den)
            square = num * (den - 3 * num)
            root_num = isqrt(square)
            if root_num * root_num != square:
                continue
            root = Fraction(root_num, den)
            d_plus = (S + root) / 2
            d_minus = (S - root) / 2
            if d_minus <= 0 or d_minus >= Fraction(1, 6) or d_plus <= Fraction(1, 6):
                continue
            d_third = Fraction(1, 4) - S
            A = 4 * d_plus * d_minus * d_third
            assert A_MIN < A < 0
            assert _cubic_value(A, d_plus) == 0 and _cubic_value(A, d_minus) == 0
            end_minus = integer_witness(ratio_from_root(d_minus, C, m), C, m, d_minus)
            end_plus = integer_witness(ratio_from_root(d_plus, C, m), C, m, d_plus)
            families.append(
                YpqFamily(
                    A=A,
                    C=C,
                    m=m,
                    delta_minus=d_minus,
                    delta_plus=d_plus,
                    minus=end_minus,
                    plus=end_plus,
                    quasi_regular=True,
                    simply_connected=gcd(abs(end_plus.q), abs(end_minus.q)) == 1,
                    S=S,
                )
            )
    families.sort(key=lambda fam: fam.S)
    return families


# ---------------------------------------------------------------------------
# group diagrams


@dataclass(frozen=True)
class GroupDiagram:
    """The data K in {H-, H+} in SU(2) x U(1).  Phases are integer
    numerators over N: the pair (a, b), 0 <= a, b < N, stands for the
    phases (a/N, b/N).  K is the two progressions (0, d i) and
    (N/2, r + d i), 0 <= i < N/d, of step d = ``k_step`` and offset
    r = ``k_offset`` < d, so |K| = 2N/d."""

    N: int
    k_generators: tuple
    k_step: int
    k_offset: int
    h_plus: dict
    h_minus: dict
    intersection_orders: dict
    pi1_order: int
    simply_connected: bool

    @property
    def k_order(self) -> int:
        return 2 * self.N // self.k_step

    @property
    def k_elements(self) -> tuple:
        """The |K| pairs of K in sorted order, listed on each call."""
        N, d = self.N, self.k_step
        return tuple([(0, b) for b in range(0, N, d)] + [(N // 2, b) for b in range(self.k_offset, N, d)])

    def _phase_text(self, n: int) -> str:
        """str(Fraction(n, N)) for 0 <= n <= N: n/g over N/g with
        g = gcd(n, N), or n/g alone when N/g = 1."""
        g = gcd(n, self.N)
        return f"{n // g}/{self.N // g}" if self.N != g else str(n // g)

    def to_json_dict(self) -> dict:
        text = self._phase_text
        return {
            "N": self.N,
            "K_generators": [[text(a), text(b)] for a, b in self.k_generators],
            "K_step": text(self.k_step),
            "K_offset": text(self.k_offset),
            "K_order": self.k_order,
            "H_plus": self.h_plus,
            "H_minus": self.h_minus,
            "intersection_orders": self.intersection_orders,
            "pi1_order": self.pi1_order,
            "simply_connected": self.simply_connected,
        }


def build_diagram(family: YpqFamily) -> GroupDiagram:
    """Construct and validate the canonical group diagram of a family.

    K is the subgroup of (Z/N)^2, N = lcm(2, sigma at each end), spanned
    by (N/2, b) with b = qN/sigma mod N for each end; the pair (a, b)
    stands for the phases (a/N, b/N).  Its words of even length have
    a = 0 and span the second phases dZ/N, d = gcd(N, b1 + b for each
    b); the odd ones have a = N/2 and form the coset r + dZ/N, r = b1
    mod d.  So K is the two progressions (0, d i) and (N/2, r + d i),
    0 <= i < N/d, kept as (N, d, r) rather than listed, and |K| = 2N/d.

    An element lies on the circle of slope (P, Q) = ((qm+sigma)/2, q)
    when Q a - P b = 0 mod N: a linear congruence in i, with gcd(P, N/d)
    solutions at a = 0 and as many again at a = N/2 when d gcd(P, N/d)
    divides Q N/2 - P r.  K meets SU(2) x {1} (b = 0, a = N/2) iff r = 0.

    Raises ``ValueError`` naming the failed condition when the integer
    data violates parity or coprimality, or when the computed stabilizer
    intersection orders disagree with sigma.
    """
    ends = [("plus", family.plus)]
    if family.branch == YPQ_BRANCH:
        if family.minus is None:
            raise ValueError("two-root family requires orbit data at both ends")
        ends.append(("minus", family.minus))

    for name, end in ends:
        if end.p % 2 != 0:
            raise ValueError(f"{name} end: p = qm+sigma = {end.p} is odd")
        if gcd(abs(end.q), abs(end.p) // 2) != 1:
            raise ValueError(
                f"{name} end: q = {end.q} and (qm+sigma)/2 = {end.p // 2} are not coprime"
            )
        if end.q == 0:
            raise ValueError(f"{name} end: q must be nonzero")

    N = lcm(2, *(end.sigma for _, end in ends))
    generators = [(N // 2, end.q * (N // end.sigma) % N) for _, end in ends]
    b1 = generators[0][1]
    d = gcd(N, *(b1 + b for _, b in generators))
    r = b1 % d

    orders = {}
    for name, end in ends:
        # (a, b)/N lies on the circle of slope (P, Q) iff Q a - P b = 0 mod N
        P, Q = end.p // 2, end.q
        g = gcd(P, N // d)
        got = g + (g if (Q * (N // 2) - P * r) % (d * g) == 0 else 0)
        orders[name] = got
        if got != end.sigma:
            raise ValueError(
                f"{name} end: stabilizer intersection has order {got}, expected {end.sigma}"
            )

    if family.branch == ROUND_SPHERE_BRANCH:
        # the three-dimensional end absorbs SU(2): K must miss it, that
        # is (N/2, 0) must not lie in K
        if r == 0:
            raise ValueError("K meets SU(2) x {1} nontrivially on the round branch")
        h_minus = {"type": "su2_times_K"}
        pi1 = 1
        simply = True
    else:
        q_plus, q_minus = family.plus.q, family.minus.q
        pi1 = gcd(abs(q_plus), abs(q_minus))
        simply = pi1 == 1
        h_minus = {
            "type": "circle_times_K",
            "p": family.minus.p,
            "q": family.minus.q,
            "sigma": family.minus.sigma,
        }

    h_plus = {
        "type": "circle_times_K",
        "p": family.plus.p,
        "q": family.plus.q,
        "sigma": family.plus.sigma,
    }
    return GroupDiagram(
        N=N,
        k_generators=tuple(generators),
        k_step=d,
        k_offset=r,
        h_plus=h_plus,
        h_minus=h_minus,
        intersection_orders=orders,
        pi1_order=pi1,
        simply_connected=simply,
    )


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationVerdict:
    branch: str
    reason: str
    roots: tuple
    family: Optional[YpqFamily] = None

    def to_json_dict(self) -> dict:
        return {
            "branch": self.branch,
            "reason": self.reason,
            "roots": [[_num_to_json(r), m] for r, m in self.roots],
            "family": self.family.to_json_dict() if self.family else None,
        }


def classify_A(A, C, m: int) -> ClassificationVerdict:
    """Decide whether (A, C, m) admits a compact extension.

    Returns the branch (round sphere for A = 0, the two-root branch for
    -1/108 < A < 0, otherwise no compact extension) together with the
    witness data.  Both compact branches take integer orbit data at each
    circle end the same way: the root 1/4 of A = 0, or both positive
    roots, must give a ratio and a C that are rational within the
    denominator bound.
    """
    exact = isinstance(A, (Fraction, int)) and isinstance(C, (Fraction, int))
    try:
        roots = tuple(cubic_roots(Fraction(A) if exact else float(A)))
    except ExactRootsUnavailable:
        roots = tuple(cubic_roots(float(A)))

    def reject(reason: str) -> ClassificationVerdict:
        return ClassificationVerdict(NO_COMPACT_EXTENSION, reason, roots)

    # the circle ends: 1/4 when A = 0, whose root 0 is the round end
    circle_ends = [r for r, mult in roots for _ in range(mult) if r > 0]
    round_branch = A == 0
    if not round_branch:
        a_cmp = A if exact else float(A)
        if a_cmp <= (A_MIN if exact else float(A_MIN)):
            return reject("turning cubic lacks two distinct positive roots (A <= -1/108)")
        if a_cmp > 0:
            return reject("A > 0: single turning point, no compact interval")
        if len(circle_ends) != 2 or circle_ends[0] == circle_ends[1]:
            return reject("turning cubic lacks two distinct positive roots")

    # C + m, the ratios and the witnesses all take the one reconstructed C
    c_frac = _as_fraction(C)
    if c_frac is None:
        return reject("no rational orbit ratio within the denominator bound")
    if c_frac + m == 0:
        return reject("C + m = 0 degenerates the coframe")
    ends = []
    for delta in circle_ends:
        c_arg = float(c_frac) if isinstance(delta, float) else c_frac
        ratio = rational_reconstruct(ratio_from_root(delta, c_arg, m), DENOMINATOR_BOUND)
        if ratio is None:
            return reject("no rational orbit ratio within the denominator bound")
        try:
            ends.append(integer_witness(ratio, c_frac, m, delta))
        except ValueError as exc:
            return reject(str(exc))

    if round_branch and gcd(abs(ends[0].q), ends[0].sigma) != 1:
        # the order-sigma subgroup of the circle end would then meet
        # SU(2) x {1}, spoiling the sphere slice of the round end
        return reject(f"round branch needs gcd(q, sigma) = 1, got q={ends[0].q}, sigma={ends[0].sigma}")
    family = YpqFamily(
        A=A,
        C=C,
        m=m,
        delta_minus=0.0 if round_branch else circle_ends[0],
        delta_plus=circle_ends[-1],
        minus=None if round_branch else ends[0],
        plus=ends[-1],
        quasi_regular=True,
        simply_connected=round_branch or gcd(abs(ends[0].q), abs(ends[1].q)) == 1,
        branch=ROUND_SPHERE_BRANCH if round_branch else YPQ_BRANCH,
    )
    if round_branch:
        reason = "A = 0: round branch with integer orbit data at the circle end"
    else:
        reason = "two distinct positive roots with integer orbit data"
    return ClassificationVerdict(family.branch, reason, roots, family)


def _as_fraction(C) -> Optional[Fraction]:
    if isinstance(C, Fraction):
        return C
    if isinstance(C, int):
        return Fraction(C)
    return rational_reconstruct(float(C), DENOMINATOR_BOUND)
