"""Smooth-extension tests over special orbits.

A tensor component on a disk bundle over a special orbit is a one-sided
radial profile; it extends smoothly exactly when its restriction to a
ray satisfies a divisibility-and-vanishing pattern
(:func:`kw_extends`), and the two geometric branches (three-dimensional
round orbit, one-dimensional circle orbit) reduce to concrete parity and
limit conditions on the flow profiles of the coframe coefficients.

Both ends of the conformal family are decided from exact Taylor series
of Delta: a circle end from the series at its turning value
(:func:`esasaki.evolution.turning_series`), the round end of A = 0 from
that of Delta = sin(r)^2/4 (:func:`esasaki.evolution.round_series`).
Limits and the curvature identity are read off the coefficients, and
evenness goes through :func:`kw_extends`.  The ends of the
non-conformal family have no series; there a profile maps a radius to
a :class:`~esasaki.evolution.CaseIIIState`, limits at the origin are
obtained by polynomial extrapolation over a geometric radius grid (r,
r/2, r/4, ...), and parity is decided by a full-degree polynomial fit on
one fixed grid, the nodes j/9 (j = 1..9) of the fit window, sampled
once for every ratio.  The fit is one product with the exact inverse of
the Vandermonde matrix on those nodes, a constant built once from the
Lagrange basis, so monomial inputs are resolved to machine accuracy;
odd-order coefficients must vanish to tolerance for an even verdict.
Each end of a non-conformal flow is found by one march, and its profile
states are short legs off that march, each integrated once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from esasaki.evolution import CASE_I_MAX_SAMPLES, CaseIIIState, case_iii_exit, case_iii_rhs, rk4_path, rk4_step

__all__ = [
    "kw_extends",
    "richardson_limit",
    "parity_fit",
    "ConditionCheck",
    "ExtensionReport",
    "check_round_branch",
    "check_round_series",
    "check_circle_branch",
    "reject_case_iii",
]

ROUND_BRANCH = "RoundSU2"
CIRCLE_BRANCH = "CircleU1"
REJECT = "Reject"

# kw_extends: a coefficient larger than this in magnitude does not vanish
KW_TOL = 0.0
# parity fits sample their window (0, rmax] at j rmax / FIT_NODES, j = 1..FIT_NODES
FIT_NODES = 9
# relative radius step of the central difference in _v_log_derivative
LOG_DERIVATIVE_REL = 1e-3
# series check tolerances: origin values, parity, and the turning identity
# of a circle end
SERIES_TOL_LIMIT = 1e-5
SERIES_TOL_PARITY = 1e-4
CIRCLE_TOL_IDENTITY = 1e-6
# check_round_branch tolerances at a round-type end of a non-conformal flow
ROUND_TOL_LIMIT = 5e-2
ROUND_TOL_PARITY = 5e-2
ROUND_TOL_RATIO = 0.5


# ---------------------------------------------------------------------------
# the equivariant extension criterion


def kw_extends(coeffs: Sequence, sigma: int, n: int):
    """Smooth equivariant extendability of a radial profile.

    ``coeffs`` = c_0..c_N are its one-sided Taylor coefficients at the
    origin, ``sigma`` the stabilizer order, ``n`` the target weight.
    True exactly when sigma divides n and every coefficient c_k vanishes
    for k in {0, ..., |n/sigma|-1} and for k > |n/sigma| with k - |n/sigma|
    odd.  Returns (verdict, failing_index); the index is None when the
    verdict is True or when divisibility itself fails.
    """
    if sigma <= 0:
        raise ValueError("sigma must be a positive integer")
    if n % sigma != 0:
        return False, None
    weight = abs(n // sigma)
    order = len(coeffs) - 1
    if order < weight + 2:
        raise ValueError(f"need Taylor order >= |n/sigma| + 2 = {weight + 2}")
    must_vanish = list(range(weight)) + list(range(weight + 1, order + 1, 2))
    for k in sorted(must_vanish):
        if abs(coeffs[k]) > KW_TOL:
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# limit and parity machinery


def richardson_limit(radii: Sequence[float], values: Sequence[float]) -> float:
    """Polynomial extrapolation of samples on a shrinking grid to r = 0,
    by Neville's scheme."""
    rs = [float(r) for r in radii]
    T = [float(v) for v in values]
    n = len(T)
    for k in range(1, n):
        for i in range(n - k):
            T[i] = (rs[i + k] * T[i] - rs[i] * T[i + 1]) / (rs[i + k] - rs[i])
    return T[0]


@functools.cache
def _vandermonde_inverse() -> tuple:
    """The exact inverse of the Vandermonde matrix [s_i^j] on the nodes
    s_i = i/FIT_NODES, i = 1..FIT_NODES, as rows: row j holds the s^j
    coefficients of the nodes' Lagrange basis polynomials."""
    nodes = [Fraction(i, FIT_NODES) for i in range(1, FIT_NODES + 1)]
    basis = []
    for i, s_i in enumerate(nodes):
        poly = [Fraction(1)]  # coefficients in increasing degree
        for s_m in nodes[:i] + nodes[i + 1:]:
            # multiply by (s - s_m) / (s_i - s_m)
            poly = [(shifted - s_m * kept) / (s_i - s_m) for shifted, kept in zip([0] + poly, poly + [0])]
        basis.append(poly)
    return tuple(zip(*basis))


def parity_fit(samples: Sequence[float]):
    """Full-degree polynomial fit of a one-sided profile on (0, rmax],
    from its samples at the radii j rmax / FIT_NODES, j = 1..FIT_NODES.

    Returns (even_defect, odd_defect): the largest even/odd coefficient
    magnitudes of the fit in the scaled variable s after normalizing by
    the largest sample.  An even function has odd defect at the level of
    the fit error; pure monomials r^j with j < FIT_NODES are resolved
    exactly up to rounding of the samples.
    """
    values = [Fraction(float(v)) for v in samples]
    vmax = max(abs(float(v)) for v in values)
    if vmax == 0.0:
        return 0.0, 0.0
    rows = _vandermonde_inverse()
    coeffs = [float(sum(w * v for w, v in zip(row, values, strict=True))) for row in rows]
    even_defect = max(abs(c) for c in coeffs[0::2]) / vmax
    odd_defect = max(abs(c) for c in coeffs[1::2]) / vmax
    return even_defect, odd_defect


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    measured: float
    target: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "target": self.target,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _cond(name, measured, target, tol) -> ConditionCheck:
    ok = bool(abs(measured - target) <= tol) if math.isfinite(measured) else False
    return ConditionCheck(name, float(measured), float(target), float(tol), ok)


def _cond_ge(name, measured, floor, tol) -> ConditionCheck:
    ok = bool(measured >= floor - tol) if math.isfinite(measured) else False
    return ConditionCheck(name, float(measured), float(floor), float(tol), ok)


@dataclass
class ExtensionReport:
    """Outcome of an extension test: named conditions with measured
    values; the report passes exactly when every condition passes."""

    branch: str
    conditions: list
    applicable: bool = True
    notes: str = ""
    end_reports: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        own = all(c.passed for c in self.conditions)
        subs = all(rep.passed for rep in self.end_reports.values())
        return self.applicable and own and subs

    def failing(self) -> list:
        out = [c.name for c in self.conditions if not c.passed]
        for tag, rep in self.end_reports.items():
            out.extend(f"{tag}:{name}" for name in rep.failing())
        return out

    def to_json_dict(self) -> dict:
        data = {
            "branch": self.branch,
            "applicable": self.applicable,
            "pass": self.passed,
            "notes": self.notes,
            "conditions": [c.to_json_dict() for c in self.conditions],
        }
        if self.end_reports:
            data["end_reports"] = {k: v.to_json_dict() for k, v in self.end_reports.items()}
        return data


# ---------------------------------------------------------------------------
# branch checks


def _v_log_derivative(profile, r: float) -> float:
    """r (dV/dr)/V by a central difference at radius r."""
    dr = LOG_DERIVATIVE_REL * r
    v0 = profile(r).V
    if v0 == 0:
        return math.nan
    return r * (profile(r + dr).V - profile(r - dr).V) / (2.0 * dr) / v0


def check_round_branch(profile: Callable, radii: Sequence[float]) -> ExtensionReport:
    """Extension test across a three-dimensional special orbit of a
    non-conformal flow, from sampled profile states.

    ``profile`` maps a radius r > 0 to the :class:`CaseIIIState` at
    distance r from the orbit; only its ``h, k, b, c`` are read.  Limits
    extrapolate over ``radii`` and parity fits sample (0, max(radii)/4].
    Checks that Delta/r^2, (h^2+c^2)/r^2 and (k^2+b^2)/r^2 are even with
    common limit 1/4, that (hb+ck)/r^4 is even, and, when the profile has
    a nonvanishing V component, that the radial logarithmic derivative
    r (dV/dr)/V stays nonnegative (a smooth vanishing V forces this; the
    obstructed flows measure -3 here).  The conformal round end has a
    series and goes through :func:`check_round_series`.
    """
    radii = sorted(radii, reverse=True)
    states = [profile(r) for r in radii]

    delta_limit = richardson_limit(radii, [s.delta for s in states])
    conditions = [_cond("delta_vanishes_at_origin", delta_limit, 0.0, ROUND_TOL_LIMIT)]
    if not conditions[0].passed:
        return ExtensionReport(
            branch=ROUND_BRANCH,
            conditions=conditions,
            applicable=False,
            notes="inapplicable: Delta is bounded away from 0 at this end",
        )

    # parity fits use a quarter of the limit grid: the unresolved tail of
    # an analytic profile decays geometrically with the grid radius
    rmax = radii[0] / 4.0
    fit_radii = [j / FIT_NODES * rmax for j in range(1, FIT_NODES + 1)]
    fit_states = [profile(r) for r in fit_radii]
    ratio_specs = [
        ("delta_over_r2", lambda s, r: s.delta / r**2, 0.25),
        ("h2c2_over_r2", lambda s, r: (s.h**2 + s.c**2) / r**2, 0.25),
        ("k2b2_over_r2", lambda s, r: (s.k**2 + s.b**2) / r**2, 0.25),
    ]
    for name, fn, target in ratio_specs:
        limit = richardson_limit(radii, [fn(s, r) for s, r in zip(states, radii)])
        conditions.append(_cond(f"{name}_limit", limit, target, ROUND_TOL_LIMIT))
        _, odd = parity_fit([fn(s, r) for s, r in zip(fit_states, fit_radii)])
        conditions.append(_cond(f"{name}_even", odd, 0.0, ROUND_TOL_PARITY))

    _, odd4 = parity_fit([(s.h * s.b + s.c * s.k) / r**4 for s, r in zip(fit_states, fit_radii)])
    conditions.append(_cond("hbck_over_r4_even", odd4, 0.0, ROUND_TOL_PARITY))

    if max(s.V for s in states) > 1e-12:
        q_small = _v_log_derivative(profile, radii[-1])
        conditions.append(_cond_ge("v_log_derivative_nonnegative", q_small, 0.0, ROUND_TOL_RATIO))
    return ExtensionReport(branch=ROUND_BRANCH, conditions=conditions)


def check_round_series(series: Sequence) -> ExtensionReport:
    """Extension test across the three-dimensional special orbit of the
    conformal family, the round end of A = 0.

    ``series`` holds the Taylor coefficients c_0..c_N of Delta in the
    distance from the orbit (:func:`esasaki.evolution.round_series`).
    The conditions are those of :func:`check_round_branch`: c_0 = 0,
    the limit c_2 = 1/4 of Delta/r^2, and evenness of Delta/r^2, decided
    by :func:`kw_extends` at weight 2.  On the conformal profile
    (h, h, 0, 0) the ratios (h^2+c^2)/r^2 and (k^2+b^2)/r^2 equal
    Delta/r^2 and hb + ck vanishes identically.
    """
    conditions = [_cond("delta_vanishes_at_origin", series[0], 0.0, SERIES_TOL_LIMIT)]
    even, _ = kw_extends(series, 1, 2)
    # the odd part of Delta/r^2 relative to its limit, r^-1 included
    odd = max(abs(c) for c in series[1::2]) / max(abs(series[2]), 1e-12)
    for name in ("delta_over_r2", "h2c2_over_r2", "k2b2_over_r2"):
        conditions.append(_cond(f"{name}_limit", series[2], 0.25, SERIES_TOL_LIMIT))
        conditions.append(ConditionCheck(f"{name}_even", float(odd), 0.0, SERIES_TOL_PARITY, even))
    conditions.append(_cond("hbck_over_r4_even", 0.0, 0.0, SERIES_TOL_PARITY))
    return ExtensionReport(branch=ROUND_BRANCH, conditions=conditions)


def check_circle_branch(
    series: Sequence,
    q: int,
    sigma: int,
    C: float,
    m: int,
) -> ExtensionReport:
    """Extension test across a one-dimensional special orbit.

    ``series`` holds the Taylor coefficients c_0..c_N of Delta in the
    distance from the orbit (:func:`esasaki.evolution.turning_series`).
    ``sigma`` may carry the orientation sign (its absolute value is the
    stabilizer intersection order); p = q m + sigma and the slope
    functional p + qC must be positive, else the sign normalization was
    violated and a ValueError is raised.  The origin value and the
    curvature condition read c_0; evenness is decided by
    :func:`kw_extends` at weight 0, and 2 c_2 is checked against the
    turning identity Delta'' = 1 - 6 Delta.  The cross terms hb + ck and
    h^2 + c^2 - b^2 - k^2 vanish identically on the conformal profile
    (h, h, 0, 0).
    """
    p = q * m + sigma
    pqc = p + q * C
    if pqc <= 0:
        raise ValueError(f"sign normalization violated: p + qC = {pqc} <= 0")
    delta0 = series[0]
    even, _ = kw_extends(series, abs(sigma), 0)
    odd = max(abs(c) for c in series[1::2]) / max(abs(delta0), 1e-12)

    conditions = [
        _cond("delta_origin_value", delta0, q * (C + m) / (6.0 * pqc), SERIES_TOL_LIMIT),
        ConditionCheck(
            "delta_origin_nonzero", float(delta0), 0.0, SERIES_TOL_LIMIT, bool(abs(delta0) > SERIES_TOL_LIMIT)
        ),
        ConditionCheck("delta_even", float(odd), 0.0, SERIES_TOL_PARITY, even),
        _cond("curvature_matches_sigma", abs(1 - 6 * delta0), abs(sigma) / pqc, 10 * SERIES_TOL_LIMIT),
        _cond("delta_pp_fd_matches_identity", 2 * series[2], 1 - 6 * delta0, CIRCLE_TOL_IDENTITY),
    ]
    if p != 0:
        conditions.append(_cond("hb_ck_vanishes", 0.0, 0.0, 10 * SERIES_TOL_LIMIT))
        conditions.append(_cond("h2c2_minus_b2k2_vanishes", 0.0, 0.0, 10 * SERIES_TOL_LIMIT))

    return ExtensionReport(branch=CIRCLE_BRANCH, conditions=conditions)


# ---------------------------------------------------------------------------
# rejection of the non-conformal family


# no finite boundary within this span fails the end
MAX_SPAN = 50.0
# an end whose Delta at the smallest radius is below this is round-type
ROUND_DELTA_TOL = 5e-3


def _locate_boundary(y0: Sequence[float], direction: float, step: float):
    """March toward the boundary with step halving as `a` collapses.

    The fixed-step bisection of ``rk4_path`` is no substitute here: one
    RK4 step across the 1/a singularity loses the accuracy that the end
    analysis needs at t*.  Returns (times, ys, reason) like ``rk4_path``,
    but as lists: the accepted states from the start on, the last one at
    the boundary offset t*, and reason None when no boundary was found
    within ``MAX_SPAN``.  Each state's rate k1 is evaluated once, for the
    step size and for every step tried from it; a march of more than
    ``CASE_I_MAX_SAMPLES`` tried steps is a ValueError.

    States, stages and rates are lists of Python floats, stepped by
    :func:`~esasaki.evolution.rk4_step` in the order of its array
    arithmetic; a stage whose rates meet a zero denominator gets them
    from numpy scalars (:func:`~esasaki.evolution.case_iii_rhs`).
    """
    y = [float(v) for v in y0]
    t = 0.0
    times, ys = [t], [y]
    h = direction * step
    min_h = step * 2.0**-30
    k1, tried = None, 0
    while abs(t) < MAX_SPAN:
        tried += 1
        if tried > CASE_I_MAX_SAMPLES:
            raise ValueError(
                f"case iii: the march toward the {'upper' if direction > 0 else 'lower'} end tried more than "
                f"{CASE_I_MAX_SAMPLES} steps; raise the step"
            )
        if k1 is None:
            k1 = case_iii_rhs(t, y)
        # keep `a` from collapsing by more than ~25% within one step
        a_rate = abs(k1[4])
        while abs(h) > min_h and a_rate * abs(h) > 0.25 * y[4]:
            h *= 0.5
        y_try = rk4_step(case_iii_rhs, t, y, h, k1)
        if not all(map(math.isfinite, y_try)) or y_try[4] <= 0:
            if abs(h) <= min_h:
                return times, ys, "turning_point"
            h *= 0.5
            continue
        y, t, k1 = y_try, t + h, None
        times.append(t)
        ys.append(y)
        reason = case_iii_exit(y, 1e-10, 0.0, 1e8)
        if reason is not None:
            return times, ys, reason
        if abs(h) < step:
            h = direction * min(step, 2.0 * abs(h))
    return times, ys, None


def _end_profile(times, ys, direction: float, step: float) -> Callable:
    """The profile r -> state at t* - direction r of a march ending at t*.

    Each state is one ``rk4_path`` leg, no longer than ``step``, from the
    last march state that is not past t* - direction r.  A radius beyond
    the start (r > |t*|) gets a leg from the start state.  States are
    kept per radius, so no radius is integrated twice.
    """
    t_star = times[-1]
    progress = direction * np.asarray(times)

    @functools.cache
    def profile(r):
        target = t_star - direction * r
        i = max(0, int(np.searchsorted(progress, direction * target, side="right")) - 1)
        _, leg, _ = rk4_path(case_iii_rhs, ys[i], times[i], target, step)
        return CaseIIIState(*map(float, leg[-1]))

    return profile


def reject_case_iii(state0: CaseIIIState, step: float) -> ExtensionReport:
    """Test both ends of the maximal interval of a non-conformal flow.

    Every such flow fails to extend to a compact space; the report names
    the obstruction per end.  Each end is found by one march from
    ``state0`` with steps no longer than ``step``, and its profile
    states are short legs off that march.  At a circle-type end (Delta
    bounded away from zero) a smooth extension needs the V component to
    vanish with nonnegative radial log-derivative, measured at the two
    smallest radii where V is resolved (V > 1e-10 U); at a round-type
    end (Delta -> 0) the measured limit of r (dV/dr)/V is -3, violating
    nonnegativity.  ``state0`` must pass
    :meth:`CaseIIIState.require_flow_start`: data with V = 0 is the
    conformal family in disguise.
    """
    state0.require_flow_start()
    if not step > 0:
        raise ValueError("step must be positive")

    y0 = [state0.h, state0.k, state0.b, state0.c, state0.a]
    end_reports = {}
    notes = []
    for tag, direction in (("upper", 1.0), ("lower", -1.0)):
        times, ys, reason = _locate_boundary(y0, direction, step)
        if reason is None:
            end_reports[tag] = ExtensionReport(
                branch=REJECT,
                conditions=[ConditionCheck("finite_boundary", float("inf"), 0.0, MAX_SPAN, False)],
                notes=f"{tag} end: no finite special-orbit boundary within span {MAX_SPAN}",
            )
            notes.append(f"{tag}: no finite boundary")
            continue

        t_star = times[-1]
        safe = max(abs(t_star) * 1e-4, 4.0 * step)
        r_top = max(min(0.128, abs(t_star) / 4.0), 8.0 * safe)
        radii = [r_top * 0.5**i for i in range(5)]
        profile = _end_profile(times, ys, direction, step)
        states = [profile(r) for r in radii]

        end = states[-1]
        if abs(end.delta) < ROUND_DELTA_TOL:
            rep = check_round_branch(profile, radii)
            rep.notes = f"{tag} end ({reason}): round-type analysis at t* = {t_star:.6f}"
        else:
            conditions = [
                ConditionCheck(
                    "circle_v_vanishes", float(end.V), 0.0, 1e-2, bool(end.V <= 1e-2 * max(1.0, end.U))
                ),
            ]
            # once h - k and b + c have cancelled, V is rounding noise and
            # its log-derivative measures nothing
            resolved = [r for r, s in zip(radii, states) if s.V > 1e-10 * s.U]
            if resolved:
                v_ratio = min(_v_log_derivative(profile, r) for r in resolved[-2:])
                conditions.append(_cond_ge("circle_v_log_derivative_nonnegative", v_ratio, 0.0, 0.05))
            rep = ExtensionReport(branch=CIRCLE_BRANCH, conditions=conditions)
            rep.notes = f"{tag} end ({reason}): circle-type analysis at t* = {t_star:.6f}, Delta = {end.delta:.6f}"
        end_reports[tag] = rep
        if not rep.passed:
            notes.append(f"{tag}: {', '.join(rep.failing())}")

    overall = ExtensionReport(
        branch=REJECT,
        conditions=[],
        end_reports=end_reports,
        notes="; ".join(notes) if notes else "both ends pass necessary conditions (unexpected)",
    )
    return overall
