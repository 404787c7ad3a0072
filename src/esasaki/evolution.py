"""Time evolution of invariant coframe structures.

The general flow integrates

    d/dt eta0   = 2 eta1
    d/dt eta23  = -d eta1
    d/dt eta31  = 3 eta03 - d eta2 + m e4 ^ eta3
    d/dt eta12  = -3 eta02 - m e4 ^ eta2 - d eta3

recovering (d/dt eta1, d/dt eta2, d/dt eta3) at each step as the
least-squares solution of the 18 product-rule equations in 12 unknowns
over e1..e4.  In the coframe eta0..eta3 the system's matrix is constant,
so that solution takes one fixed pseudo-inverse and a 3x3 solve.  The
system is overdetermined and consistent only on solutions of the
structure equations: the defect |A x - b| of the rates x the flow used
is recorded as its consistency health metric.

Three parameter families are closed under the flow and are integrated in
reduced variables: the rotating closed-form family (case i), the
conformal family with conserved quantity A = 4h^6 - h^4 + (ah)^2
(case ii), and the five-parameter family (case iii) whose ratios
w/u and z/v are conserved.

Case i is sampled from its closed form; every other flow is stepped by
one fixed-step RK4 integrator, :func:`rk4_path`, which keeps every
``record_every``-th state and ends a flow at the bisected crossing of
its domain's boundary.  Cases ii and iii are stepped on lists of Python
floats, which give the bits of the array arithmetic without its
per-call cost.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from esasaki import exterior
from esasaki.structures import IdStructure, residual_hypo, residual_hypo_batch

__all__ = [
    "CaseIIState",
    "CaseIIIState",
    "FlowResult",
    "ConstraintError",
    "closed_form_case_i",
    "fit_case_i",
    "evolve_case_i",
    "evolve_general",
    "evolve_case_ii",
    "evolve_case_iii",
    "turning_series",
    "round_series",
    "rk4_path",
]

EPS_ROT = math.sqrt(6.0)
# evolve_case_i samples its closed form at most this many times, and no
# integration (rk4_path, the case-iii march) takes more steps than this
CASE_I_MAX_SAMPLES = 10**6
# evolve_general's bound on initial residuals, relative to max(1, max |coefficient|)
GENERAL_PRE_TOL = 1e-8
# evolve_general aborts where a recorded state's consistency exceeds this
GENERAL_ABORT_TOL = 1e-6
# evolve_general ends a flow where det E, signed as at its start, falls to this
GENERAL_DET_THRESHOLD = 1e-9
# evolve_case_ii ends a flow once h falls to this
CASE_II_H_FLOOR = 1e-6
# the case_iii_exit bounds of evolve_case_iii
CASE_III_A_FLOOR = 1e-7
CASE_III_UV_FLOOR = 1e-6
CASE_III_NORM_CAP = 1e7


class ConstraintError(ValueError):
    """The overdetermined evolution system became inconsistent."""


# ---------------------------------------------------------------------------
# coframe layouts: each family's states as an (n, 16) coefficient array,
# row i the 4x4 matrix of eta0..eta3 over e1..e4 of state i


def _layout(n: int, entries: dict) -> np.ndarray:
    """n coframes, zero but at the flat indices 4 i + j (eta_i, e_{j+1}) that ``entries`` maps."""
    eta = np.zeros((n, 16))
    for index, values in entries.items():
        eta[:, index] = values
    return eta


def _case_i_coefficients(k: float, m: int, times: np.ndarray) -> np.ndarray:
    phase = EPS_ROT * times
    g = k * np.cos(phase) - m / 3.0
    f = -0.5 * k * EPS_ROT * np.sin(phase)
    return _layout(len(times), {0: 1.0 / 3.0, 3: g, 7: f, 9: 1.0 / EPS_ROT, 14: 1.0 / EPS_ROT})


def _case_ii_coefficients(h: np.ndarray, a: np.ndarray, C: float, m: int) -> np.ndarray:
    return _layout(len(h), {0: 2 * h * h, 3: 2 * C * h * h - (C + m) / 3.0, 4: a, 7: a * C, 9: h, 14: h})


def _case_iii_coefficients(y: np.ndarray, m: int) -> np.ndarray:
    """Coframes of the (n, 5) states (h, k, b, c, a)."""
    h, k, b, c, a = y.T
    return _layout(len(y), {0: 2 * (h * k - b * c), 3: -m / 3.0, 4: a, 9: h, 10: b, 13: c, 14: k})


def _one(coefficients: np.ndarray, m: int) -> IdStructure:
    """The structure of a one-row coefficient array, in Python floats."""
    return IdStructure(coefficients.reshape(4, 4).tolist(), m)


# ---------------------------------------------------------------------------
# ansatz states


@dataclass(frozen=True)
class CaseIIState:
    """Conformal family (h, a) with constants C and m; requires h > 0."""

    h: float
    a: float
    C: float = 0.0
    m: int = 0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")

    @property
    def A(self) -> float:
        h, a = self.h, self.a
        return 4 * h**6 - h**4 + (a * h) ** 2

    def to_id_structure(self) -> IdStructure:
        return _one(_case_ii_coefficients(np.array([self.h]), np.array([self.a]), self.C, self.m), self.m)

    @classmethod
    def from_A(cls, h: float, A: float, C: float = 0.0, m: int = 0) -> "CaseIIState":
        """Start at height h on the level set of the conserved quantity A."""
        radicand = A + h**4 - 4 * h**6
        if radicand < 0 or h == 0:
            raise ValueError(f"h={h} is outside the band allowed by A={A}")
        return cls(h, math.sqrt(radicand) / h, C, m)


@dataclass(frozen=True)
class CaseIIIState:
    """Five-parameter family (h, k, b, c, a)."""

    h: float
    k: float
    b: float
    c: float
    a: float

    @property
    def delta(self) -> float:
        return self.h * self.k - self.b * self.c

    @property
    def u(self) -> float:
        return self.h + self.k

    @property
    def v(self) -> float:
        return self.h - self.k

    @property
    def z(self) -> float:
        return self.b + self.c

    @property
    def w(self) -> float:
        return self.b - self.c

    @property
    def U(self) -> float:  # noqa: N802 -- conventional symbol
        return 0.5 * math.hypot(self.u, self.w)

    @property
    def V(self) -> float:  # noqa: N802
        return 0.5 * math.hypot(self.v, self.z)

    @property
    def lam(self) -> float:
        return self.w / self.u

    @property
    def mu(self) -> float:
        return self.z / self.v

    def require_flow_start(self) -> None:
        """A non-conformal flow starts at a > 0, hk - bc > 0 and
        (h - k, b + c) != (0, 0); otherwise the data is the conformal
        family in disguise (a phase rotation removes it) and must be
        evolved as case ii."""
        if self.a <= 0:
            raise ValueError("a must be positive at the start")
        if self.delta <= 0:
            raise ValueError("hk - bc must be positive at the start")
        if self.v == 0 and self.z == 0:
            raise ValueError("(h - k, b + c) = (0, 0) reduces to case ii")

    def to_id_structure(self, m: int = 1) -> IdStructure:
        return _one(_case_iii_coefficients(np.array([[self.h, self.k, self.b, self.c, self.a]]), m), m)


def closed_form_case_i(k: float, m: int, t: float) -> IdStructure:
    """The closed-form rotating solution at time t.

    eta0 = (1/3) e1 + (k cos(eps t) - m/3) e4, eta1 = -(k eps/2) sin(eps t) e4,
    eta2 = e2/eps, eta3 = e3/eps with eps = sqrt(6).  The coframe condition
    fails at the isolated instants where sin(eps t) = 0.
    """
    return _one(_case_i_coefficients(k, m, np.array([t], dtype=float)), m)


def fit_case_i(structure: IdStructure) -> tuple:
    """Amplitude and phase of the rotating family through a structure.

    Uses the conserved amplitude k^2 = (g + m/3)^2 + (2 f / eps)^2 and the
    phase with cos/sin matched to (g + m/3, -2 f / eps).
    """
    g = float(structure.eta[0][3])
    f = float(structure.eta[1][3])
    m = structure.m
    kc = g + m / 3.0
    ks = -2.0 * f / EPS_ROT
    k = math.hypot(kc, ks)
    phase = math.atan2(ks, kc) / EPS_ROT
    return k, phase


# ---------------------------------------------------------------------------
# flow results


# rows of a flow that FlowResult.write formats at a time
WRITE_BLOCK_ROWS = 512
# characters of one JSON array that FlowResult.write holds in memory;
# the rest waits in a temporary file
JSON_SPOOL_CHARS = 1 << 22
# json's text for the non-finite floats, whose repr is csv's text
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format_block(block: np.ndarray) -> tuple:
    """The repr of every float of a C-contiguous 2-d block, as CSV and
    JSON rows of strings.  Each distinct bit pattern is formatted once
    (0.0 and -0.0 differ in theirs)."""
    bits, inverse = np.unique(block.reshape(-1).view(np.int64), return_inverse=True)
    text = list(map(float.__repr__, bits.view(float).tolist()))
    csv_rows = np.array(text, dtype=object)[inverse.reshape(block.shape)].tolist()
    if np.isfinite(block).all():
        return csv_rows, csv_rows
    json_text = [_JSON_NONFINITE.get(t, t) for t in text]
    return csv_rows, np.array(json_text, dtype=object)[inverse.reshape(block.shape)].tolist()


@dataclass
class FlowResult:
    """Sampled flow data: coefficients, constraint residuals, conserved
    drift.

    ``coefficients`` holds the n recorded coframes as one (n, 16) float
    array, row i the 4x4 matrix of eta0..eta3 over e1..e4 at
    ``times[i]``; the residuals and both artifacts read it.  A flow that
    reaches the edge of its domain ends at the located crossing:
    ``boundary_time`` is its time and ``stopped_reason`` names it
    (``"coframe degenerate"``, ``"h_zero"``, ``"turning_point"``,
    ``"u_or_v_vanishes"``, ``"delta_nonpositive"`` or ``"divergence"``);
    both are None when the flow reached the end of its span.
    """

    times: np.ndarray
    coefficients: np.ndarray
    residuals: np.ndarray
    drift: dict
    consistency: Optional[np.ndarray] = None
    boundary_time: Optional[float] = None
    stopped_reason: Optional[str] = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def of_coefficients(cls, times, coefficients: np.ndarray, m: int, stopped=None, **fields) -> "FlowResult":
        """A flow recording the (n, 16) ``coefficients`` of weight m, one
        row per time, scored by their structure-equation residuals; one
        ``stopped`` at a boundary of that name ends at its crossing."""
        residuals = residual_hypo_batch(coefficients.reshape(-1, 4, 4), m)
        boundary_time = float(times[-1]) if stopped else None
        return cls(times, coefficients, residuals, boundary_time=boundary_time, stopped_reason=stopped, **fields)

    def write(self, csv_path, json_path) -> None:
        """Write the flow as CSV and as JSON.

        The CSV has a header and one row per sample: t, the 16
        coefficients, the three residuals, the least-squares residual
        when there is one, and the drifts in the order of their sorted
        names.  The JSON is an object of the arrays times, coefficients
        (one array per sample), residuals and drift (keyed in the dict's
        order), then boundary_time, stopped_reason, meta and, when there
        is one, consistency, indented as ``json.dump(..., indent=1)``
        indents.  Both files hold each float as its repr, but JSON
        spells nan, inf and -inf as NaN, Infinity and -Infinity.

        The table is formatted once, ``WRITE_BLOCK_ROWS`` samples at a
        time.  CSV rows stream to their file.  The JSON lists each array
        over all samples, so each array's text waits in a spool (in
        memory up to ``JSON_SPOOL_CHARS``, on disk beyond) until the
        JSON file is joined from them.
        """
        n = len(self.times)
        drift_names = sorted(self.drift)
        header = ["t"]
        header += [f"eta{i}_{j+1}" for i in range(4) for j in range(4)]
        header += ["res_go_1", "res_go_2", "res_go_3"]
        columns = [self.times, self.coefficients, self.residuals]
        if self.consistency is not None:
            header += ["lsq_residual"]
            columns.append(self.consistency)
        drift_column = {name: len(header) + k for k, name in enumerate(drift_names)}
        header += [f"drift_{name}" for name in drift_names]
        columns += [self.drift[name] for name in drift_names]
        columns = [np.asarray(c, dtype=float).reshape(n, -1) for c in columns]

        # the JSON arrays: the table columns they hold (an int for an
        # array of numbers, a slice for an array of rows) and the indent
        # of their elements
        arrays = {"times": (0, 2), "coefficients": (slice(1, 17), 2), "residuals": (slice(17, 20), 2)}
        arrays.update({("drift", name): (drift_column[name], 3) for name in self.drift})
        if self.consistency is not None:
            arrays["consistency"] = (20, 2)

        with contextlib.ExitStack() as stack:
            spool_dir = Path(json_path).parent
            spools = {
                key: stack.enter_context(tempfile.SpooledTemporaryFile(JSON_SPOOL_CHARS, "w+", dir=spool_dir))
                for key in arrays
            }
            with open(csv_path, "w", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                for start in range(0, n, WRITE_BLOCK_ROWS):
                    rows = slice(start, start + WRITE_BLOCK_ROWS)
                    csv_rows, json_rows = _format_block(np.hstack([c[rows] for c in columns]))
                    fh.write("".join(",".join(row) + "\r\n" for row in csv_rows))
                    for key, (cols, indent) in arrays.items():
                        sep = ",\n" + " " * indent
                        if isinstance(cols, slice):
                            inner = ",\n" + " " * (indent + 1)
                            opening, closing = "[\n" + " " * (indent + 1), "\n" + " " * indent + "]"
                            items = (opening + inner.join(row[cols]) + closing for row in json_rows)
                        else:
                            items = (row[cols] for row in json_rows)
                        spools[key].write((sep if start else "") + sep.join(items))

            with open(json_path, "w") as fh:

                def array(key) -> None:
                    indent = arrays[key][1]
                    fh.write("[\n" + " " * indent)
                    spools[key].seek(0)
                    shutil.copyfileobj(spools[key], fh)
                    fh.write("\n" + " " * (indent - 1) + "]")

                for key in ("times", "coefficients", "residuals"):
                    fh.write(("{" if key == "times" else ",") + f'\n "{key}": ')
                    array(key)
                fh.write(',\n "drift": {')
                for k, name in enumerate(self.drift):
                    fh.write(("," if k else "") + f"\n  {json.dumps(name)}: ")
                    array(("drift", name))
                fh.write("\n }" if self.drift else "}")
                # the object's text without "{" and "\n}": its entries sit at this depth
                scalars = dict(boundary_time=self.boundary_time, stopped_reason=self.stopped_reason, meta=self.meta)
                fh.write("," + json.dumps(scalars, indent=1)[1:-2])
                if self.consistency is not None:
                    fh.write(',\n "consistency": ')
                    array("consistency")
                fh.write("\n}")


# ---------------------------------------------------------------------------
# case i


def evolve_case_i(k: float, m: int, t_span: Sequence[float], step: float) -> FlowResult:
    """Sample the closed-form rotating solution (:func:`closed_form_case_i`)
    at round(span / step) + 1 evenly spaced times of t_span: at least two,
    and at most ``CASE_I_MAX_SAMPLES``."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0 or not step > 0:
        raise ValueError("t_span must be increasing and step positive")
    steps = (t1 - t0) / step
    # the grid is counted before it is allocated; an overflowing span is inf
    if not steps < CASE_I_MAX_SAMPLES - 0.5:
        raise ValueError(
            f"case i: a span of {steps:.4g} steps exceeds the limit of {CASE_I_MAX_SAMPLES} samples; "
            "raise the step or shorten the span"
        )
    times = np.linspace(t0, t1, max(2, int(round(steps)) + 1))
    return FlowResult.of_coefficients(
        times, _case_i_coefficients(k, m, times), m, drift={},
        meta={"step": step, "family": "case_i", "k": k, "m": m},
    )


# ---------------------------------------------------------------------------
# integrator


def rk4_step(f: Callable, t: float, y: np.ndarray | list, h: float, k1=None) -> np.ndarray | list:
    """One classical step of size h from (t, y); ``k1`` is f(t, y) when
    the caller has evaluated it already.

    y is a numpy array, or a list of Python floats when f is a
    scalar-rate right-hand side (:func:`_case_ii_rhs`,
    :func:`case_iii_rhs`), and f returns its rates in the same form.  A
    list is stepped elementwise in the order of the array arithmetic,
    y + (h/2) k and y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), so both forms
    give the same bits.
    """
    if k1 is None:
        k1 = f(t, y)
    if isinstance(y, list):
        half = 0.5 * h
        k2 = f(t + half, [v + half * k for v, k in zip(y, k1)])
        k3 = f(t + half, [v + half * k for v, k in zip(y, k2)])
        k4 = f(t + h, [v + h * k for v, k in zip(y, k3)])
        sixth = h / 6.0
        return [v + sixth * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)]
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_path(
    f: Callable,
    y0: np.ndarray | list,
    t0: float,
    t1: float,
    step: float,
    *,
    every: int = 1,
    exits: Optional[Callable] = None,
    k1s: Optional[list] = None,
):
    """Fixed-step classical integration from t0 to t1 (either direction).

    The n = max(1, round(|t1 - t0| / step)) steps have size
    h = (t1 - t0) / n and land on t0 + i h.  Kept are the start, every
    ``every``-th state and the last one.  ``exits(y)`` names the boundary
    of the flow's domain that y lies beyond (None inside; a non-finite y
    must get a name).  The first step whose end exits is bisected 64
    times for the crossing, whose state ends the path; every re-step
    starts from that step's own k1.  A path of more than
    ``CASE_I_MAX_SAMPLES`` steps is refused before its first step.

    The path keeps the form of y0 (see :func:`rk4_step`): a list y0, for
    a scalar-rate right-hand side, is stepped as lists of Python floats,
    and its states, stages and rates become arrays only in the returned
    ys.  A list ``k1s`` receives the rate f(t, y) of each kept state that
    started a step, and None for the last kept state, which started none.

    Returns (times, ys, reason) with reason the name of the crossed
    boundary, or None when the path reached t1.
    """
    if step <= 0 or every < 1:
        raise ValueError("step and every must be positive")
    steps = abs(t1 - t0) / step
    # an overflowing span is inf, and a NaN step fails the comparison too
    if not steps < CASE_I_MAX_SAMPLES + 0.5:
        raise ValueError(
            f"a span of {steps:.4g} steps exceeds the limit of {CASE_I_MAX_SAMPLES} steps; "
            "raise the step or shorten the span"
        )
    n = max(1, int(round(steps)))
    h = (t1 - t0) / n
    y = [float(v) for v in y0] if isinstance(y0, list) else np.array(y0, dtype=float)
    times, ys = [t0], [y]
    if k1s is None:
        k1s = []
    for i in range(n):
        t = t0 + i * h
        k1 = f(t, y)
        if len(k1s) < len(ys):
            k1s.append(k1)
        y_next = rk4_step(f, t, y, h, k1)
        reason = None if exits is None else exits(y_next)
        if reason is not None:
            lo, hi = 0.0, h
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                crossed = exits(rk4_step(f, t, y, mid, k1))
                if crossed is None:
                    lo = mid
                else:
                    hi, reason = mid, crossed
            mid = 0.5 * (lo + hi)
            times.append(t + mid)
            ys.append(rk4_step(f, t, y, mid, k1))
            break
        y = y_next
        if (i + 1) % every == 0 or i + 1 == n:
            times.append(t0 + (i + 1) * h)
            ys.append(y)
    k1s.append(None)
    return np.array(times), np.array(ys), reason


# ---------------------------------------------------------------------------
# general flow


def _wedge_gather(left: int, right: int) -> np.ndarray:
    """Positions, in a vector of four-coefficient rows, of the factors of
    the wedge of rows ``left`` and ``right``: its monomial k is
    v[g[0, k]] v[g[1, k]] - v[g[2, k]] v[g[3, k]], the two terms in the
    order :func:`exterior.wedge_coefficients` takes them
    (``exterior.WEDGE_1_1``)."""
    (l0, r0), (l1, r1) = exterior.WEDGE_1_1
    return np.array([4 * left + l0, 4 * right + r0, 4 * left + l1, 4 * right + r1])


_UNITS = np.eye(4).reshape(-1)
# the wedges of the rate defect over the rows (eta0..eta3, x1..x3): the
# product rule's x2 ^ eta3, eta2 ^ x3, x3 ^ eta1, eta3 ^ x1, x1 ^ eta2,
# eta1 ^ x2, then the constants' eta0 ^ eta3 and eta0 ^ eta2
_DEFECT = np.concatenate(
    [_wedge_gather(*rows) for rows in ((5, 3), (2, 6), (6, 1), (3, 4), (4, 2), (1, 5), (0, 3), (0, 2))], axis=1
)
# factors of eta0 ^ eta3 and eta0 ^ eta2 in the second and third equations
_CONSTANT_SIGNS = np.array([[3.0], [-3.0]])


def _rate_defect(y: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The defect of the rates x = (x1, x2, x3) of eta1..eta3 in the rate
    system of the coframe y, one row per equation over the monomials of
    e1..e4: the right-hand side minus the product rule d/dt of the three
    structure equations,

        b1                   - (x2 ^ eta3 + eta2 ^ x3)
        b2 + 3 eta0 ^ eta3   - (x3 ^ eta1 + eta3 ^ x1)
        b3 - 3 eta0 ^ eta2   - (x1 ^ eta2 + eta1 ^ x2)

    with b (3 x 6) the right-hand side's part linear in eta1..eta3
    (:func:`_linear_rhs`).  Every wedge comes from one gather of (y, x).
    """
    g = np.concatenate((y, x))[_DEFECT]
    w = (g[0] * g[1] - g[2] * g[3]).reshape(8, 6)
    rhs = b.copy()
    rhs[1:] += _CONSTANT_SIGNS * w[6:]
    return rhs - (w[0:6:2] + w[1:6:2])


# The rate system in the coframe.  Write E = y.reshape(4, 4) and each rate
# x_i = X_i E, with X_i its coefficients over eta0..eta3.  A wedge over
# eta0..eta3 reaches e1..e4 through the 2x2 minors Lambda2(E) of E, so
# A(y) x = Lambda2(E)^T M X in each equation, with M = A(I) a 0/+-1 matrix
# of full column rank.  This is M's pseudo-inverse M+, in halves; M+ M = I
# exactly.  Rows are the unknowns (x1, x2, x3) over eta0..eta3, columns the
# three equations over the monomials 12, 13, 14, 23, 24, 34.  It is a text
# table: compiling 216 number literals at import (no bytecode cache) takes
# about 0.13 MB more memory than parsing it.
_RATE_PINV = np.array([row.split("#")[0].split() for row in """
     0  0  0  0  0  0     0  0 -1  0  0  0     0  1  0  0  0  0    # x1 . eta0
     0  0  0  0  0 -1     0  0  0  0 -1  0     0  0  0  1  0  0    # x1 . eta1
     0  0  0  0  0  0     0  0  0  0  0 -2     0  0  0  0  0  0    # x1 . eta2
     0  0  0  0  0  0     0  0  0  0  0  0     0  0  0  0  0 -2    # x1 . eta3
     0  0  1  0  0  0     0  0  0  0  0  0    -1  0  0  0  0  0    # x2 . eta0
     0  0  0  0  2  0     0  0  0  0  0  0     0  0  0  0  0  0    # x2 . eta1
     0  0  0  0  0  1     0  0  0  0  1  0     0  0  0  1  0  0    # x2 . eta2
     0  0  0  0  0  0     0  0  0  0  0  0     0  0  0  0  2  0    # x2 . eta3
     0 -1  0  0  0  0     1  0  0  0  0  0     0  0  0  0  0  0    # x3 . eta0
     0  0  0 -2  0  0     0  0  0  0  0  0     0  0  0  0  0  0    # x3 . eta1
     0  0  0  0  0  0     0  0  0 -2  0  0     0  0  0  0  0  0    # x3 . eta2
     0  0  0  0  0  1     0  0  0  0 -1  0     0  0  0 -1  0  0    # x3 . eta3
""".strip().splitlines()], dtype=float) / 2
# M+ of the right-hand side's constant monomials over eta0..eta3,
# 3 eta0 ^ eta3 in the second equation (column 6 + 2) and -3 eta0 ^ eta2
# in the third (column 12 + 1); no matmul at import, which would start
# BLAS in runs that never use it
_COFRAME_RATES = 3.0 * (_RATE_PINV[:, 8] - _RATE_PINV[:, 13])
# the rates are refined once where tr(G) / |det E| (see _coframe_solve;
# it grows like the condition number of Lambda2(E)) exceeds this: the
# first pass loses about that factor in its defect
_REFINE_CONDITION = 100.0


def _frame_gather() -> np.ndarray:
    """Positions in y of the factors of the first three columns of
    adj = det(E) Lambda2(E)^-1, of the first row of Lambda2(E), and of
    adj again, column by column.

    Entry (pq, ab) of Lambda2(E), the minor at rows pq and columns ab, is
    the coefficient of e_a ^ e_b in eta_p ^ eta_q (:func:`_wedge_gather`).
    By Jacobi's identity adj's entry (k, l) is s_k s_l times entry
    (5 - l, 5 - k) of Lambda2(E): the complementary minor, with
    s = (-1)^(p + q) for the monomial pq; a negative sign swaps the two
    terms of the minor.
    """
    pairs = exterior.GROUP_KEYS[2]
    minors = [_wedge_gather(p - 1, q - 1) for p, q in pairs]
    sign = [(-1) ** (p + q) for p, q in pairs]
    adjugate = []
    for l in range(6):
        for k in range(6):
            g = minors[5 - l][:, 5 - k]
            adjugate.append(g if sign[k] * sign[l] > 0 else g[[2, 3, 0, 1]])
    adjugate = np.array(adjugate).T
    return np.concatenate((adjugate[:, :18], minors[0], adjugate), axis=1)


_FRAME = _frame_gather()


def _inverse_3(a00, a01, a02, a11, a12, a22) -> Optional[tuple]:
    """Upper entries of the inverse of a symmetric positive definite 3x3
    matrix, by symmetric elimination A = L D L^T; None at a zero pivot.
    The adjugate loses more to cancellation where A is ill-conditioned."""
    if not a00:
        return None
    l10, l20 = a01 / a00, a02 / a00
    d1 = a11 - l10 * a01
    if not d1:
        return None
    e12 = a12 - l20 * a01
    l21 = e12 / d1
    d2 = a22 - l20 * a02 - l21 * e12
    if not d2:
        return None
    # A^-1 = L^-T D^-1 L^-1, with the rows (1, 0, 0), (-l10, 1, 0) and
    # (m20, -l21, 1) of L^-1
    m20 = l10 * l21 - l20
    i0, i1, i2 = 1.0 / a00, 1.0 / d1, 1.0 / d2
    return (i0 + l10 * l10 * i1 + m20 * m20 * i2, -l10 * i1 - m20 * l21 * i2, m20 * i2,
            i1 + l21 * l21 * i2, -l21 * i2, i2)


def _eta_rows(rows: list, det: float) -> Optional[list]:
    """The 3 x 6 matrix [I | -W] / det E of :func:`_coframe_solve` from
    its rows Q = b N (0-2) and G = N^T N (3-5), as nested lists; None
    where G or K is singular."""
    (q00, q01, q02, *_), (q10, q11, q12, *_), (q20, q21, q22, *_), (g00, g01, g02, *_), (_, g11, g12, *_), \
        (_, _, g22, *_) = rows[:6]
    h = _inverse_3(g00, g01, g02, g11, g12, g22)
    if h is None:
        return None
    h00, h01, h02, h11, h12, h22 = h
    # K = (tr H) I - H
    j = _inverse_3(h11 + h22, -h01, -h02, h00 + h22, -h12, h00 + h11)
    if j is None:
        return None
    j00, j01, j02, j11, j12, j22 = j
    # the axial vector c of Q H - (Q H)^T, and a = K^-1 c
    c0 = (q20 * h01 + q21 * h11 + q22 * h12) - (q10 * h02 + q11 * h12 + q12 * h22)
    c1 = (q00 * h02 + q01 * h12 + q02 * h22) - (q20 * h00 + q21 * h01 + q22 * h02)
    c2 = (q10 * h00 + q11 * h01 + q12 * h02) - (q00 * h01 + q01 * h11 + q02 * h12)
    a0 = j00 * c0 + j01 * c1 + j02 * c2
    a1 = j01 * c0 + j11 * c1 + j12 * c2
    a2 = j02 * c0 + j12 * c1 + j22 * c2
    # W = (Q - [a]x) H, row by row: symmetric, but its rounding is not,
    # and the rounding that keeps W G = Q - [a]x keeps the rates too
    f = -1.0 / det
    out = []
    for n, (d0, d1, d2) in enumerate(((q00, q01 + a2, q02 - a1), (q10 - a2, q11, q12 + a0), (q20 + a1, q21 - a0, q22))):
        row = [0.0, 0.0, 0.0,
               (d0 * h00 + d1 * h01 + d2 * h02) * f,
               (d0 * h01 + d1 * h11 + d2 * h12) * f,
               (d0 * h02 + d1 * h12 + d2 * h22) * f]
        row[n] = -f
        out.append(row)
    return out


def _coframe_solve(y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares rates of eta1..eta3 for the right-hand side
    ``b`` over e1..e4 (3 x 6) plus the constant monomials 3 eta0 ^ eta3
    and -3 eta0 ^ eta2: the x whose defect (:func:`_rate_defect`) has
    the smallest norm, as a least-squares solve of the 18 x 12 system
    A(y) x = b + constants over e1..e4 gives it.

    In the coframe, A x = Lambda2(E)^T z per equation with z = M X, and z
    ranges over the image of M: the z whose block Z1 over eta0 ^ eta1,
    eta0 ^ eta2, eta0 ^ eta3 (3x3, one row per equation) is
    antisymmetric, its other nine entries free.  With
    adj = det(E) Lambda2(E)^-1 and N its first three columns, the
    residuals orthogonal to the image of A are W N^T with W symmetric, so
    the least-squares z is (b - W N^T) adj / det E with W fixed by Z1
    antisymmetric.  For Z1 = [a]x, the cross-product matrix of a, that
    is ((tr H) I - H) a = c, with c the axial vector of Q H - H Q^T,
    Q = b N, H = G^-1 and G = N^T N; then W = (Q - Z1) G^-1.  Where the
    coframe is ill-conditioned the defect of this pass, taken over e1..e4
    by :func:`_rate_defect`, is refined once through the same solve.  A
    singular coframe gives NaN rates.
    """
    E = y.reshape(4, 4)
    g = y[_FRAME]
    out = g[0] * g[1] - g[2] * g[3]
    adj = out[24:].reshape(6, 6).T
    # rows: b adj, N^T adj (whose first block is G), then (det E, 0, ...)
    v = np.concatenate((b, out[:24].reshape(4, 6))) @ adj
    rows = v.tolist()
    det = rows[6][0]
    eta = _eta_rows(rows, det) if det else None
    if eta is None:
        return np.full(12, math.nan)
    frame = v[:6]
    x = ((_COFRAME_RATES + _RATE_PINV @ (np.array(eta) @ frame).reshape(-1)).reshape(3, 4) @ E).reshape(-1)
    if rows[3][0] + rows[4][1] + rows[5][2] > _REFINE_CONDITION * abs(det):
        frame[:3] = _rate_defect(y, x, b) @ adj
        z = np.array(_eta_rows(frame.tolist(), det)) @ frame
        x = x + ((_RATE_PINV @ z.reshape(-1)).reshape(3, 4) @ E).reshape(-1)
    return x


@functools.lru_cache(maxsize=16)
def _linear_rhs(m: int) -> np.ndarray:
    """The 12 x 18 map from y[4:] to the part of b linear in eta1..eta3,
    over the monomials of e1..e4: -d eta1, -d eta2 + m e4 ^ eta3 and
    -d eta3 - m e4 ^ eta2."""
    e4_wedge = exterior.wedge_coefficients(_UNITS[12:], np.eye(4), exterior.WEDGE_1_1)
    rhs = np.kron(np.eye(3), -exterior.D_1.T)
    rhs[8:, 6:12] += m * e4_wedge
    rhs[4:8, 12:] -= m * e4_wedge
    return rhs


def _general_rates(y: np.ndarray, m: int) -> np.ndarray:
    """Flow right-hand side: eta0' = 2 eta1 and the least-squares rates
    of eta1..eta3."""
    return np.concatenate((2.0 * y[4:8], _coframe_solve(y, (y[4:] @ _linear_rhs(m)).reshape(3, 6))))


def general_rhs(y: np.ndarray, m: int, k1: Optional[np.ndarray] = None):
    """Flow right-hand side and its consistency: the norm of the defect
    (:func:`_rate_defect`) of the rates it solved.  ``k1`` is the
    right-hand side at y when the caller has solved it already."""
    b = (y[4:] @ _linear_rhs(m)).reshape(3, 6)
    if k1 is None:
        k1 = np.concatenate((2.0 * y[4:8], _coframe_solve(y, b)))
    return k1, float(np.linalg.norm(_rate_defect(y, k1[4:], b)))


def evolve_general(
    eta0: IdStructure,
    t_span: Sequence[float],
    step: float,
    *,
    record_every: int = 10,
) -> FlowResult:
    """Integrate the full 16-coefficient flow from a solution of the
    structure equations.

    Aborts with :class:`ConstraintError` when the consistency defect of
    the rates at a recorded state exceeds ``GENERAL_ABORT_TOL``; stops
    and marks the boundary time when the coframe degenerates.
    """
    res0 = residual_hypo(eta0)
    scale = max(1.0, float(np.abs(eta0.matrix).max()))
    if max(res0) > GENERAL_PRE_TOL * scale:
        raise ConstraintError(
            f"initial data violates the structure equations: residuals {res0}"
        )
    eta0.require_coframe(GENERAL_DET_THRESHOLD)

    m = eta0.m
    y0 = eta0.matrix.reshape(-1)
    det_sign = math.copysign(1.0, float(np.linalg.det(eta0.matrix)))

    def exits(y):
        # a NaN determinant fails the comparison as well
        if not float(np.linalg.det(y.reshape(4, 4))) * det_sign >= GENERAL_DET_THRESHOLD:
            return "coframe degenerate"
        return None

    k1s = []
    times, ys, stopped = rk4_path(
        lambda t, y: _general_rates(y, m), y0, float(t_span[0]), float(t_span[1]), step,
        every=record_every, exits=exits, k1s=k1s,
    )
    # the rates of a kept state are its k1; only the last state's are solved here
    consistency = np.array([general_rhs(y, m, k1)[1] for y, k1 in zip(ys, k1s)])
    if (consistency > GENERAL_ABORT_TOL).any():
        i = int(np.argmax(consistency > GENERAL_ABORT_TOL))
        raise ConstraintError(f"constraints incompatible: consistency defect {consistency[i]:.3e} at t={times[i]}")

    return FlowResult.of_coefficients(
        times, ys, m, stopped, drift={}, consistency=consistency,
        meta={"step": step, "family": "general", "m": m},
    )


# ---------------------------------------------------------------------------
# case ii


def _scalar_rates(rates: Callable, y: list) -> list:
    """``rates(*y)`` on the list of Python floats y, the form
    :func:`rk4_path` steps scalar-rate families in.  A zero denominator
    raises on Python floats; the rates are then computed again on numpy
    scalars, whose quotients are the +-inf and nan of array arithmetic,
    and returned as Python floats."""
    try:
        return rates(*y)
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return [float(v) for v in rates(*map(np.float64, y))]


def _case_ii_rates(p, s) -> list:
    # p = h^2, s = a h
    sqrtp = math.sqrt(p)
    return [s / sqrtp, sqrtp * (1.0 - 6.0 * p)]


def _case_ii_rhs(t, q):
    try:
        return _scalar_rates(_case_ii_rates, q)
    except ValueError:
        # math.sqrt of h^2 < 0: an RK4 stage overshot h = 0
        raise ValueError(
            f"case ii: an RK4 stage at t = {t:.6g} reached h^2 = {q[0]:.3g} < 0; the step is too coarse, lower the step"
        ) from None


def evolve_case_ii(
    state0: CaseIIState,
    t_span: Sequence[float],
    step: float,
    *,
    record_every: int = 10,
) -> FlowResult:
    """Integrate d(h^2)/dt = a, d(ah)/dt = h - 6 h^3.

    Reaching h -> 0 or a turning point (a -> 0 on the level set) stops the
    flow with the boundary time marked; neither is an error.  Per-sample
    relative drift of the conserved quantity A is recorded.
    """
    if state0.h <= 0:
        raise ValueError("h must be positive")
    if state0.a * state0.h < 0:
        raise ValueError("orientation convention requires a*h >= 0 at the start")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_span must be increasing")
    A0 = state0.A
    drift_scale = max(abs(A0), 1e-30)

    def exits(q):
        if not q[0] > CASE_II_H_FLOOR**2:
            return "h_zero"
        if q[1] < 0.0:
            return "turning_point"
        return None

    q0 = [state0.h**2, state0.a * state0.h]
    times, qs, stopped = rk4_path(_case_ii_rhs, q0, t0, t1, step, every=record_every, exits=exits)
    h = np.sqrt(qs[:, 0])
    a = qs[:, 1] / h
    # CaseIIState.A in Python floats: numpy's ** rounds unlike libm's pow
    A = np.array([4 * x**6 - x**4 + (y * x) ** 2 for x, y in zip(h.tolist(), a.tolist())])

    return FlowResult.of_coefficients(
        times, _case_ii_coefficients(h, a, state0.C, state0.m), state0.m, stopped,
        drift={"A": np.abs(A - A0) / drift_scale},
        meta={"step": step, "family": "case_ii", "C": state0.C, "m": state0.m, "A": A0},
    )


TURNING_SERIES_ORDER = 12
# C(2n, 2i), i = 0..n, n < TURNING_SERIES_ORDER / 2: the weights of an
# even Cauchy product of series in rho^(2n) / (2n)!
_EVEN_BINOMIALS = [[math.comb(2 * n, 2 * i) for i in range(n + 1)] for n in range(TURNING_SERIES_ORDER // 2)]
_ZERO = Fraction(0)


def turning_series(A, delta_star) -> tuple:
    """Taylor coefficients c_0..c_N (N = ``TURNING_SERIES_ORDER``) of
    Delta = h^2 in the distance r from a turning value Delta* of the
    conformal family.

    With p = h^2 and s = a h the flow and the conserved A give
    2 p^2 p'' = p^2 - 8 p^3 - A, and at a turning point p(0) = Delta*,
    p'(0) = 0.  The equation is invariant under r -> -r, so the odd
    coefficients vanish.  At a root of the turning cubic
    c_2 = (1 - 6 Delta*)/2.

    When A and Delta* are rational (int or Fraction) the series is exact
    and runs on integers.  Write Delta* = u/w and A = a/alpha in lowest
    terms, s^2 = 2 u^3 alpha, p = Delta* P(rho) and r = s rho.  Then
    P(0) = 1, P'(0) = 0 and

        P^2 P'' = u^2 w alpha P^2 - 8 u^3 alpha P^3 - a w^3,

    whose coefficients are integers.  Let P = sum Q_n rho^(2n) / (2n)!.
    In that basis a product of two even series has the coefficients
    sum_i C(2n, 2i) x_i y_(n-i), so with S_n and T_n those of P^2 and
    P^3 the coefficient of rho^(2n) / (2n)! on each side gives

        Q_(n+1) = u^2 w alpha S_n - 8 u^3 alpha T_n - [n = 0] a w^3
                  - sum_(k<n) C(2n, 2k) S_(n-k) Q_(k+1),

    because P^2 P'' contributes S_0 Q_(n+1) = Q_(n+1) to it.  Starting
    from Q_0 = 1 every step adds and multiplies integers and divides by
    nothing, so each Q_n is an integer; c_(2n) = u Q_n / (w (2n)! s^(2n))
    is the only Fraction formed per coefficient.

    Float (or mixed) input runs the Cauchy recursion on the coefficients
    themselves, which fixes c_(n+2) from c_0..c_(n+1), over the even
    coefficients alone: the vanishing odd ones would leave its sums
    unchanged, and each odd coefficient is 0 * Delta*.
    """
    if not (isinstance(A, (int, Fraction)) and isinstance(delta_star, (int, Fraction))):
        return _float_turning_series(A, delta_star)
    u, w = delta_star.as_integer_ratio()
    a, alpha = A.as_integer_ratio()
    s2 = 2 * u**3 * alpha
    lin, cub = u * u * w * alpha, 4 * s2
    Q, S = [1], []
    for n, binom in enumerate(_EVEN_BINOMIALS):
        S.append(sum(b * Q[i] * Q[n - i] for i, b in enumerate(binom)))
        T = sum(b * S[i] * Q[n - i] for i, b in enumerate(binom))
        lower = sum(binom[k] * S[n - k] * Q[k + 1] for k in range(n))
        Q.append(lin * S[n] - cub * T - lower - (a * w**3 if n == 0 else 0))
    c = [Fraction(u * q, w * math.factorial(2 * n) * s2**n) for n, q in enumerate(Q)]
    return tuple(x for even in c for x in (even, _ZERO))[:-1]


def _float_turning_series(A, delta_star) -> tuple:
    c = [delta_star]  # c_0, c_2, c_4, ...
    sq, dd = [], []  # the even coefficients of p^2 and of p''
    for n in range(TURNING_SERIES_ORDER // 2):
        sq.append(sum(c[i] * c[n - i] for i in range(n + 1)))
        cube = sum(sq[i] * c[n - i] for i in range(n + 1))
        rhs = sq[n] - 8 * cube - (A if n == 0 else 0) - 2 * sum(sq[n - k] * dd[k] for k in range(n))
        dd.append(rhs / (2 * sq[0]))
        c.append(dd[n] / ((2 * n + 2) * (2 * n + 1)))
    zero = 0 * delta_star
    return tuple(x for even in c for x in (even, zero))[:-1]


def round_series() -> tuple:
    """Taylor coefficients c_0..c_N (N = ``TURNING_SERIES_ORDER``) of
    Delta = sin(r)^2/4 = (1 - cos 2r)/8 in the distance r from the round
    end of A = 0, where h = k = sin(r)/2 and b = c = 0 vanish, as exact
    Fractions: c_k = -(-4)^(k/2) / (8 k!) for even k > 0."""
    return tuple(
        Fraction(-((-4) ** (k // 2)), 8 * math.factorial(k)) if k and k % 2 == 0 else Fraction(0)
        for k in range(TURNING_SERIES_ORDER + 1)
    )


# ---------------------------------------------------------------------------
# case iii


def _case_iii_rates(h, k, b, c, a) -> list:
    delta = h * k - b * c
    Q = h * h + k * k + b * b + c * c
    a_dot = (Q - 12.0 * delta * delta - a * a) / (2.0 * delta)
    return [
        (-6.0 * h * delta + k - a_dot * h) / a,
        (-6.0 * k * delta + h - a_dot * k) / a,
        (-6.0 * b * delta - c - a_dot * b) / a,
        (-6.0 * c * delta - b - a_dot * c) / a,
        a_dot,
    ]


def case_iii_rhs(t, y):
    return _scalar_rates(_case_iii_rates, y)


def case_iii_exit(y, a_floor: float, uv_floor: float, norm_cap: float) -> Optional[str]:
    """Name of the boundary of the case-iii domain that y = (h, k, b, c, a),
    a list of Python floats, lies beyond, or None when y is inside."""
    h, k, b, c, a = values = y
    if not all(map(math.isfinite, values)) or a <= a_floor:
        return "turning_point"
    if abs(h + k) < uv_floor or abs(h - k) < uv_floor:
        # past this point the conserved ratios w/u, z/v are 0/0-noisy
        return "u_or_v_vanishes"
    if h * k - b * c <= 0:
        return "delta_nonpositive"
    # np.linalg.norm(y) is at least the largest |y_i| and below 3 times
    # it; its own rounding, which the divergence crossing keeps, decides
    # only in between
    largest = max(map(abs, values))
    if largest > norm_cap or (3.0 * largest > norm_cap and np.linalg.norm(y) > norm_cap):
        return "divergence"
    return None


def evolve_case_iii(
    state0: CaseIIIState,
    t_span: Sequence[float],
    step: float,
    *,
    record_every: int = 10,
    m: int = 1,
) -> FlowResult:
    """Integrate the five coupled equations of the non-conformal family.

    The start must pass :meth:`CaseIIIState.require_flow_start`.  Stops,
    marking the boundary, when a approaches zero (the coframe
    degenerates), when u or v vanishes, or when the state leaves the
    resolvable range.
    """
    state0.require_flow_start()
    if state0.u == 0:
        raise ValueError("h + k = 0: the conserved ratio (b - c)/(h + k) is undefined")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 <= t0:
        raise ValueError("t_span must be increasing")

    y0 = [state0.h, state0.k, state0.b, state0.c, state0.a]
    times, ys, stopped = rk4_path(
        case_iii_rhs, y0, t0, t1, step, every=record_every,
        exits=lambda y: case_iii_exit(y, CASE_III_A_FLOOR, CASE_III_UV_FLOOR, CASE_III_NORM_CAP),
    )
    h, k, b, c, _ = ys.T
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (b - c) / (h + k)
        mu = np.where(h - k != 0, (b + c) / (h - k), np.nan)
    # the ratios at the start, the first sample; mu is NaN there when v is 0
    coef_u, coef_v = (0.25 * (1.0 + x * x) for x in (float(lam[0]), float(mu[0])))
    # Python floats: numpy's ** rounds unlike libm's pow
    delta_relation = [
        abs((h * k - b * c) - (coef_u * (h + k) ** 2 - coef_v * (h - k) ** 2)) for h, k, b, c, _ in ys.tolist()
    ]

    return FlowResult.of_coefficients(
        times, _case_iii_coefficients(ys, m), m, stopped,
        drift={"lambda": np.abs(lam - lam[0]), "mu": np.abs(mu - mu[0]), "delta_relation": np.array(delta_relation)},
        meta={"step": step, "family": "case_iii", "m": m},
    )
