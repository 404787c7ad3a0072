"""Invariant coframe structures and their constraint systems.

An :class:`IdStructure` is a quadruple of invariant one-forms
(eta0, eta1, eta2, eta3) on the group directions e1..e4, stored as a 4x4
coefficient matrix, together with the integer rotation weight m of the
phase one-form (d gamma = m e4).  The structure equations

    d eta0 = -2 eta23
    d eta31 = 3 eta012 + m e4 ^ eta12
    d eta12 = -3 eta031 - m e4 ^ eta31

are the hypersurface constraints; their residual norms are computed by
:func:`residual_hypo`.  A one-parameter family of solutions eta(t) with
rates eta'(t) gives the five-dimensional structure forms

    alpha = eta0,   omega1 = eta23 + eta1 ^ dt,
    omega2 = eta31 + eta2 ^ dt,   omega3 = eta12 + eta3 ^ dt,

and :func:`residual_es` computes the norms of their Einstein-Sasaki
residuals.  :func:`normal_form` reduces any solution to one of the two
canonical families of the classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from esasaki.exterior import D_1, D_2, WEDGE_1_1, WEDGE_1_2, wedge_coefficients

__all__ = [
    "IdStructure",
    "FamilyTag",
    "FrameTransform",
    "DegenerateCoframeError",
    "NotASolutionError",
    "residual_hypo",
    "residual_hypo_batch",
    "residual_es",
    "gauge",
    "normal_form",
]

VARIANT_NOTHING = "GoGivingNothing"
VARIANT_YPQ = "GoGivingYpq"


class DegenerateCoframeError(ValueError):
    """The four one-forms do not span the cotangent space."""


class NotASolutionError(ValueError):
    """Input does not satisfy the structure equations within tolerance."""


@dataclass(frozen=True)
class IdStructure:
    """Coframe candidate: rows are eta0..eta3 over (e1, e2, e3, e4).

    The coframe condition det(eta) != 0 is required by every consumer
    that builds a metric or a flow; closed-form families legitimately
    pass through degenerate instants, so it is checked at use sites
    (``require_coframe``) rather than at construction.
    """

    eta: tuple
    m: int = 0

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.eta)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("eta must be a 4x4 coefficient array")
        object.__setattr__(self, "eta", rows)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[float(c) for c in row] for row in self.eta])

    def require_coframe(self, threshold: float = 1e-12) -> None:
        det = float(np.linalg.det(self.matrix))
        if abs(det) <= threshold:
            raise DegenerateCoframeError(f"coframe determinant {det:.3e} below {threshold:.1e}")

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        def enc(c):
            return str(c) if isinstance(c, Fraction) else c
        return {"eta": [[enc(c) for c in row] for row in self.eta], "m": self.m}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IdStructure":
        """Inverse of :meth:`to_json_dict`; malformed data is a ValueError."""
        def dec(c):
            if isinstance(c, str):
                return Fraction(c)
            if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
                raise ValueError(f"coefficient {c!r} is not a finite number")
            return c
        try:
            rows = tuple(tuple(dec(c) for c in row) for row in data["eta"])
            m = data.get("m", 0)
        except (KeyError, TypeError, AttributeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed coframe data: {exc}") from None
        if not isinstance(m, int) or isinstance(m, bool):
            raise ValueError(f"coframe weight m must be an integer, got {m!r}")
        return cls(rows, m)


def _hypo_terms(eta: np.ndarray, m: int) -> tuple:
    """Coefficients of the three structure-equation residuals of an
    (N, 4, 4) float stack: a two-form and two three-forms per coframe."""
    # eta23, eta31, eta12
    two = wedge_coefficients(eta[:, [2, 3, 1]], eta[:, [3, 1, 2]], WEDGE_1_1)
    # eta0 ^ eta12, eta0 ^ eta31, e4 ^ eta12, e4 ^ eta31
    left = eta[:, [0, 0, 0, 0]]
    left[:, 2:] = (0.0, 0.0, 0.0, 1.0)
    three = wedge_coefficients(left, two[:, [2, 1, 2, 1]], WEDGE_1_2)
    d_two = two[:, 1:] @ D_2.T
    r1 = eta[:, 0] @ D_1.T + 2.0 * two[:, 0]
    r2 = d_two[:, 0] - 3.0 * three[:, 0] - m * three[:, 2]
    r3 = d_two[:, 1] + 3.0 * three[:, 1] + m * three[:, 3]
    return r1, r2, r3


def residual_hypo_batch(etas, m: int) -> np.ndarray:
    """Norms of the three structure-equation residuals of each coframe
    in an (N, 4, 4) stack with weight m, as an (N, 3) array.

    Works on the float coefficient arrays with the index tables of
    :mod:`esasaki.exterior`; exact coframes are converted to float.
    """
    terms = _hypo_terms(np.asarray(etas, dtype=float), m)
    return np.sqrt(np.stack([(r * r).sum(axis=-1) for r in terms], axis=-1))


def residual_es(etas, rates, m: int) -> np.ndarray:
    """Norms of the three Einstein-Sasaki residuals

        d alpha + 2 omega1,   d omega2 - 3 alpha ^ omega3 - m e4 ^ omega3,
        d omega3 + 3 alpha ^ omega2 + m e4 ^ omega2

    of the structure forms of each coframe in an (N, 4, 4) stack with
    its (N, 4, 4) rates, as an (N, 3) array.  The derivative on the
    five-manifold is d + dt ^ d/dt, with the phase correction m e4 ^ .
    (phase evaluated at zero).  Each residual is R0 + R1 ^ dt: R0 is the
    structure-equation residual of :func:`residual_hypo_batch` and R1
    the evolution equation

        2 eta1 - eta0',
        d eta2 + eta3' ^ eta1 + eta3 ^ eta1' - 3 eta0 ^ eta3 - m e4 ^ eta3,
        d eta3 + eta1' ^ eta2 + eta1 ^ eta2' + 3 eta0 ^ eta2 + m e4 ^ eta2,

    so that each norm is the hypot of the two parts.
    """
    eta = np.asarray(etas, dtype=float)
    dot = np.asarray(rates, dtype=float)
    # eta3' ^ eta1, eta3 ^ eta1', eta1' ^ eta2, eta1 ^ eta2',
    # eta0 ^ eta3, eta0 ^ eta2, e4 ^ eta3, e4 ^ eta2
    left = np.stack([dot[:, 3], eta[:, 3], dot[:, 1], eta[:, 1], eta[:, 0], eta[:, 0], eta[:, 0], eta[:, 0]], axis=1)
    left[:, 6:] = (0.0, 0.0, 0.0, 1.0)
    right = np.stack([eta[:, 1], dot[:, 1], eta[:, 2], dot[:, 2], eta[:, 3], eta[:, 2], eta[:, 3], eta[:, 2]], axis=1)
    w = wedge_coefficients(left, right, WEDGE_1_1)
    d = eta[:, 2:] @ D_1.T
    along = (
        2.0 * eta[:, 1] - dot[:, 0],
        d[:, 0] + (w[:, 0] + w[:, 1]) - 3.0 * w[:, 4] - m * w[:, 6],
        d[:, 1] + (w[:, 2] + w[:, 3]) + 3.0 * w[:, 5] + m * w[:, 7],
    )
    terms = zip(_hypo_terms(eta, m), along)
    return np.sqrt(np.stack([(r * r).sum(axis=-1) + (s * s).sum(axis=-1) for r, s in terms], axis=-1))


def residual_hypo(structure: IdStructure) -> tuple:
    """Norms of the three structure-equation residuals of a coframe."""
    return tuple(float(r) for r in residual_hypo_batch(structure.matrix[None], structure.m)[0])


@dataclass(frozen=True)
class FamilyTag:
    """Canonical parameters of an invariant solution, plus its variant."""

    variant: str
    m: int
    h: float
    k: float | None = None
    a: float | None = None
    c: float | None = None
    a1: float | None = None
    a4: float | None = None
    mu: float | None = None

    def to_json_dict(self) -> dict:
        data = {"variant": self.variant, "h": self.h, "m": self.m}
        for name in ("k", "a", "c", "a1", "a4", "mu"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data


def gauge(etas, so3=None, u1_angle: float | None = None, eta1_sign: int = 1) -> np.ndarray:
    """The gauge action on a float (..., 4, 4) stack of coframes, as a new
    array: rotate the su(2) coefficient triples of every row by ``so3`` in
    SO(3), rotate (eta2, eta3) by the phase ``u1_angle``, then negate eta1
    when ``eta1_sign`` is -1.

    A part left at its default is skipped: rotating by the angle 0 would
    turn a -0.0 coefficient into +0.0.  The rotation is a batched
    matrix-vector product, so each row gets the bits of ``so3 @ row``.
    """
    out = np.array(etas, dtype=float)
    if so3 is not None:
        out[..., :3] = (np.asarray(so3, dtype=float) @ out[..., :3, None])[..., 0]
    if u1_angle is not None:
        c, s = math.cos(u1_angle), math.sin(u1_angle)
        r2, r3 = out[..., 2, :], out[..., 3, :]
        out[..., 2, :], out[..., 3, :] = c * r2 + s * r3, -s * r2 + c * r3
    if eta1_sign < 0:
        out[..., 1, :] = -out[..., 1, :]
    return out


@dataclass(frozen=True)
class FrameTransform:
    """The group element reducing a solution to normal form.

    :func:`gauge` applies it: rotate the su(2) basis by ``so3``, rotate
    (eta2, eta3) by ``u1_angle``, then flip eta1 when ``eta1_sign`` is -1.
    """

    so3: tuple
    u1_angle: float
    eta1_sign: int = 1


def _minimal_rotation_to_x(n: np.ndarray) -> np.ndarray:
    """SO(3) rotation taking the unit vector n to (1, 0, 0) in its plane."""
    x = np.array([1.0, 0.0, 0.0])
    c = float(n @ x)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # opposite direction: half turn about e2
        return np.diag([-1.0, 1.0, -1.0])
    axis = np.cross(n, x)
    s = np.linalg.norm(axis)
    axis = axis / s
    K = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def normal_form(structure: IdStructure, tol: float = 1e-9):
    """Reduce a solution of the structure equations to canonical form.

    Returns ``(tag, transform)`` where ``gauge(structure.matrix,
    transform.so3, transform.u1_angle, transform.eta1_sign)`` is the
    coframe of the canonical representative.  The reduction applies one
    adjoint rotation taking eta0 into span(e1, e4) and aligning the
    (eta2, eta3) block, one phase rotation making eta2 a positive
    multiple of e2, and an orientation flip fixing the sign conventions
    (a > 0, or a4 h > 0).  The variant is decided by closedness of
    eta3 ^ eta1.
    """
    mat = structure.matrix
    res = tuple(residual_hypo_batch(mat[None], structure.m)[0].tolist())
    scale = max(1.0, float(np.abs(mat).max()))
    if max(res) > tol * scale:
        raise NotASolutionError(f"structure-equation residuals {res} exceed tolerance {tol}")

    n = mat[0, :3]
    rho = float(np.linalg.norm(n))
    if rho <= tol * scale:
        raise NotASolutionError("degenerate: eta0 closed (no su(2) component)")

    rot0 = _minimal_rotation_to_x(n / rho)

    # (eta2, eta3) live in span(e2, e3) for any solution with eta0
    # aligned; canonicalize the residual two-sided rotation gauge by the
    # rotation-SVD of the 2x2 block.
    w = gauge(mat, rot0)
    off = max(abs(w[2, 0]), abs(w[2, 3]), abs(w[3, 0]), abs(w[3, 3]))
    if off > 1e3 * tol * scale:
        raise NotASolutionError("eta2/eta3 are not supported on span(e2, e3)")
    block = w[2:4, 1:3]
    u_rot, svals, vt_rot = np.linalg.svd(block)
    if np.linalg.det(u_rot) < 0:
        u_rot = u_rot @ np.diag([1.0, -1.0])
        vt_rot = np.diag([1.0, -1.0]) @ vt_rot
    if svals[-1] <= tol * scale:
        raise DegenerateCoframeError("eta2 ^ eta3 vanishes")

    u1_angle = math.atan2(u_rot[1, 0], u_rot[0, 0])
    # compose the basis-side rotation (about e1, acting on the e2-e3
    # plane) into the single adjoint rotation
    v_angle = math.atan2(vt_rot[0, 1], vt_rot[0, 0])
    cv, sv = math.cos(v_angle), math.sin(v_angle)
    rot1 = np.array([[1.0, 0.0, 0.0], [0.0, cv, sv], [0.0, -sv, cv]])
    so3 = rot1 @ rot0

    w = gauge(mat, so3, u1_angle)

    eta31 = wedge_coefficients(w[3], w[1], WEDGE_1_1)
    closed = np.linalg.norm(eta31 @ D_2.T) <= 10 * tol * max(1.0, np.linalg.norm(eta31))

    eta1_sign = 1
    if closed:
        # a e1 row: enforce a > 0
        if w[1, 0] < 0:
            eta1_sign = -1
            w[1] = -w[1]
        h, k = float(w[2, 1]), float(w[3, 2])
        if abs(w[0, 0] - 2 * h * k) > 1e3 * tol * max(1.0, scale**2) or abs(
            w[0, 3] + structure.m / 3.0
        ) > 1e3 * tol * scale:
            raise NotASolutionError("eta0 coefficients inconsistent with the closed family")
        tag = FamilyTag(
            variant=VARIANT_NOTHING,
            m=structure.m,
            h=h,
            k=k,
            a=float(w[1, 0]),
            c=float(w[3, 1]),
        )
    else:
        if w[1, 3] < 0:
            eta1_sign = -1
            w[1] = -w[1]
        if abs(svals[0] - svals[1]) > 1e3 * tol * max(1.0, scale):
            raise NotASolutionError("eta2/eta3 block is not conformal in the non-closed family")
        h = float(0.5 * (w[2, 1] + w[3, 2]))
        tag = FamilyTag(
            variant=VARIANT_YPQ,
            m=structure.m,
            h=h,
            a1=float(w[1, 0]),
            a4=float(w[1, 3]),
            mu=float(w[0, 3]),
        )
        constraint = 3 * tag.a1 * tag.mu - (6 * h * h * tag.a4 - tag.a4 - tag.a1 * structure.m)
        if abs(constraint) > 1e3 * tol * max(1.0, scale**3):
            raise NotASolutionError(f"family constraint violated by {constraint:.3e}")

    transform = FrameTransform(tuple(map(tuple, so3)), u1_angle, eta1_sign)
    return tag, transform
