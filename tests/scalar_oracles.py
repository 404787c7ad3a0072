"""Reference flow kernels on numpy scalars, and the full turning-series
recursion.

The package evaluates the case-ii and case-iii right-hand sides and the
case-iii domain test on Python floats, steps those flows and the
case-iii march on lists of them, evaluates each march state's k1 once,
and runs the turning series over its even coefficients alone.  These
are the same computations written out the longer way:

- ``numpy_case_ii_rhs``, ``numpy_case_iii_rhs`` and
  ``numpy_case_iii_exit`` compute on the numpy scalars of the state (a
  zero denominator gives +-inf or nan);
- ``numpy_rk4_step`` steps arrays and evaluates k1 inside every step,
  ``numpy_rk4_path`` for every re-step of its crossing bisection too, and
  ``numpy_march`` evaluates k1 for its step size and again inside each
  step it tries;
- ``full_turning_series`` runs the Cauchy recursion over every
  coefficient, the vanishing odd ones included.

Slow, and independent of the Python-float kernels.
"""

import math

import numpy as np

from esasaki.boundary import MAX_SPAN
from esasaki.evolution import TURNING_SERIES_ORDER


def numpy_case_ii_rhs(t, q):
    p, s = q  # p = h^2, s = a h
    sqrtp = math.sqrt(p)
    return np.array([s / sqrtp, sqrtp * (1.0 - 6.0 * p)])


def numpy_case_iii_rhs(t, y):
    h, k, b, c, a = y
    delta = h * k - b * c
    Q = h * h + k * k + b * b + c * c
    a_dot = (Q - 12.0 * delta * delta - a * a) / (2.0 * delta)
    return np.array([
        (-6.0 * h * delta + k - a_dot * h) / a,
        (-6.0 * k * delta + h - a_dot * k) / a,
        (-6.0 * b * delta - c - a_dot * b) / a,
        (-6.0 * c * delta - b - a_dot * c) / a,
        a_dot,
    ])


def numpy_case_iii_exit(y, a_floor, uv_floor, norm_cap):
    h, k, b, c, a = y
    if not np.all(np.isfinite(y)) or a <= a_floor:
        return "turning_point"
    if abs(h + k) < uv_floor or abs(h - k) < uv_floor:
        return "u_or_v_vanishes"
    if h * k - b * c <= 0:
        return "delta_nonpositive"
    if np.linalg.norm(y) > norm_cap:
        return "divergence"
    return None


def numpy_rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def numpy_rk4_path(f, y0, t0, t1, step, *, every=1, exits=None):
    n = max(1, int(round(abs(t1 - t0) / step)))
    h = (t1 - t0) / n
    y = np.array(y0, dtype=float)
    times, ys = [t0], [y]
    for i in range(n):
        t = t0 + i * h
        y_next = numpy_rk4_step(f, t, y, h)
        reason = None if exits is None else exits(y_next)
        if reason is not None:
            lo, hi = 0.0, h
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                crossed = exits(numpy_rk4_step(f, t, y, mid))
                if crossed is None:
                    lo = mid
                else:
                    hi, reason = mid, crossed
            mid = 0.5 * (lo + hi)
            times.append(t + mid)
            ys.append(numpy_rk4_step(f, t, y, mid))
            return np.array(times), np.array(ys), reason
        y = y_next
        if (i + 1) % every == 0 or i + 1 == n:
            times.append(t0 + (i + 1) * h)
            ys.append(y)
    return np.array(times), np.array(ys), None


def numpy_march(y0, direction, step):
    y = np.array(y0, dtype=float)
    t = 0.0
    times, ys = [t], [y]
    h = direction * step
    min_h = step * 2.0**-30
    while abs(t) < MAX_SPAN:
        a_rate = abs(numpy_case_iii_rhs(t, y)[4])
        while abs(h) > min_h and a_rate * abs(h) > 0.25 * y[4]:
            h *= 0.5
        y_try = numpy_rk4_step(numpy_case_iii_rhs, t, y, h)
        if not np.all(np.isfinite(y_try)) or y_try[4] <= 0:
            if abs(h) <= min_h:
                return times, ys, "turning_point"
            h *= 0.5
            continue
        y, t = y_try, t + h
        times.append(t)
        ys.append(y)
        reason = numpy_case_iii_exit(y, 1e-10, 0.0, 1e8)
        if reason is not None:
            return times, ys, reason
        if abs(h) < step:
            h = direction * min(step, 2.0 * abs(h))
    return times, ys, None


def full_turning_series(A, delta_star):
    c = [delta_star, 0 * delta_star]
    sq, dd = [], []
    for n in range(TURNING_SERIES_ORDER - 1):
        sq.append(sum(c[i] * c[n - i] for i in range(n + 1)))
        cube = sum(sq[i] * c[n - i] for i in range(n + 1))
        rhs = sq[n] - 8 * cube - (A if n == 0 else 0) - 2 * sum(sq[n - k] * dd[k] for k in range(n))
        dd.append(rhs / (2 * sq[0]))
        c.append(dd[n] / ((n + 2) * (n + 1)))
    return tuple(c)
