"""Bit-identity of the flow kernels against the code they replaced.

The references below are the former implementations, kept verbatim in
substance: the CSV/JSON writers built on ``csv.writer`` and
``json.dump(indent=1)``, and the recorded flows built one state object,
one coframe and one drift value per sample.  The rate defect, whose
former 18 x 12 system is the least-squares oracle's
(``tests/lstsq_oracle.py``), is checked with that system against exact
arithmetic instead.
"""

import csv
import json
import math
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from esasaki import evolution
from esasaki.evolution import (
    EPS_ROT,
    CaseIIIState,
    CaseIIState,
    FlowResult,
    evolve_case_i,
    evolve_case_ii,
    evolve_case_iii,
    evolve_general,
)
from esasaki.moduli import cubic_roots
from esasaki.structures import IdStructure, residual_hypo_batch

from exact_forms import rate_defect
from lstsq_oracle import defect_rounding, reference_general_system

# ---------------------------------------------------------------------------
# reference writers


def reference_csv(flow: FlowResult, path) -> None:
    drift_names = sorted(flow.drift)
    header = ["t"]
    header += [f"eta{i}_{j+1}" for i in range(4) for j in range(4)]
    header += ["res_go_1", "res_go_2", "res_go_3"]
    columns = [flow.times, flow.coefficients, flow.residuals]
    if flow.consistency is not None:
        header += ["lsq_residual"]
        columns.append(flow.consistency)
    header += [f"drift_{name}" for name in drift_names]
    columns += [flow.drift[name] for name in drift_names]
    n = len(flow.times)
    table = np.hstack([np.asarray(c, dtype=float).reshape(n, -1) for c in columns])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())


def reference_json(flow: FlowResult, path) -> None:
    data = {
        "times": [float(t) for t in flow.times],
        "coefficients": np.asarray(flow.coefficients).tolist(),
        "residuals": flow.residuals.tolist(),
        "drift": {k: np.asarray(v).tolist() for k, v in flow.drift.items()},
        "boundary_time": flow.boundary_time,
        "stopped_reason": flow.stopped_reason,
        "meta": flow.meta,
    }
    if flow.consistency is not None:
        data["consistency"] = flow.consistency.tolist()
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def assert_writes_like_reference(flow: FlowResult) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        flow.write(tmp / "flow.csv", tmp / "flow.json")
        reference_csv(flow, tmp / "ref.csv")
        reference_json(flow, tmp / "ref.json")
        assert (tmp / "flow.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
        assert (tmp / "flow.json").read_bytes() == (tmp / "ref.json").read_bytes()
        # the spools leave nothing behind
        assert sorted(p.name for p in tmp.iterdir()) == ["flow.csv", "flow.json", "ref.csv", "ref.json"]


# block sizes: the defaults, and blocks and spools small enough that the
# drawn tables span several blocks and spill to disk
SMALL_BLOCKS = pytest.mark.parametrize(
    "block_rows, spool_chars", [(evolution.WRITE_BLOCK_ROWS, evolution.JSON_SPOOL_CHARS), (3, 40)]
)

_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1 / 3, 1e300]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
_DRIFT_NAMES = ["mu", "A", "lambda", "delta_relation", "b"]
_REASONS = [None, "coframe degenerate", "turning_point", "h_zero", "u_or_v_vanishes"]


@st.composite
def flows(draw):
    n = draw(st.integers(1, 9))

    def column(width=1):
        values = np.array(draw(st.lists(_FLOATS, min_size=n * width, max_size=n * width)))
        return values if width == 1 else values.reshape(n, width)

    # the drift keeps the drawn insertion order, which need not be sorted
    names = draw(st.lists(st.sampled_from(_DRIFT_NAMES), unique=True, max_size=4))
    return FlowResult(
        times=column(),
        coefficients=column(16),
        residuals=column(3),
        drift={name: column() for name in names},
        consistency=column() if draw(st.booleans()) else None,
        boundary_time=draw(st.one_of(st.none(), _FLOATS)),
        stopped_reason=draw(st.sampled_from(_REASONS)),
        meta=draw(st.sampled_from([
            {},
            {"step": 0.001, "family": "case_iii", "m": 1},
            {"seed": 0, "arith": "float", "tol": 0.0001, "step": 1e-3, "k": -0.0, "x": math.nan, "y": -math.inf},
        ])),
    )


@SMALL_BLOCKS
@settings(max_examples=150, deadline=None)
@given(flow=flows())
def test_write_matches_csv_writer_and_json_dump(flow, block_rows, spool_chars):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "WRITE_BLOCK_ROWS", block_rows)
        mp.setattr(evolution, "JSON_SPOOL_CHARS", spool_chars)
        assert_writes_like_reference(flow)


def _degenerating_coframe():
    # the start of test_general_flow_stops_at_coframe_degeneration
    A = -0.9 / 108
    h0 = math.sqrt(cubic_roots(A)[0][0]) + 1e-3
    a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
    return CaseIIState(h0, a0, 6.0, 0).to_id_structure()


# evolve function, start, t_span and options of flows at step 1e-3
_FLOWS = {
    "case-ii": (evolve_case_ii, CaseIIState.from_A(0.3, -9 / 2197, 6.0, 0), (0, 1.0), {}),
    "case-ii-turning-point": (evolve_case_ii, CaseIIState.from_A(0.3, -9 / 2197, 6.0, 1), (0, 3.0), {}),
    "case-iii": (evolve_case_iii, CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), (0, 0.5), {"record_every": 1}),
    # h = k: the drift of mu is NaN from the start
    "case-iii-nan-drift": (evolve_case_iii, CaseIIIState(0.4, 0.4, 0.05, 0.05, 0.3), (0, 0.05), {}),
    "general": (evolve_general, CaseIIState(0.38, 0.1, 6.0, 2).to_id_structure(), (0, 0.3), {}),
    "general-stopped": (evolve_general, _degenerating_coframe(), (0, 3.0), {}),
}
# the evolution constants a flow of _FLOWS runs under
_CONSTANTS = {"general-stopped": {"GENERAL_DET_THRESHOLD": 1e-5}}


def set_constants(name: str, monkeypatch) -> None:
    for constant, value in _CONSTANTS.get(name, {}).items():
        monkeypatch.setattr(evolution, constant, value)


def run_flow(name: str) -> FlowResult:
    evolve, start, t_span, options = _FLOWS[name]
    return evolve(start, t_span, 1e-3, **options)


@SMALL_BLOCKS
@pytest.mark.parametrize("name", sorted(_FLOWS))
def test_write_matches_reference_on_flows(name, block_rows, spool_chars, monkeypatch):
    set_constants(name, monkeypatch)
    flow = run_flow(name)
    if name.endswith(("stopped", "turning-point")):
        assert flow.boundary_time is not None
    if name == "case-iii-nan-drift":
        assert np.isnan(flow.drift["mu"]).all()
    monkeypatch.setattr(evolution, "WRITE_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(evolution, "JSON_SPOOL_CHARS", spool_chars)
    assert_writes_like_reference(flow)


# ---------------------------------------------------------------------------
# the rate defect in exact arithmetic

_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1 / 3]),
    st.floats(-10.0, 10.0, allow_subnormal=True),
)


@settings(max_examples=400, deadline=None)
@given(
    y=st.lists(_ENTRIES, min_size=16, max_size=16),
    x=st.lists(_ENTRIES, min_size=12, max_size=12),
    scale=st.sampled_from([1.0, 1e-8, 1e5]),
    m=st.integers(0, 3),
)
def test_rate_defect_and_the_reference_system_match_exact_arithmetic(y, x, scale, m):
    # the kernel's one gather of wedges and the oracle's assembled 18 x 12
    # system both give b - A x of the float coframe and rates to rounding
    y, x = np.array(y) * scale, np.array(x) * scale
    exact = rate_defect(y, x, m)
    b = (y[4:] @ evolution._linear_rhs(m)).reshape(3, 6)
    A, b_ref = reference_general_system(y, m)
    bound = defect_rounding(y, x, m)
    for defect in (evolution._rate_defect(y, x, b).reshape(-1), b_ref - A @ x):
        assert max(abs(F(v) - e) for v, e in zip(defect.tolist(), exact)) <= bound


# ---------------------------------------------------------------------------
# reference recorded flows: one state object per sample


def reference_of_coframes(coframes, m: int) -> tuple:
    """Coefficients and residuals of a list of coframes, as the former
    ``FlowResult.of_coframes`` built them."""
    coefficients = np.array([s.eta for s in coframes], dtype=float).reshape(-1, 16)
    return coefficients, residual_hypo_batch(coefficients.reshape(-1, 4, 4), m)


def reference_case_i(k, m, t) -> IdStructure:
    g = k * math.cos(EPS_ROT * t) - m / 3.0
    f = -0.5 * k * EPS_ROT * math.sin(EPS_ROT * t)
    rows = ((1.0 / 3.0, 0.0, 0.0, g), (0.0, 0.0, 0.0, f), (0.0, 1.0 / EPS_ROT, 0.0, 0.0), (0.0, 0.0, 1.0 / EPS_ROT, 0.0))
    return IdStructure(rows, m)


def reference_case_ii(h, a, C, m) -> IdStructure:
    rows = ((2 * h * h, 0.0, 0.0, 2 * C * h * h - (C + m) / 3.0), (a, 0.0, 0.0, a * C), (0.0, h, 0.0, 0.0), (0.0, 0.0, h, 0.0))
    return IdStructure(rows, m)


def reference_case_iii(h, k, b, c, a, m) -> IdStructure:
    rows = ((2 * (h * k - b * c), 0.0, 0.0, -m / 3.0), (a, 0.0, 0.0, 0.0), (0.0, h, b, 0.0), (0.0, c, k, 0.0))
    return IdStructure(rows, m)


def reference_A(h, a):
    return 4 * h**6 - h**4 + (a * h) ** 2


def reference_flow(evolve, start, ys, options) -> tuple:
    """(coefficients, residuals, drift) that the former per-sample code
    recorded from the integrator's states ``ys``."""
    if evolve is evolve_general:
        coframes = [IdStructure(tuple(map(tuple, y.reshape(4, 4))), start.m) for y in ys]
        return (*reference_of_coframes(coframes, start.m), {})
    if evolve is evolve_case_ii:
        A0 = reference_A(start.h, start.a)
        states = []
        for p, s in ys:
            h = math.sqrt(p)
            states.append((h, s / h))
        coframes = [reference_case_ii(h, a, start.C, start.m) for h, a in states]
        drift = {"A": np.array([abs(reference_A(h, a) - A0) / max(abs(A0), 1e-30) for h, a in states])}
        return (*reference_of_coframes(coframes, start.m), drift)
    m = options.get("m", 1)
    h0, k0, b0, c0 = start.h, start.k, start.b, start.c
    lam0 = (b0 - c0) / (h0 + k0)
    mu0 = (b0 + c0) / (h0 - k0) if h0 - k0 != 0 else float("nan")
    coef_u = 0.25 * (1.0 + lam0 * lam0)
    coef_v = 0.25 * (1.0 + mu0 * mu0) if h0 - k0 != 0 else float("nan")
    states = [[float(x) for x in y] for y in ys]
    coframes = [reference_case_iii(*state, m) for state in states]
    drift = {
        "lambda": np.array([abs((b - c) / (h + k) - lam0) for h, k, b, c, _ in states]),
        "mu": np.array([abs((b + c) / (h - k) - mu0) if h - k != 0 else float("nan") for h, k, b, c, _ in states]),
        "delta_relation": np.array(
            [abs((h * k - b * c) - (coef_u * (h + k) ** 2 - coef_v * (h - k) ** 2)) for h, k, b, c, _ in states]
        ),
    }
    return (*reference_of_coframes(coframes, m), drift)


def assert_same_floats(a, b) -> None:
    """Equal bit for bit, except that any NaN equals any NaN (the
    artifacts spell every NaN alike)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all()
    assert a[~nan].tobytes() == b[~nan].tobytes()


def assert_flow_matches(flow: FlowResult, reference: tuple) -> None:
    coefficients, residuals, drift = reference
    assert_same_floats(flow.coefficients, coefficients)
    assert_same_floats(flow.residuals, residuals)
    assert list(flow.drift) == list(drift)
    for name in drift:
        assert_same_floats(flow.drift[name], drift[name])


_RK4_PATH = evolution.rk4_path


def evolve_with_path(evolve, start, t_span, step, options) -> tuple:
    """The flow, and the (times, ys, reason) that rk4_path returned to it."""
    paths = []

    def recorded(*args, **kwargs):
        paths.append(_RK4_PATH(*args, **kwargs))
        return paths[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "rk4_path", recorded)
        flow = evolve(start, t_span, step, **options)
    (path,) = paths
    times, _, reason = path
    assert flow.times is times
    assert flow.stopped_reason == reason
    assert flow.boundary_time == (float(times[-1]) if reason else None)
    return flow, path


@pytest.mark.parametrize("name", sorted(_FLOWS))
def test_flows_match_the_per_sample_construction(name, monkeypatch):
    set_constants(name, monkeypatch)
    evolve, start, t_span, options = _FLOWS[name]
    flow, (_, ys, _) = evolve_with_path(evolve, start, t_span, 1e-3, options)
    assert_flow_matches(flow, reference_flow(evolve, start, ys, options))


@settings(max_examples=60, deadline=None)
@given(
    k=st.floats(-3.0, 3.0),
    m=st.integers(-3, 3),
    t0=st.floats(-10.0, 10.0),
    t1=st.floats(-10.0, 10.0),
    step=st.floats(1e-3, 0.1),
)
def test_case_i_matches_the_per_sample_closed_form(k, m, t0, t1, step):
    assume(t0 < t1)
    flow = evolve_case_i(k, m, (t0, t1), step)
    times = np.linspace(t0, t1, max(2, int(round((t1 - t0) / step)) + 1))
    assert flow.times.tobytes() == times.tobytes()
    coframes = [reference_case_i(k, m, float(t)) for t in times]
    assert_flow_matches(flow, (*reference_of_coframes(coframes, m), {}))
    assert list(flow.meta.items()) == [("step", step), ("family", "case_i"), ("k", k), ("m", m)]


_STEPS = st.sampled_from([1e-3, 2.5e-3, 1e-2])


@settings(max_examples=40, deadline=None)
@given(
    h=st.floats(0.05, 0.55),
    a=st.floats(0.0, 2.0),
    C=st.floats(-6.0, 6.0),
    m=st.integers(-3, 3),
    t1=st.floats(0.01, 1.0),
    step=_STEPS,
    every=st.integers(1, 20),
)
def test_case_ii_matches_the_per_sample_construction(h, a, C, m, t1, step, every):
    start, options = CaseIIState(h, a, C, m), {"record_every": every}
    flow, (_, ys, _) = evolve_with_path(evolve_case_ii, start, (0.0, t1), step, options)
    assert_flow_matches(flow, reference_flow(evolve_case_ii, start, ys, options))


@settings(max_examples=40, deadline=None)
@given(
    h=st.floats(0.05, 1.0),
    k=st.one_of(st.none(), st.floats(0.05, 1.0)),
    b=st.floats(-0.5, 0.5),
    c=st.floats(-0.5, 0.5),
    a=st.floats(0.05, 1.0),
    m=st.integers(1, 3),
    t1=st.floats(0.01, 0.5),
    step=_STEPS,
    every=st.integers(1, 20),
)
def test_case_iii_matches_the_per_sample_construction(h, k, b, c, a, m, t1, step, every):
    # k = None draws h = k, where the drift of mu is NaN
    start = CaseIIIState(h, h if k is None else k, b, c, a)
    assume(start.delta > 0 and (start.v, start.z) != (0, 0))
    options = {"record_every": every, "m": m}
    flow, (_, ys, _) = evolve_with_path(evolve_case_iii, start, (0.0, t1), step, options)
    assert_flow_matches(flow, reference_flow(evolve_case_iii, start, ys, options))


def test_dense_case_iii_matches_the_per_sample_construction():
    # 3,179 samples: numpy's x**2 and libm's pow differ in about one
    # square of 1,200, eight times on this flow's u and v
    start, options = CaseIIIState(0.5, 0.3, -0.05, 0.1, 0.3), {"record_every": 1, "m": 2}
    flow, (_, ys, _) = evolve_with_path(evolve_case_iii, start, (0.0, 1.0), 2e-4, options)
    assert len(flow.times) > 3000
    assert_flow_matches(flow, reference_flow(evolve_case_iii, start, ys, options))
