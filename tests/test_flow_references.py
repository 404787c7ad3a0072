"""Bit-identity of the flow kernels against the code they replaced.

The references below are the former implementations, kept verbatim in
substance: the CSV/JSON writers built on ``csv.writer`` and
``json.dump(indent=1)``, and the rate system assembled from stacked
``wedge_coefficients`` calls and a scatter into the matrix.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esasaki import evolution, exterior
from esasaki.evolution import (
    CaseIIIState,
    CaseIIState,
    FlowResult,
    _general_system,
    evolve_case_ii,
    evolve_case_iii,
    evolve_general,
    turning_points,
)

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
        states=[],
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


def _stopped_general_flow():
    # the start of test_general_flow_stops_at_coframe_degeneration
    A = -0.9 / 108
    h0 = math.sqrt(float(turning_points(A)[0] ** 2)) + 1e-3
    a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
    return evolve_general(CaseIIState(h0, a0, 6.0, 0).to_id_structure(), (0, 3.0), 1e-3, det_threshold=1e-5)


_FLOWS = {
    "case-ii": lambda: evolve_case_ii(CaseIIState.from_A(0.3, -9 / 2197, 6.0, 0), (0, 1.0), 1e-3),
    "case-ii-turning-point": lambda: evolve_case_ii(CaseIIState.from_A(0.3, -9 / 2197, 6.0, 1), (0, 3.0), 1e-3),
    "case-iii": lambda: evolve_case_iii(CaseIIIState(0.4, 0.3, 0.0, 0.1, 0.2), (0, 0.5), 1e-3, record_every=1),
    # h = k: the drift of mu is NaN from the start
    "case-iii-nan-drift": lambda: evolve_case_iii(CaseIIIState(0.4, 0.4, 0.05, 0.05, 0.3), (0, 0.05), 1e-3),
    "general": lambda: evolve_general(CaseIIState(0.38, 0.1, 6.0, 2).to_id_structure(), (0, 0.3), 1e-3),
    "general-stopped": _stopped_general_flow,
}


@SMALL_BLOCKS
@pytest.mark.parametrize("name", sorted(_FLOWS))
def test_write_matches_reference_on_flows(name, block_rows, spool_chars, monkeypatch):
    flow = _FLOWS[name]()
    if name.endswith(("stopped", "turning-point")):
        assert flow.boundary_time is not None
    if name == "case-iii-nan-drift":
        assert np.isnan(flow.drift["mu"]).all()
    monkeypatch.setattr(evolution, "WRITE_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(evolution, "JSON_SPOOL_CHARS", spool_chars)
    assert_writes_like_reference(flow)


# ---------------------------------------------------------------------------
# reference rate system

_A_BLOCKS = ((0, 3, -2), (-3, 0, 1), (2, -1, 0))


def _rate_matrix_gather() -> tuple:
    flat, source, sign = [], [], []
    for eq, blocks in enumerate(_A_BLOCKS):
        for unknown, v in enumerate(blocks):
            for pair in range(6) if v else ():
                for k in range(4):
                    flat.append((6 * eq + pair) * 12 + 4 * unknown + k)
                    source.append((4 * (abs(v) - 1) + k) * 6 + pair)
                    sign.append(math.copysign(1.0, v))
    return np.array(flat), np.array(source), np.array(sign)


_A_FLAT, _A_SOURCE, _A_SIGN = _rate_matrix_gather()
_UNITS = np.eye(4).reshape(-1)
_LEFT = np.array([4, 5, 6, 7] * 3 + [0, 0, 7, 7])
_RIGHT = np.array([1] * 4 + [2] * 4 + [3] * 4 + [3, 2, 3, 2])
_B_SIGNS = np.array([[1.0], [-1.0]])


def reference_general_system(y: np.ndarray, m: int):
    rows = np.concatenate((y, _UNITS)).reshape(8, 4)
    w = exterior.wedge_coefficients(rows[_LEFT], rows[_RIGHT], exterior.WEDGE_1_1)
    A = np.zeros(216)
    A[_A_FLAT] = _A_SIGN * w.reshape(-1)[_A_SOURCE]
    d = rows[1:4] @ exterior.D_1.T
    b = np.concatenate((-d[0], (3.0 * _B_SIGNS * w[12:14] - d[1:] + m * _B_SIGNS * w[14:]).reshape(-1)))
    return A.reshape(18, 12), b


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1 / 3]),
    st.floats(-10.0, 10.0, allow_subnormal=True),
)


@settings(max_examples=400, deadline=None)
@given(
    y=st.lists(_ENTRIES, min_size=16, max_size=16),
    scale=st.sampled_from([1.0, 1e-8, 1e5]),
    m=st.integers(0, 3),
)
def test_general_system_matches_the_table_driven_builder_bit_for_bit(y, scale, m):
    y = np.array(y) * scale
    A, b = _general_system(y, m)
    A_ref, b_ref = reference_general_system(y, m)
    assert A.tobytes() == A_ref.tobytes()
    assert b.tobytes() == b_ref.tobytes()
