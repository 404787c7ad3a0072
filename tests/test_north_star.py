"""The pipeline end to end: invariant initial data -> normal form ->
classification -> Ric = 4g -> evolution, each stage fed by the output of
the one before, through ``esasaki.cli.main`` in-process.

The start is a random gauge conjugate (SO(3), a U(1) phase and the eta1
flip, through ``structures.gauge``) of the conformal coframe
``CaseIIState.from_A(0.3, -9/2197, 6, 0)``, the README's Y^{p,q} family.
``normal-form`` gives its tag; the level A = 4h^6 - h^4 + (a1 h)^2 and the
constant C = a4/a1 read off the tag then drive ``extend-check`` and
``verify`` in float arithmetic, and ``evolve --case general`` runs from
the conjugated file.

The bounds were fixed from the tolerances the commands already apply and
from the recorded drift of the general flow (relative 4.8e-9 in A at step
1e-2, fourth order, so about 5e-13 at the default step 1e-3; C within
6e-15), not from this test's own run:
- A off the tag within 1e-15 of -9/2197 (about a thousand ulps), and C
  within 1e-12 of 6;
- along the general flow, A within 1e-12 and C within 1e-11 of the
  start's values.
At rng seed 5 the tag gives A = float(-9/2197) exactly and
C = 5.999999999999999; the worst ``verify`` residual is 3.6e-7; the flow
stops at its coframe degeneration (t = 0.226, 24 samples) with drift
1.1e-16 in A and 3.5e-14 in C.  The test takes about 0.1 s.
"""

import json
import math
from fractions import Fraction

import numpy as np

from esasaki.cli import main
from esasaki.evolution import CaseIIIState, CaseIIState
from esasaki.structures import IdStructure, gauge, normal_form
from test_structures import random_so3

YPQ_LEVEL, YPQ_C = Fraction(-9, 2197), 6


def run(args):
    return main([str(a) for a in args])


def _read(path):
    return json.loads(path.read_text())


def _conjugate(structure: IdStructure, rng) -> IdStructure:
    return IdStructure(gauge(structure.matrix, random_so3(rng), float(rng.uniform(0, 2 * math.pi)), -1), structure.m)


def _level_and_C(tag: dict) -> tuple:
    h, a1, a4 = tag["h"], tag["a1"], tag["a4"]
    return 4 * h**6 - h**4 + (a1 * h) ** 2, a4 / a1


def _orbit_data(out):
    family = _read(out / "verdict.json")["verdict"]["family"]
    diagram = _read(out / "diagram.json")
    ends = tuple((family[end]["q"], family[end]["sigma"]) for end in ("minus", "plus"))
    return ends, diagram["K_order"], diagram["pi1_order"]


def test_initial_data_to_classification_curvature_and_flow(tmp_path):
    rng = np.random.default_rng(5)
    start = _conjugate(CaseIIState.from_A(0.3, float(YPQ_LEVEL), YPQ_C, 0).to_id_structure(), rng)
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(start.to_json_dict()))

    assert run(["normal-form", "--input", eta, "--out", tmp_path / "nf"]) == 0
    tag = _read(tmp_path / "nf" / "normal_form.json")["tag"]
    assert tag["variant"] == "GoGivingYpq"
    A, C = _level_and_C(tag)
    assert abs(A - float(YPQ_LEVEL)) <= 1e-15
    assert abs(C - YPQ_C) <= 1e-12

    exact = tmp_path / "exact"
    assert run(["extend-check", f"--A={YPQ_LEVEL}", "--C", YPQ_C, "--m", 0, "--arith", "rational", "--out", exact]) == 0
    chained = tmp_path / "chained"
    assert run(["extend-check", f"--A={A!r}", "--C", repr(C), "--m", tag["m"], "--out", chained]) == 0
    assert _orbit_data(chained) == _orbit_data(exact) == (((2, 14), (6, 10)), 70, 2)

    assert run(["verify", f"--A={A!r}", "--C", repr(C), "--out", tmp_path / "verify"]) == 0

    flow_dir = tmp_path / "flow"
    assert run(["evolve", "--case", "general", "--input", eta, "--out", flow_dir]) == 0
    flow = _read(flow_dir / "flow.json")
    assert flow["stopped_reason"] == "coframe degenerate"
    rows = flow["coefficients"]
    assert len(rows) >= 10
    for row in rows[:: len(rows) // 5]:
        state_tag = normal_form(IdStructure(np.array(row).reshape(4, 4), tag["m"]))[0].to_json_dict()
        assert state_tag["variant"] == "GoGivingYpq"
        A_t, C_t = _level_and_C(state_tag)
        assert abs(A_t - A) <= 1e-12
        assert abs(C_t - C) <= 1e-11


def test_five_parameter_initial_data_to_rejection(tmp_path):
    # the normal form diagonalizes the (eta2, eta3) block on (e2, e3), so
    # its representative has b = 0 and the tag's (h, k, c, a) with b = 0
    # start a flow gauge-equivalent to the one of the original data
    state = CaseIIIState(0.4, 0.3, 0.05, 0.1, 0.2)
    start = _conjugate(state.to_id_structure(1), np.random.default_rng(5))
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(start.to_json_dict()))
    assert run(["normal-form", "--input", eta, "--out", tmp_path / "nf"]) == 0
    tag = _read(tmp_path / "nf" / "normal_form.json")["tag"]
    assert tag["variant"] == "GoGivingNothing"

    def verdict(h0, k0, b0, c0, a0, out):
        argv = ["extend-check", "--case-iii", "--h0", repr(h0), "--k0", repr(k0), f"--b0={b0!r}",
                f"--c0={c0!r}", "--a0", repr(a0), "--out", out]
        assert run(argv) == 1
        report = _read(out / "verdict.json")["report"]
        return report["notes"], {
            end: (rep["pass"], sorted(c["name"] for c in rep["conditions"] if not c["pass"]))
            for end, rep in report["end_reports"].items()
        }

    chained = verdict(tag["h"], tag["k"], 0.0, tag["c"], tag["a"], tmp_path / "chained")
    explicit = verdict(state.h, state.k, state.b, state.c, state.a, tmp_path / "explicit")
    assert chained == explicit
    notes, ends = chained
    assert notes == "lower: circle_v_vanishes, circle_v_log_derivative_nonnegative"
    assert ends["lower"] == (False, ["circle_v_log_derivative_nonnegative", "circle_v_vanishes"])
