import csv
import dataclasses
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from esasaki import cli, evolution, geometry, moduli
from esasaki.cli import main
from esasaki.evolution import CaseIIState
from diagram_oracle import described_elements, fraction_diagram


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# evolve


def test_evolve_case_ii_monotone_h(tmp_path):
    code = run(["evolve", "--case", "ii", "--h0", "0.3", "--A=-9/2197", "--C", "6",
                "--t1", "1.0", "--step", "1e-3", "--out", tmp_path])
    assert code == 0
    rows = (tmp_path / "flow.csv").read_text().splitlines()
    header = rows[0].split(",")
    col = header.index("eta2_2")  # the e2 coefficient of eta2 is h
    hs = [float(r.split(",")[col]) for r in rows[1:]]
    assert all(h2 > h1 for h1, h2 in zip(hs, hs[1:]))


def test_evolve_case_i_closed_form_samples(tmp_path):
    code = run(["evolve", "--case", "i", "--k", "1", "--m", "0", "--t1", "0.5",
                "--step", "0.01", "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "flow.json").read_text())
    first = data["coefficients"][0]
    assert first[0] == pytest.approx(1 / 3)
    assert first[3] == pytest.approx(1.0)
    assert max(max(r) for r in data["residuals"]) < 1e-12


def test_evolve_case_iii_writes_flow_with_drift(tmp_path):
    code = run(["evolve", "--case", "iii", "--h0", "0.4", "--k", "0.3", "--b0", "0",
                "--c0", "0.1", "--a0", "0.2", "--t1", "0.5", "--step", "1e-3", "--out", tmp_path])
    assert code == 0
    header = (tmp_path / "flow.csv").read_text().splitlines()[0].split(",")
    assert "drift_lambda" in header and "drift_mu" in header
    data = json.loads((tmp_path / "flow.json").read_text())
    assert max(data["drift"]["lambda"]) < 1e-8


@pytest.mark.parametrize("weight", [None, "flag", "config"])
def test_evolve_case_iii_honours_an_explicit_weight_0(tmp_path, weight):
    # m = 0 from a flag or a config file is kept; without --m it is 1.
    # The e4 coefficient of eta0 is -m/3
    argv = ["evolve", "--case", "iii", "--h0", "0.4", "--k", "0.3", "--c0", "0.1", "--a0", "0.2", "--t1", "0.1"]
    if weight == "flag":
        argv += ["--m", "0"]
    elif weight == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"m": 0}))
        argv = ["--config", config, *argv]
    assert run([*argv, "--out", tmp_path / "out"]) == 0
    m = 1 if weight is None else 0
    assert json.loads((tmp_path / "out" / "flow.json").read_text())["meta"]["m"] == m
    with open(tmp_path / "out" / "flow.csv") as fh:
        assert {float(row["eta0_4"]) for row in csv.DictReader(fh)} == {-m / 3.0}


def test_evolve_general_happy_path(tmp_path):
    eta = CaseIIState(0.38, 0.1, 6.0, 0).to_id_structure()
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(eta.to_json_dict()))
    code = run(["evolve", "--case", "general", "--input", path, "--t1", "0.1",
                "--step", "1e-3", "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "flow.json").read_text())
    assert max(data["consistency"]) < 1e-9


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_contains_rational_family(tmp_path):
    assert run(["enumerate", "--bound", "13", "--out", tmp_path]) == 0
    text = (tmp_path / "families.csv").read_text()
    assert "1/13,3/13,-9/2197" in text


def test_enumerate_small_bound_empty_table(tmp_path):
    assert run(["enumerate", "--bound", "2", "--out", tmp_path]) == 0
    rows = (tmp_path / "families.csv").read_text().splitlines()
    assert len(rows) == 1  # header only


def test_enumerate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["enumerate", "--bound", "31", "--out", out1])
    run(["enumerate", "--bound", "31", "--out", out2])
    assert (out1 / "families.csv").read_bytes() == (out2 / "families.csv").read_bytes()
    assert (out1 / "families.json").read_bytes() == (out2 / "families.json").read_bytes()


# ---------------------------------------------------------------------------
# verify


def test_verify_sphere_level(tmp_path):
    code = run(["verify", "--A", "0", "--points", "3", "--out", tmp_path, "--seed", "1"])
    assert code == 0
    data = json.loads((tmp_path / "curvature.json").read_text())
    assert all(rep["einstein_residual"] <= 1e-4 for rep in data["reports"])


def test_verify_rational_family(tmp_path):
    code = run(["verify", "--A=-9/2197", "--C", "6", "--points", "3", "--out", tmp_path])
    assert code == 0


def test_verify_rejects_A_outside_interval(tmp_path, capsys):
    code = run(["verify", "--A=-0.02", "--points", "2", "--out", tmp_path])
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_verify_reports_worst_offender_on_failure(tmp_path, capsys):
    code = run(["verify", "--A", "0", "--points", "2", "--out", tmp_path, "--tol", "1e-15"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_verify_step_scales_with_a_narrow_band(tmp_path):
    # the y-band of this family is 0.249 wide: a fixed step of 1e-3 gave
    # a residual of 1.1e-4 on this correct metric
    argv = ["verify", "--A=-63504/7189057", "--C", "1", "--points", "3", "--seed", "335484"]
    assert run(argv + ["--out", tmp_path]) == 0
    meta = json.loads((tmp_path / "curvature.json").read_text())["meta"]
    y_lo, y_hi = geometry.ypq_chart(-63504 / 7189057).box[2]
    assert meta["fd_step"] == (y_hi - y_lo) / 400 < 1e-3
    # a wide band keeps 1e-3, and an explicit step is used as given
    assert run(["verify", "--A=-9/2197", "--C", "6", "--points", "1", "--out", tmp_path]) == 0
    assert json.loads((tmp_path / "curvature.json").read_text())["meta"]["fd_step"] == 1e-3
    assert run(argv + ["--fd-step", "2e-3", "--out", tmp_path]) == 1
    assert json.loads((tmp_path / "curvature.json").read_text())["meta"]["fd_step"] == 2e-3


@pytest.mark.parametrize("points", [3, 40])
def test_curvature_json_holds_json_dump_bytes(tmp_path, points):
    # the reports stream to the file one at a time; 40 points span two
    # batches of stencils
    assert 3 < geometry._BLOCK < 40
    assert run(["verify", "--A=-9/2197", "--C", "6", "--points", points, "--out", tmp_path]) == 0
    assert len(json_dump_content(tmp_path / "curvature.json")["reports"]) == points


def test_verify_deterministic(tmp_path):
    for i, argv in enumerate([
        ["--A", "0", "--points", "2", "--seed", "3"],
        ["--A=-9/2197", "--C", "6", "--points", "3", "--seed", "5"],
    ]):
        out1, out2 = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert run(["verify", *argv, "--out", out1]) == 0
        assert run(["verify", *argv, "--out", out2]) == 0
        assert (out1 / "curvature.csv").read_bytes() == (out2 / "curvature.csv").read_bytes()
        assert (out1 / "curvature.json").read_bytes() == (out2 / "curvature.json").read_bytes()


# ---------------------------------------------------------------------------
# extend-check


def test_extend_check_round_branch(tmp_path):
    code = run(["extend-check", "--A", "0", "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "verdict.json").read_text())
    assert data["verdict"]["branch"] == "RoundSphereBranch"
    assert data["end_reports"]["lower"]["pass"]
    assert data["end_reports"]["upper"]["pass"]


def test_extend_check_ypq_branch_with_diagram(tmp_path):
    code = run(["extend-check", "--A=-9/2197", "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "verdict.json").read_text())
    assert data["verdict"]["branch"] == "YpqBranch"
    assert (tmp_path / "diagram.json").exists()
    diagram = json.loads((tmp_path / "diagram.json").read_text())
    assert diagram["K_order"] == 70
    assert data["end_reports"]["lower"]["pass"]
    assert data["end_reports"]["upper"]["pass"]


def test_extend_check_lists_a_large_group_K(tmp_path):
    # S = 576/1729 at C = 6: K has about 10^4 elements, which diagram.json
    # describes by N, its step and its offset
    A = "-47610000/5168743489"
    assert run(["extend-check", f"--A={A}", "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path]) == 0
    family = json.loads((tmp_path / "verdict.json").read_text())["verdict"]["family"]
    diagram = json.loads((tmp_path / "diagram.json").read_text())
    assert diagram["K_order"] == 10366 and "K_elements" not in diagram
    assert diagram["intersection_orders"] == {"minus": family["minus"]["sigma"], "plus": family["plus"]["sigma"]}
    assert (family["minus"]["sigma"], family["plus"]["sigma"]) == (146, 142)
    assert diagram["N"] == math.lcm(2, 146, 142)
    _, elements, _ = fraction_diagram(moduli.classify_A(Fraction(A), Fraction(6), 0).family)
    assert described_elements(Fraction(diagram["K_step"]), Fraction(diagram["K_offset"])) == elements


def test_extend_check_describes_a_million_element_K_in_bounded_time(tmp_path):
    # a valid two-root family whose group K has 1,000,818 elements: listing
    # them took 5-8 s and wrote 36 MB; the bound of 0.5 s is far above the
    # command's time when nothing grows with |K|
    start = time.perf_counter()
    code = run(["extend-check", "--A=-11905639707025/1610339369154876", "--C", "1", "--m", "0", "--arith", "rational",
                "--out", tmp_path])
    elapsed = time.perf_counter() - start
    assert code == 0
    diagram = json_dump_content(tmp_path / "diagram.json")
    assert diagram["K_order"] == 1_000_818 and "K_elements" not in diagram
    assert (tmp_path / "diagram.json").stat().st_size < 1000
    assert elapsed < 0.5


def json_dump_content(path) -> dict:
    """The content of a JSON file, which must hold the bytes that
    json.dump(indent=1, sort_keys=True) writes of it."""
    text = path.read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=1, sort_keys=True)
    return data


def check_diagram_bytes(out, A, C, m) -> None:
    """diagram.json holds json.dump's bytes of the family's diagram, and
    verdict.json those of its own content, which leaves K out."""
    verdict = json_dump_content(out / "verdict.json")
    family = moduli.classify_A(Fraction(A), Fraction(C), m).family
    expected = json.dumps(moduli.build_diagram(family).to_json_dict(), indent=1, sort_keys=True)
    assert (out / "diagram.json").read_text() == expected
    assert "diagram" not in verdict


@pytest.mark.parametrize("C", ["6", "2"])
def test_diagram_and_verdict_bytes_of_every_enumerated_family(tmp_path, C):
    families = moduli.enumerate_rational_families(200)
    assert len(families) == 18
    for n, fam in enumerate(families):
        out = tmp_path / str(n)
        run(["extend-check", f"--A={fam.A}", "--C", C, "--m", "0", "--arith", "rational", "--out", out])
        check_diagram_bytes(out, fam.A, C, 0)


@pytest.mark.parametrize("A", ["-47610000/5168743489", "-2025/3014284"], ids=["large-K", "S-25-91"])
def test_diagram_and_verdict_bytes_of_a_large_K_and_a_small_lower_end(tmp_path, A):
    assert run(["extend-check", f"--A={A}", "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path]) == 0
    check_diagram_bytes(tmp_path, A, 6, 0)


def test_verdict_bytes_with_a_diagram_error(tmp_path):
    assert run(["extend-check", "--A=-9/2197", "--C", "5", "--m", "1", "--arith", "rational", "--out", tmp_path]) == 1
    verdict = json_dump_content(tmp_path / "verdict.json")
    assert "diagram_error" in verdict and "diagram" not in verdict
    assert not (tmp_path / "diagram.json").exists()


def test_extend_check_no_extension_exits_1(tmp_path, capsys):
    code = run(["extend-check", "--A=-1/108", "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path])
    assert code == 1
    assert "FAIL" in capsys.readouterr().err


def test_extend_check_round_branch_with_unreconstructed_C_exits_1(tmp_path, capsys):
    # repr(3/1234567): the circle-end ratio is rational, C is not within
    # the denominator bound
    code = run(["extend-check", "--A", "0", "--C", "2.4300017010070126e-06", "--out", tmp_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("FAIL: no rational orbit ratio")
    verdict = json.loads((tmp_path / "verdict.json").read_text())["verdict"]
    assert verdict["branch"] == "NoCompactExtension"


def test_extend_check_with_C_reconstructed_to_minus_m_exits_1(tmp_path, capsys):
    # C = 1e-14 reconstructs to 0 = -m: the degenerate coframe is named,
    # not an orbit witness built from one C and checked against another
    assert run(["extend-check", "--A=-9/2197", "--C=1e-14", "--m", "0", "--out", tmp_path]) == 1
    assert capsys.readouterr().err.startswith("FAIL: C + m = 0 degenerates the coframe")
    verdict = json.loads((tmp_path / "verdict.json").read_text())["verdict"]
    assert verdict["branch"] == "NoCompactExtension" and verdict["family"] is None


def test_extend_check_case_iii_always_rejects(tmp_path):
    code = run(["extend-check", "--case-iii", "--h0", "0.4", "--k0", "0.3", "--b0", "0",
                "--c0", "0.1", "--a0", "0.2", "--step", "1e-3", "--out", tmp_path])
    assert code == 1
    data = json.loads((tmp_path / "verdict.json").read_text())
    assert data["branch"] == "Reject"
    assert not data["report"]["pass"]


def test_extend_check_exits_1_when_the_diagram_cannot_be_built(tmp_path, capsys):
    code = run(["extend-check", "--A=-9/2197", "--C", "5", "--m", "1", "--arith", "rational", "--out", tmp_path])
    assert code == 1
    data = json.loads((tmp_path / "verdict.json").read_text())
    assert "diagram_error" in data
    assert "FAIL: diagram:" in capsys.readouterr().err


def test_extend_check_exits_1_when_an_end_report_fails(tmp_path, capsys, monkeypatch):
    from esasaki import boundary

    real = boundary.check_circle_branch

    def failing_lower(series, q, sigma, C, m, **kwargs):
        rep = real(series, q, sigma, C, m, **kwargs)
        if sigma == 14:  # the lower end of A = -9/2197 at C = 6
            rep.conditions.append(boundary.ConditionCheck("forced", 1.0, 0.0, 0.0, False))
        return rep

    monkeypatch.setattr(boundary, "check_circle_branch", failing_lower)
    code = run(["extend-check", "--A=-9/2197", "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path])
    assert code == 1
    data = json.loads((tmp_path / "verdict.json").read_text())
    assert not data["end_reports"]["lower"]["pass"]
    assert data["end_reports"]["upper"]["pass"]
    assert capsys.readouterr().err.startswith("FAIL: lower:forced")


def test_conformal_extend_check_integrates_nothing(tmp_path, monkeypatch):
    # the conformal ends are decided from series and a closed form; the
    # case-iii run shows that the counter sees the integrator, and that
    # its profiles are short legs off the two boundary marches
    from esasaki import boundary, evolution

    steps = []
    real = evolution.rk4_step

    def counted(*args):
        steps.append(1)
        return real(*args)

    monkeypatch.setattr(evolution, "rk4_step", counted)
    monkeypatch.setattr(boundary, "rk4_step", counted)
    for A in ("--A=-9/2197", "--A=0"):
        assert run(["extend-check", A, "--C", "6", "--m", "0", "--arith", "rational", "--out", tmp_path]) == 0
    assert len(steps) == 0
    assert run(["extend-check", "--case-iii", "--step", "2e-3", "--out", tmp_path]) == 1
    assert 0 < len(steps) <= 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["extend-check", "--A=-9/2197", "--C", "6", "--m", "0", "--arith", "rational"],
        ["extend-check", "--A=0", "--C", "6", "--m", "0", "--arith", "rational"],
        ["extend-check", "--case-iii", "--h0", "0.4", "--k0", "0.3", "--c0", "0.1", "--a0", "0.2"],
        ["evolve", "--case", "i", "--k", "1", "--m", "0"],
        ["evolve", "--case", "ii", "--h0", "0.3", "--A=-9/2197", "--C", "6"],
        ["normal-form", "--input", "{eta}"],
    ],
    ids=["extend-ypq", "extend-round", "extend-case-iii", "evolve-i", "evolve-ii", "normal-form"],
)
def test_reruns_are_byte_identical(tmp_path, argv):
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(CaseIIState(0.35, 0.22, 6.0, 0).to_id_structure().to_json_dict()))
    argv = [a.format(eta=eta) for a in argv]
    outs = [tmp_path / "a", tmp_path / "b"]
    codes = [run(argv + ["--out", out]) for out in outs]
    assert codes[0] == codes[1]
    files = sorted(p.name for p in outs[0].iterdir())
    assert files and files == sorted(p.name for p in outs[1].iterdir())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# input errors


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--bound", "1"],
        ["--config", "{missing}", "enumerate", "--bound", "13"],
        ["verify", "--A=abc"],
        ["extend-check", "--case-iii", "--h0", "0.4", "--k0", "0.4", "--b0", "0.1", "--c0", "-0.1"],
        ["evolve", "--case", "ii", "--h0", "0.3", "--a0", "0.1", "--step", "0"],
        ["evolve", "--case", "i", "--k", "nan"],
        ["evolve", "--case", "ii", "--h0", "inf", "--a0", "0.1"],
        ["evolve", "--case", "iii", "--h0", "0.4", "--a0", "0.2", "--record-every", "0"],
        ["verify", "--A", "0", "--fd-step", "0", "--points", "1"],
        ["verify", "--A", "0", "--fd-step=-1e-3", "--points", "1"],
        ["enumerate"],
        ["verify", "--A", "0.5"],
        ["extend-check", "--C", "6"],
        ["evolve", "--case", "general", "--input", "{bad}", "--t1", "0.2"],
        ["verify", "--A", "0", "--points", "0"],
        ["verify", "--A", "0", "--points", "-3"],
        ["evolve", "--case", "i", "--t0", "1", "--t1", "0"],
        ["evolve", "--case", "general", "--input", "{eta}", "--t0", "0", "--t1", "0"],
        ["evolve", "--case", "general", "--input", "{eta}", "--t0", "0.1", "--t1", "0"],
        ["evolve", "--case", "i", "--record-every", "0"],
        ["evolve", "--case", "ii", "--a0", "0.1"],
        ["evolve", "--case", "iii", "--h0", "0.4"],
        ["evolve", "--case", "i", "--k", "1/0"],
        ["evolve", "--case", "ii", "--h0", "1e308", "--a0", "0.3"],
        ["evolve", "--case", "i", "--t1", "1e9"],
        ["evolve", "--case", "i", "--t0=-1e308", "--t1", "1e308"],
        ["evolve", "--case", "iii", "--h0", "0.1", "--k", "-0.1", "--b0", "0.5", "--c0", "-0.5", "--a0", "0.2"],
        ["evolve", "--case", "ii", "--h0", "0.3", "--A=-9/2197", "--C", "6", "--step", "1e-9"],
        ["evolve", "--case", "iii", "--h0", "0.4", "--a0", "0.2", "--step", "1e-9"],
        ["evolve", "--case", "general", "--input", "{eta}", "--step", "1e-9"],
        ["evolve", "--case", "ii", "--h0", "0", "--A", "0.3"],
        ["evolve", "--case", "ii", "--h0", "0.05", "--A=0.01", "--t1", "3", "--step", "0.7"],
    ],
    ids=[
        "bound-1", "missing-config", "A-abc", "case-ii-in-disguise", "step-0", "k-nan", "h0-inf", "every-0",
        "fd-step-0", "fd-step-negative", "no-bound", "A-outside-band", "no-A", "non-solution",
        "points-0", "points-negative", "case-i-backward-span", "general-empty-span", "general-backward-span",
        "case-i-every-0", "case-ii-no-h0", "case-iii-no-a0", "zero-denominator", "h0-overflows",
        "case-i-too-many-samples", "case-i-span-overflows", "case-iii-u-zero", "case-ii-too-many-steps",
        "case-iii-too-many-steps", "general-too-many-steps", "case-ii-h0-zero", "case-ii-coarse-step",
    ],
)
def test_input_errors_exit_2_without_traceback(tmp_path, capsys, argv):
    bad = {"eta": [[0.3333, 0, 0, 1], [0, 0, 0, 1], [0, 0.40824829, 0, 0], [0, 0, 0.40824829, 0]], "m": 0}
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    (tmp_path / "eta.json").write_text(json.dumps(CaseIIState(0.38, 0.1, 6.0, 0).to_id_structure().to_json_dict()))
    argv = [a.format(missing=tmp_path / "missing.json", bad=tmp_path / "bad.json", eta=tmp_path / "eta.json")
            for a in argv]
    assert run(argv + ["--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "flow.csv").exists()
    assert not list(tmp_path.glob("curvature.*"))
    assert not (tmp_path / "diagram.json").exists() and not (tmp_path / "verdict.json").exists()


def test_evolve_case_i_sample_bound(tmp_path, capsys, monkeypatch):
    # at the default step, t1 = 0.01 takes 11 samples and t1 = 0.011 takes 12
    monkeypatch.setattr(evolution, "CASE_I_MAX_SAMPLES", 11)
    assert run(["evolve", "--case", "i", "--t1", "0.01", "--out", tmp_path / "a"]) == 0
    assert len((tmp_path / "a" / "flow.csv").read_text().splitlines()) == 1 + 11
    assert run(["evolve", "--case", "i", "--t1", "0.011", "--out", tmp_path / "b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "limit of 11 samples" in err
    assert not (tmp_path / "b" / "flow.csv").exists()


def test_case_iii_march_counts_its_steps_against_the_limit(tmp_path, capsys, monkeypatch):
    from esasaki import boundary

    monkeypatch.setattr(boundary, "CASE_I_MAX_SAMPLES", 2000)
    argv = ["extend-check", "--case-iii"]
    # the ends lie at t* = 0.84 and -0.13: at step 1e-3 both marches fit
    assert run(argv + ["--out", tmp_path / "a"]) == 1
    assert run(argv + ["--step", "1e-4", "--out", tmp_path / "b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: case iii: the march toward the upper end tried more than 2000 steps")
    assert not (tmp_path / "b").exists()


def test_evolve_case_i_keeps_a_step_below_1e_6(tmp_path):
    # 5e-5 / 5e-7 = 100 steps: 101 samples 5e-7 apart
    assert run(["evolve", "--case", "i", "--t1", "5e-5", "--step", "5e-7", "--out", tmp_path]) == 0
    data = json.loads((tmp_path / "flow.json").read_text())
    assert len(data["times"]) == 101
    assert max(abs(b - a - 5e-7) for a, b in zip(data["times"], data["times"][1:])) < 1e-18
    assert data["meta"]["step"] == 5e-7


def test_evolve_meta_keeps_each_case_key_order(tmp_path):
    assert run(["evolve", "--case", "i", "--t1", "0.01", "--out", tmp_path / "i"]) == 0
    assert run(["evolve", "--case", "ii", "--h0", "0.3", "--a0", "0.1", "--t1", "0.01", "--out", tmp_path / "ii"]) == 0
    meta = {case: list(json.loads((tmp_path / case / "flow.json").read_text())["meta"]) for case in ("i", "ii")}
    assert meta["i"] == ["seed", "arith", "tol", "step", "family", "k", "m"]
    assert meta["ii"] == ["step", "family", "C", "m", "A", "seed", "arith", "tol"]


# number-like flag values: valid, boundary, non-finite and malformed
_NUMBERS = st.sampled_from(
    ["0.3", "0.2", "0.45", "1", "0", "-0.1", "1e-3", "-9/2197", "2/7", "1/0", "nan", "inf", "-inf", "1e308", "abc", ""]
)
_COFRAMES = {
    "case-ii": CaseIIState(0.38, 0.1, 6.0, 0).to_id_structure().to_json_dict(),
    "exact": {"eta": [["24/245", "-64/245", "192/1225", "-8/75"], ["3/196", "-2/49", "6/245", "2/5"],
                      ["880/2597", "-6/12985", "-552/2597", "0"], ["2256/12985", "600/2597", "718/2597", "0"]],
              "m": 0},
    "identity": {"eta": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "m": 0},
    "short-row": {"eta": [[1, 0], [0, 1], [0, 0], [0, 0]], "m": 0},
    "no-eta": {"m": 0},
    "list": [1, 2, 3],
    "null-entry": {"eta": [[None, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    "bad-m": {"eta": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "m": "x"},
    # solutions for m = 0 and m = 1 were m truncated to an integer
    "fractional-m": {**CaseIIState(0.38, 0.1, 6.0, 0).to_id_structure().to_json_dict(), "m": 0.5},
    "bool-m": {**CaseIIState(0.38, 0.1, 6.0, 1).to_id_structure().to_json_dict(), "m": True},
    # a solution were false read as the coefficient 0.0 it stands in for
    "bool-entry": {"eta": [[0.2888, False, 0.0, -0.2671999999999999], [0.1, 0.0, 0.0, 0.6000000000000001],
                           [0.0, 0.38, 0.0, 0.0], [0.0, 0.0, 0.38, 0.0]], "m": 0},
    "nan-entry": {"eta": [[math.nan, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "m": 0},
    "zero-denominator": {"eta": [["1/0", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "m": 0},
}


@st.composite
def _evolve_argv(draw):
    argv = ["evolve", "--case", draw(st.sampled_from(["i", "ii", "iii", "general"]))]
    for flag in ("--k", "--h0", "--a0", "--A", "--C", "--b0", "--c0"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(_NUMBERS)}")
    if draw(st.booleans()):
        argv += ["--m", draw(st.sampled_from(["0", "1", "3", "-2", "x"]))]
    # spans of at most a few steps keep every example fast
    t0 = draw(st.sampled_from([0.0, 0.1, -0.05]))
    argv += ["--t0", repr(t0), "--t1", repr(t0 + draw(st.sampled_from([0.05, 0.02, 0.0, -0.02])))]
    argv += ["--step", draw(st.sampled_from(["0.01", "0.025", "0", "-1e-3", "nan"]))]
    if draw(st.booleans()):
        argv += ["--record-every", draw(st.sampled_from(["1", "3", "0", "-1"]))]
    if draw(st.booleans()):
        argv += ["--input", f"{{{draw(st.sampled_from(sorted(_COFRAMES) + ['missing']))}}}"]
    if draw(st.booleans()):
        argv += ["--arith", "rational"]
    return argv


_NORMAL_FORM_ARGV = st.builds(
    lambda name, arith: ["normal-form", "--input", f"{{{name}}}"] + arith,
    st.sampled_from(sorted(_COFRAMES) + ["missing", "garbage"]),
    st.sampled_from([[], ["--arith", "rational"]]),
)


def _mixed(good: list, bad: list):
    """A flag value, valid half of the time."""
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


# conformal levels: Y^{p,q} families, A = 0, an A with irrational turning
# values, the double root, A > 0 and malformed values.  C is a small
# rational (denominator <= 50), so no example builds a large K.
_LEVELS = _mixed(["-9/2197", "0", "-9/1372", "-25/9261", "-79/81143", "-0.004"],
                 ["-1/108", "6/20027", "0.1", "nan", "inf", "1/0", "abc", ""])
_SMALL_C = st.one_of(st.fractions(-3, 12, max_denominator=50).map(str),
                     st.sampled_from(["0", "nan", "1/0", "x", repr(3 / 1234567)]))
_ARITH = st.sampled_from([[], ["--arith", "rational"]])


def _flags(draw, values: dict) -> list:
    """Each of ``values`` (flag -> strategy) drawn or left out."""
    return [f"{flag}={draw(strategy)}" for flag, strategy in values.items() if draw(st.booleans())]


@st.composite
def _verify_argv(draw):
    argv = ["verify", f"--A={draw(_LEVELS)}", f"--C={draw(_SMALL_C)}"]
    argv += _flags(draw, {"--points": _mixed(["1", "2"], ["0", "-1", "x"]),
                          "--fd-step": _mixed(["1e-3", "2e-4"], ["0", "-1e-3", "nan"]),
                          "--tol": _mixed(["1e-4", "1e-12"], ["0", "inf"]),
                          "--seed": _mixed(["0", "7"], ["-1"])})
    return argv + draw(_ARITH)


@st.composite
def _extend_check_argv(draw):
    if draw(st.booleans()):
        argv = ["extend-check", f"--A={draw(_LEVELS)}", f"--C={draw(_SMALL_C)}"]
        return argv + _flags(draw, {"--m": _mixed(["0", "1"], ["3", "-2", "x"])}) + draw(_ARITH)
    # case iii integrates toward both ends: a coarse step keeps it short
    argv = ["extend-check", "--case-iii", f"--step={draw(_mixed(['4e-3', '2e-3'], ['0', 'nan']))}"]
    start = st.one_of(st.sampled_from(["0.4", "0.3", "0.2", "0.1", "0.05"]), _NUMBERS)
    return argv + _flags(draw, {flag: start for flag in ("--h0", "--k0", "--b0", "--c0", "--a0")})


@st.composite
def _enumerate_argv(draw):
    argv = ["enumerate", f"--bound={draw(_mixed(['2', '13', '31', '100'], ['1', '0', '-5', 'x']))}"]
    return argv + _flags(draw, {"--m": _mixed(["0", "1", "3"], ["6", "-2", "x"])}) + draw(_ARITH)


# --config files: flag defaults of every JSON type, and files that hold
# no JSON object
_CONFIGS = {
    "config-ok": {"seed": 3, "tol": 1e-3, "bound": 13, "points": 1, "m": 0},
    "config-strings": {"seed": "2", "step": "4e-3", "fd-step": "2e-4", "C": "1/2"},
    "config-switch": {"case_iii": True, "step": 4e-3},
    "config-no-switch": {"case-iii": False},
    "config-points": {"points": 2.5},
    "config-bound": {"bound": 3.5},
    "config-seed": {"seed": 1.5},
    "config-m": {"m": 0.5},
    "config-tol": {"tol": [1]},
    "config-inf": {"step": 1e400},
    "config-null": {"out": None},
    "config-bool": {"out": True},
    "config-switch-number": {"case_iii": 1},
    "config-list": [1, 2],
    "config-string": "enumerate",
}
# drawn config files: keys the flags take, a misspelling and the removed
# normal-form --output, with values of every JSON type
_CONFIG_KEYS = ("seed", "seeed", "output", "tol", "step", "arith", "bound", "points", "m", "case-iii", "record_every",
                "C")
_DRAWN_CONFIGS = st.dictionaries(st.sampled_from(_CONFIG_KEYS),
                                 st.sampled_from([0, 1, 2, 0.5, "4e-3", "1/2", "x", True, None]), max_size=3)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    argv=st.one_of(_evolve_argv(), _NORMAL_FORM_ARGV, _verify_argv(), _extend_check_argv(), _enumerate_argv()),
    config=st.one_of(st.none(), st.sampled_from(sorted(_CONFIGS)), _DRAWN_CONFIGS),
)
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(tmp_path_factory, capsys, argv, config):
    tmp = tmp_path_factory.mktemp("fuzz")
    files = {**_COFRAMES, **_CONFIGS}
    if isinstance(config, dict):
        files["drawn"], config = config, "drawn"
    paths = {name: tmp / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_text(json.dumps(data))
    if config is not None:
        argv = ["--config", f"{{{config}}}"] + argv
    paths["missing"] = tmp / "missing.json"
    paths["garbage"] = tmp / "garbage.json"
    paths["garbage"].write_text("{not json")
    argv = [a.format(**paths) for a in argv]
    try:
        code = run(argv + ["--out", tmp / "out"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "name",
    [
        "short-row", "no-eta", "list", "null-entry", "bad-m", "fractional-m", "bool-m", "bool-entry", "nan-entry",
        "zero-denominator",
    ],
)
def test_malformed_coframe_files_exit_2(tmp_path, capsys, name):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(_COFRAMES[name]))
    for argv in (["normal-form", "--input", path], ["evolve", "--case", "general", "--input", path]):
        assert run(argv + ["--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        if name.endswith("-m"):
            assert f"m must be an integer, got {_COFRAMES[name]['m']!r}" in err


def test_verify_nan_residual_fails(tmp_path, capsys, monkeypatch):
    ricci_fd_many = geometry.ricci_fd_many

    def nan_residual(chart, points, fd_step):
        return [dataclasses.replace(rep, einstein_residual=math.nan) for rep in ricci_fd_many(chart, points, fd_step)]

    monkeypatch.setattr(geometry, "ricci_fd_many", nan_residual)
    assert run(["verify", "--A", "0", "--points", "2", "--out", tmp_path]) == 1
    assert capsys.readouterr().err.startswith("FAIL: Einstein residual nan")


@pytest.mark.parametrize("flag", ["--t1", "--step", "--tol"])
def test_non_finite_float_flags_are_usage_errors(tmp_path, flag):
    with pytest.raises(SystemExit) as exc:
        run(["evolve", "--case", "ii", "--h0", "0.3", "--a0", "0.1", flag, "inf", "--out", tmp_path])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# normal-form


def test_normal_form_subcommand(tmp_path):
    eta = CaseIIState(0.35, 0.22, 6.0, 0).to_id_structure()
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(eta.to_json_dict()))
    code = run(["normal-form", "--input", path, "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "normal_form.json").read_text())
    assert data["tag"]["variant"] == "GoGivingYpq"
    assert data["tag"]["h"] == pytest.approx(0.35)


def test_normal_form_rejects_non_solution(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"eta": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "m": 0}))
    assert run(["normal-form", "--input", path, "--out", tmp_path / "out"]) == 2
    # a rejected input leaves no output directory behind
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--A", "abc"],
        ["extend-check", "--A", "abc"],
        ["extend-check", "--case-iii", "--h0", "nan", "--k0", "0.3", "--c0", "0.1", "--a0", "0.2"],
        ["enumerate", "--bound", "1"],
        ["evolve", "--case", "iii", "--h0", "0.4", "--a0", "0.2", "--step", "1e-9"],
    ],
    ids=["verify", "extend-check", "extend-check-case-iii", "enumerate", "evolve-too-many-steps"],
)
def test_rejected_input_makes_no_out_directory(tmp_path, argv):
    assert run(argv + ["--out", tmp_path / "out"]) == 2
    assert not (tmp_path / "out").exists()


def test_normal_form_rejects_a_boolean_coefficient(tmp_path, capsys):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(_COFRAMES["bool-entry"]))
    assert run(["normal-form", "--input", path, "--out", tmp_path / "out"]) == 2
    assert "coefficient False is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# config file and rational parsing


@pytest.mark.parametrize(
    "name, argv",
    [
        ("config-list", ["enumerate", "--bound", "3"]),
        ("config-string", ["enumerate", "--bound", "3"]),
        ("config-points", ["verify", "--A", "0"]),
        ("config-bound", ["enumerate"]),
        ("config-seed", ["enumerate", "--bound", "3"]),
        ("config-m", ["enumerate", "--bound", "3"]),
        ("config-tol", ["enumerate", "--bound", "3"]),
        ("config-inf", ["enumerate", "--bound", "3"]),
        ("config-null", ["enumerate", "--bound", "3"]),
        ("config-bool", ["enumerate", "--bound", "3"]),
        ("config-switch-number", ["extend-check"]),
    ],
)
def test_malformed_config_files_exit_2(tmp_path, capsys, name, argv):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_CONFIGS[name]))
    try:
        code = run(["--config", path] + argv + ["--out", tmp_path])
    except SystemExit as exc:  # a value the flag's type rejects is a usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "families.csv").exists()


def test_config_file_defaults(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(tmp_path / "cfg_out"), "bound": 13}))
    assert run(["--config", config, "enumerate"]) == 0
    assert (tmp_path / "cfg_out" / "families.csv").exists()


def test_config_file_supplies_required_flags(tmp_path, capsys):
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(CaseIIState(0.35, 0.22, 6.0, 0).to_id_structure().to_json_dict()))
    cases = [
        ("A", {"A": "0"}, ["verify", "--points", "1"], 0),
        ("case", {"case": "i", "t1": 0.1, "step": 0.05}, ["evolve"], 0),
        ("input", {"input": str(eta)}, ["normal-form"], 0),
        # argparse checks choices on command-line values only
        ("case-iv", {"case": "iv"}, ["evolve"], 2),
    ]
    for name, data, argv, code in cases:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(data))
        assert run(["--config", config] + argv + ["--out", tmp_path / name]) == code, name
    assert "got 'iv'" in capsys.readouterr().err
    # with neither flag nor config value, each command names its flag
    for argv, flag in ((["verify"], "--A"), (["evolve"], "--case"), (["normal-form"], "--input")):
        assert run(argv + ["--out", tmp_path / "missing"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: need {flag}") and "Traceback" not in err


def test_consecutive_runs_share_no_flags_or_defaults(tmp_path, capsys):
    # the parser without --config is built once per process; no run may
    # see another run's flags or a config file's defaults
    assert cli._default_parser() is cli._default_parser()
    assert run(["evolve", "--case", "i", "--t1", "0.1", "--step", "0.05", "--seed", "7", "--tol", "0.5",
                "--out", tmp_path / "evolve"]) == 0
    assert json.loads((tmp_path / "evolve" / "flow.json").read_text())["meta"]["seed"] == 7
    assert run(["verify", "--A", "0", "--points", "1", "--out", tmp_path / "verify"]) == 0
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(tmp_path / "cfg_out"), "bound": 13, "seed": 5, "arith": "rational"}))
    assert run(["--config", config, "enumerate"]) == 0
    assert json.loads((tmp_path / "cfg_out" / "families.json").read_text())["meta"]["seed"] == 5
    assert run(["verify", "--A", "0", "--points", "1", "--out", tmp_path / "default"]) == 0
    for name in ("verify", "default"):
        meta = json.loads((tmp_path / name / "curvature.json").read_text())["meta"]
        assert (meta["seed"], meta["tol"], meta["step"], meta["arith"]) == (0, 1e-4, 1e-3, "float")
    assert (tmp_path / "verify" / "curvature.json").read_bytes() == (tmp_path / "default" / "curvature.json").read_bytes()
    capsys.readouterr()
    assert run(["enumerate", "--out", tmp_path / "no_bound"]) == 2  # the config's bound is gone
    assert "need --bound" in capsys.readouterr().err


def test_consecutive_config_files_each_give_only_their_own_defaults(tmp_path, capsys):
    # the --config pre-parser is built once per process too; two runs with
    # different config files and one without see only their own defaults
    assert cli._config_parser() is cli._config_parser()
    configs = {
        "first": {"out": str(tmp_path / "first"), "bound": 13, "seed": 5, "arith": "rational"},
        "second": {"out": str(tmp_path / "second"), "seed": 9, "tol": 1e-3, "step": 4e-3},
    }
    for name, data in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    assert run(["--config", tmp_path / "first.json", "enumerate"]) == 0
    assert run(["--config", tmp_path / "second.json", "enumerate", "--bound", "11"]) == 0
    assert run(["enumerate", "--bound", "11", "--out", tmp_path / "none"]) == 0
    expected = {"first": (5, 1e-4, 1e-3, "rational", 13), "second": (9, 1e-3, 4e-3, "float", 11),
                "none": (0, 1e-4, 1e-3, "float", 11)}
    for name, values in expected.items():
        data = json.loads((tmp_path / name / "families.json").read_text())
        meta = data["meta"]
        assert (meta["seed"], meta["tol"], meta["step"], meta["arith"], meta["bound"]) == values, name
    capsys.readouterr()
    assert run(["enumerate", "--out", tmp_path / "no_bound"]) == 2  # no config file's bound is left
    assert "need --bound" in capsys.readouterr().err


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_global_flags_beat_the_config_file_in_either_position(tmp_path, before):
    def argv(config, command, flags):
        return ["--config", config, *flags, *command] if before else ["--config", config, *command, *flags]

    config = tmp_path / "seed.json"
    config.write_text(json.dumps({"seed": 5, "bound": 13}))
    assert run(argv(config, ["enumerate"], ["--seed", "7", "--out", tmp_path / "enumerate"])) == 0
    assert json.loads((tmp_path / "enumerate" / "families.json").read_text())["meta"]["seed"] == 7
    # a residual near 1e-7 passes at the file's tol and fails at the flag's
    config = tmp_path / "tol.json"
    config.write_text(json.dumps({"tol": 0.5}))
    verify = ["verify", "--A=-9/2197", "--C", "6", "--points", "1"]
    assert run(["--config", config, *verify, "--out", tmp_path / "loose"]) == 0
    assert run(argv(config, verify, ["--tol", "1e-9", "--out", tmp_path / "tight"])) == 1
    assert json.loads((tmp_path / "tight" / "curvature.json").read_text())["meta"]["tol"] == 1e-9


@pytest.mark.parametrize(
    "data, argv, key",
    [
        ({"seeed": 5, "bound": 13}, ["enumerate"], "seeed"),
        ({"output": "normal_form.json"}, ["normal-form", "--input", "{eta}"], "output"),
    ],
    ids=["misspelt", "removed-output"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, data, argv, key):
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps(CaseIIState(0.35, 0.22, 6.0, 0).to_id_structure().to_json_dict()))
    config = tmp_path / "run.json"
    config.write_text(json.dumps(data))
    argv = [a.format(eta=eta) for a in argv]
    assert run(["--config", config, *argv, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: --config: unknown key '{key}'"]
    assert not (tmp_path / "out").exists()


def test_one_config_file_serves_several_commands(tmp_path):
    # each command takes the keys of its own flags and leaves the others
    config = tmp_path / "run.json"
    config.write_text(json.dumps(_CONFIGS["config-ok"]))
    assert run(["--config", config, "enumerate", "--out", tmp_path / "enumerate"]) == 0
    assert json.loads((tmp_path / "enumerate" / "families.json").read_text())["meta"]["bound"] == 13
    assert run(["--config", config, "verify", "--A", "0", "--out", tmp_path / "verify"]) == 0
    assert len(json.loads((tmp_path / "verify" / "curvature.json").read_text())["reports"]) == 1


def test_rational_string_inputs(tmp_path):
    # "p/q" strings parse exactly in either arithmetic mode
    code = run(["extend-check", "--A=-9/2197", "--C", "6", "--out", tmp_path])
    assert code == 0
    data = json.loads((tmp_path / "verdict.json").read_text())
    assert data["verdict"]["family"]["plus"]["ratio"] == "-3/5"
