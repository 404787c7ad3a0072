"""Each check of the benchmark accepts the program's real output and
rejects a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import copy
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import esasaki  # noqa: E402
from esasaki import cli, moduli  # noqa: E402,F401

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from reference import Mismatch  # noqa: E402


def run(job):
    job.prepare()
    return job.collect(job.call())


def corrupt(out, name, edit):
    """A copy of ``out`` whose JSON artifact ``name`` went through ``edit``."""
    data = json.loads(out.files[name])
    edit(data)
    bad = copy.copy(out)
    bad.files = dict(out.files, **{name: json.dumps(data).encode()})
    return bad


@pytest.fixture
def maker(tmp_path):
    return wl.JobMaker(esasaki, tmp_path)


def test_case_i_closed_form(maker):
    check = wl.check_case_i(1.2, 1, 0.5, 0.6, 101)
    job = maker.cli_job("case_i", ["evolve", "--case", "i", "--k", "1.2", "--m", 1, "--t0", "0.5", "--t1", "0.6"],
                          ("flow.json",), check)
    out = run(job)
    assert check(out)

    def nudge(data):
        data["coefficients"][50][3] += 1e-9

    with pytest.raises(Mismatch):
        check(corrupt(out, "flow.json", nudge))
    with pytest.raises(Mismatch):
        check(corrupt(out, "flow.json", lambda d: d["times"].pop()))


def test_general_flow_from_case_i(maker):
    k, m, phase = 0.9, 2, 0.3
    rows = [ref.case_i_coefficients(k, m, phase)[4 * j:4 * j + 4] for j in range(4)]
    path = maker.input_file("eta.json", {"eta": rows, "m": m})
    check = wl.check_general_case_i(k, m, phase, 0.05, 6)
    job = maker.cli_job("general", ["evolve", "--case", "general", "--input", path, "--t1", "0.05"],
                          ("flow.json",), check)
    out = run(job)
    assert check(out)

    def nudge(data):
        data["coefficients"][-1][7] *= 1 + 1e-6

    with pytest.raises(Mismatch):
        check(corrupt(out, "flow.json", nudge))


def test_conserved_A(maker):
    h0, A, C, m = 0.3, -9 / 2197, 6, 0
    a0 = (A + h0**4 - 4 * h0**6) ** 0.5 / h0
    check = wl.check_conserved_A(ref.conserved_A(h0, a0), C, m, 0.1, 11)
    job = maker.cli_job("case_ii", ["evolve", "--case", "ii", "--h0", h0, f"--A={A!r}", "--C", C, "--t1", "0.1"],
                          ("flow.json",), check)
    out = run(job)
    assert check(out)

    def drift(data):
        row = data["coefficients"][5]
        row[4] *= 1 + 1e-6   # a
        row[7] *= 1 + 1e-6   # a C keeps the family's shape

    with pytest.raises(Mismatch):
        check(corrupt(out, "flow.json", drift))

    def off_family(data):
        data["coefficients"][5][3] += 1e-6

    with pytest.raises(Mismatch):
        check(corrupt(out, "flow.json", off_family))


def test_case_iii_ratios(maker):
    start = (0.45, 0.3, 0.05, -0.02, 0.25)
    check = wl.check_case_iii(start, 0.05, 6)
    argv = ["evolve", "--case", "iii", "--h0", start[0], "--k", start[1], "--b0", start[2], "--c0", start[3],
            "--a0", start[4], "--m", 1, "--t1", "0.05"]
    out = run(maker.cli_job("case_iii", argv, ("flow.json",), check))
    assert check(out)

    def nudge(data):
        data["coefficients"][3][10] += 1e-7   # b

    with pytest.raises(Mismatch):
        check(corrupt(out, "flow.json", nudge))


@pytest.mark.parametrize("A", [Fraction(0), Fraction(-9, 2197)])
def test_curvature(maker, A):
    check = wl.check_curvature(A, 1)
    argv = ["verify", f"--A={A}", "--C", 6, "--points", 1, "--seed", 3]
    out = run(maker.cli_job("verify", argv, ("curvature.json",), check))
    assert check(out)

    def nudge(data):
        data["reports"][0]["ricci"][2][2] *= 1.001

    with pytest.raises(Mismatch):
        check(corrupt(out, "curvature.json", nudge))
    if A == 0:
        def bend(data):
            data["reports"][0]["sectional_values"][4] = 1.001

        with pytest.raises(Mismatch):
            check(corrupt(out, "curvature.json", bend))


def test_ypq_extension_and_known_failure(maker):
    fam = ref.family_from_t(Fraction(5))   # S = 25/84
    C = Fraction(6)
    check = wl.check_ypq_extension(fam, C)
    argv = ["extend-check", f"--A={fam['A']}", "--C", C, "--m", 0, "--arith", "rational"]
    out = run(maker.cli_job("ypq", argv, ("verdict.json", "diagram.json"), check))
    assert check(out) is True

    def swap_roots(data):
        data["verdict"]["roots"].reverse()

    def double_q(data):
        data["verdict"]["family"]["plus"]["q"] *= 2

    def fail_end(data):
        data["end_reports"]["lower"]["pass"] = False

    for edit in (swap_roots, double_q):
        with pytest.raises(Mismatch):
            check(corrupt(out, "verdict.json", edit))
    with pytest.raises(Mismatch):
        check(corrupt(out, "diagram.json", lambda d: d.update(pi1_order=d["pi1_order"] + 1)))
    with pytest.raises(Mismatch):
        check(corrupt(out, "diagram.json", lambda d: d.update(K_order=d["K_order"] * 2)))
    assert check(corrupt(out, "verdict.json", fail_end)) is False

    small = ref.family_from_t(Fraction(15, 4))   # S = 25/91, the known small-Delta_- failure
    assert small["S"] in wl.KNOWN_FAILING_S
    argv = ["extend-check", f"--A={small['A']}", "--C", 6, "--m", 0, "--arith", "rational"]
    known = wl.check_ypq_extension(small, Fraction(6))
    assert known(run(maker.cli_job("ypq", argv, ("verdict.json", "diagram.json"), known))) is False


def test_round_extension(maker):
    check = wl.check_round_extension(Fraction(6))
    argv = ["extend-check", "--A=0", "--C", 6, "--m", 0, "--arith", "rational"]
    out = run(maker.cli_job("round", argv, ("verdict.json", "diagram.json"), check))
    assert check(out) is True

    def drop_root(data):
        data["verdict"]["roots"].pop(0)

    with pytest.raises(Mismatch):
        check(corrupt(out, "verdict.json", drop_root))


def test_rejection(maker):
    argv = ["extend-check", "--case-iii", "--h0", "0.4", "--k0", "0.3", "--b0", "0", "--c0", "0.1", "--a0", "0.2"]
    out = run(maker.cli_job("case_iii", argv, ("verdict.json",), wl.check_rejection))
    assert wl.check_rejection(out)

    def passes(data):
        data["report"]["pass"] = True

    with pytest.raises(Mismatch):
        wl.check_rejection(corrupt(out, "verdict.json", passes))
    exit0 = copy.copy(out)
    exit0.code = 0
    with pytest.raises(Mismatch):
        wl.check_rejection(exit0)


def test_classified_family_and_negative(maker):
    fam = ref.family_from_t(Fraction(13))
    C = Fraction(6)
    check = wl.check_classified(fam, C)
    out = run(wl.moduli_job(maker, "family", fam["A"], C, check, diagram=True))
    assert check(out)

    def wrong_ratio(data):
        data["family"]["minus"]["sigma_signed"] += 2
        data["family"]["minus"]["sigma"] += 2

    with pytest.raises(Mismatch):
        check(corrupt(out, "verdict.json", wrong_ratio))
    with pytest.raises(Mismatch):
        check(corrupt(out, "diagram.json", lambda d: d["intersection_orders"].update(plus=1)))
    with pytest.raises(Mismatch):
        wl.check_no_extension(out)

    negative = run(wl.moduli_job(maker, "negative", Fraction(1, 1000), C, wl.check_no_extension, diagram=False))
    assert wl.check_no_extension(negative)
    with pytest.raises(Mismatch):
        wl.check_no_extension(corrupt(negative, "verdict.json", lambda d: d.update(branch="YpqBranch")))


def test_normal_form(maker):
    h, a, C, m = Fraction(7, 20), Fraction(1, 5), Fraction(4), 1
    rows = ref.rotate_rows(ref.case_ii_rows(h, a, C, m), ref.quaternion_rotation(1, -2, 3, 2), Fraction(3, 7))
    path = maker.input_file("nf.json", {"eta": [[str(c) for c in row] for row in rows], "m": m})
    check = wl.check_normal_form(h, a, C, m)
    out = run(maker.cli_job("normal_form", ["normal-form", "--input", path], ("normal_form.json",), check))
    assert check(out)
    with pytest.raises(Mismatch):
        check(corrupt(out, "normal_form.json", lambda d: d["tag"].update(h=d["tag"]["h"] + 1e-8)))


def test_repeated_job_must_give_identical_artifacts():
    import run as bench

    outputs = iter([wl.Output(0, files={"a": b"1"}), wl.Output(0, files={"a": b"1"}), wl.Output(0, files={"a": b"2"})])
    job = wl.Job("fake", "fake job", call=lambda: None, collect=lambda _: next(outputs), check=lambda out: True)
    runner = bench.Round([job])
    runner.run_round()
    runner.run_round()
    assert runner.errors == []
    runner.run_round()
    assert runner.errors and "differ" in runner.errors[0]


def test_reference_roots_and_group_order():
    fam = ref.family_from_t(Fraction(105, 19))
    assert ref.turning_roots(fam["A"]) == [(fam["delta_minus"], 1), (fam["delta_plus"], 1)]
    assert ref.turning_roots(Fraction(-1, 200)) is None

    def closure(gens):
        elems, frontier = {(Fraction(0), Fraction(0))}, [(Fraction(0), Fraction(0))]
        while frontier:
            x, y = frontier.pop()
            for gx, gy in gens:
                new = ((x + gx) % 1, (y + gy) % 1)
                if new not in elems:
                    elems.add(new)
                    frontier.append(new)
        return len(elems)

    rng = random.Random(7)
    for _ in range(20):
        ends = [(rng.randrange(1, 30), rng.randrange(1, 30)) for _ in range(rng.choice((1, 2)))]
        assert ref.k_order(ends) == closure([(Fraction(1, 2), Fraction(q, s) % 1) for q, s in ends])
