"""The four workloads: seeded inputs, jobs and their checks.

A workload is a list of jobs, one round, built from the seed.  Each job
has an untimed ``prepare`` (clear its artifacts), a timed ``call`` (one
``esasaki.cli.main`` run, or calls into ``esasaki.moduli`` where no
subcommand covers the job), an untimed ``collect`` (read the artifacts)
and an untimed ``check`` against ``reference``.  ``check`` returns True
when the operation succeeded, False when the program reported its own
failure, and raises ``reference.Mismatch`` when the output is wrong.

Round sizes are 25 jobs, so the median and the 90th percentile of the
job latencies (over whole rounds) read the 13th and the 23rd cheapest
job of a round; each mix places a group of jobs of equal cost around
those ranks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from reference import require

# the two smooth families whose lower end check_circle_branch rejects:
# its parity-fit window (rmax = 0.064 from geometric_radii) does not
# shrink with the small lower turning value
KNOWN_FAILING_S = (Fraction(25, 91), Fraction(36, 133))


@dataclass
class Output:
    """What one job produced: exit code, captured streams, artifacts."""

    code: object
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)

    def json(self, name: str):
        require(name in self.files, f"artifact {name} missing (exit {self.code}, stderr {self.stderr.strip()!r})")
        return json.loads(self.files[name])

    def digest(self) -> bytes:
        return repr((self.code, sorted(self.files.items()))).encode()


@dataclass
class Job:
    kind: str
    label: str
    call: Callable[[], object]
    collect: Callable[[object], Output]
    check: Callable[[Output], bool]
    prepare: Callable[[], None] = lambda: None
    cli: bool = True


def run_cli(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class JobMaker:
    """Makes the jobs of one workload inside a scratch directory."""

    def __init__(self, esasaki, workdir: Path):
        self.es = esasaki
        self.workdir = workdir
        self.count = 0

    def cli_job(self, kind: str, argv: list, files: tuple, check) -> Job:
        outdir = self.workdir / f"job{self.count:02d}"
        self.count += 1
        outdir.mkdir(parents=True, exist_ok=True)
        argv = [str(a) for a in argv] + ["--out", str(outdir)]
        cli = self.es.cli

        def prepare():
            for name in files:
                (outdir / name).unlink(missing_ok=True)

        def collect(result):
            code, stdout, stderr = result
            found = {name: (outdir / name).read_bytes() for name in files if (outdir / name).exists()}
            return Output(code, stdout, stderr, found)

        return Job(kind, " ".join(argv[:-2]), lambda: run_cli(cli.main, argv), collect, check, prepare)

    def input_file(self, name: str, payload: dict) -> Path:
        path = self.workdir / "inputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return path


# largest error seen per check, for the reference figures
ACHIEVED: dict = {}


def achieved(name: str, error: float) -> float:
    ACHIEVED[name] = max(ACHIEVED.get(name, 0.0), error)
    return error


# ---------------------------------------------------------------------------
# flows


def _flow_times(data, t0: float, t1: float, count: int) -> list:
    times = data["times"]
    require(len(times) == count, f"{len(times)} samples, expected {count}")
    require(abs(times[0] - t0) <= 1e-12 and abs(times[-1] - t1) <= 1e-9, f"time grid {times[0]}..{times[-1]}")
    return times


def check_case_i(k, m, t0, t1, count):
    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}")
        data = out.json("flow.json")
        times = _flow_times(data, t0, t1, count)
        for t, row in zip(times, data["coefficients"]):
            want = ref.case_i_coefficients(k, m, t)
            err = achieved("case_i_vs_closed_form", max(abs(x - y) for x, y in zip(row, want)))
            require(err <= 1e-12, f"case i at t={t}: off the closed form by {err:.2e}")
        require(max(max(r) for r in data["residuals"]) <= 1e-12, "case i residuals above 1e-12")
        return True

    return check


def check_general_case_i(k, m, phase, t1, count):
    """The general flow from the case-i coframe at time `phase` follows
    the closed form shifted by that phase."""

    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}")
        data = out.json("flow.json")
        times = _flow_times(data, 0.0, t1, count)
        for t, row in zip(times, data["coefficients"]):
            want = ref.case_i_coefficients(k, m, phase + t)
            err = achieved("general_vs_closed_form", max(abs(x - y) for x, y in zip(row, want)))
            require(err <= 1e-8, f"general flow at t={t}: off the closed form by {err:.2e}")
        require(max(data["consistency"]) <= 1e-9, "least-squares consistency above 1e-9")
        return True

    return check


def _conformal_rows_ok(row, C, m, tol) -> tuple:
    """(h, a) of a conformal-family coefficient row, after checking the
    other coefficients against the family's shape."""
    h, a = row[9], row[4]
    want = [2 * h * h, 0, 0, 2 * C * h * h - (C + m) / 3.0, a, 0, 0, a * C, 0, h, 0, 0, 0, 0, h, 0]
    err = max(abs(x - y) for x, y in zip(row, want))
    require(err <= tol, f"coefficients leave the conformal family by {err:.2e}")
    return h, a


def check_conserved_A(A0, C, m, t1, count):
    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}")
        data = out.json("flow.json")
        _flow_times(data, 0.0, t1, count)
        for row in data["coefficients"]:
            h, a = _conformal_rows_ok(row, C, m, 1e-9)
            A = ref.conserved_A(h, a)
            drift = achieved("conserved_A_relative_drift", abs(A - A0) / abs(A0))
            require(drift <= 1e-8, f"A drifted to {A!r} from {A0!r}")
        return True

    return check


def check_case_iii(start, t1, count):
    lam0, mu0 = ref.case_iii_ratios(start[0], start[1], start[2], start[3])

    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}")
        data = out.json("flow.json")
        _flow_times(data, 0.0, t1, count)
        first = data["coefficients"][0]
        require(max(abs(x - y) for x, y in zip((first[9], first[14], first[10], first[13], first[4]), start)) <= 1e-15,
                "first sample is not the start")
        for row in data["coefficients"]:
            h, b, c, k = row[9], row[10], row[13], row[14]
            lam, mu = ref.case_iii_ratios(h, k, b, c)
            drift = achieved("case_iii_ratio_drift", max(abs(lam - lam0), abs(mu - mu0)))
            require(drift <= 1e-9, f"ratios drifted to ({lam!r}, {mu!r})")
        return True

    return check


def _band(A: float) -> tuple:
    """The turning values of a float A, by bisection on the cubic."""
    def bisect(lo, hi):
        f = lambda x: A + x * x - 4 * x**3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (f(mid) > 0) == (f(lo) > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return bisect(0.0, 1 / 6), bisect(1 / 6, 0.25)


def build_flows(b: JobMaker, rng: random.Random) -> list:
    """4 case-ii, 4 case-iii, 12 case-i and 5 general flows."""
    jobs = []
    for m in (0, 1, 2, 0):
        A = -rng.uniform(0.001, 0.0085)
        C = rng.randint(2, 8)
        lo, hi = _band(A)
        h0 = math.sqrt(lo + rng.uniform(0.05, 0.3) * (hi - lo))
        a0 = math.sqrt(A + h0**4 - 4 * h0**6) / h0
        argv = ["evolve", "--case", "ii", "--h0", repr(h0), f"--A={A!r}", "--C", C, "--m", m, "--t1", "0.3"]
        jobs.append(b.cli_job("case_ii", argv, ("flow.json", "flow.csv"),
                              check_conserved_A(ref.conserved_A(h0, a0), C, m, 0.3, 31)))
    for _ in range(4):
        while True:
            h, k = rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)
            bb, c = rng.uniform(-0.12, 0.12), rng.uniform(-0.12, 0.12)
            if abs(h - k) >= 0.1 and h * k - bb * c >= 0.1:
                break
        a = rng.uniform(0.2, 0.35)
        start = (h, k, bb, c, a)
        argv = ["evolve", "--case", "iii", "--h0", repr(h), "--k", repr(k), "--b0", repr(bb), "--c0", repr(c),
                "--a0", repr(a), "--m", 1, "--t1", "0.2"]
        jobs.append(b.cli_job("case_iii", argv, ("flow.json", "flow.csv"), check_case_iii(start, 0.2, 21)))
    for m in (0, 1, 2, 3) * 3:
        k = rng.uniform(0.5, 1.5)
        t0 = round(rng.uniform(0.0, 2.0), 3)
        t1 = round(t0 + 0.2, 3)
        argv = ["evolve", "--case", "i", "--k", repr(k), "--m", m, "--t0", repr(t0), "--t1", repr(t1)]
        jobs.append(b.cli_job("case_i", argv, ("flow.json", "flow.csv"), check_case_i(k, m, t0, t1, 201)))
    for i, m in enumerate((0, 1, 2, 0, 1)):
        if i < 3:
            k, phase = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.5)
            rows = [ref.case_i_coefficients(k, m, phase)[4 * j:4 * j + 4] for j in range(4)]
            check = check_general_case_i(k, m, phase, 0.2, 21)
        else:
            h, a, C = rng.uniform(0.3, 0.4), rng.uniform(0.08, 0.3), rng.randint(2, 8)
            rows = ref.case_ii_rows(h, a, float(C), m)
            check = check_conserved_A(ref.conserved_A(h, a), C, m, 0.2, 21)
        path = b.input_file(f"general{i}.json", {"eta": rows, "m": m})
        argv = ["evolve", "--case", "general", "--input", path, "--t1", "0.2"]
        jobs.append(b.cli_job("general", argv, ("flow.json", "flow.csv"), check))
    return jobs


# ---------------------------------------------------------------------------
# curvature


def families(max_s_den: int) -> list:
    """Every Y^{p,q} family with root-sum denominator at most max_s_den,
    sorted by S.  Every such family has t = 3S / sqrt(S - 3S^2) rational;
    with t = u/v in lowest terms the denominator of S is at least
    (3v^2 + u^2)/3, which bounds u and v."""
    found = []
    for v in range(1, isqrt(max_s_den) + 1):
        for u in range(3 * v + 1, isqrt(3 * max_s_den) + 1):
            if gcd(u, v) == 1:
                fam = ref.family_from_t(Fraction(u, v))
                if fam["S"].denominator <= max_s_den:
                    found.append(fam)
    return sorted(found, key=lambda f: f["S"])


MIN_BAND = Fraction(65, 1000)


def check_curvature(A: Fraction, npoints: int):
    y_lo, y_hi = ref.y_interval(A)
    a = float(A)

    def check(out: Output) -> bool:
        require(out.code in (0, 1), f"exit {out.code}: {out.stderr.strip()}")
        reports = out.json("curvature.json")["reports"]
        require(len(reports) == npoints, f"{len(reports)} points, expected {npoints}")
        for rep in reports:
            point = rep["point"]
            require(0 < point[0] < math.pi and y_lo < point[2] < y_hi, f"point {point} outside the chart")
            g = ref.chart_metric(a, point)
            res = float(np.linalg.norm(np.array(rep["ricci"]) - 4.0 * g) / np.linalg.norm(g))
            require(abs(res - rep["einstein_residual"]) <= 1e-6, f"reported residual {rep['einstein_residual']!r}, recomputed {res!r}")
            if out.code == 1:
                continue
            require(achieved("ricci_minus_4g_relative", res) <= 1e-4, f"|Ric - 4g|/|g| = {res:.2e} at {point}")
            if A == 0:
                worst = achieved("sphere_sectional_minus_1", max(abs(s - 1.0) for s in rep["sectional_values"]))
                require(worst <= 1e-4, f"sectional curvature off 1 by {worst:.2e} on the unit sphere")
        # exit 1: verify's own Einstein residual passed its tolerance
        return out.code == 0

    return check


def build_curvature(b: JobMaker, rng: random.Random) -> list:
    """Five jobs each of 1..5 points; per size one A = 0 chart and four
    charts of families drawn from each quarter of the A range.  Families
    whose band of turning values is narrower than 0.065 are left out: at
    the fixed fd_step = 1e-3 verify's own residual there can pass its
    1e-4 tolerance on a correct metric."""
    pool = sorted((f for f in families(400) if f["delta_plus"] - f["delta_minus"] >= MIN_BAND), key=lambda f: f["A"])
    quarter = len(pool) // 4
    jobs = []
    for npoints in range(1, 6):
        charts = [Fraction(0)] + [rng.choice(pool[i * quarter:(i + 1) * quarter])["A"] for i in range(4)]
        for A in charts:
            argv = ["verify", f"--A={A}", "--C", rng.randint(1, 8), "--points", npoints,
                    "--seed", rng.randrange(10**6)]
            jobs.append(b.cli_job(f"verify{npoints}", argv, ("curvature.json", "curvature.csv"),
                                  check_curvature(A, npoints)))
    return jobs


# ---------------------------------------------------------------------------
# extension


def _check_family(verdict: dict, diagram: dict, fam: dict, C: Fraction) -> None:
    """A two-root verdict (m = 0) and its diagram against the reference."""
    lower, upper = fam["delta_minus"], fam["delta_plus"]
    require(verdict["branch"] == "YpqBranch", f"branch {verdict['branch']}: {verdict['reason']}")
    roots = [(Fraction(r), k) for r, k in verdict["roots"]]
    require(roots == [(lower, 1), (upper, 1)], f"roots {roots}")
    minus, plus = verdict["family"]["minus"], verdict["family"]["plus"]
    ref.check_end_data(minus, lower, C, 0, "lower end")
    ref.check_end_data(plus, upper, C, 0, "upper end")
    require(diagram["pi1_order"] == gcd(minus["q"], plus["q"]), f"pi1 order {diagram['pi1_order']}")
    ends = [(minus["q"], minus["sigma"]), (plus["q"], plus["sigma"])]
    require(diagram["K_order"] == ref.k_order(ends), f"|K| = {diagram['K_order']}")
    require(diagram["intersection_orders"] == {"minus": minus["sigma"], "plus": plus["sigma"]},
            f"intersection orders {diagram['intersection_orders']}")


def check_ypq_extension(fam: dict, C: Fraction):
    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}: {out.stderr.strip()}")
        payload = out.json("verdict.json")
        _check_family(payload["verdict"], out.json("diagram.json"), fam, C)
        reports = payload["end_reports"]
        return bool(reports["lower"]["pass"] and reports["upper"]["pass"])

    return check


def check_round_extension(C: Fraction):
    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}: {out.stderr.strip()}")
        payload = out.json("verdict.json")
        verdict = payload["verdict"]
        require(verdict["branch"] == "RoundSphereBranch", f"branch {verdict['branch']}")
        roots = [(Fraction(r), k) for r, k in verdict["roots"]]
        require(roots == ref.turning_roots(Fraction(0)), f"roots {roots}")
        ref.check_end_data(verdict["family"]["plus"], Fraction(1, 4), C, 0, "circle end")
        diagram = out.json("diagram.json")
        plus = verdict["family"]["plus"]
        require(diagram["K_order"] == ref.k_order([(plus["q"], plus["sigma"])]), f"|K| = {diagram['K_order']}")
        reports = payload["end_reports"]
        return bool(reports["lower"]["pass"] and reports["upper"]["pass"])

    return check


def check_rejection(out: Output) -> bool:
    """Every non-conformal flow is rejected with a named obstruction."""
    require(out.code == 1, f"exit {out.code}: {out.stderr.strip()}")
    verdict = out.json("verdict.json")
    require(verdict["branch"] == "Reject", f"branch {verdict['branch']}")
    report = verdict["report"]
    require(report["pass"] is False, "case-iii report passes")
    failing = [c["name"] for rep in report["end_reports"].values() for c in rep["conditions"] if not c["pass"]]
    require(bool(failing) and verdict["reason"].strip() != "", "rejection names no obstruction")
    require(out.stdout.startswith("Reject:"), "no Reject line on stdout")
    return True


def valid_orbit_choices(deltas, Cs, max_k: int) -> list:
    """Constants C (with m = 0) giving integer orbit data at every end,
    gcd(q, sigma) = 1 at the circle end of the round branch, and
    |K| <= max_k, as (C, |K|).  build_diagram rejects every m != 0, so
    the workloads keep m = 0."""
    out = []
    for C in Cs:
        witnesses = [ref.orbit_witness(d, Fraction(C), 0) for d in deltas]
        if any(w is None for w in witnesses):
            continue
        ends = [(q, abs(s)) for q, s, _ in witnesses]
        if len(deltas) == 1 and gcd(abs(ends[0][0]), ends[0][1]) != 1:
            continue
        order = ref.k_order(ends)
        if order <= max_k:
            out.append((Fraction(C), order))
    return out


def cheapest_constants(deltas, count: int, rng: random.Random) -> list:
    """``count`` constants C in 1..120, drawn from those giving the family
    its smallest |K|, so that the drawn jobs cost the same."""
    choices = valid_orbit_choices(deltas, range(1, 121), 10**9)
    smallest = min(order for _, order in choices)
    return rng.sample([C for C, order in choices if order == smallest], count)


# Y^{p,q} jobs of the extension workload: root sum S -> jobs per round.
# Their costs differ only through classification and |K|: the five jobs
# of S = 16/49 hold the median's rank, the four of S = 25/79 lie above
# it and one job of each other family below it.
EXTENSION_FAMILIES = {
    Fraction(4, 13): 1, Fraction(9, 28): 1, Fraction(25, 84): 1, Fraction(25, 76): 1,
    Fraction(16, 57): 1, Fraction(9, 31): 1, Fraction(16, 49): 5, Fraction(25, 79): 4,
}

# non-conformal starts (h, k, b, c, a), jittered by the seed
CASE_III_CENTERS = ((0.4, 0.3, 0.0, 0.1, 0.2), (0.35, 0.5, 0.05, -0.05, 0.25),
                    (0.5, 0.35, -0.05, 0.1, 0.15), (0.45, 0.55, 0.1, 0.0, 0.3))


def build_extension(b: JobMaker, rng: random.Random) -> list:
    """Fifteen Y^{p,q} checks on the smooth families with S denominator
    <= 100 under seeded C, the two known small-Delta_- families, four
    round-end (A = 0) checks and four case-iii rejections at step 2e-3,
    which keeps them the cheapest jobs of the round."""
    jobs = []
    by_s = {f["S"]: f for f in families(max(s.denominator for s in KNOWN_FAILING_S))}
    for S, count in EXTENSION_FAMILIES.items():
        fam = by_s[S]
        for C in cheapest_constants((fam["delta_minus"], fam["delta_plus"]), count, rng):
            argv = ["extend-check", f"--A={fam['A']}", "--C", C, "--m", 0, "--arith", "rational"]
            jobs.append(b.cli_job("ypq", argv, ("verdict.json", "diagram.json"), check_ypq_extension(fam, C)))
    for S in KNOWN_FAILING_S:
        fam = by_s[S]
        argv = ["extend-check", f"--A={fam['A']}", "--C", 6, "--m", 0, "--arith", "rational"]
        jobs.append(b.cli_job("ypq_small_delta", argv, ("verdict.json", "diagram.json"),
                              check_ypq_extension(fam, Fraction(6))))
    # at the round end |K| <= 60 for every C here, too small to change the cost
    round_choices = valid_orbit_choices((Fraction(1, 4),), range(1, 61), 60)
    for C in rng.sample([C for C, _ in round_choices], 4):
        argv = ["extend-check", "--A=0", "--C", C, "--m", 0, "--arith", "rational"]
        jobs.append(b.cli_job("round", argv, ("verdict.json", "diagram.json"), check_round_extension(C)))
    for center in CASE_III_CENTERS:
        start = [x + 0.01 * rng.uniform(-1, 1) for x in center]
        argv = ["extend-check", "--case-iii", "--step", "2e-3"]
        argv += [f"--{name}={x!r}" for name, x in zip(("h0", "k0", "b0", "c0", "a0"), start)]
        jobs.append(b.cli_job("case_iii", argv, ("verdict.json",), check_rejection))
    return jobs


# ---------------------------------------------------------------------------
# classify


def check_classified(fam: dict, C: Fraction):
    def check(out: Output) -> bool:
        if out.code != 0:
            return False
        _check_family(out.json("verdict.json"), out.json("diagram.json"), fam, C)
        return True

    return check


def check_no_extension(out: Output) -> bool:
    verdict = out.json("verdict.json")
    require(verdict["branch"] == "NoCompactExtension", f"branch {verdict['branch']}")
    require(verdict["family"] is None, "a family was returned")
    return True


def check_normal_form(h: Fraction, a: Fraction, C: Fraction, m: int):
    mu = 2 * C * h * h - (C + m) / 3

    def check(out: Output) -> bool:
        require(out.code == 0, f"exit {out.code}: {out.stderr.strip()}")
        tag = out.json("normal_form.json")["tag"]
        require(tag["variant"] == "GoGivingYpq", f"variant {tag['variant']}")
        for name, want in (("h", h), ("a1", a), ("a4", a * C), ("mu", mu)):
            err = achieved("normal_form_parameters", abs(tag[name] - float(want)))
            require(err <= 1e-9, f"normal form {name} = {tag[name]!r}, planted {want}")
        require(tag["m"] == m, f"m = {tag['m']}")
        return True

    return check


def moduli_job(b: JobMaker, kind: str, A: Fraction, C: Fraction, check, diagram: bool) -> Job:
    """classify_A(A, C, 0), then build_diagram of its family; a diagram
    the program rejects is a failed operation."""
    moduli = b.es.moduli

    def call():
        verdict = moduli.classify_A(A, C, 0)
        if not diagram or verdict.family is None:
            return verdict, None
        try:
            return verdict, moduli.build_diagram(verdict.family)
        except ValueError as exc:
            return verdict, exc

    def collect(result):
        verdict, built = result
        files = {"verdict.json": json.dumps(verdict.to_json_dict(), sort_keys=True).encode()}
        if isinstance(built, ValueError):
            return Output(1, stderr=str(built), files=files)
        if built is not None:
            files["diagram.json"] = json.dumps(built.to_json_dict(), sort_keys=True).encode()
        return Output(0, files=files)

    return Job(kind, f"classify_A({A}, {C}, 0)", call, collect, check, cli=False)


# (t, jobs per round) of the classified families, by rising A denominator
# (about 3e4 to 1.5e8).  Each job draws C from the constants that give the
# family its smallest |K|, so jobs of one family cost the same; the five
# jobs of t = 45 and of t = 63 hold the ranks of the median and of the
# 90th percentile.
CLASSIFY_LADDER = (
    (Fraction(15), 1), (Fraction(13), 1), (Fraction(45), 5), (Fraction(51), 1), (Fraction(57), 1),
    (Fraction(27, 2), 1), (Fraction(23, 3), 1), (Fraction(75), 1), (Fraction(63), 5),
)


def build_classify(b: JobMaker, rng: random.Random) -> list:
    """The family ladder, four negative controls and four normal forms."""
    jobs = []
    for t, count in CLASSIFY_LADDER:
        fam = ref.family_from_t(t)
        for C in cheapest_constants((fam["delta_minus"], fam["delta_plus"]), count, rng):
            jobs.append(moduli_job(b, "family", fam["A"], C, check_classified(fam, C), diagram=True))
    while True:
        irrational = -Fraction(rng.randrange(1, 100), rng.randrange(10**4, 10**5))
        if ref.A_MIN < irrational < 0 and ref.turning_roots(irrational) is None:
            break
    negatives = (irrational, ref.A_MIN, ref.A_MIN - Fraction(1, rng.randrange(10**4, 10**5)),
                 Fraction(rng.randrange(1, 100), rng.randrange(10**4, 10**5)))
    for A in negatives:
        jobs.append(moduli_job(b, "negative", A, Fraction(rng.randrange(1, 13)), check_no_extension, diagram=False))
    for i in range(4):
        h = Fraction(rng.randrange(30, 41), 100)
        a = Fraction(rng.randrange(5, 31), 100)
        C = Fraction(rng.randrange(2, 9))
        m = rng.randrange(0, 3)
        quat = [rng.randrange(-5, 6) for _ in range(4)]
        if not any(quat):
            quat[0] = 1
        rows = ref.rotate_rows(ref.case_ii_rows(h, a, C, m), ref.quaternion_rotation(*quat),
                               Fraction(rng.randrange(-9, 10), 7))
        path = b.input_file(f"normal{i}.json", {"eta": [[str(c) for c in row] for row in rows], "m": m})
        argv = ["normal-form", "--input", path]
        jobs.append(b.cli_job("normal_form", argv, ("normal_form.json",), check_normal_form(h, a, C, m)))
    return jobs


WORKLOADS = {
    "flows": build_flows,
    "curvature": build_curvature,
    "extension": build_extension,
    "classify": build_classify,
}


def build(name: str, esasaki, workdir: Path, seed: int) -> list:
    """The jobs of one round of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](JobMaker(esasaki, workdir), rng)
