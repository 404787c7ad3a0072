"""Command-line front end.

Subcommands: evolve, enumerate, verify, extend-check, normal-form.
Global flags: --arith {float,rational}, --out DIR, --seed N, --tol X,
--step X, --config FILE (JSON defaults, overridden by explicit flags).

Exit codes: 0 success; 1 a verification/classification check failed
(worst offender reported; for extend-check also a failing end report
or a group diagram that cannot be built); 2 invalid input or an aborted
constraint (non-finite numbers, non-solution initial data, domain
errors, inputs too large to represent), mapped from ValueError, OSError
and OverflowError in one place, :func:`main`.

Rational values are accepted as "p/q" strings to avoid float parsing
loss; every output embeds the run parameters (and seed), never a
timestamp, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from esasaki import boundary, evolution, geometry, moduli, structures

__all__ = ["main", "build_parser"]


def finite_float(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _parse_number(text: str, arith: str = "float"):
    if "/" in text or arith == "rational":
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {text!r}") from None
    return finite_float(text)


def _floats(args, *texts) -> list:
    """The numbers of ``texts`` as floats, parsed in ``--arith`` mode."""
    return [float(_parse_number(text, args.arith)) for text in texts]


def _global_flags(parser, suppress: bool) -> None:
    # registered on the main parser with real defaults and on every
    # subparser with suppressed defaults, so the flags work in either
    # position without clobbering each other
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--arith", choices=("float", "rational"), default=d("float"))
    parser.add_argument("--out", default=d("."), help="output directory")
    parser.add_argument("--seed", type=int, default=d(0))
    parser.add_argument("--tol", type=finite_float, default=d(1e-4))
    parser.add_argument("--step", type=finite_float, default=d(1e-3))
    parser.add_argument("--config", default=d(None), help="JSON file with flag defaults")


# argparse applies choices to command-line values only: cmd_evolve checks
# a value from a config file
_CASES = ("i", "ii", "iii", "general")


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esasaki",
        description="Construct, classify and verify cohomogeneity-one Einstein-Sasaki 5-metrics.",
    )
    _global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)
    p_evolve = sub.add_parser("evolve", help="integrate one of the invariant flows", parents=[common])
    p_evolve.add_argument("--case", choices=_CASES)
    p_evolve.add_argument("--k", default=None, help="case i amplitude / case iii k0")
    p_evolve.add_argument("--m", type=int, default=None, help="weight (default: 1 for --case iii, else 0)")
    p_evolve.add_argument("--h0", default=None)
    p_evolve.add_argument("--a0", default=None)
    p_evolve.add_argument("--A", default=None, help="conserved level; alternative to --a0")
    p_evolve.add_argument("--C", default="0")
    p_evolve.add_argument("--b0", default="0")
    p_evolve.add_argument("--c0", default="0")
    p_evolve.add_argument("--t0", type=finite_float, default=0.0)
    p_evolve.add_argument("--t1", type=finite_float, default=1.0)
    p_evolve.add_argument("--input", default=None, help="coframe JSON for --case general")
    p_evolve.add_argument("--record-every", type=int, default=10)

    p_enum = sub.add_parser("enumerate", help="tabulate quasi-regular compact families", parents=[common])
    p_enum.add_argument("--bound", type=int, default=None)
    p_enum.add_argument("--m", type=int, default=0)

    p_verify = sub.add_parser("verify", help="finite-difference Einstein verification", parents=[common])
    p_verify.add_argument("--A", default=None)
    p_verify.add_argument("--C", default="0")
    p_verify.add_argument("--points", type=int, default=10)
    p_verify.add_argument("--fd-step", type=finite_float, default=None,
                          help="stencil step (default: min(1e-3, y-band width / 400))")

    p_ext = sub.add_parser("extend-check", help="full compact-extension verdict", parents=[common])
    p_ext.add_argument("--A", default=None)
    p_ext.add_argument("--C", default="0")
    p_ext.add_argument("--m", type=int, default=0)
    p_ext.add_argument("--case-iii", action="store_true", help="test a non-conformal flow instead")
    p_ext.add_argument("--h0", default="0.4")
    p_ext.add_argument("--k0", default="0.3")
    p_ext.add_argument("--b0", default="0")
    p_ext.add_argument("--c0", default="0.1")
    p_ext.add_argument("--a0", default="0.2")

    p_norm = sub.add_parser("normal-form", help="canonical parameters of a solution", parents=[common])
    p_norm.add_argument("--input", default=None, help="coframe JSON file")

    if config:
        # the parsers whose flags take each key; the subparsers' copies of the
        # global flags stay suppressed, else they overwrite the main parser's value
        takers = {}
        for p in [parser, *sub.choices.values()]:
            for action in p._actions:
                if action.option_strings and action.default is not argparse.SUPPRESS:
                    takers.setdefault(action.dest, []).append(p)
        for name, value in config.items():
            key = name.replace("-", "_")
            if key not in takers:
                raise ValueError(f"--config: unknown key {name!r}")
            switch = any(isinstance(p.get_default(key), bool) for p in takers[key])
            if switch != isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"--config: {key} takes {'true or false' if switch else 'a string or a number'}")
            # argparse applies a flag's type to string defaults only: a
            # number goes in as its text, as on the command line
            for p in takers[key]:
                p.set_defaults(**{key: value if isinstance(value, (str, bool)) else str(value)})
    return parser


@functools.cache
def _default_parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so the one without --config
    # defaults is built once per process
    return build_parser()


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    # main's first pass, which picks up --config so its values become
    # parser defaults; built once per process, like _default_parser
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    return pre


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, data: dict) -> None:
    """Write the bytes of json.dump(indent=1, sort_keys=True) of data."""
    path.write_text(json.dumps(data, indent=1, sort_keys=True))


def _nested_json(obj, depth: int) -> str:
    """json.dumps(obj, indent=1, sort_keys=True) nested ``depth`` levels
    deep; encoded JSON holds no raw newline inside a string."""
    return json.dumps(obj, indent=1, sort_keys=True).replace("\n", "\n" + " " * depth)


def _write_reports_json(path: Path, meta: dict, reports: list) -> None:
    """The bytes of :func:`_write_json` on {"meta": meta, "reports": [...]},
    with one report's JSON dict in memory at a time."""
    with open(path, "w") as fh:
        fh.write('{\n "meta": ' + _nested_json(meta, 1) + ',\n "reports": [')
        for k, rep in enumerate(reports):
            fh.write(("," if k else "") + "\n  " + _nested_json(rep.to_json_dict(), 2))
        fh.write("\n ]\n}")


def _meta(args, **extra) -> dict:
    """The run's global options, then ``extra``: every artifact embeds them."""
    return {"seed": args.seed, "arith": args.arith, "tol": args.tol, "step": args.step, **extra}


def cmd_evolve(args) -> int:
    if args.case not in _CASES:
        raise ValueError(f"need --case in {{{', '.join(_CASES)}}} (flag or config file), got {args.case!r}")
    m = args.m
    if m is None:
        m = 1 if args.case == "iii" else 0
    if args.t1 <= args.t0:
        raise ValueError("t_span must be increasing")
    if args.record_every < 1:
        raise ValueError(f"--record-every must be at least 1, got {args.record_every}")
    t_span = (args.t0, args.t1)
    if args.case == "i":
        flow = evolution.evolve_case_i(*_floats(args, args.k or "1"), m, t_span, args.step)
    elif args.case == "ii":
        if args.h0 is None:
            raise ValueError("case ii needs --h0")
        h0, C = _floats(args, args.h0, args.C)
        if args.a0 is not None:
            state0 = evolution.CaseIIState(h0, *_floats(args, args.a0), C, m)
        elif args.A is not None:
            state0 = evolution.CaseIIState.from_A(h0, *_floats(args, args.A), C, m)
        else:
            raise ValueError("case ii needs --a0 or --A")
        flow = evolution.evolve_case_ii(state0, t_span, args.step, record_every=args.record_every)
    elif args.case == "iii":
        if args.h0 is None or args.a0 is None:
            raise ValueError("case iii needs --h0 and --a0")
        state0 = evolution.CaseIIIState(*_floats(args, args.h0, args.k or "0.3", args.b0, args.c0, args.a0))
        flow = evolution.evolve_case_iii(state0, t_span, args.step, record_every=args.record_every, m=m)
    else:
        if not args.input:
            raise ValueError("--case general requires --input")
        with open(args.input) as fh:
            eta0 = structures.IdStructure.from_json_dict(json.load(fh))
        flow = evolution.evolve_general(eta0, t_span, args.step, record_every=args.record_every)

    # flow.json keeps each case's meta key order: case i lists the run's
    # keys before the family's, the other cases after
    run = _meta(args)
    flow.meta = {**run, **flow.meta} if args.case == "i" else {**flow.meta, **run}
    out = _outdir(args)
    flow.write(out / "flow.csv", out / "flow.json")
    print(f"wrote {out / 'flow.csv'} ({len(flow.times)} samples)")
    return 0


def cmd_enumerate(args) -> int:
    if args.bound is None:
        raise ValueError("need --bound (flag or config file)")
    families = moduli.enumerate_rational_families(args.bound, m=args.m)
    out = _outdir(args)
    with open(out / "families.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(moduli.YpqFamily.CSV_HEADER)
        for fam in families:
            writer.writerow(fam.csv_row())
    _write_json(
        out / "families.json",
        {"meta": _meta(args, bound=args.bound, m=args.m), "families": [f.to_json_dict() for f in families]},
    )
    print(f"wrote {out / 'families.csv'} ({len(families)} families)")
    return 0


def cmd_verify(args) -> int:
    if args.A is None:
        raise ValueError("need --A (flag or config file)")
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    a_float, C = _floats(args, args.A, args.C)
    chart = geometry.ypq_chart(a_float)
    fd_step = args.fd_step
    if fd_step is None:
        # a fixed step loses the fourth-order accuracy on narrow y-bands
        y_lo, y_hi = chart.box[2]
        fd_step = min(1e-3, (y_hi - y_lo) / 400.0)
    points = geometry.sample_interior_points(chart, args.points, seed=args.seed)
    reports = geometry.ricci_fd_many(chart, points, fd_step=fd_step)

    out = _outdir(args)
    with open(out / "curvature.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "phi", "y", "beta", "psi", "einstein_residual", "sectional_spread"])
        for rep in reports:
            writer.writerow([repr(v) for v in rep.point] + [repr(rep.einstein_residual), repr(rep.sectional_spread)])
    _write_reports_json(out / "curvature.json", _meta(args, A=a_float, C=C, fd_step=fd_step), reports)

    # a NaN residual is the worst of all and fails the check
    worst = max(reports, key=lambda r: math.inf if math.isnan(r.einstein_residual) else r.einstein_residual)
    print(f"wrote {out / 'curvature.csv'}; worst residual {worst.einstein_residual:.3e} at {worst.point}")
    if not worst.einstein_residual <= args.tol:
        print(
            f"FAIL: Einstein residual {worst.einstein_residual:.3e} > {args.tol:.1e} at {worst.point}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_extend_check(args) -> int:
    if args.case_iii:
        state0 = evolution.CaseIIIState(*_floats(args, args.h0, args.k0, args.b0, args.c0, args.a0))
        report = boundary.reject_case_iii(state0, args.step)
        verdict = {
            "branch": "Reject",
            "reason": report.notes,
            "report": report.to_json_dict(),
            "meta": _meta(args),
        }
        _write_json(_outdir(args) / "verdict.json", verdict)
        print(f"Reject: {report.notes}")
        return 1

    if args.A is None:
        raise ValueError("need --A (or --case-iii)")
    A = _parse_number(args.A, args.arith)
    C = _parse_number(args.C, args.arith)
    verdict = moduli.classify_A(A, C, args.m)
    payload = {"verdict": verdict.to_json_dict(), "meta": _meta(args)}
    failures = [verdict.reason] if verdict.branch == moduli.NO_COMPACT_EXTENSION else []

    diagram = None
    if verdict.family is not None:
        try:
            diagram = moduli.build_diagram(verdict.family).to_json_dict()
        except ValueError as exc:
            payload["diagram_error"] = str(exc)
            failures.append(f"diagram: {exc}")

        fam = verdict.family
        ends = {}
        for tag, end, delta_star in (("lower", fam.minus, fam.delta_minus), ("upper", fam.plus, fam.delta_plus)):
            if end is None:
                ends[tag] = boundary.check_round_series(evolution.round_series())
            else:
                ends[tag] = boundary.check_circle_branch(
                    evolution.turning_series(fam.A, delta_star), end.q, end.sigma_signed, float(C), args.m
                )
        payload["end_reports"] = {tag: rep.to_json_dict() for tag, rep in ends.items()}
        failures += [f"{tag}:{name}" for tag, rep in ends.items() for name in rep.failing()]

    out = _outdir(args)
    if diagram is not None:
        _write_json(out / "diagram.json", diagram)
    _write_json(out / "verdict.json", payload)
    print(f"{verdict.branch}: {verdict.reason}")
    if failures:
        print(f"FAIL: {'; '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_normal_form(args) -> int:
    if args.input is None:
        raise ValueError("need --input (flag or config file)")
    with open(args.input) as fh:
        eta = structures.IdStructure.from_json_dict(json.load(fh))
    tag, transform = structures.normal_form(eta)
    payload = {
        "tag": tag.to_json_dict(),
        "transform": {
            "so3": [list(row) for row in transform.so3],
            "u1_angle": transform.u1_angle,
            "eta1_sign": transform.eta1_sign,
        },
        "meta": _meta(args),
    }
    target = _outdir(args) / "normal_form.json"
    _write_json(target, payload)
    print(f"{tag.variant}: wrote {target}")
    return 0


_COMMANDS = {
    "evolve": cmd_evolve,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "extend-check": cmd_extend_check,
    "normal-form": cmd_normal_form,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    known, _ = _config_parser().parse_known_args(argv)
    try:
        config = None
        if known.config:
            with open(known.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"--config file {known.config} must hold a JSON object")
        args = (build_parser(config) if config else _default_parser()).parse_args(argv)
        # argparse checks neither the signs of --tol and --step nor the
        # --arith of a config file
        if not (0 < args.tol < math.inf and 0 < args.step < math.inf):
            raise ValueError("tolerances and step must be positive and finite")
        if args.arith not in ("float", "rational"):
            raise ValueError(f"unknown arithmetic mode {args.arith!r}")
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
