"""Run the README commands and the benchmark's CLI jobs; keep every artifact.

    python3 tools/artifact_snapshot.py --out DIR [--src SRC] [--manifest FILE | --check FILE]

Each command runs in-process through ``esasaki.cli.main`` with the
package imported from SRC (default: ``src/`` of this checkout), in its
own directory under DIR, next to a ``run.txt`` holding its argv, exit
code, stdout and stderr, with DIR written as ``DIR`` and paths inside
the repository relative to its root, so that two checkouts give the
same files.  The commands are the README examples (with an
``eta.json`` holding a conformal-family coframe), a Y^{p,q} family whose
group K has 10366 elements, a 500-point ``verify`` (eight batches of
curvature stencils), a 5-point ``verify`` on the y-band of width
1.2e-3 at A = -1/108 + 1e-8 (a band-scaled step), a float-mode A = 0
check (the round branch's orbit data from float roots), a float-mode
Y^{p,q} check (its turning series in floats), five-parameter flows
tested for extension (one with a round-type end, at two steps, for its
limits and parity fits, and two whose ends both pass the necessary
conditions), three flows that stop
early (a five-parameter flow whose mu drift is NaN, a conformal flow at
its turning point, a general flow whose coframe degenerates), four flows
that record every sample (a 4,001-sample case-i closed form over several
write blocks, and at ``--record-every 1`` a conformal flow, a
five-parameter flow and a general flow of weight m = 2 from a conformal
coframe), the seed-1 ``flows`` jobs, the ``verify`` jobs
of the seed-1 ``curvature`` round, the ``extend-check`` jobs of the
seed-1 ``extension`` round and the jobs of the seed-1 ``classify``
round, as ``perfbench/run.py --list-jobs`` prints them: its exact
``normal-form`` jobs, and its ``classify_A(A, C, 0)`` jobs (the family
ladder, A denominators 3e4 to 1.5e8, and the negative controls: an
irrational-root A, -1/108, an A below it and an A > 0) as
``extend-check --arith rational`` commands, then a conformal flow
whose coarse steps overshoot h = 0 (exit 2, its error naming the
stage), the README's five-parameter flow at weight m = 0 (an
explicit ``--m 0``, where the command's default is m = 1), and last a
Y^{p,q} family whose group K has 1,000,818 elements (``diagram.json``
describes K by N, its step and its offset, so both diagram families
exit 0 with small artifacts).
Commands are only ever appended, so the directories of an older
snapshot keep their names.  Two snapshots compare with
``diff -r``; to compare a change against another checkout:

    python3 tools/artifact_snapshot.py --src ../base/src --out /tmp/a
    python3 tools/artifact_snapshot.py --out /tmp/b
    diff -r /tmp/a /tmp/b

``--manifest FILE`` writes the SHA-256 digest of every file of the
snapshot, keyed by its path relative to DIR, with the Python and numpy
versions that made them.  ``--check FILE`` compares a fresh snapshot with
such a manifest and exits 1 listing each path that changed, is missing
or is new; when the Python or numpy version differs from the manifest's
it names the mismatch and compares no digest.  The checked-in manifest
is ``tools/artifact_manifest.json``; a change that alters artifacts on
purpose writes it again with ``--manifest``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent

README = [
    "enumerate --bound 31",
    "evolve --case ii --h0 0.3 --A=-9/2197 --C 6",
    "evolve --case i --k 1 --m 0",
    "evolve --case iii --h0 0.4 --k 0.3 --c0 0.1 --a0 0.2",
    "evolve --case general --input {eta}",
    "verify --A=-9/2197 --C 6 --points 10",
    "extend-check --A=-9/2197 --C 6 --m 0 --arith rational",
    "extend-check --case-iii --h0 0.4 --k0 0.3 --c0 0.1 --a0 0.2",
    "normal-form --input {eta}",
]

# S = 576/1729 at C = 6: |K| = 10366
LARGE_K = "extend-check --A=-47610000/5168743489 --C 6 --m 0 --arith rational"

MANY_POINTS = "verify --A=-9/2197 --C 6 --points 500"

# A = -1/108 + 1e-8: a y-band of 1.2e-3, so the default step is 3e-6
NARROW_BAND = "verify --A=-0.009259249259259259 --C 6 --points 5"

# the benchmark's A = 0 jobs run with --arith rational only
ROUND_FLOAT = "extend-check --A 0 --C 6"

# the README family in float arithmetic: float roots and a float turning series
YPQ_FLOAT = "extend-check --A=-0.004096495220755576 --C 6 --m 0"

# the lower end of this flow is round-type: check_round_branch decides it
ROUND_TYPE_START = (
    "--h0 0.16888014917517297 --k0 0.407892864503532"
    " --b0 0.12613615814277324 --c0 0.14661975665727922 --a0 0.46499963829121627"
)
ROUND_TYPE_END = f"extend-check --case-iii --step 2e-3 {ROUND_TYPE_START}"

# five-parameter flows tested for extension: the round-type end at the
# default step, and two flows whose ends both pass the necessary conditions
CASE_III_ENDS = [
    f"extend-check --case-iii {ROUND_TYPE_START}",
    "extend-check --case-iii --h0 0.7479046235545557 --k0 0.7358691374113622"
    " --b0=-0.43154992082753774 --c0 0.4461503348073532 --a0 0.5853265736028771",
    "extend-check --case-iii --h0 0.8860664941172746 --k0 0.8854937164451794"
    " --b0=-0.24983824983779568 --c0 0.2456021670539219 --a0 0.6422931608786369",
]


# h = k: u or v vanishes at once, and the drift of mu is NaN
NAN_DRIFT = "evolve --case iii --h0 0.4 --k 0.4 --b0 0.05 --c0 0.05 --a0 0.3 --m 1 --t1 0.05"

TURNING_POINT = "evolve --case ii --h0 0.3 --A=-9/2197 --C 6 --m 1 --t1 2"

# steps of 0.75: the first one's k4 stage lands at h^2 < 0
COARSE_STEP = "evolve --case ii --h0 0.05 --A=0.01 --t1 3 --step 0.7"

# case iii defaults to m = 1; an explicit --m 0 must be kept
WEIGHT_ZERO = "evolve --case iii --h0 0.4 --k 0.3 --c0 0.1 --a0 0.2 --m 0"

# a valid two-root family whose K has 1,000,818 elements
K_OVER_LIMIT = "extend-check --A=-11905639707025/1610339369154876 --C 1 --m 0 --arith rational"

# {degenerate} holds a conformal coframe just above the lower turning
# value of A = -0.9/108, where eta1 -> 0
COFRAME_DEGENERATES = "evolve --case general --input {degenerate} --t1 3"

EVERY_SAMPLE = [
    "evolve --case i --k 0.7 --m 3 --t0 -1.5 --t1 0.5 --step 5e-4",
    "evolve --case ii --h0 0.25 --a0 0.4 --C -2 --m 2 --t1 1.5 --record-every 1",
    "evolve --case iii --h0 0.5 --k 0.3 --b0 -0.05 --c0 0.1 --a0 0.3 --m 2 --t1 1 --record-every 1",
    # {weighted} holds the conformal coframe (h, a, C) = (0.25, 0.4, 1) of
    # weight m = 2, whose coframe degenerates at t = 0.907
    "evolve --case general --input {weighted} --t1 0.8 --record-every 1",
]


def benchmark_jobs(workload: str, kinds: tuple) -> list:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1", "--list-jobs"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    rows = (line.split("\t", 1) for line in out.splitlines() if "\t" in line)
    return [label for kind, label in rows if kind in kinds]


def classify_commands() -> list:
    """The classify round's classify_A(A, C, m) jobs as extend-check
    commands, which classify in the same exact arithmetic."""
    calls = (label.removeprefix("classify_A(").removesuffix(")").split(", ")
             for label in benchmark_jobs("classify", ("family", "negative")))
    return [f"extend-check --A={A} --C {C} --m {m} --arith rational" for A, C, m in calls]


def toolchain() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__}


def digests(out: Path) -> dict:
    """SHA-256 of every file under ``out``, keyed by its relative path."""
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def check(manifest_file: str, out: Path) -> int:
    manifest = json.loads(Path(manifest_file).read_text())
    recorded = manifest["toolchain"]
    mismatch = [f"{name} {recorded.get(name)} in the manifest, {version} here"
                for name, version in toolchain().items() if recorded.get(name) != version]
    if mismatch:
        print(f"toolchain mismatch: {'; '.join(mismatch)}; no digest compared")
        return 1
    want, got = manifest["files"], digests(out)
    differ = [("changed", sorted(p for p in want.keys() & got.keys() if want[p] != got[p])),
              ("missing", sorted(want.keys() - got.keys())), ("new", sorted(got.keys() - want.keys()))]
    for label, paths in differ:
        for path in paths:
            print(f"{label}: {path}")
    count = sum(len(paths) for _, paths in differ)
    print(f"{count} of {len(want.keys() | got.keys())} paths differ from {manifest_file}")
    return 1 if count else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="snapshot directory (created)")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the esasaki package")
    gate = parser.add_mutually_exclusive_group()
    gate.add_argument("--manifest", help="write the digest manifest of the snapshot to this file")
    gate.add_argument("--check", help="compare the snapshot with this digest manifest")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    from esasaki import cli, evolution, moduli

    out = Path(args.out)
    out.mkdir(parents=True)
    eta = out / "eta.json"
    eta.write_text(json.dumps(evolution.CaseIIState(0.35, 0.22, 6.0, 0).to_id_structure().to_json_dict()))
    A = -0.9 / 108
    h0 = math.sqrt(float(moduli.cubic_roots(A)[0][0])) + 1e-3
    degenerate = out / "degenerate.json"
    degenerate.write_text(json.dumps(evolution.CaseIIState.from_A(h0, A, 6.0, 0).to_id_structure().to_json_dict()))
    weighted = out / "weighted.json"
    weighted.write_text(json.dumps(evolution.CaseIIState(0.25, 0.4, 1.0, 2).to_id_structure().to_json_dict()))

    commands = [("readme", c.format(eta=eta)) for c in README]
    commands += [("large-k", LARGE_K), ("many-points", MANY_POINTS), ("narrow-band", NARROW_BAND),
                 ("round-float", ROUND_FLOAT), ("round-type-end", ROUND_TYPE_END), ("nan-drift", NAN_DRIFT),
                 ("turning-point", TURNING_POINT),
                 ("coframe-degenerates", COFRAME_DEGENERATES.format(degenerate=degenerate))]
    commands += [("every-sample", c.format(weighted=weighted)) for c in EVERY_SAMPLE]
    commands += [("ypq-float", YPQ_FLOAT)] + [("case-iii-ends", c) for c in CASE_III_ENDS]
    commands += [("flows", c) for c in benchmark_jobs("flows", ("case_i", "case_ii", "case_iii", "general"))]
    commands += [("curvature", c) for c in benchmark_jobs("curvature", tuple(f"verify{n}" for n in range(1, 6)))]
    commands += [("extension", c) for c in benchmark_jobs("extension", ("ypq", "ypq_small_delta", "round", "case_iii"))]
    commands += [("classify", c) for c in benchmark_jobs("classify", ("normal_form",)) + classify_commands()]
    commands += [("coarse-step", COARSE_STEP), ("weight-zero", WEIGHT_ZERO), ("k-over-limit", K_OVER_LIMIT)]
    for n, (group, command) in enumerate(commands):
        workdir = out / f"{group}-{n:02d}"
        workdir.mkdir()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(shlex.split(command) + ["--out", str(workdir)])
        # paths name the snapshot directory or the checkout; keep them relative
        text = f"{command}\nexit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
        (workdir / "run.txt").write_text(text.replace(str(out), "DIR").replace(f"{ROOT}/", ""))
    print(f"{len(commands)} commands -> {out}")
    if args.check:
        return check(args.check, out)
    if args.manifest:
        manifest = {"toolchain": toolchain(), "files": digests(out)}
        Path(args.manifest).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
