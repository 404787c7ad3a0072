"""Benchmark of the esasaki pipeline: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
there.  One process, one thread (BLAS is pinned to one thread before
numpy loads), closed loop: each job starts when the previous returns.

--trace 0  times whole rounds of the workload's jobs until --seconds have
           passed and at least 100 jobs are timed, then sets the run up
           twice more in child processes, and prints the end-to-end
           metrics: wall_s (median round time), job_ms.p50, job_ms.p90,
           setup_s (median of three set-ups) and peak_rss_mb.
--trace 1  alternates two untraced rounds with two rounds in which every
           public function of every module is wrapped, and prints the
           per-layer metrics of the last traced round and the tracing
           overhead (mean traced minus mean untraced round time); the
           spans go to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job whose output disagrees
with the reference makes ``correct`` false; a job whose own verdict
reports a failed check counts in ``failed``.
"""

import os
import sys
import time

_T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
MIN_JOBS = 100
SETUPS = 3

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def load_package():
    """Import esasaki from the checkout's src/, and nowhere else."""
    if not (SRC / "esasaki" / "__init__.py").is_file():
        raise SystemExit(f"error: no esasaki sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import esasaki
    from esasaki import boundary, cli, evolution, exterior, geometry, moduli, structures  # noqa: F401

    if Path(esasaki.__file__).resolve().parent != (SRC / "esasaki").resolve():
        raise SystemExit(f"error: esasaki imported from {esasaki.__file__}, not from {SRC}")
    return esasaki


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "esasaki").glob("*.py")))


class Round:
    """Runs jobs, keeps latencies and verdicts, and holds each job's
    first artifacts to prove that repeats are byte-identical."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.latencies = []
        self.round_times = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.artifact_bytes = 0
        self._digests = {}

    def run_job(self, index, job):
        from reference import Mismatch

        job.prepare()
        start = time.perf_counter()
        raw = job.call()
        elapsed = time.perf_counter() - start
        out = job.collect(raw)
        self.attempted += 1
        if job.cli:
            self.artifact_bytes += sum(len(data) for data in out.files.values())
        try:
            if not job.check(out):
                self.failed += 1
            digest = out.digest()
            first = self._digests.setdefault(index, digest)
            if digest != first:
                raise Mismatch("artifacts differ from the first run of the same job")
        except Mismatch as exc:
            self.errors.append(f"{job.label}: {exc}")
        return elapsed

    def run_round(self):
        total = 0.0
        for index, job in enumerate(self.jobs):
            elapsed = self.run_job(index, job)
            self.latencies.append(elapsed)
            total += elapsed
        self.round_times.append(total)
        return total


def set_up(workload: str, seed: int):
    """Imports, inputs and one untimed warm-up job of each kind."""
    esasaki = load_package()
    workdir = ROOT / ".perfbench_out" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.build(workload, esasaki, workdir, seed)
    runner = Round(jobs)
    seen = set()
    for index, job in enumerate(jobs):
        if job.kind not in seen:
            seen.add(job.kind)
            runner.run_job(index, job)
    runner.attempted = runner.failed = runner.artifact_bytes = 0
    return esasaki, runner, workdir


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh process doing the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(args) -> tuple:
    esasaki, runner, workdir = set_up(args.workload, args.seed)
    setup = time.perf_counter() - _T0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(runner.latencies) < MIN_JOBS:
        runner.run_round()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(workdir, ignore_errors=True)
    setups = [setup] + [child_setup_seconds(args) for _ in range(SETUPS - 1)]
    ms = [1e3 * t for t in runner.latencies]
    metrics = {
        "wall_s": (statistics.median(runner.round_times), "s"),
        "job_ms.p50": (statistics.median(ms), "ms"),
        "job_ms.p90": (percentile(ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{args.workload}: {len(runner.round_times)} rounds of {len(runner.jobs)} jobs, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    print("largest errors: " + json.dumps({k: float(f"{v:.3g}") for k, v in sorted(workloads.ACHIEVED.items())}))
    return runner, metrics


def per_layer(args) -> tuple:
    from tracer import Tracer

    esasaki, runner, workdir = set_up(args.workload, args.seed)
    untraced, traced = [], []
    for _ in range(2):
        untraced.append(runner.run_round())
        # the counts cover the last traced round only
        tracer = Tracer(esasaki)
        tracer.install()
        try:
            runner.artifact_bytes = 0
            traced.append(runner.run_round())
        finally:
            tracer.uninstall()
    untraced_s, traced_s = statistics.mean(untraced), statistics.mean(traced)
    shutil.rmtree(workdir, ignore_errors=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{args.workload}-{args.seed}.json.gz"
    tracer.write(trace_path)

    c, t, s = tracer.calls_of, tracer.ms_of, tracer.self_ms_of
    ricci = c("geometry.ricci_fd")
    metrics = {
        "cli.main.calls": (c("cli.main"), "count"),
        "cli.self_ms": (s("cli.main"), "ms"),
        "cli.artifact_bytes": (runner.artifact_bytes, "bytes"),
        "geometry.metric.calls": (tracer.counters["geometry.metric.calls"], "count"),
        "geometry.metric_per_point": (tracer.counters["geometry.metric.calls"] / ricci if ricci else 0, "count"),
        "moduli.diagram_elements": (tracer.counters["moduli.diagram_elements"], "count"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.span_name), "count"),
    }
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (c(name), "count")
    for name in LAYER_MS:
        metrics[f"{name}.ms"] = (t(name), "ms")
    print(f"{args.workload}: untraced round {untraced_s:.3f} s, traced round {traced_s:.3f} s; spans in {trace_path}")
    return runner, metrics


LAYER_CALLS = (
    "exterior.wedge", "exterior.d_invariant", "structures.residual_hypo", "structures.normal_form",
    "evolution.rk4_step", "evolution.general_rhs", "evolution.case_iii_rhs", "evolution.profile",
    "geometry.ricci_fd", "geometry.christoffel_fd", "moduli.classify_A", "moduli.cubic_roots",
    "moduli.build_diagram", "boundary.parity_fit", "boundary.richardson_limit",
)
LAYER_MS = (
    "exterior.wedge", "exterior.d_invariant", "structures.residual_hypo", "structures.normal_form",
    "evolution.rk4_step", "evolution.general_rhs", "evolution.profile", "geometry.ricci_fd",
    "geometry.christoffel_fd", "moduli.classify_A", "moduli.cubic_roots", "moduli.build_diagram",
    "boundary.check_circle_branch", "boundary.check_round_branch", "boundary.reject_case_iii",
    "boundary.parity_fit",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up seconds and exit")
    parser.add_argument("--list-jobs", action="store_true",
                        help="write the inputs of one round under .perfbench_out/, print its jobs and exit")
    args = parser.parse_args(argv)

    if args.list_jobs:
        workdir = ROOT / ".perfbench_out" / f"inputs-{args.workload}-{args.seed}"
        for job in workloads.build(args.workload, load_package(), workdir, args.seed):
            print(f"{job.kind}\t{job.label}")
        return 0

    if args.setup_only:
        _, _, workdir = set_up(args.workload, args.seed)
        print(repr(time.perf_counter() - _T0))
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    runner, metrics = (per_layer if args.trace else end_to_end)(args)
    print(f"src/ line count: {src_lines()}")
    for line in runner.errors[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
