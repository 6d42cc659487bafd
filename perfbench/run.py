"""End-to-end benchmark of the arealstat pipeline, with a traced mode that
gives per-layer numbers.

    python3 perfbench/run.py --workload county_pipeline --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  Each workload is a seeded planted-structure queen
lattice fed to ``arealstat.pipeline.run_subcommand``, the entry the CLI
calls.  The load is a closed loop with one client: one repetition at a
time, each in a fresh interpreter, so import cost and peak memory are
those of a real CLI call.  Repetitions continue until ``--seconds`` would
be exceeded (at least MIN_REPS).  Every repetition's outputs are checked,
and must be byte-identical to the first repetition's.

``--trace 0`` reports the end-to-end metrics: wall_s (median time from
calling run_subcommand to every output file written), peak_rss_mb (median
ru_maxrss of the repetition's process), setup_s (median time from process
start through ``import arealstat`` and ``load_config``, over SETUP_PROBES
set-up-only processes and every repetition) and ok_ratio (processes that
neither raised nor failed a check, over those started; the table also
prints its complement, fail_ratio).

``--trace 1`` alternates untraced and traced repetitions.  The traced ones
wrap the library's public functions from outside (see tracer.py) and give
the per-layer metrics as medians over traced repetitions; trace.overhead_s
is the traced median wall time minus the untraced one.

``--workload all`` runs every workload in turn; the metrics in the last
line are then prefixed with the workload name.  ``--side`` shrinks every
lattice, for the harness's own smoke check.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from gen import write_inputs
from tracer import METRIC_UNITS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_REPS = 2
# set-up-only processes started before the repetitions, so that setup_s is
# a median over at least SETUP_PROBES + MIN_REPS samples
SETUP_PROBES = 4
# a process still running this long after its workload started is killed
# and counted as failed, so that one invocation ends within 180 s
DEADLINE_S = 150.0
PLANTED = 0.5
# the fitted spatial parameter must lie within this many of its standard
# deviations of PLANTED; the deviation scales as 1/sqrt(n) when --side
# shrinks a lattice
BAND_SDS = 6.0


@dataclass(frozen=True)
class Workload:
    command: str
    side: int
    model: str
    decision: str | None
    # standard deviation of the fitted spatial parameter at this side
    param_sd: float | None


# Each workload loads one costly layer and bypasses the others, so a gain in
# one layer, or a cost moved onto another, shows.
WORKLOADS = {
    # Ward, O(n^3), is ~95% of the run; every output file is written.  At
    # n=1600 the run would take 26 s.  Seeds 1-20 gave lambda in
    # 0.389-0.553, sd 0.04.
    "county_pipeline": Workload("pipeline", 30, "error", "fit-error", 0.04),
    # Bypasses Ward: the dense spectral cache is ~85% and OLS selection ~10%,
    # and the lag fit runs where county_pipeline runs the error fit.  Seeds
    # 1-20 gave rho in 0.487-0.509, sd 0.006.
    "metro_regress": Workload("regress", 60, "lag", "fit-lag", 0.006),
    # Bypasses Ward and the spatial fit: per-unit and per-vertex loops in
    # ingest, weights, Gi* and render dominate.
    "state_hotspot": Workload("hotspot", 200, "error", None, None),
}

NOT_YET_WORKLOADS = [
    {
        "name": "state_pipeline",
        "command": "pipeline",
        "n": 40000,
        "reason": "fails today: Ward's n x n cost table needs about 12.8 GB "
        "against 8 GB, and spectral_cache refuses n > 10000; add it once "
        "Ward needs O(n*d) memory and the log-determinant is sparse",
    }
]

# files each subcommand writes (README, "Command line")
OWNED_FILES = {
    "pipeline": (
        "report.json",
        "report.txt",
        "weights.txt",
        "islands.txt",
        "summary.csv",
        "hotspot.csv",
        "ols_coefficients.csv",
        "spatial_coefficients.csv",
        "comparison.csv",
        "groups.csv",
        "spearman.csv",
        "map_outcome.svg",
        "map_hotspot.svg",
        "map_groups.svg",
        "map_comparison.svg",
        "augmented.geojson",
    ),
    "regress": (
        "report.json",
        "report.txt",
        "ols_coefficients.csv",
        "spatial_coefficients.csv",
        "comparison.csv",
    ),
    "hotspot": (
        "report.json",
        "report.txt",
        "hotspot.csv",
        "map_outcome.svg",
        "map_hotspot.svg",
    ),
}


@dataclass
class Rep:
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    problems: list
    spans_path: str | None = None
    output_bytes: int = 0

    @property
    def traced(self) -> bool:
        return self.spans_path is not None


def _run_worker(config_path: str, command: str, spans_path: str | None,
                stderr_path: str, deadline: float) -> Rep:
    args = [sys.executable, WORKER, SRC, config_path, command]
    if spans_path:
        args.append(spans_path)
    start = time.perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, bufsize=0, cwd=ROOT)
        try:
            fd = proc.stdout.fileno()
            line = b""
            while not line.endswith(b"\n"):
                ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))
                if not ready:
                    raise subprocess.TimeoutExpired(args, deadline - start)
                chunk = os.read(fd, 1)
                if not chunk:
                    break
                line += chunk
            setup_end = time.perf_counter()
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
            end = time.perf_counter()
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return Rep(0.0, 0.0, 0.0, ["timeout"], spans_path)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != b"ready\n":
        with open(stderr_path, "rb") as fh:
            tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-1:]
        return Rep(setup_end - start, 0.0, 0.0, [f"set-up failed: {tail}"], spans_path)
    setup_s = setup_end - start
    if command == "setup":
        return Rep(setup_s, 0.0, 0.0, [] if proc.returncode == 0 else ["set-up probe failed"])
    try:
        result = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Rep(setup_s, end - setup_end, 0.0,
                   [f"worker exited {proc.returncode} without a result"], spans_path)
    problems = [f"run raised: {result['error']}"] if result["error"] else []
    return Rep(setup_s, result["wall_s"], result["peak_rss_mb"], problems, spans_path)


def _check_outputs(wl: Workload, n: int, outdir: str) -> tuple[list, dict, int]:
    """Named failed checks, sha256 of every output file, total bytes."""
    problems = []
    digests = {}
    total = 0
    present = set(os.listdir(outdir)) if os.path.isdir(outdir) else set()
    for name in sorted(present):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        total += len(data)
    missing = [f for f in OWNED_FILES[wl.command] if f not in present]
    if missing:
        problems.append(f"files_exist: missing {missing}")
        return problems, digests, total
    with open(os.path.join(outdir, "report.json"), "rb") as fh:
        report = json.load(fh)
    if wl.decision is not None:
        decision = report["decision"]["decision"]
        if decision != wl.decision:
            problems.append(f"decision: {decision!r}, expected {wl.decision!r}")
        else:
            pname = "lambda" if wl.decision == "fit-error" else "rho"
            coef = {r["name"]: r["coefficient"] for r in report["spatial"]["coefficients"]}
            value = coef[pname]
            half = BAND_SDS * wl.param_sd * math.sqrt(wl.side * wl.side / n)
            if abs(value - PLANTED) > half:
                problems.append(
                    f"param_band: {pname} = {value:.4f} outside {PLANTED} +- {half:.4f}"
                )
    if wl.command == "hotspot":
        with open(os.path.join(outdir, "hotspot.csv"), "rb") as fh:
            rows = fh.read().count(b"\n") - 1
        if rows != n:
            problems.append(f"hotspot_rows: {rows} rows, expected {n}")
        counted = sum(report["hotspot"]["counts"].values())
        if counted != n:
            problems.append(f"hotspot_counts: classes sum to {counted}, expected {n}")
    return problems, digests, total


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _high_percentile(count: int) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    if count < 20:
        return f"none (needs >= 20 samples for p50, have {count})"
    return f"p{int(100 * (1 - 10 / count))}"


def _blas_threads() -> int | None:
    """Threads in the pool of numpy's bundled OpenBLAS, or None if numpy
    bundles none."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(pattern)):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _context(runs: list[dict]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "load": "closed loop, one client, one fresh process per repetition",
        "workloads": runs,
        "not_yet_workloads": NOT_YET_WORKLOADS,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, side: int | None) -> dict:
    """Measure one workload; returns its metrics, counts and context."""
    wl = WORKLOADS[name]
    side = side or wl.side
    n = side * side
    os.makedirs(WORK_ROOT, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        config_path = write_inputs(os.path.join(work, "input"), side, wl.model, PLANTED, seed)
        outdir = os.path.join(work, "input", "out")
        stderr_path = os.path.join(work, "stderr.txt")
        reps: list[Rep] = []
        reference = None
        start = time.perf_counter()
        probes = [] if trace else [
            _run_worker(config_path, "setup", None, stderr_path, deadline)
            for _ in range(SETUP_PROBES)
        ]
        while True:
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - rep_start if reps else 0.0
            if len(reps) >= MIN_REPS and elapsed + last > seconds:
                break
            if time.perf_counter() > deadline:
                break
            rep_start = time.perf_counter()
            traced = trace and len(reps) % 2 == 1
            spans = os.path.join(work, f"spans{len(reps)}.json") if traced else None
            rep = _run_worker(config_path, wl.command, spans, stderr_path, deadline)
            problems, digests, rep.output_bytes = _check_outputs(wl, n, outdir)
            if reference is None and not rep.problems and not problems:
                reference = digests
            elif reference is not None and digests != reference:
                changed = sorted(k for k in set(digests) | set(reference)
                                 if digests.get(k) != reference.get(k))
                problems.append(f"deterministic: files differ from the first passing repetition: {changed}")
            rep.problems += problems
            reps.append(rep)
            shutil.rmtree(outdir, ignore_errors=True)

        plain = [r for r in reps if not r.traced]
        plain_wall = _median([r.wall_s for r in plain if r.wall_s > 0])
        attempted = probes + reps
        failed = sum(1 for r in attempted if r.problems)
        if trace:
            # spans are written even when the run raised
            traced_reps = [r for r in reps if r.traced and os.path.exists(r.spans_path)]
            per_rep = []
            for r in traced_reps:
                with open(r.spans_path, encoding="utf-8") as fh:
                    m = layer_metrics(json.load(fh))
                m["pipeline.output_bytes"] = r.output_bytes
                per_rep.append(m)
            metrics = {
                k: (_median([m[k] for m in per_rep]), unit) for k, unit in METRIC_UNITS.items()
            }
            traced_wall = _median([r.wall_s for r in traced_reps])
            metrics["trace.wall_s"] = (traced_wall, "s")
            metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        else:
            metrics = {
                "wall_s": (plain_wall, "s"),
                "peak_rss_mb": (_median([r.peak_rss_mb for r in reps if r.peak_rss_mb > 0]), "MiB"),
                "setup_s": (_median([r.setup_s for r in attempted if r.setup_s > 0]), "s"),
                "ok_ratio": (1.0 - failed / len(attempted), "1"),
            }
        return {
            "name": name,
            "command": wl.command,
            "seed": seed,
            "n": n,
            "vertices": 4 * n,
            "planted": f"{wl.model} model, parameter {PLANTED}",
            "samples": len(plain),
            "traced_samples": len(reps) - len(plain),
            "attempted": len(attempted),
            "failed": failed,
            "problems": sorted({p for r in attempted for p in r.problems}),
            "metrics": metrics,
            "walls": [r.wall_s for r in plain],
            "untraced_wall_s": plain_wall,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_table(run: dict, trace: bool) -> None:
    print(
        f"workload {run['name']}: {run['command']}, n={run['n']}, "
        f"vertices={run['vertices']}, seed={run['seed']}, {run['planted']}"
    )
    for key, (value, unit) in run["metrics"].items():
        print(f"  {key:44s} {value:14.6g} {unit}")
    if trace:
        m = run["metrics"]
        wall = run["untraced_wall_s"]
        if wall > 0:
            for key in ("cluster.ward_cluster_s", "spatial_models.spectral_cache_s"):
                print(f"  share of untraced wall_s: {key} {m[key][0] / wall:.1%}")
    else:
        fail_ratio = run["failed"] / run["attempted"]
        print(f"  {'fail_ratio':44s} {fail_ratio:14.6g} 1 ({run['failed']} of {run['attempted']})")
        print(
            f"  wall_s is the median of {run['samples']} samples; highest percentile "
            f"with ten beyond it: {_high_percentile(run['samples'])}"
        )
    for problem in run["problems"]:
        print(f"  FAILED CHECK {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--side", type=int, help="lattice side for every workload (smoke check)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "arealstat", "pipeline.py")):
        print(f"no arealstat sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.side) for name in names]
    for run in runs:
        _print_table(run, bool(args.trace))
    context = _context(
        [{k: run[k] for k in ("name", "command", "n", "vertices", "seed", "samples",
                               "traced_samples", "walls")} for run in runs]
    )
    print("context " + json.dumps(context, sort_keys=True))
    metrics = {}
    for run in runs:
        prefix = "" if len(runs) == 1 else run["name"] + "."
        for key, (value, unit) in run["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
