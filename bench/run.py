"""Benchmark of the ehncs Monte Carlo harness, stability analysis and region scan.

Run from the repository root:

    python3 bench/run.py --workload run_wide --seed 1 --seconds 35 --trace 0

Workloads: run_wide, sweep_narrow, analyze_regions (see bench/README.md).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Spans and a full
result record are written under .bench_out/ in the repository root.

The package is imported from src/ of the same checkout, never from an
installed copy; without it the benchmark exits with status 2.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
RECORD = BENCH / "reference.json"
CONFIG = SRC / "ehncs" / "configs" / "reference.cfg"

# single-process load: BLAS/OpenMP pools pinned to one thread (<= nproc)
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120

# The host's speed shifts by up to 2x for seconds to minutes at a time
# (other tenants, CPU frequency levels) and moves every timing of a run
# together.  A fixed reference kernel is timed before the first pass, after
# every pass and after every set-up; wall_norm_s and setup_s rescale each
# pass or set-up by the kernel time around it, quoting it at the speed where
# the kernel takes PROBE_NOMINAL_S.
PROBE_STEPS = 3000
PROBE_NOMINAL_S = 0.15

# set-up as a user pays it: a fresh interpreter imports the package, parses
# the reference config and builds the simulation setup; the reference kernel
# then gives the host speed it ran at
SETUP_CODE = """
import sys
from time import perf_counter
start = perf_counter()
sys.path.insert(0, sys.argv[1])
from ehncs.config import build_setup, parse_config
build_setup(parse_config(sys.argv[2]))
setup = perf_counter() - start
sys.path.insert(0, sys.argv[3])
from run import probe
print(setup, probe())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("run_wide", "sweep_narrow", "analyze_regions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(repeats: int) -> tuple[list[float], list[float]]:
    """Set-up wall times in fresh interpreters and the host speed of each."""
    times, speeds = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(CONFIG),
                               str(BENCH)],
                              cwd=ROOT, capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        setup, kernel = map(float, proc.stdout.split()[-2:])
        times.append(setup)
        speeds.append(PROBE_NOMINAL_S / kernel)
    return times, speeds


def probe() -> float:
    """Seconds for the reference kernel: PROBE_STEPS steps of a 2x3 complex
    SVD, 2x2 eigh, inverse and products, and scalar Python work, the
    harness's instruction mix.  It calls no ehncs code, so changes to the
    program do not move it."""
    import numpy as np

    rng = np.random.default_rng(0)
    A = np.array([[1.3, 0.1], [-0.2, 1.2]])
    eye = np.eye(2)
    S = eye.copy()
    start = perf_counter()
    for _ in range(PROBE_STEPS):
        H = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        np.linalg.svd(H)
        lam, _ = np.linalg.eigh(S)
        S = A @ np.linalg.inv(S + eye) @ A.T + eye
        float(np.sqrt(lam.clip(0.0).sum()))
    return perf_counter() - start


def repeat_for(seconds: float, run_once) -> list:
    """run_once() -> (wall seconds, value), repeated while one more run is
    expected to end within `seconds`; at least one run."""
    runs = []
    start = perf_counter()
    while not runs or (perf_counter() - start
                       + statistics.median(r[0] for r in runs) <= seconds):
        runs.append(run_once())
    return runs


def timed(fn):
    start = perf_counter()
    value = fn()
    return perf_counter() - start, value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS)}


def untraced_passes(run_pass, seconds: float):
    """Passes with the reference kernel timed before the first and after
    each; returns pass walls, host speeds (PROBE_NOMINAL_S over the mean
    kernel time around each pass), outputs and kernel times."""
    probes = [probe()]

    def probed_pass():
        wall, out = timed(run_pass)
        probes.append(probe())
        return wall + probes[-1], (wall, out)

    runs = [r[1] for r in repeat_for(seconds, probed_pass)]
    speeds = [PROBE_NOMINAL_S / statistics.fmean(probes[i:i + 2])
              for i in range(len(runs))]
    return [r[0] for r in runs], speeds, [r[1] for r in runs], probes


def traced_passes(run_pass, modules: dict, seconds: float):
    """Alternating untraced and traced passes; returns untraced walls,
    traced walls, (untraced, traced) output pairs, the tracer totals and
    the first traced pass's tracer, which alone keeps its spans."""
    import tracing

    totals = tracing.Tracer(keep_spans=False)
    first = []

    def pair():
        plain = timed(run_pass)
        tracer = tracing.Tracer(keep_spans=not first)
        with tracing.traced(tracer, **modules):
            traced = timed(lambda: run_pass(tracer))
        totals.merge(tracer)
        if not first:
            first.append(tracer)
        return plain[0] + traced[0], (plain, traced)

    pairs = [p[1] for p in repeat_for(seconds, pair)]
    return ([p[0][0] for p in pairs], [p[1][0] for p in pairs],
            [(p[0][1], p[1][1]) for p in pairs], totals, first[0])


def run(workload: str, seed: int, seconds: float, trace: int, sizes=None,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result record (see `emit`)."""
    import ehncs
    import tracing
    import workloads as wl
    from ehncs.config import build_setup, parse_config

    default_sizes = wl.Sizes()
    sizes = sizes or default_sizes
    out_dir = OUT / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    setup_times, setup_speeds = measure_setup(setup_repeats) if trace == 0 else ([], [])
    ctx = wl.Context(setup=build_setup(parse_config(CONFIG)), config_path=str(CONFIG),
                     out_dir=out_dir, seed=seed % 2**32,  # ehncs seeds are >= 0
                     sizes=sizes)
    checks = wl.Checks()

    def run_pass(tracer=None):
        return wl.PASSES[workload](ctx, checks, tracer)

    extra = {}
    if trace == 0:
        walls, speeds, outputs, probes = untraced_passes(run_pass, seconds)
        metrics = {"wall_norm_s": (statistics.median(w * v for w, v in zip(walls, speeds)), "s"),
                   "setup_s": (statistics.median(t * v for t, v in zip(setup_times, setup_speeds)), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        extra["host_speed"] = (statistics.median(speeds), "x")
        extra["setup_raw_s"] = (statistics.median(setup_times), "s")
    else:
        modules = {"precoder_module": sys.modules[ehncs.solve_theorem1.__module__]}
        if workload == "analyze_regions":
            modules["cli_module"] = sys.modules[wl.cli_main.__module__]
            modules["scan_module"] = sys.modules[ehncs.decision_region_scan.__module__]
        else:
            modules["slot_module"] = sys.modules[ehncs.run_slot.__module__]
        walls, traced_walls, pairs, totals, first = traced_passes(run_pass, modules, seconds)
        for i, (plain, traced) in enumerate(pairs):
            checks.item(f"{workload}: traced pass {i} output equals untraced",
                        wl.behaviour_values(traced)
                        == wl.behaviour_values(plain))
        first.write_spans(OUT / f"spans_{workload}.csv")
        outputs, probes = [p[0] for p in pairs], []
        metrics = tracing.layer_metrics(totals, len(traced_walls))
        metrics["trace_overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0, "frac")
        slots = totals.calls["sim.run_slot"]
        if slots:
            # the per-slot self times partition the traced passes' wall time
            extra["slot_self_sum_us"] = (
                sum(metrics[m][0] for m in tracing.SLOT_TIME_METRICS), "us")
            extra["traced_pass_us_per_slot"] = (sum(traced_walls) / slots * 1e6, "us")

    for i, out in enumerate(outputs[1:], start=1):
        checks.item(f"{workload}: pass {i} output equals pass 0", out == outputs[0])
    behaviour = wl.behaviour_values(outputs[0])
    if sizes == default_sizes:
        record = json.loads(RECORD.read_text())[workload]
        wl.check_against_record(workload, behaviour, record, checks)

    wall_s = statistics.median(walls)
    extra.update({"wall_s": (wall_s, "s"),
                  "failed_frac": (len(checks.failed) / checks.attempted, "frac"),
                  "passes": (len(walls), "count")})
    if outputs[0].get("slots"):
        extra["slots_per_s"] = (outputs[0]["slots"] / wall_s, "1/s")
    if "gap_ci_rel" in outputs[0]:
        gap = outputs[0]["gap_ci_rel"]
        extra["gap_ci_rel"] = (gap, "frac")
        extra["gap_resolve_s"] = (wall_s * (gap / wl.GAP_TARGET) ** 2, "s")
    return {"env": environment(workload, seed, trace), "metrics": metrics,
            "extra": extra, "pass_walls_s": walls, "probes_s": probes,
            "behaviour": behaviour, "attempted": checks.attempted,
            "failed": checks.failed}


def emit(result: dict) -> None:
    env = result["env"]
    print("# ehncs benchmark " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} {value!r} {unit}")
    for name, (value, unit) in result["extra"].items():
        print(f"extra {name} {value!r} {unit}")
    for name, value in result["behaviour"].items():
        print(f"record {name} {value!r}")
    for name in result["failed"]:
        print(f"FAILED {name}")
    (OUT / f"result_{env['workload']}_trace{env['trace']}.json").write_text(
        json.dumps(result, indent=1, default=repr) + "\n")
    print(json.dumps({
        "correct": not result["failed"], "attempted": result["attempted"],
        "failed": len(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ehncs" / "__init__.py").is_file():
        print(f"error: no ehncs package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import ehncs
    if Path(ehncs.__file__).resolve().parent != (SRC / "ehncs").resolve():
        print(f"error: imported ehncs from {ehncs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    emit(run(args.workload, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
