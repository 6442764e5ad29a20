"""Command-line orchestration: run, sweep, analyze, regions.

Every output file starts with comment lines carrying the config hash, the
seed, the NumPy version, BLAS build and SIMD target that computed it (one
`# numpy=<version> blas=<name>-<version> simd=<target>` line: the BLAS
from numpy.__config__, the target NumPy's float64 exp dispatches to in
this process, from numpy.lib.introspect.opt_func_info; "unknown" where a
NumPy build does not say), and any --paths, --slots or --policy flag that
overrides the config, so results are traceable.
Identical (config, seed, flags) give identical bytes on one software and
CPU stack: the same NumPy and OpenBLAS versions and the same CPU
dispatch.  Within one NumPy and OpenBLAS build, a process's dispatch
setting alone moves the last bits on an AVX-512 x86-64 host:
OPENBLAS_CORETYPE=Haswell changes the bytes of run.csv (per-path mse by up
to 6.7e-15 relative), and NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
AVX512_SPR" changes the last digit of rhs_max in stability_report.txt.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .analysis import check_stability
from .channel import pitilde_stats
from .config import (POLICY_NAMES, ConfigError, ExperimentConfig, build_limiter,
                     build_model, build_setup, parse_config)
from .energy import ArrivalModel, estimate_inverse_mean
from .numerics import InputDomainError
from .precoder import (baseline_capacity_wf, baseline_constant_power,
                       baseline_mmse_wf, baseline_periodic_wf,
                       decision_region_scan, solve_theorem1)
from .sim import PATH_FIELDS, run_monte_carlo, sweep

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3

# offsets added to the config seed for the analysis-side RNG streams, kept
# clear of the per-path stream indices; the channel stream and its sample
# count serve only the shapes `pitilde_stats` has no exact law for
_STATS_STREAM = 1_000_003
_ALPHA_STREAM = 1_000_019
_N_CHANNEL_SAMPLES = 100_000


def policy_factory(name: str, period: int = 3):
    """callable(setup) -> per-slot policy for each named scheme."""
    if name == "proposed":
        return lambda setup: solve_theorem1
    if name == "baseline1":
        return lambda setup: baseline_capacity_wf
    if name == "baseline2":
        return lambda setup: (lambda ctx: baseline_periodic_wf(ctx, period))
    if name == "baseline3":
        return lambda setup: baseline_mmse_wf
    if name == "baseline4":
        return lambda setup: (
            lambda ctx: baseline_constant_power(ctx, setup.arrivals.mean, "capacity"))
    if name == "baseline5":
        return lambda setup: (
            lambda ctx: baseline_constant_power(ctx, setup.arrivals.mean, "mmse"))
    raise ConfigError([f"policy: unknown policy {name!r}"])


_BLAS = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
# the SIMD target float64 exp dispatches to in this process (NumPy >= 2.0)
_EXP = (np.lib.introspect.opt_func_info("^exp$", "float64")
        if hasattr(np.lib, "introspect") else {})
_SIMD = _EXP.get("exp", {}).get("dd", {}).get("current", "unknown")
_STACK_LINE = (f"# numpy={np.__version__} blas={_BLAS.get('name', 'unknown')}-"
               f"{_BLAS.get('version', 'unknown')} simd={_SIMD}")


def _write_csv(path: Path, cfg: ExperimentConfig, columns: list[str], rows,
               overrides=()) -> None:
    header = [f"# config_hash={cfg.config_hash}", f"# seed={cfg.seed}", _STACK_LINE]
    if overrides:
        header.append(f"# overrides={' '.join(overrides)}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows([line] for line in header)
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _fmt(v):
    return repr(v) if isinstance(v, float) else v


def cmd_run(cfg: ExperimentConfig, out_dir: Path, overrides=()) -> int:
    setup = build_setup(cfg)
    policy = policy_factory(cfg.policy, cfg.period)(setup)
    result = run_monte_carlo(setup, policy, cfg.n_paths, cfg.n_slots, cfg.seed)
    # tolist() hands _fmt the Python floats it writes by repr
    columns = [result.paths[f].tolist() for f in PATH_FIELDS[:7]]
    rows = [[p, *row, int(div)] for p, (*row, div) in enumerate(zip(*columns))]
    rows.append(["mean", result.mse.mean, result.tr_sigma.mean,
                 result.saturation_rate.mean, result.duty_cycle.mean, "", "",
                 result.n_diverged])
    rows.append(["ci95", result.mse.ci_half_width, result.tr_sigma.ci_half_width,
                 result.saturation_rate.ci_half_width,
                 result.duty_cycle.ci_half_width, "", "", ""])
    _write_csv(out_dir / "run.csv", cfg,
               ["path", "mse", "tr_sigma", "saturation_rate", "duty_cycle",
                "energy_used", "energy_harvested", "diverged"], rows, overrides)
    return EXIT_DIVERGENCE if result.n_diverged else EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, overrides=()) -> int:
    if not cfg.sweep_axis or not cfg.sweep_values:
        raise ConfigError(["sweep_axis/sweep_values: required for the sweep command"])
    setup = build_setup(cfg)
    factories = {name: policy_factory(name, cfg.period) for name in POLICY_NAMES}
    rows = sweep(setup, factories, cfg.sweep_axis, cfg.sweep_values,
                 cfg.n_paths, cfg.n_slots, cfg.seed)
    table = [[r["policy"], r["axis"], r["value"], r["mse"], r["mse_ci"],
              r["tr_sigma"], r["saturation_rate"], r["duty_cycle"],
              r["n_diverged"]] for r in rows]
    _write_csv(out_dir / "sweep.csv", cfg,
               ["policy", "axis", "value", "mse", "mse_ci", "tr_sigma",
                "saturation_rate", "duty_cycle", "n_diverged"], table, overrides)
    n_div = sum(r["n_diverged"] for r in rows)
    return EXIT_DIVERGENCE if n_div else EXIT_OK


def cmd_analyze(cfg: ExperimentConfig, out_dir: Path) -> int:
    model = build_model(cfg)
    params = build_limiter(cfg, model)
    stats = pitilde_stats(np.random.default_rng([cfg.seed, _STATS_STREAM]),
                          cfg.N_c, cfg.N_s, cfg.K, _N_CHANNEL_SAMPLES)
    e_inv, zero_frac = estimate_inverse_mean(
        ArrivalModel(kind=cfg.arrival, mean=cfg.mean_alpha),
        np.random.default_rng([cfg.seed, _ALPHA_STREAM]))
    report = check_stability(model, params, stats, e_inv, cfg.theta, cfg.tau)
    lines = [
        f"# config_hash={cfg.config_hash}",
        f"# seed={cfg.seed}",
        _STACK_LINE,
        f"satisfied: {str(report.satisfied).lower()}",
        f"lhs: {report.lhs!r}",
        f"rhs_max: {report.rhs_max!r}",
        f"xi_star: {report.xi_star!r}",
        f"delta: {report.delta!r}",
        f"margin: {report.margin!r}",
        f"inverse_arrival_mean: {e_inv!r} (zero-mass fraction {zero_frac!r})",
    ]
    for req in report.requirements:
        lines.append(f"requirement {req.name}: actual={req.actual!r} "
                     f"threshold={req.threshold!r} "
                     f"satisfied={str(req.satisfied).lower()}")
    if report.mse_bound is None:
        lines.append(f"mse_bound: undefined (mse_bound: eta = {report.eta:.4g} <= 0, "
                     "bound undefined)")
    else:
        lines.append(f"eta: {report.eta!r}")
        lines.append(f"mse_bound: {report.mse_bound!r}")
    (out_dir / "stability_report.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


# decision-region defaults matching the published plots
_REGION_DEFAULTS = dict(h1=4.0, sigma1=70.0, theta=36.0, tau=1.0,
                        h2_max=8.0, sigma2_max=100.0, n_grid=50,
                        energies=(12.0, 20.0))


def cmd_regions(cfg: ExperimentConfig, out_dir: Path, energies=None,
                n_grid: int | None = None) -> int:
    d = _REGION_DEFAULTS
    n = d["n_grid"] if n_grid is None else n_grid
    if n < 1:
        raise InputDomainError(f"regions: --grid must be >= 1, got {n}")
    model = build_model(cfg)
    params = build_limiter(cfg, model)
    h2_values = np.linspace(d["h2_max"] / n, d["h2_max"], n)
    sigma2_values = np.linspace(d["sigma2_max"] / n, d["sigma2_max"], n)
    rows = []
    for E in (energies or d["energies"]):
        scan = decision_region_scan(model, params, E, d["h1"], d["sigma1"],
                                    h2_values, sigma2_values, d["theta"], d["tau"])
        for i, s2 in enumerate(sigma2_values):
            for j, h2 in enumerate(h2_values):
                rows.append([float(E), float(h2), float(s2),
                             int(scan["active_streams"][i, j])])
    _write_csv(out_dir / "regions.csv", cfg,
               ["E", "h2", "sigma2", "active_streams"], rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehncs",
        description="Networked control with an energy-harvesting MIMO sensor: "
                    "simulation and analysis runner.")
    # a subcommand takes only the flags it reads; the others default to None
    parser.set_defaults(paths=None, slots=None, policy=None)
    sub = parser.add_subparsers(dest="command")
    for name in ("run", "sweep", "analyze", "regions"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int)
        if name in ("run", "sweep"):
            p.add_argument("--paths", type=int)
            p.add_argument("--slots", type=int)
        if name == "run":
            p.add_argument("--policy")
        if name == "regions":
            p.add_argument("--energy", type=float, action="append")
            p.add_argument("--grid", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    try:
        cfg = parse_config(args.config)
        if args.paths is not None:
            cfg.n_paths = args.paths
        if args.slots is not None:
            cfg.n_slots = args.slots
        if args.seed is not None:
            if args.seed < 0:
                raise InputDomainError(f"--seed must be >= 0, got {args.seed}")
            cfg.seed = args.seed
        if args.policy is not None:
            cfg.policy = args.policy
            policy_factory(cfg.policy, cfg.period)  # validate the name
        # the flags that change a run's config, named in its output header
        overrides = [f"--{flag} {value}" for flag, value in (
            ("paths", args.paths), ("slots", args.slots), ("policy", args.policy))
            if value is not None]
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return cmd_run(cfg, out_dir, overrides)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, overrides)
        if args.command == "analyze":
            return cmd_analyze(cfg, out_dir)
        return cmd_regions(cfg, out_dir, energies=args.energy, n_grid=args.grid)
    except (ConfigError, InputDomainError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
