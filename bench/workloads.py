"""The three benchmark workloads: one pass of each, its outputs and checks.

A pass is the unit the benchmark times.  It calls the public ehncs API the
way a user does and returns the behaviour it produced (MSE, duty cycle,
saturation rate, stability-report fields, region counts).  Every check it
makes is one work item; a failed check or a call that raises counts as a
failed item.
"""

import math
import re
import traceback
from dataclasses import dataclass, replace

import numpy as np

import ehncs
from ehncs.cli import main as cli_main
from ehncs.cli import policy_factory
from ehncs.limiter import make_params
from ehncs.plant import PlantModel

from tracing import traced_policy

POLICIES = ("proposed", "baseline1", "baseline2", "baseline3", "baseline4",
            "baseline5")
SWEEP_THETAS = (40.0, 120.0)  # the two ends of the reference theta axis
GAP_TARGET = 0.1  # the paper's headline gap resolved to +-10%

# the published decoupled plant of the decision-region figures; CLI
# `regions` on the reference config is dormant at every grid point
REGION_ENERGIES = (12.0, 20.0, 30.0)
REGION_H1, REGION_SIGMA1 = 4.0, 70.0
REGION_H2_MAX, REGION_SIGMA2_MAX = 8.0, 100.0
REGION_THETA, REGION_TAU = 36.0, 1.0


@dataclass(frozen=True)
class Sizes:
    """Work in one pass of each workload."""

    wide_paths: int = 200  # the reference config's full width
    wide_slots: int = 15
    sweep_paths: int = 4
    sweep_slots: int = 100
    region_grid: int = 50


class Checks:
    """Work items attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def item(self, name: str, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed.extend([name] * count)

    def call(self, name: str, fn, *args, count: int = 1):
        """fn(*args) as `count` work items; None if it raises, with the
        traceback on stderr."""
        try:
            result = fn(*args)
        except Exception:  # any error is a failed work item, not a crash
            traceback.print_exc()
            self.item(name, False, count)
            return None
        self.item(name, True, count)
        return result


@dataclass
class Context:
    """What every pass of one workload shares."""

    setup: object  # ehncs SimSetup of the reference config
    config_path: str
    out_dir: object  # pathlib.Path inside the checkout
    seed: int
    sizes: Sizes


def _run_summary(result) -> dict:
    return {"mse": result.mse.mean, "duty_cycle": result.duty_cycle.mean,
            "saturation_rate": result.saturation_rate.mean,
            "tr_sigma": result.tr_sigma.mean, "n_diverged": result.n_diverged}


def _run_mc(tracer):
    if tracer is None:
        return ehncs.run_monte_carlo
    return tracer.wrap("sim.run_monte_carlo", ehncs.run_monte_carlo)


def _policy(name, setup, tracer):
    policy = policy_factory(name)(setup)
    return policy if tracer is None else traced_policy(tracer, policy)


def run_wide(ctx: Context, checks: Checks, tracer=None) -> dict:
    """`proposed` at the full 200-path width: one harness call."""
    n_paths, n_slots = ctx.sizes.wide_paths, ctx.sizes.wide_slots
    result = checks.call("run_wide: harness call", _run_mc(tracer), ctx.setup,
                         _policy("proposed", ctx.setup, tracer), n_paths,
                         n_slots, ctx.seed, count=n_paths)
    if result is None:
        return {"slots": n_paths * n_slots}
    for i, path in enumerate(result.paths):
        checks.item(f"run_wide: path {i} diverged", not path.diverged)
    out = _run_summary(result)
    checks.item("run_wide: saturation rate <= 1.5 eps",
                out["saturation_rate"] <= 1.5 * ctx.setup.limiter.eps)
    out["slots"] = n_paths * n_slots
    return out


def _gap_ci_rel(per_path: dict) -> float:
    """95% CI half-width over mean of the per-path MSE difference between
    the best baseline and `proposed`."""
    best = min((p for p in per_path if p != "proposed"),
               key=lambda p: per_path[p].mean())
    diff = per_path[best] - per_path["proposed"]
    if diff.size < 2:
        return math.inf
    half = 1.96 * diff.std(ddof=1) / math.sqrt(diff.size)
    return float(half / abs(diff.mean()))


def sweep_narrow(ctx: Context, checks: Checks, tracer=None) -> dict:
    """All six policies at theta 40 and 120, one harness call per cell as
    `ehncs.sweep` makes them, keeping the per-path MSEs."""
    n_paths, n_slots = ctx.sizes.sweep_paths, ctx.sizes.sweep_slots
    out = {"slots": 0}
    gaps = []
    for theta in SWEEP_THETAS:
        setup = replace(ctx.setup, theta=theta, E0=None)
        per_path = {}
        for name in POLICIES:
            cell = f"{name}@{theta:g}"
            out["slots"] += n_paths * n_slots
            result = checks.call(f"sweep_narrow: {cell} harness call",
                                 _run_mc(tracer), setup,
                                 _policy(name, setup, tracer), n_paths, n_slots,
                                 ctx.seed)
            if result is None:
                continue
            per_path[name] = np.array([p.mse for p in result.paths])
            for key, value in _run_summary(result).items():
                out[f"{cell}.{key}"] = value
        if len(per_path) != len(POLICIES):
            continue
        for name in POLICIES[1:]:
            checks.item(f"sweep_narrow: proposed MSE below {name} at theta {theta:g}",
                        per_path["proposed"].mean() < per_path[name].mean())
        gaps.append(_gap_ci_rel(per_path))
    out["gap_ci_rel"] = max(gaps) if len(gaps) == len(SWEEP_THETAS) else math.inf
    return out


_REPORT_LINE = re.compile(r"^(\w+): (.*)$")
_REQUIREMENT = re.compile(
    r"^requirement (\w+): actual=(\S+) threshold=(\S+) satisfied=(true|false)$")


def parse_stability_report(text: str) -> dict:
    """The fields of `ehncs analyze`'s stability_report.txt."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        req = _REQUIREMENT.match(line)
        if req:
            name = req.group(1)
            out[f"{name}.actual"] = float(req.group(2))
            out[f"{name}.threshold"] = float(req.group(3))
            out[f"{name}.satisfied"] = req.group(4) == "true"
            continue
        key, value = _REPORT_LINE.match(line).groups()
        if key == "satisfied":
            out[key] = value == "true"
        elif key == "inverse_arrival_mean":
            mean, _, rest = value.partition(" ")
            out[key] = float(mean)
            out["zero_mass_fraction"] = float(re.search(r"fraction (\S+)\)", rest).group(1))
        elif key == "mse_bound" and value.startswith("undefined"):
            out["mse_bound_defined"] = False
            out["eta"] = float(re.search(r"eta = (\S+) <=", value).group(1))
        else:
            out[key] = float(value)
    return out


def region_plant():
    model = PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                       Psi=0.5 * np.eye(2))
    return model, make_params(model, M=1.0, eps=0.1)


def analyze_regions(ctx: Context, checks: Checks, tracer=None) -> dict:
    """`ehncs analyze` on the reference config, then the decision-region
    scan of the published plant at three battery levels."""
    out = {}
    report_path = ctx.out_dir / "stability_report.txt"
    if report_path.exists():
        report_path.unlink()
    main = cli_main if tracer is None else tracer.wrap("cli.write", cli_main)
    code = checks.call("analyze_regions: ehncs analyze", main,
                       ["analyze", "--config", ctx.config_path,
                        "--out", str(ctx.out_dir), "--seed", str(ctx.seed)])
    if code is not None:
        checks.item("analyze_regions: analyze exit code 0", code == 0)
    if report_path.exists():
        fields = checks.call("analyze_regions: parse stability report",
                             parse_stability_report, report_path.read_text())
        out.update(fields or {})

    model, params = region_plant()
    n = ctx.sizes.region_grid
    h2 = np.linspace(REGION_H2_MAX / n, REGION_H2_MAX, n)
    s2 = np.linspace(REGION_SIGMA2_MAX / n, REGION_SIGMA2_MAX, n)
    scan = ehncs.decision_region_scan
    if tracer is not None:
        scan = tracer.wrap("precoder.region_scan", scan)
    both = {}
    for E in REGION_ENERGIES:
        result = checks.call(f"analyze_regions: region scan at E={E:g}", scan,
                             model, params, E, REGION_H1, REGION_SIGMA1, h2, s2,
                             REGION_THETA, REGION_TAU)
        if result is None:
            continue
        counts = result["active_streams"]
        for k, label in enumerate(("dormant", "one", "both")):
            out[f"regions.E{E:g}.{label}"] = int(np.count_nonzero(counts == k))
        both[E] = counts == 2
    if 12.0 in both and 20.0 in both:
        checks.item("analyze_regions: both-active set at E=12 inside the one at E=20",
                    bool(np.all(both[20.0] | ~both[12.0])))
    return out


PASSES = {"run_wide": run_wide, "sweep_narrow": sweep_narrow,
          "analyze_regions": analyze_regions}


def behaviour_values(out: dict) -> dict:
    """The outputs of a pass that the behaviour record covers."""
    return {k: v for k, v in out.items() if k not in ("slots", "gap_ci_rel")}


def check_against_record(name: str, values: dict, record: dict, checks: Checks) -> None:
    """Each recorded quantity must be present and inside its recorded band
    (floats) or equal (flags); quantities recorded as unchecked are skipped."""
    for key, rule in record.items():
        label = f"{name}: {key} matches the behaviour record"
        if key not in values:
            checks.item(label, False)
        elif "equals" in rule:
            checks.item(label, values[key] == rule["equals"])
        elif "lo" in rule:
            checks.item(label, rule["lo"] <= values[key] <= rule["hi"])
