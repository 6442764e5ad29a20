"""Regenerate bench/reference.json, the behaviour record every run checks.

Run from the repository root, at a commit whose behaviour is the reference:

    python3 bench/record.py

For each workload it runs one pass at the default sizes for SEEDS seeds and
stores, per output, the band a later run must fall in:

    mean +- (K_SD * sd + REL_SLACK * |mean| + ABS_SLACK for rates)

with mean and sd taken across the seeds, so the check holds for any seed
and survives changes that keep the statistics but not the exact random
stream.  Flags must be equal on every seed.
"""

import json
import math
import os
import statistics
import sys

K_SD = 6.0
REL_SLACK = 0.005
ABS_SLACK_RATES = 0.01  # duty cycle and saturation rate, which are fractions
SEEDS = range(1000, 1030)
# a sweep cell whose MSE varies across seeds by more than this share of its
# mean, or where a path trips the divergence guard, is an unstable loop
# (baseline2 at theta 40): its MSE, Tr(Sigma) and divergence count are not
# checked
MAX_CV = 0.5


def band(key: str, values: list) -> dict:
    if all(isinstance(v, bool) for v in values):
        if len(set(values)) != 1:
            raise SystemExit(f"record: flag {key} differs across seeds: {values}")
        return {"equals": values[0]}
    if any(not math.isfinite(v) for v in values):
        if len(set(values)) != 1:
            raise SystemExit(f"record: {key} is non-finite on some seeds only")
        return {"equals": values[0]}
    mean = statistics.fmean(values)
    half = K_SD * statistics.stdev(values) + REL_SLACK * abs(mean)
    if key.endswith(("duty_cycle", "saturation_rate")):
        half += ABS_SLACK_RATES
    return {"lo": mean - half, "hi": mean + half, "mean": mean,
            "sd": statistics.stdev(values)}


def main() -> int:
    import run as bench

    for var in bench.THREAD_VARS:
        os.environ[var] = bench.BLAS_THREADS
    sys.path.insert(0, str(bench.SRC))
    import workloads as wl
    from ehncs.config import build_setup, parse_config

    out_dir = bench.OUT / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {}
    for name in wl.PASSES:
        samples = {}
        for seed in SEEDS:
            ctx = wl.Context(setup=build_setup(parse_config(bench.CONFIG)),
                             config_path=str(bench.CONFIG), out_dir=out_dir,
                             seed=seed, sizes=wl.Sizes())
            checks = wl.Checks()
            values = wl.behaviour_values(wl.PASSES[name](ctx, checks))
            if checks.failed:
                raise SystemExit(f"record: {name} seed {seed} failed {checks.failed}")
            for key, value in values.items():
                samples.setdefault(key, []).append(value)
        unstable = {key.rsplit(".", 1)[0] for key, vals in samples.items()
                    if key.endswith(".n_diverged") and any(vals)
                    or key.endswith(".mse") and MAX_CV * statistics.fmean(vals)
                    < statistics.stdev(vals)}
        record[name] = {}
        for key, values in samples.items():
            cell, _, field = key.rpartition(".")
            if cell in unstable and field in ("mse", "tr_sigma", "n_diverged"):
                record[name][key] = {"unchecked": "the state grows without bound"}
            else:
                record[name][key] = band(key, values)
        print(f"{name}: {len(samples)} outputs over {len(SEEDS)} seeds", flush=True)
    bench.RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
