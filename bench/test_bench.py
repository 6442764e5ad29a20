"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Every workload, untraced and traced, must emit every metric BENCHMARK.json
names, with its unit; the numpy.linalg call counts must repeat exactly; and
a directory holding only the benchmark must make it fail without a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = wl.Sizes(wide_paths=3, wide_slots=4, sweep_paths=2, sweep_slots=6,
                region_grid=4)


def tiny_run(workload, trace):
    return bench_run.run(workload, seed=1, seconds=0.0, trace=trace, sizes=TINY,
                         setup_repeats=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    result = tiny_run(workload, trace)
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        value, unit = result["metrics"][m["name"]]
        assert unit == m["unit"]
        assert isinstance(value, float) and math.isfinite(value)
    assert result["attempted"] >= 1


def test_linalg_call_counts_repeat_exactly():
    counts = [{name: value for name, (value, _) in tiny_run("run_wide", 1)["metrics"].items()
               if name.endswith("_calls_per_slot")} for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["numerics.svd_calls_per_slot"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "run_wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
