"""Span tracer that wraps ehncs names from outside the package.

The tracer never edits ehncs source.  It replaces module attributes (the
names `run_slot` and the CLI look up at call time) with timing wrappers
while a `traced()` block is open, and restores them on exit.  Each wrapped
call records a span (name, start, end, parent, path id); self time is the
span's duration minus the durations of its direct children.  Calls into
`numpy.linalg` are counted, not timed, so their cost stays in the layer
that made them.
"""

import csv
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LINALG_NAMES = ("eigh", "eigvalsh", "svd", "solve", "inv")

# names `run_slot` and `run_path` look up in their module, mapped to the
# span name of the layer they belong to
SLOT_NAMES = {
    "sample_channel": "channel.draw",
    "receive": "channel.receive",
    "eig_sym": "numerics.eig_sym",
    "dynamic_range": "limiter.range",
    "clip": "limiter.clip",
    "check_feasible": "energy.queue",
    "sample_arrival": "energy.queue",
    "spend_and_harvest": "energy.queue",
    "estimate_step": "estimator.estimate",
    "mse_sample": "estimator.estimate",
    "sigma_step": "estimator.sigma",
    "control": "plant.step",
    "step": "plant.step",
}

# names `ehncs.cli.cmd_analyze` looks up in its module
CLI_NAMES = {
    "parse_config": "config.parse",
    "build_model": "config.build",
    "build_limiter": "config.build",
    "estimate_pitilde_stats": "channel.pitilde_stats",
    "estimate_inverse_mean": "energy.inverse_mean",
    "check_stability": "analysis.stability",
    "mse_bound": "analysis.stability",
    "cmd_analyze": "cli.write",
}


class Tracer:
    """In-memory spans plus per-name self time, call and event counts."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans = []  # (name, start_ns, end_ns, parent index, path id)
        self.self_ns = Counter()
        self.calls = Counter()
        self.events = Counter()
        self.calls_in_slot = Counter()
        self.path_id = -1  # index of the open run_path call, -1 outside one
        self._paths = 0
        self._stack = []  # [span index, ns covered by direct children]
        self._slot_open = False

    def wrap(self, name, fn, observe=None):
        """`fn` recorded as a span `name`; `observe(tracer, args, result)`
        runs after the span closes, to count outcomes."""
        stack = self._stack
        spans = self.spans
        self_ns = self.self_ns
        calls = self.calls
        keep = self.keep_spans

        def traced_call(*args, **kwargs):
            index = len(spans)
            if keep:
                spans.append(None)  # filled in when the span closes
            parent = stack[-1][0] if stack else -1
            path_id = self.path_id
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if keep:
                    spans[index] = (name, start, end, parent, path_id)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced_call

    def observe_only(self, fn, observe):
        """`fn` with outcome counting but no span, so its time stays in the
        caller's self time."""
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, args, result)
            return result

        return observed

    def wrap_slot(self, fn):
        """The per-slot span; numpy.linalg calls made inside it are counted
        per slot."""
        inner = self.wrap("sim.run_slot", fn)

        def slot(*args, **kwargs):
            self._slot_open = True
            try:
                return inner(*args, **kwargs)
            finally:
                self._slot_open = False

        return slot

    def wrap_path(self, fn):
        inner = self.wrap("sim.run_path", fn)

        def path(*args, **kwargs):
            self.path_id = self._paths
            self._paths += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.path_id = -1

        return path

    def count(self, name, fn):
        """`fn` with a call counter but no span; calls made inside a slot
        are also counted separately."""
        calls = self.calls
        in_slot = self.calls_in_slot

        def counted(*args, **kwargs):
            calls[name] += 1
            if self._slot_open:
                in_slot[name] += 1
            return fn(*args, **kwargs)

        return counted

    def merge(self, other: "Tracer") -> None:
        """Add another tracer's totals (its spans are not copied)."""
        self.self_ns.update(other.self_ns)
        self.calls.update(other.calls)
        self.events.update(other.events)
        self.calls_in_slot.update(other.calls_in_slot)

    def write_spans(self, path) -> None:
        """One span per row in opening order; `parent` is a row index."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_ns", "end_ns", "parent", "path"])
            writer.writerows(self.spans)


# -- outcome observers -------------------------------------------------------

def _saw_clip(tracer, args, out):
    tracer.events["limiter.saturated"] += bool(out.saturated)


def _saw_decision(tracer, args, decision):
    tracer.events["precoder.decisions"] += 1
    tracer.events["precoder.active"] += decision.mode == "active"
    tracer.events["precoder.binding"] += bool(decision.beta > 0)


def _saw_sigma(tracer, args, out):
    _, Ftilde, gamma = args[:3]
    tracer.events["estimator.updates"] += (
        gamma != 0 and Ftilde is not None and bool(np.any(Ftilde)))


def _saw_queue(tracer, args, queue):
    tracer.events["energy.at_capacity"] += bool(queue.E >= queue.theta)


_OBSERVERS = {
    "clip": _saw_clip,
    "sigma_step": _saw_sigma,
    "spend_and_harvest": _saw_queue,
}


@contextmanager
def traced(tracer: Tracer, slot_module=None, cli_module=None, scan_module=None,
           precoder_module=None):
    """Install the tracer's wrappers for the duration of the block.

    slot_module is the module defining `run_slot`, cli_module the one
    defining `cmd_analyze`, scan_module the one defining
    `decision_region_scan` (its `solve_theorem1` decisions are counted), and
    precoder_module the one whose `bisect` calls are counted.  Names a
    module does not have are skipped, so the tracer survives refactors that
    remove them.
    """
    saved = []

    def patch(module, attr, make):
        if module is not None and hasattr(module, attr):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))

    try:
        for attr in LINALG_NAMES:
            patch(np.linalg, attr, lambda fn, a=attr: tracer.count(f"linalg.{a}", fn))
        for attr, name in SLOT_NAMES.items():
            patch(slot_module, attr,
                  lambda fn, n=name, a=attr: tracer.wrap(n, fn, _OBSERVERS.get(a)))
        patch(slot_module, "run_slot", tracer.wrap_slot)
        patch(slot_module, "run_path", tracer.wrap_path)
        for attr, name in CLI_NAMES.items():
            patch(cli_module, attr, lambda fn, n=name: tracer.wrap(n, fn))
        patch(scan_module, "solve_theorem1",
              lambda fn: tracer.observe_only(fn, _saw_decision))
        patch(precoder_module, "bisect",
              lambda fn: tracer.count("precoder.bisect", fn))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def traced_policy(tracer: Tracer, policy):
    """The per-slot policy callable as a `precoder.solve` span."""
    return tracer.wrap("precoder.solve", policy, _saw_decision)


# per-slot self times: metric -> span names whose self time it sums
SLOT_TIME_METRICS = {
    "sim.slot_self_us": ("sim.run_slot",),
    "sim.path_self_us": ("sim.run_path", "sim.run_monte_carlo"),
    "channel.draw_us": ("channel.draw",),
    "channel.receive_us": ("channel.receive",),
    "numerics.eig_sym_us": ("numerics.eig_sym",),
    "limiter.range_us": ("limiter.range",),
    "limiter.clip_us": ("limiter.clip",),
    "precoder.solve_us": ("precoder.solve",),
    "estimator.sigma_us": ("estimator.sigma",),
    "estimator.estimate_us": ("estimator.estimate",),
    "plant.step_us": ("plant.step",),
    "energy.queue_us": ("energy.queue",),
}

# numpy.linalg calls made inside a slot, per slot
SLOT_CALL_METRICS = {
    "numerics.eig_calls_per_slot": ("linalg.eigh", "linalg.eigvalsh"),
    "numerics.svd_calls_per_slot": ("linalg.svd",),
    "numerics.solve_calls_per_slot": ("linalg.solve",),
    "numerics.inv_calls_per_slot": ("linalg.inv",),
}

# self seconds per traced pass
PASS_TIME_METRICS = {
    "config.parse_s": "config.parse",
    "config.build_s": "config.build",
    "channel.pitilde_stats_s": "channel.pitilde_stats",
    "energy.inverse_mean_s": "energy.inverse_mean",
    "analysis.stability_s": "analysis.stability",
    "precoder.region_scan_s": "precoder.region_scan",
    "cli.write_s": "cli.write",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_passes: int) -> dict:
    """Per-layer metrics, name -> (value, unit), from a tracer's totals.

    Per-slot figures divide by the number of `run_slot` calls and are 0 on
    a workload that simulates no slots; `_s` figures are per traced pass.
    """
    slots = tracer.calls["sim.run_slot"]
    ev = tracer.events
    out = {}
    for metric, names in SLOT_TIME_METRICS.items():
        ns = sum(tracer.self_ns[n] for n in names)
        out[metric] = (_ratio(ns / 1e3, slots), "us")
    for metric, names in SLOT_CALL_METRICS.items():
        out[metric] = (_ratio(sum(tracer.calls_in_slot[n] for n in names), slots),
                       "count")
    out["limiter.saturated_frac"] = (
        _ratio(ev["limiter.saturated"], tracer.calls["limiter.clip"]), "frac")
    out["precoder.active_frac"] = (
        _ratio(ev["precoder.active"], ev["precoder.decisions"]), "frac")
    out["precoder.binding_frac"] = (
        _ratio(ev["precoder.binding"], ev["precoder.decisions"]), "frac")
    out["precoder.bisect_calls"] = (
        _ratio(tracer.calls["precoder.bisect"], n_passes), "count")
    out["estimator.update_frac"] = (
        _ratio(ev["estimator.updates"], tracer.calls["estimator.sigma"]), "frac")
    out["energy.at_capacity_frac"] = (_ratio(ev["energy.at_capacity"], slots), "frac")
    for metric, name in PASS_TIME_METRICS.items():
        out[metric] = (_ratio(tracer.self_ns[name] / 1e9, n_passes), "s")
    return out
