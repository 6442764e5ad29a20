"""Line-oriented experiment configuration files.

Format: one `key = value` per line, `#` comments, matrices as row-major
bracketed literals ([[1.3, 0.1], [-0.2, 1.2]]).  Parsing is zero-dependency
(ast.literal_eval) and validation collects every violation before failing,
so a bad file reports all its problems at once.
"""

import ast
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import ArrivalModel
from .limiter import LimiterParams, make_params
from .plant import PlantModel, design_gain_ce
from .sim import SimSetup

POLICY_NAMES = ("proposed", "baseline1", "baseline2", "baseline3",
                "baseline4", "baseline5")

_MATRIX_KEYS = ("A", "B", "W", "Psi", "P", "R")
_SCALAR_KEYS = {
    "eps": float, "M": float, "theta": float, "E0": float, "tau": float,
    "mean_alpha": float, "N_s": int, "N_c": int,
    "n_paths": int, "n_slots": int, "seed": int, "period": int,
}
_STRING_KEYS = ("arrival", "policy", "sweep_axis")
_LIST_KEYS = ("sweep_values",)


class ConfigError(ValueError):
    """One or more configuration violations; message lists all of them."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


@dataclass
class ExperimentConfig:
    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    Psi: np.ndarray
    eps: float
    M: float
    N_s: int
    N_c: int
    arrival: str
    mean_alpha: float
    theta: float
    tau: float
    n_paths: int
    n_slots: int
    seed: int
    E0: float | None = None
    policy: str = "proposed"
    period: int = 3
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)
    raw_text: str = ""

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]


def _parse_lines(text: str, violations: list) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in values:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            values[key] = raw  # bare strings (policy names etc.)
    return values


def parse_config(path) -> ExperimentConfig:
    """Read and validate a configuration file; raises ConfigError listing
    every violation found."""
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text)


def parse_config_text(text: str) -> ExperimentConfig:
    violations: list[str] = []
    values = _parse_lines(text, violations)

    out = {}
    for key in _MATRIX_KEYS:
        if key in values:
            try:
                out[key] = np.asarray(values.pop(key), dtype=float)
            except (ValueError, TypeError):
                violations.append(f"{key}: not a numeric matrix literal")
                continue
            if not np.isfinite(out[key]).all():
                violations.append(f"{key}: entries must be finite")
    for key, caster in _SCALAR_KEYS.items():
        if key in values:
            v = values.pop(key)
            try:
                out[key] = caster(v)
            except (ValueError, TypeError, OverflowError):
                violations.append(f"{key}: not a {caster.__name__}")
                continue
            if caster is float and not math.isfinite(out[key]):
                violations.append(f"{key}: must be finite, got {out[key]}")
            elif caster is int and out[key] != v:
                violations.append(f"{key}: must be an integer, got {v!r}")
    for key in _STRING_KEYS:
        if key in values:
            out[key] = str(values.pop(key))
    for key in _LIST_KEYS:
        if key in values:
            v = values.pop(key)
            if not isinstance(v, (list, tuple)):
                violations.append(f"{key}: expected a bracketed list")
                continue
            try:
                out[key] = [float(x) for x in v]
            except (ValueError, TypeError):
                violations.append(f"{key}: not a list of numbers")
                continue
            if not all(map(math.isfinite, out[key])):
                violations.append(f"{key}: values must be finite")
    for key in values:
        violations.append(f"{key}: unknown key")

    required = ["A", "B", "W", "eps", "M", "N_s", "N_c", "arrival",
                "mean_alpha", "theta", "tau", "n_paths", "n_slots", "seed"]
    # a key already reported as malformed is not also reported as missing
    reported = {v.split(":")[0] for v in violations}
    for key in required:
        if key not in out and key not in reported:
            violations.append(f"{key}: missing required field")
    if "Psi" not in out and not ("P" in out and "R" in out):
        violations.append("Psi: missing (provide Psi or both P and R)")

    if violations:
        raise ConfigError(violations)

    # derive Psi from the Riccati design when only weights are given
    if "Psi" not in out:
        try:
            out["Psi"] = design_gain_ce(out["A"], out["B"], out["P"], out["R"])
        except Exception as exc:
            raise ConfigError([f"P/R: gain design failed ({exc})"])
    out.pop("P", None)
    out.pop("R", None)

    _validate_semantics(out, violations)
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(raw_text=text, **out)


def _validate_semantics(out: dict, violations: list) -> None:
    A, B, W, Psi = out["A"], out["B"], out["W"], out["Psi"]
    K = A.shape[0] if A.ndim == 2 else -1
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        violations.append(f"A: must be square, got shape {A.shape}")
    if W.shape != A.shape:
        violations.append(f"W: shape {W.shape} does not match A {A.shape}")
    if B.ndim != 2 or B.shape[0] != K:
        violations.append(f"B: row count must match A, got shape {B.shape}")
    elif Psi.shape != (B.shape[1], K):
        violations.append(f"Psi: shape {Psi.shape} inconsistent with B {B.shape}")
    if not 0 < out["eps"] < 1:
        violations.append(f"eps: must lie in (0, 1), got {out['eps']}")
    if out["M"] <= 0:
        violations.append("M: must be > 0")
    if K > min(out["N_s"], out["N_c"]):
        violations.append(
            f"K: {K} exceeds min(N_s, N_c) = {min(out['N_s'], out['N_c'])}")
    if out["arrival"] not in ("poisson", "deterministic"):
        violations.append(f"arrival: unknown distribution {out['arrival']!r}")
    if out["mean_alpha"] < 0:
        violations.append("mean_alpha: must be >= 0")
    for key in ("theta", "tau"):
        if out[key] <= 0:
            violations.append(f"{key}: must be > 0")
    if out.get("E0") is not None and not 0 <= out["E0"] <= out["theta"]:
        violations.append("E0: must lie in [0, theta]")
    for key in ("n_paths", "n_slots"):
        if out[key] < 1:
            violations.append(f"{key}: must be >= 1")
    if out["seed"] < 0:
        violations.append(f"seed: must be >= 0, got {out['seed']}")
    if out.get("policy", "proposed") not in POLICY_NAMES:
        violations.append(f"policy: unknown policy {out['policy']!r}")
    if out.get("period", 3) < 1:
        violations.append("period: must be >= 1")
    if out.get("sweep_axis") not in (None, "theta", "mean_alpha"):
        violations.append(f"sweep_axis: must be theta or mean_alpha")


def build_model(cfg: ExperimentConfig) -> PlantModel:
    return PlantModel(A=cfg.A, B=cfg.B, W=cfg.W, Psi=cfg.Psi)


def build_limiter(cfg: ExperimentConfig, model: PlantModel | None = None) -> LimiterParams:
    return make_params(model or build_model(cfg), M=cfg.M, eps=cfg.eps)


def build_setup(cfg: ExperimentConfig) -> SimSetup:
    model = build_model(cfg)
    return SimSetup(
        model=model, limiter=build_limiter(cfg, model),
        arrivals=ArrivalModel(kind=cfg.arrival, mean=cfg.mean_alpha),
        N_c=cfg.N_c, N_s=cfg.N_s, tau=cfg.tau, theta=cfg.theta, E0=cfg.E0,
    )
