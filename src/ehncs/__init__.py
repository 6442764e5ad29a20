"""Networked control with an energy-harvesting MIMO sensor.

Library layout:
  numerics   -- decomposition/equation kernels (singular values, eig, Stein)
  plant      -- linear stochastic plant, controller gain, instability measures
  channel    -- block-fading MIMO channel draws as their leading singular
                values, the matched-filter receiver, and singular-value
                statistics (exact for two streams, else sampled)
  energy     -- arrival models and the battery update
  limiter    -- saturation limiter and its adaptive dynamic range
  estimator  -- virtual covariance recursion and state estimator
  precoder   -- drift-minimizing water-filling precoder, five baselines,
                decision-region scans
  analysis   -- stability condition, design requirements, MSE bound
  sim        -- stacked slot step, Monte Carlo harness, sweeps
  config/cli -- experiment files and the command-line runner
"""

from .analysis import StabilityReport, check_stability, delta_constant
from .channel import (PiTildeLaw, PiTildeStats, estimate_pitilde_stats, pitilde_stats,
                      sample_channel)
from .config import ExperimentConfig, parse_config
from .energy import ArrivalModel
from .estimator import filter_step
from .limiter import LimiterParams, clip, compute_theta, dynamic_range, make_params
from .numerics import eig_sym, singular_values, solve_stein
from .plant import PlantModel, control, design_gain_ce, instability_measure, step
from .precoder import (DriftContext, PrecoderDecision, baseline_capacity_wf,
                       baseline_constant_power, baseline_mmse_wf, baseline_periodic_wf,
                       decision_region_scan, solve_theorem1, theorem1_allocations)
from .sim import RunResult, SimSetup, run_monte_carlo, run_slot, sweep

__version__ = "0.1.0"
