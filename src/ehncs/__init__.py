"""Networked control with an energy-harvesting MIMO sensor.

Library layout:
  numerics   -- decomposition/equation kernels (SVD, Stein, Riccati, bisection)
  plant      -- linear stochastic plant, controller gain, instability measures
  channel    -- block-fading MIMO channel and singular-value statistics
  energy     -- arrival models and the battery queue
  limiter    -- saturation limiter and its adaptive dynamic range
  estimator  -- virtual covariance recursion and state estimator
  precoder   -- drift-minimizing water-filling precoder and five baselines
  analysis   -- stability condition, design requirements, MSE bound
  sim        -- stacked slot step, Monte Carlo harness, sweeps, region scans
  config/cli -- experiment files and the command-line runner
"""

from .analysis import (MseBoundReport, StabilityReport, check_stability,
                       delta_constant, drift_bound, mse_bound)
from .channel import ChannelDraw, PiTildeStats, estimate_pitilde_stats, sample_channel
from .config import ExperimentConfig, parse_config
from .energy import ArrivalModel, EnergyQueue
from .estimator import estimate_step, sigma_step
from .limiter import LimiterParams, clip, compute_theta, dynamic_range, make_params
from .numerics import eig_sym, solve_dare, solve_stein, svd
from .plant import PlantModel, control, design_gain_ce, instability_measure, step
from .precoder import (DriftContext, PrecoderDecision, baseline_capacity_wf,
                       baseline_constant_power, baseline_mmse_wf,
                       baseline_periodic_wf, kkt_residual, solve_theorem1)
from .sim import (RunResult, SimSetup, decision_region_scan, run_monte_carlo,
                  run_path, run_slot, sweep)

__version__ = "0.1.0"
