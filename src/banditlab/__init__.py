"""Bandit algorithms with a simulation and regret-bound checking harness."""

from .env import (
    NonObliviousAdversary,
    StochasticEnv,
    derive_stream,
    lower_bound_env,
)
from .harness import RegretReport, bound, parse_config, run_experiment, sweep

__version__ = "0.1.0"

__all__ = [
    "NonObliviousAdversary",
    "RegretReport",
    "StochasticEnv",
    "bound",
    "derive_stream",
    "lower_bound_env",
    "parse_config",
    "run_experiment",
    "sweep",
    "__version__",
]
