"""Data-driven value iteration for linear output regulation.

Learner-visible machinery (observer filter bank, regression, value
iteration) is separated from the model-based oracle layer used only for
certification; see the module docstrings.
"""

from .experiment import (ExperimentConfig, NotConvergedError, PRESETS,
                         parse_config, run_experiment, serialize_config,
                         verify)
from .internal_model import Exosystem, InternalModel
from .observer import ObserverKnown
from .regression import SamplingGrid, build_regression, check_rank
from .sim import Tone, simulate
from .vi import RankConditionError, ViConfig, vi_run

__all__ = [
    "ExperimentConfig", "NotConvergedError", "PRESETS", "parse_config",
    "run_experiment", "serialize_config", "verify",
    "Exosystem", "InternalModel", "ObserverKnown", "SamplingGrid",
    "build_regression", "check_rank", "Tone", "simulate",
    "RankConditionError", "ViConfig", "vi_run",
]

__version__ = "0.1.0"
