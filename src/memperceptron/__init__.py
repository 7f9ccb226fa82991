"""Perceptrons whose synapses and neurons are memristive devices.

Single-layer machines pair linear memristor weights with a logistic
read; multilayer networks store weights and biases in linear ion-drift
devices and train by backpropagation through the devices' one-sidedly
quadratic read response.  The harness reruns the logic-gate learning
and ROC experiments over seeded ensembles of starting weights.
"""

from .data import Gate, generate_dataset
from .device import DeviceParams, WindowViolationError
from .harness import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    run_learning_experiment,
    run_roc_experiment,
)
from .metrics import EpochRecord, RocPoint, auc, roc_points
from .mlp import glorot_init, train_mlp_ensemble
from .slp import train_slp_ensemble

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DeviceParams",
    "EpochRecord",
    "ExperimentConfig",
    "Gate",
    "RocPoint",
    "WindowViolationError",
    "auc",
    "generate_dataset",
    "glorot_init",
    "parse_config",
    "roc_points",
    "run_learning_experiment",
    "run_roc_experiment",
    "train_mlp_ensemble",
    "train_slp_ensemble",
    "__version__",
]
