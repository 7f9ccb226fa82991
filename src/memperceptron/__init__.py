"""Perceptrons whose synapses and neurons are memristive devices.

Single-layer machines pair linear memristor weights with a logistic
read; multilayer networks store weights and biases in linear ion-drift
devices and train by backpropagation through the devices' one-sidedly
quadratic read response.  The harness reruns the logic-gate learning
and ROC experiments over seeded ensembles of starting weights.
"""

from .data import Dataset, Gate, Sample, generate_dataset
from .device import (
    DeviceParams,
    MemristorState,
    WindowSpec,
    WindowViolationError,
    apply_read_pulse,
    select_and_update,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    parse_config,
    run_learning_experiment,
    run_roc_experiment,
)
from .metrics import EpochRecord, RocPoint, auc, roc_points, sample_cost, total_error
from .mlp import Topology, glorot_init, train_mlp_ensemble
from .slp import train_slp_ensemble

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Dataset",
    "DeviceParams",
    "EpochRecord",
    "ExperimentConfig",
    "Gate",
    "MemristorState",
    "RocPoint",
    "Sample",
    "Topology",
    "WindowSpec",
    "WindowViolationError",
    "apply_read_pulse",
    "auc",
    "generate_dataset",
    "glorot_init",
    "parse_config",
    "roc_points",
    "run_learning_experiment",
    "run_roc_experiment",
    "sample_cost",
    "select_and_update",
    "total_error",
    "train_mlp_ensemble",
    "train_slp_ensemble",
    "__version__",
]
