"""Experiment orchestration: configs, seeded ensembles, artifact emission.

One experiment is described by an `ExperimentConfig`, assembled from up to
three layers (subcommand defaults, a JSON config file, CLI flags; later
layers win key by key).  The seed protocol keeps runs reproducible while
varying only the starting weights: the training dataset is drawn once per
experiment from the base seed, realization r draws its weights and its
shuffles from a generator seeded with base seed + r, and ROC evaluation
uses a fresh dataset from base seed + 1.  Identical configs therefore
produce byte-identical CSV files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data import Gate, generate_dataset
from .device import DeviceParams, quad_coefficient
from .metrics import (
    EpochRecord,
    auc,
    roc_points,
    write_curve_csv,
    write_roc_csv,
)
from .mlp import Topology, glorot_init, mlp_forward, train_mlp_ensemble
from .slp import glorot_slp_weights, slp_forward, train_slp_ensemble
from .svgplot import write_curve_svg, write_roc_svg


class ConfigError(ValueError):
    """A configuration that cannot be run as given."""


MODELS = ("slp", "mlp")
GATE_NAMES = ("OR", "AND", "XOR")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    learning_rate=None means the per-model protocol default: 0.1
    everywhere except the mlp on XOR, which uses 0.01.
    """

    model: str = "slp"
    gate: str = "OR"
    epochs: int = 1000
    dataset_size: int = 100
    n_realizations: int = 100
    learning_rate: float | None = None
    seed: int = 0
    window_a: float = 1.0
    d_prime: float = 4.0
    b_scale: float = 1.0
    tau: float = 1.0
    mu_v: float = 100.0
    r_on: float = 0.01
    r_off: float = 1.0
    topology: tuple[int, ...] = (2, 2, 1)
    roc_thresholds: tuple[float, ...] = (0.3, 0.5, 0.7)
    out_dir: str = "."
    svg: bool = False


_FIELD_NAMES = tuple(ExperimentConfig.__dataclass_fields__)


def _as_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key '{key}' expects an integer, got {value!r}")
    return value


def _as_float(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{key}' expects a number, got {value!r}")
    return float(value)


def _as_str(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config key '{key}' expects a string, got {value!r}")
    return value


def _as_bool(key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config key '{key}' expects true or false, got {value!r}")
    return value


def _as_float_tuple(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key '{key}' expects a list of numbers, got {value!r}")
    return tuple(_as_float(key, v) for v in value)


def _as_int_tuple(key: str, value) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key '{key}' expects a list of integers, got {value!r}")
    return tuple(_as_int(key, v) for v in value)


def _coerce(key: str, value):
    if key == "model":
        return _as_str(key, value).lower()
    if key == "gate":
        return _as_str(key, value).upper()
    if key == "out_dir":
        return _as_str(key, value)
    if key in ("epochs", "dataset_size", "n_realizations", "seed"):
        return _as_int(key, value)
    if key == "learning_rate":
        return None if value is None else _as_float(key, value)
    if key in ("window_a", "d_prime", "b_scale", "tau", "mu_v", "r_on", "r_off"):
        return _as_float(key, value)
    if key == "svg":
        return _as_bool(key, value)
    if key == "roc_thresholds":
        return _as_float_tuple(key, value)
    if key == "topology":
        return _as_int_tuple(key, value)
    raise ConfigError(f"unknown config key: {key}")


def _load_config_file(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return data


def device_params(config: ExperimentConfig) -> DeviceParams:
    try:
        return DeviceParams(r_on=config.r_on, r_off=config.r_off, mu_v=config.mu_v)
    except ValueError as exc:
        raise ConfigError(f"device parameters out of range: {exc}") from exc


def validate_config(config: ExperimentConfig) -> None:
    """Raise ConfigError on the first field that cannot be run."""
    if config.model not in MODELS:
        raise ConfigError(f"config key 'model' out of range: must be one of {', '.join(MODELS)}")
    if config.gate not in GATE_NAMES:
        raise ConfigError(f"config key 'gate' out of range: must be one of {', '.join(GATE_NAMES)}")
    for key in ("epochs", "dataset_size", "n_realizations"):
        if getattr(config, key) < 1:
            raise ConfigError(f"config key '{key}' out of range: must be at least 1")
    if config.seed < 0:
        raise ConfigError("config key 'seed' out of range: must be non-negative")
    if config.learning_rate is not None and config.learning_rate <= 0.0:
        raise ConfigError("config key 'learning_rate' out of range: must be positive")
    if config.window_a <= 0.0:
        raise ConfigError("config key 'window_a' out of range: must be positive")
    device_params(config)
    if config.d_prime <= 0.0:
        raise ConfigError("config key 'd_prime' out of range: must be positive")
    if config.b_scale <= 0.0:
        raise ConfigError("config key 'b_scale' out of range: must be positive")
    if config.tau < 0.0:
        raise ConfigError("config key 'tau' out of range: must be non-negative")
    if len(config.topology) < 3 or any(n < 1 for n in config.topology):
        raise ConfigError(
            "config key 'topology' out of range: need input, hidden and output widths of at least 1"
        )
    if config.model == "mlp" and (config.topology[0] != 2 or config.topology[-1] != 1):
        raise ConfigError(
            "config key 'topology' out of range: gate experiments need 2 inputs and 1 output"
        )
    if len(config.roc_thresholds) == 0:
        raise ConfigError("config key 'roc_thresholds' out of range: need at least one threshold")
    if config.model == "slp" and any(not 0.0 < t < 1.0 for t in config.roc_thresholds):
        raise ConfigError(
            "config key 'roc_thresholds' out of range: logistic scores need thresholds in (0, 1)"
        )


def parse_config(path=None, overrides: dict | None = None,
                 defaults: dict | None = None) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides.

    Later sources win key by key.  Unknown keys, wrong types and
    out-of-range values each fail with their own diagnostic.
    """
    merged: dict = {}
    sources = [defaults or {}]
    if path is not None:
        sources.append(_load_config_file(path))
    sources.append(overrides or {})
    for source in sources:
        for key, value in source.items():
            if key not in _FIELD_NAMES:
                raise ConfigError(f"unknown config key: {key}")
            merged[key] = _coerce(key, value)
    config = ExperimentConfig(**merged)
    validate_config(config)
    return config


def config_as_dict(config: ExperimentConfig) -> dict:
    """JSON-ready view; tuples become lists."""
    out = asdict(config)
    for key in ("roc_thresholds", "topology"):
        out[key] = list(out[key])
    return out


def effective_learning_rate(config: ExperimentConfig) -> float:
    if config.learning_rate is not None:
        return config.learning_rate
    if config.model == "mlp" and config.gate == "XOR":
        return 0.01
    return 0.1


def realization_rngs(config: ExperimentConfig) -> list[np.random.Generator]:
    """One generator per realization, seeded base + r; weight draws come
    first, then one permutation per epoch."""
    return [np.random.default_rng(config.seed + r) for r in range(config.n_realizations)]


def _stacked_glorot(topology: Topology, rngs, b_scale: float):
    per_w: list[list[np.ndarray]] = [[] for _ in topology.layer_sizes[1:]]
    per_b: list[list[np.ndarray]] = [[] for _ in topology.layer_sizes[1:]]
    for rng in rngs:
        ws, bs = glorot_init(topology, rng)
        for l, (w, b) in enumerate(zip(ws, bs)):
            per_w[l].append(w / b_scale)
            per_b[l].append(b)
    return [np.stack(ws) for ws in per_w], [np.stack(bs) for bs in per_b]


def trained_ensemble(config: ExperimentConfig):
    """Train all realizations; returns (histories, final parameters).

    histories is (n_realizations, epochs) of per-epoch E_total.  The
    final parameters are the weight rows for the slp and the (gammas,
    biases) arrays for the mlp, as needed for scoring.
    """
    dataset = generate_dataset(Gate[config.gate], config.dataset_size, config.seed)
    xs, ts = dataset.to_arrays()
    eta = effective_learning_rate(config)
    rngs = realization_rngs(config)
    if config.model == "slp":
        w0 = np.stack([glorot_slp_weights(xs.shape[1], rng) for rng in rngs])
        histories, w = train_slp_ensemble(
            w0, eta, xs, ts, config.epochs, rngs, window_a=config.window_a
        )
        return histories, w
    topology = Topology(tuple(config.topology))
    gammas0, biases0 = _stacked_glorot(topology, rngs, config.b_scale)
    histories, gammas, biases = train_mlp_ensemble(
        gammas0, biases0, eta, xs, ts, config.epochs, rngs,
        params=device_params(config), tau=config.tau, d_prime=config.d_prime,
        b_scale=config.b_scale, window_a=config.window_a,
    )
    return histories, (gammas, biases)


def ensemble_scores(config: ExperimentConfig, final, xs: np.ndarray) -> np.ndarray:
    """Scores of every trained realization on a batch, (realizations, samples)."""
    if config.model == "slp":
        return slp_forward(final[:, None, :], xs)
    gammas, biases = final
    params = device_params(config)
    layers = mlp_forward(
        [g[:, None] for g in gammas], [b[:, None] for b in biases], xs,
        params, quad_coefficient(params) * config.tau, config.b_scale,
    )
    return layers[-1][2][:, :, 0]


def aggregate_curve(histories: np.ndarray) -> list[EpochRecord]:
    """Per-epoch mean and population standard deviation, epochs 1-based."""
    records = []
    for e in range(histories.shape[1]):
        col = histories[:, e]
        records.append(
            EpochRecord(epoch=e + 1, mean_e_total=float(np.mean(col)),
                        std_e_total=float(np.std(col)))
        )
    return records


def curve_path(config: ExperimentConfig) -> Path:
    return Path(config.out_dir) / f"curve_{config.model}_{config.gate.lower()}.csv"


def roc_path(config: ExperimentConfig) -> Path:
    return Path(config.out_dir) / f"roc_{config.model}_{config.gate.lower()}.csv"


def _ensure_out_dir(config: ExperimentConfig) -> None:
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)


def run_learning_experiment(config: ExperimentConfig):
    """Train the ensemble and emit the learning-curve CSV (+ optional SVG).

    Returns (csv path, records).
    """
    validate_config(config)
    histories = trained_ensemble(config)[0]
    records = aggregate_curve(histories)
    _ensure_out_dir(config)
    path = curve_path(config)
    write_curve_csv(path, records)
    if config.svg:
        write_curve_svg(
            path.with_suffix(".svg"), records,
            title=f"{config.model} {config.gate}: mean total error per epoch",
        )
    return path, records


def run_roc_experiment(config: ExperimentConfig):
    """Train one model, score a fresh evaluation set, emit the ROC CSV.

    The single model is realization 0 of the config's seed.  Returns
    (csv path, points, auc value).
    """
    validate_config(config)
    eval_set = generate_dataset(Gate[config.gate], config.dataset_size, config.seed + 1)
    xs, ts = eval_set.to_arrays()
    if ts.min() == ts.max():
        raise ConfigError(
            f"config key 'dataset_size' out of range: the {config.dataset_size}-sample "
            f"evaluation set drawn from seed {config.seed + 1} holds only one class"
        )
    single = replace(config, n_realizations=1)
    _, final = trained_ensemble(single)
    scores = ensemble_scores(single, final, xs)[0]
    points = roc_points(scores, ts, config.roc_thresholds)
    auc_value = auc(scores, ts)
    _ensure_out_dir(config)
    path = roc_path(config)
    write_roc_csv(path, points, auc_value)
    if config.svg:
        write_roc_svg(
            path.with_suffix(".svg"), points, auc_value,
            title=f"{config.model} {config.gate}: ROC on a fresh evaluation set",
        )
    return path, points, auc_value
