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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import Gate, generate_dataset
from .device import DeviceParams, WindowViolationError, quad_coefficient
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
GATE_NAMES = tuple(gate.name for gate in Gate)
ROC_EPOCHS = 500  # the roc experiments' default, in place of `epochs`'s 1000


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    The fields are the config keys: each default's type is the type the
    key accepts (a tuple's first element types its elements), and
    construction rejects any value out of range, so every instance can
    be run.  learning_rate=None means the per-model protocol default:
    0.1 everywhere except the mlp on XOR, which uses 0.01.
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

    def __post_init__(self) -> None:
        """Raise ConfigError on the first field that cannot be run."""
        if self.model not in MODELS:
            raise ConfigError(f"config key 'model' out of range: must be one of {', '.join(MODELS)}")
        if self.gate not in GATE_NAMES:
            raise ConfigError(f"config key 'gate' out of range: must be one of {', '.join(GATE_NAMES)}")
        for key in ("epochs", "dataset_size", "n_realizations"):
            if getattr(self, key) < 1:
                raise ConfigError(f"config key '{key}' out of range: must be at least 1")
        if self.seed < 0:
            raise ConfigError("config key 'seed' out of range: must be non-negative")
        if self.learning_rate is not None and self.learning_rate <= 0.0:
            raise ConfigError("config key 'learning_rate' out of range: must be positive")
        if self.window_a <= 0.0:
            raise ConfigError("config key 'window_a' out of range: must be positive")
        device_params(self)
        if self.d_prime <= 0.0:
            raise ConfigError("config key 'd_prime' out of range: must be positive")
        if self.b_scale <= 0.0:
            raise ConfigError("config key 'b_scale' out of range: must be positive")
        if self.tau < 0.0:
            raise ConfigError("config key 'tau' out of range: must be non-negative")
        if len(self.topology) < 3 or any(n < 1 for n in self.topology):
            raise ConfigError(
                "config key 'topology' out of range: need input, hidden and output widths of at least 1"
            )
        if self.model == "mlp" and (self.topology[0] != 2 or self.topology[-1] != 1):
            raise ConfigError(
                "config key 'topology' out of range: gate experiments need 2 inputs and 1 output"
            )
        if len(self.roc_thresholds) == 0:
            raise ConfigError("config key 'roc_thresholds' out of range: need at least one threshold")
        if self.model == "slp" and any(not 0.0 < t < 1.0 for t in self.roc_thresholds):
            raise ConfigError(
                "config key 'roc_thresholds' out of range: logistic scores need thresholds in (0, 1)"
            )


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_EXPECTS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def key_type(key: str) -> type:
    """The scalar type a config key takes, or its elements take for a tuple key."""
    default = _DEFAULTS[key]
    if default is None:  # learning_rate: a number or null
        return float
    return type(default[0]) if isinstance(default, tuple) else type(default)


def _as(kind: type, key: str, value):
    accepted = (int, float) if kind is float else kind
    # bool subclasses int, so it is told apart first: only a bool key takes one
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key '{key}' expects {_EXPECTS[kind]}, got {value!r}")
    return kind(value)


def _coerce(key: str, value):
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key: {key}")
    kind = key_type(key)
    if isinstance(_DEFAULTS[key], tuple):
        if not isinstance(value, (list, tuple)):
            plural = "integers" if kind is int else "numbers"
            raise ConfigError(f"config key '{key}' expects a list of {plural}, got {value!r}")
        return tuple(_as(kind, key, v) for v in value)
    if value is None and _DEFAULTS[key] is None:
        return None
    value = _as(kind, key, value)
    if key == "model":
        return value.lower()
    if key == "gate":
        return value.upper()
    return value


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
            merged[key] = _coerce(key, value)
    return ExperimentConfig(**merged)


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
        try:
            return train_slp_ensemble(w0, eta, xs, ts, config.epochs, rngs, window_a=config.window_a)
        except WindowViolationError as exc:
            raise ConfigError(
                f"config keys 'learning_rate' and 'window_a' do not fit together "
                f"(slp writes are single pulses): {exc}"
            ) from exc
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
