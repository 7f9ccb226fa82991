"""Experiment orchestration: configs, seeded ensembles, artifact emission.

One experiment is described by an `ExperimentConfig`, assembled from up to
three layers (subcommand defaults, a JSON config file, CLI flags; later
layers win key by key).  The seed protocol keeps runs reproducible while
varying only the starting weights: the training dataset is drawn once per
experiment from the base seed, realization r draws its weights and its
shuffles from the PCG64 stream of np.random.default_rng(base seed + r),
held as a row of a stream array that the compiled library seeds and
advances, and ROC evaluation uses a fresh dataset from base seed + 1.
Identical configs therefore produce byte-identical CSV files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import Gate, generate_dataset
from .device import DeviceParams, WindowViolationError
from .metrics import (
    EpochRecord,
    auc,
    roc_points,
    write_curve_csv,
    write_roc_csv,
)
from .mlp import device_constants, glorot_init, glorot_layer, train_mlp_ensemble
from .slp import train_slp_ensemble
from .svgplot import write_curve_svg, write_roc_svg
from .train import score, seed_streams


class ConfigError(ValueError):
    """A configuration that cannot be run as given."""


MODELS = ("slp", "mlp")
GATE_NAMES = tuple(gate.name for gate in Gate)
ROC_EPOCHS = 500  # the roc experiments' default, in place of `epochs`'s 1000
ROC_PAIRS = (("slp", "OR"), ("slp", "XOR"), ("mlp", "XOR"))  # the paper's ROC experiments


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment run depends on.

    The fields are the config keys: each default's type is the type the
    key accepts (a tuple's first element types its elements), and
    construction rejects any value out of range, so every instance can
    be run.  learning_rate=None means the per-model protocol default:
    0.1 everywhere except the mlp on XOR, which uses 0.01.  window_a is
    slp only; d_prime to topology are mlp only.
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
        for key in _DEFAULTS:  # the range checks below are one-sided comparisons: NaN and inf slip past
            values = getattr(self, key) if isinstance(_DEFAULTS[key], tuple) else [getattr(self, key)]
            if key_type(key) is float and not all(v is None or math.isfinite(v) for v in values):
                raise ConfigError(f"config key '{key}' out of range: must be finite")
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


def model_device(config: ExperimentConfig):
    """The device constants the mlp's training and scoring take, None for the slp."""
    if config.model == "slp":
        return None
    return device_constants(device_params(config), config.tau, config.b_scale)


def trained_ensemble(config: ExperimentConfig, snapshot: int | None = None):
    """Train all realizations; returns (histories, final parameters).

    histories is (n_realizations, epochs) of per-epoch E_total.  The
    parameters are the list of arrays `train.score` takes: [weights] for
    the slp, the gammas then the node biases for the mlp.  Given
    `snapshot`, the parameters after that many epochs come third: the
    epochs then run in two trainer calls on the same streams, and the
    second call resumes exactly where the first stopped.  A realization whose error or
    parameters are not finite raises FloatingPointError.
    """
    xs, ts = generate_dataset(Gate[config.gate], config.dataset_size, config.seed)
    eta = effective_learning_rate(config)
    # weight draws come first, then one permutation per epoch
    streams = seed_streams(config.seed, config.n_realizations)
    device = model_device(config)
    if device is None:
        start = [glorot_layer(xs.shape[1], 1, streams)]

        def train(params, epochs):
            return train_slp_ensemble(params, eta, xs, ts, epochs, streams, config.window_a)
    else:
        gammas0, biases0 = glorot_init(config.topology, streams)
        start = [w / config.b_scale for w in gammas0] + biases0

        def train(params, epochs):
            return train_mlp_ensemble(params, eta, xs, ts, epochs, streams, device, config.d_prime)

    done = 0
    try:
        if snapshot is None or snapshot == config.epochs:  # the trainers reject 0 epochs
            histories, final = train(start, config.epochs)
            taken = final
        else:
            head, taken = train(start, snapshot)
            done = snapshot
            tail, final = train(taken, config.epochs - snapshot)
            histories = np.concatenate((head, tail), axis=1)
    except WindowViolationError as exc:
        note = f"; epochs are counted after the epoch-{done} snapshot" if done else ""
        raise ConfigError(
            f"config keys 'learning_rate' and 'window_a' do not fit together "
            f"(slp writes are single pulses{note}): {exc}"
        ) from exc
    # the clamp maps inf to a bound, so a parameter goes bad as NaN, which
    # makes every later error NaN: the histories and the final parameters
    # cover every epoch, a snapshot included
    bad = ~np.isfinite(histories)
    for p in final:
        bad[:, -1] |= ~np.isfinite(p.reshape(len(p), -1)).all(axis=1)
    if bad.any():
        r = int(bad.any(axis=1).argmax())
        raise FloatingPointError(
            f"{config.model} {config.gate}: realization {r} is not finite "
            f"from epoch {int(bad[r].argmax()) + 1} on"
        )
    return (histories, final) if snapshot is None else (histories, final, taken)


def ensemble_scores(config: ExperimentConfig, final, xs: np.ndarray) -> np.ndarray:
    """Scores of every trained realization on a batch, (realizations, samples);
    a score that is not finite raises FloatingPointError."""
    scores = score(final, xs, model_device(config))[:, :, 0]
    bad = ~np.isfinite(scores).all(axis=1)
    if bad.any():
        raise FloatingPointError(f"{config.model} {config.gate}: realization {int(bad.argmax())} "
                                 f"is not finite on the evaluation set")
    return scores


def aggregate_curve(histories: np.ndarray) -> list[EpochRecord]:
    """Per-epoch mean and population standard deviation, epochs 1-based.

    Each epoch's realizations are reduced as one contiguous row, which
    gives the bytes of np.mean and np.std on that epoch's column alone.
    Finite errors can still overflow in the reduction: a mean or std that
    is not finite raises FloatingPointError naming its first epoch.
    """
    by_epoch = np.ascontiguousarray(histories.T)
    with np.errstate(over="ignore", invalid="ignore"):
        means, stds = by_epoch.mean(axis=1), by_epoch.std(axis=1)
    bad = ~(np.isfinite(means) & np.isfinite(stds))
    if bad.any():
        raise FloatingPointError(f"the mean or std of E_total over the realizations "
                                 f"is not finite at epoch {int(bad.argmax()) + 1}")
    return [EpochRecord(epoch=e + 1, mean_e_total=float(m), std_e_total=float(sd))
            for e, (m, sd) in enumerate(zip(means, stds))]


def _emit_curve(config: ExperimentConfig, records: list[EpochRecord]) -> Path:
    """Write the learning-curve CSV (+ optional SVG); returns the CSV path."""
    path = Path(config.out_dir) / f"curve_{config.model}_{config.gate.lower()}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_curve_csv(path, records)
    if config.svg:
        write_curve_svg(
            path.with_suffix(".svg"), records,
            title=f"{config.model} {config.gate}: mean total error per epoch",
        )
    return path


def _evaluation_set(config: ExperimentConfig):
    """The fresh ROC evaluation set (xs, ts), drawn from seed + 1."""
    xs, ts = generate_dataset(Gate[config.gate], config.dataset_size, config.seed + 1)
    if ts.min() == ts.max():
        raise ConfigError(
            f"config key 'dataset_size' out of range: the {config.dataset_size}-sample "
            f"evaluation set drawn from seed {config.seed + 1} holds only one class"
        )
    return xs, ts


def _emit_roc(config: ExperimentConfig, scores: np.ndarray, ts: np.ndarray):
    """Write one model's ROC CSV (+ optional SVG); returns (CSV path, points, AUC)."""
    points = roc_points(scores, ts, config.roc_thresholds)
    auc_value = auc(scores, ts)
    path = Path(config.out_dir) / f"roc_{config.model}_{config.gate.lower()}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_roc_csv(path, points, auc_value)
    if config.svg:
        write_roc_svg(
            path.with_suffix(".svg"), points, auc_value,
            title=f"{config.model} {config.gate}: ROC on a fresh evaluation set",
        )
    return path, points, auc_value


def run_learning_experiment(config: ExperimentConfig):
    """Train the ensemble and emit the learning-curve CSV (+ optional SVG).

    Returns (csv path, records).
    """
    records = aggregate_curve(trained_ensemble(config)[0])
    return _emit_curve(config, records), records


def run_roc_experiment(config: ExperimentConfig):
    """Train one model, score a fresh evaluation set, emit the ROC CSV.

    The single model is realization 0 of the config's seed.  Returns
    (csv path, points, auc value).
    """
    xs, ts = _evaluation_set(config)
    single = replace(config, n_realizations=1)
    _, final = trained_ensemble(single)
    return _emit_roc(config, ensemble_scores(single, final, xs)[0], ts)


def run_protocol(config: ExperimentConfig):
    """Run the paper's experiments, training each (model, gate) pair once.

    Each pair of MODELS x GATE_NAMES runs the config with its own model
    and gate and writes its learning curve; the ROC_PAIRS also write the
    ROC of realization 0 after (epochs + 1) // 2 epochs.  Every pair
    config and evaluation set is checked before any training.  Yields
    each CSV path once it is written.
    """
    snapshot = (config.epochs + 1) // 2
    pairs = [replace(config, model=model, gate=gate) for model in MODELS for gate in GATE_NAMES]
    evals = {(c.model, c.gate): _evaluation_set(c) for c in pairs if (c.model, c.gate) in ROC_PAIRS}
    for pair in pairs:
        histories, _, taken = trained_ensemble(pair, snapshot)
        yield _emit_curve(pair, aggregate_curve(histories))
        if (pair.model, pair.gate) in evals:
            xs, ts = evals[(pair.model, pair.gate)]
            yield _emit_roc(pair, ensemble_scores(pair, [p[:1] for p in taken], xs)[0], ts)[0]
