"""Experiment orchestration: configs, seeded ensembles, artifact emission.

One experiment is described by an `ExperimentConfig`, assembled from up to
three layers (subcommand defaults, a JSON config file, CLI flags; later
layers win key by key).  The seed protocol keeps runs reproducible while
varying only the starting weights: the training dataset is drawn once per
experiment from the base seed, realization r draws its weights and its
shuffles from the PCG64 stream of np.random.default_rng(base seed + r),
held as a row of a stream array that the compiled library seeds and
advances, and ROC evaluation uses a fresh dataset from base seed + 1.
Identical configs therefore produce byte-identical CSV files.  The
protocol is made of the two runners alone: a learning experiment per
(model, gate) pair, and a ROC experiment per ROC pair at half the epochs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import Gate, generate_dataset
from .metrics import auc, roc_points, write_curve_csv, write_roc_csv
from .mlp import DeviceParams, device_constants, glorot_init, glorot_layer, train_mlp_ensemble
from .svgplot import write_curve_svg, write_roc_svg
from .train import AllocationError, WindowViolationError, score, seed_streams, train_slp_ensemble


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
    key accepts (a tuple's first element types its elements, and an int
    passes for a float), and construction rejects any value of another
    type or out of range, so every instance can be run.
    learning_rate=None means the per-model protocol default: 0.1
    everywhere except the mlp on XOR, which uses 0.01.  window_a is slp
    only; d_prime to topology are mlp only.
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
        for key, default in _DEFAULTS.items():
            value = getattr(self, key)
            if isinstance(default, tuple) and not isinstance(value, tuple):
                plural = "integers" if key_type(key) is int else "numbers"
                raise ConfigError(f"config key '{key}' expects a list of {plural}, got {value!r}")
            for v in value if isinstance(default, tuple) else [value]:
                if v is not None or default is not None:  # learning_rate may be None
                    _check(key_type(key), key, v)
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
        if not 0.0 < self.r_on < self.r_off:
            raise ConfigError("config keys 'r_on' and 'r_off' out of range: need 0 < r_on < r_off")
        if self.mu_v < 0.0:
            raise ConfigError("config key 'mu_v' out of range: must be non-negative")
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


def _check(kind: type, key: str, value) -> None:
    """Raise ConfigError unless value is of kind (an int passes for a float)
    and, for a float key, finite: inside float range."""
    accepted = (int, float) if kind is float else kind
    # bool subclasses int, so it is told apart first: only a bool key takes one
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key '{key}' expects {_EXPECTS[kind]}, got {value!r}")
    # the range checks are one-sided comparisons: NaN, inf and an int past
    # float range slip past them (an int compares with a float exactly)
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"config key '{key}' out of range: must be finite")


def _coerce(key: str, value):
    """value in the form its field keeps: a list as a tuple, an int as a float
    for a float key, model and gate case-folded.  Construction checks the type."""
    if key not in _DEFAULTS:
        raise ConfigError(f"unknown config key: {key}")

    def convert(v):
        if key_type(key) is not float or type(v) is not int:
            return v
        _check(float, key, v)  # float() cannot take an int past float range
        return float(v)

    if isinstance(_DEFAULTS[key], tuple) and isinstance(value, list):
        return tuple(convert(v) for v in value)
    if key in ("model", "gate") and isinstance(value, str):
        return value.lower() if key == "model" else value.upper()
    return convert(value)


def load_config_file(path) -> dict:
    """The keys and values of a JSON config file, not yet checked."""
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


def parse_config(path=None, overrides: dict | None = None,
                 defaults: dict | None = None) -> ExperimentConfig:
    """Merge defaults, an optional JSON file, and flag overrides.

    Later sources win key by key.  Unknown keys, wrong types and
    out-of-range values each fail with their own diagnostic.
    """
    merged: dict = {}
    sources = [defaults or {}]
    if path is not None:
        sources.append(load_config_file(path))
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
    params = DeviceParams(r_on=config.r_on, r_off=config.r_off, mu_v=config.mu_v)
    return device_constants(params, config.tau, config.b_scale)


def _too_large(keys: str, exc: MemoryError) -> ConfigError:
    """The error for an array that cannot be allocated, naming the config
    keys that sized it, as in "key 'dataset_size' asks"."""
    return ConfigError(f"config {keys} for more memory than can be allocated: {exc}")


def gate_dataset(config: ExperimentConfig, seed: int):
    """generate_dataset of the config's gate and dataset_size, drawn from
    seed; a dataset too large to allocate raises ConfigError naming
    dataset_size."""
    try:
        return generate_dataset(Gate[config.gate], config.dataset_size, seed)
    except MemoryError as exc:
        raise _too_large("key 'dataset_size' asks", exc) from exc


def trained_ensemble(config: ExperimentConfig):
    """Train all realizations; returns (histories, final parameters).

    histories is (n_realizations, epochs) of per-epoch E_total.  The
    parameters are the list of arrays `train.score` takes: [weights] for
    the slp, the gammas then the node biases for the mlp.  A realization
    whose error or parameters are not finite raises FloatingPointError.
    An array too large to allocate raises ConfigError naming the keys
    that sized it: `dataset_size` for the dataset, `topology` and
    `n_realizations` for the MLP's starting parameters, else `epochs` and
    `n_realizations`.
    """
    xs, ts = gate_dataset(config, config.seed)
    eta = effective_learning_rate(config)
    device = model_device(config)
    try:
        # weight draws come first, then one permutation per epoch
        streams = seed_streams(config.seed, config.n_realizations)
        if device is None:
            start = [glorot_layer(xs.shape[1], 1, streams)]
            histories, final = train_slp_ensemble(start, eta, xs, ts, config.epochs, streams, config.window_a)
        else:
            try:
                gammas0, biases0 = glorot_init(config.topology, streams)
            except AllocationError as exc:
                raise _too_large("keys 'topology' and 'n_realizations' ask", exc) from exc
            start = [w / config.b_scale for w in gammas0] + biases0
            histories, final = train_mlp_ensemble(start, eta, xs, ts, config.epochs, streams, device,
                                                  config.d_prime)
    except WindowViolationError as exc:
        raise ConfigError(
            f"config keys 'learning_rate' and 'window_a' do not fit together "
            f"(slp writes are single pulses): {exc}"
        ) from exc
    except AllocationError as exc:
        raise _too_large("keys 'epochs' and 'n_realizations' ask", exc) from exc
    # the clamp maps inf to a bound, so a parameter goes bad as NaN, which
    # makes every later error NaN: the histories and the final parameters
    # cover every epoch
    bad = ~np.isfinite(histories)
    for p in final:
        bad[:, -1] |= ~np.isfinite(p.reshape(len(p), -1)).all(axis=1)
    if bad.any():
        r = int(bad.any(axis=1).argmax())
        raise FloatingPointError(
            f"{config.model} {config.gate}: realization {r} is not finite "
            f"from epoch {int(bad[r].argmax()) + 1} on"
        )
    return histories, final


def ensemble_scores(config: ExperimentConfig, final, xs: np.ndarray) -> np.ndarray:
    """Scores of every trained realization on a batch, (realizations, samples);
    a score that is not finite raises FloatingPointError."""
    scores = score(final, xs, model_device(config))[:, :, 0]
    bad = ~np.isfinite(scores).all(axis=1)
    if bad.any():
        raise FloatingPointError(f"{config.model} {config.gate}: realization {int(bad.argmax())} "
                                 f"is not finite on the evaluation set")
    return scores


def aggregate_curve(histories: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch (means, stds): the mean and population standard deviation
    of each epoch's errors over the realizations.

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
    return means, stds


def _emit_curve(config: ExperimentConfig, means: np.ndarray, stds: np.ndarray) -> Path:
    """Write the learning-curve CSV (+ optional SVG); returns the CSV path."""
    path = Path(config.out_dir) / f"curve_{config.model}_{config.gate.lower()}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_curve_csv(path, means, stds)
    if config.svg:
        write_curve_svg(
            path.with_suffix(".svg"), means, stds,
            title=f"{config.model} {config.gate}: mean total error per epoch",
        )
    return path


def _evaluation_set(config: ExperimentConfig):
    """The fresh ROC evaluation set (xs, ts), drawn from seed + 1."""
    xs, ts = gate_dataset(config, config.seed + 1)
    if ts.min() == ts.max():
        raise ConfigError(
            f"config key 'dataset_size' out of range: the {config.dataset_size}-sample "
            f"evaluation set drawn from seed {config.seed + 1} holds only one class"
        )
    return xs, ts


def _emit_roc(config: ExperimentConfig, scores: np.ndarray, ts: np.ndarray):
    """Write one model's ROC CSV (+ optional SVG); returns (CSV path, tprs, fprs, AUC)."""
    tprs, fprs = roc_points(scores, ts, config.roc_thresholds)
    auc_value = auc(scores, ts)
    path = Path(config.out_dir) / f"roc_{config.model}_{config.gate.lower()}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_roc_csv(path, config.roc_thresholds, tprs, fprs, auc_value)
    if config.svg:
        write_roc_svg(
            path.with_suffix(".svg"), config.roc_thresholds, tprs, fprs, auc_value,
            title=f"{config.model} {config.gate}: ROC on a fresh evaluation set",
        )
    return path, tprs, fprs, auc_value


def run_learning_experiment(config: ExperimentConfig):
    """Train the ensemble and emit the learning-curve CSV (+ optional SVG).

    Returns (csv path, means, stds), the per-epoch mean and standard
    deviation of E_total over the realizations.
    """
    means, stds = aggregate_curve(trained_ensemble(config)[0])
    return _emit_curve(config, means, stds), means, stds


def run_roc_experiment(config: ExperimentConfig):
    """Train one model, score a fresh evaluation set, emit the ROC CSV.

    The single model is realization 0 of the config's seed.  Returns
    (csv path, tprs, fprs, auc value), a rate per roc_threshold.
    """
    xs, ts = _evaluation_set(config)
    single = replace(config, n_realizations=1)
    _, final = trained_ensemble(single)
    return _emit_roc(config, ensemble_scores(single, final, xs)[0], ts)


def run_protocol(config: ExperimentConfig):
    """Run the paper's experiments: every learning curve, and the ROC_PAIRS' ROCs.

    Each pair of MODELS x GATE_NAMES runs `run_learning_experiment` on the
    config with its own model and gate, and each of the ROC_PAIRS then
    runs `run_roc_experiment` for (epochs + 1) // 2 epochs.  Every pair
    config and evaluation set is checked before any training.  Yields
    each CSV path once it is written.
    """
    pairs = [replace(config, model=model, gate=gate) for model in MODELS for gate in GATE_NAMES]
    for pair in pairs:
        if (pair.model, pair.gate) in ROC_PAIRS:
            _evaluation_set(pair)
    for pair in pairs:
        yield run_learning_experiment(pair)[0]
        if (pair.model, pair.gate) in ROC_PAIRS:
            yield run_roc_experiment(replace(pair, epochs=(config.epochs + 1) // 2))[0]
