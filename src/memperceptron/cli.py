"""Command line front end.

Subcommands: `train` runs a learning-curve experiment, `roc` trains one
model and scores a fresh evaluation set, `dataset` emits or inspects
sample CSVs, `validate-config` checks a config and prints the normalized
result.  Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import Gate, generate_dataset, infer_gate, load_samples_csv, save_dataset_csv
from .harness import (
    ConfigError,
    config_as_dict,
    parse_config,
    run_learning_experiment,
    run_roc_experiment,
)

_FLAG_FIELDS = (
    "model", "gate", "epochs", "dataset_size", "n_realizations",
    "learning_rate", "seed", "window_a", "d_prime",
    "b_scale", "tau", "mu_v", "r_on", "r_off", "topology",
    "roc_thresholds", "out_dir", "svg",
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Every ExperimentConfig field gets a flag; unset flags stay None so
    file and default values shine through."""
    parser.add_argument("--config", dest="config_path", metavar="FILE",
                        help="JSON config file; flags override its values")
    parser.add_argument("--model", metavar="MODEL", help="slp or mlp")
    parser.add_argument("--gate", metavar="GATE", help="OR, AND or XOR")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--dataset-size", dest="dataset_size", type=int)
    parser.add_argument("--realizations", dest="n_realizations", type=int,
                        help="independent starting-weight draws")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--window-a", dest="window_a", type=float)
    parser.add_argument("--d-prime", dest="d_prime", type=float)
    parser.add_argument("--b-scale", dest="b_scale", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--mu-v", dest="mu_v", type=float)
    parser.add_argument("--r-on", dest="r_on", type=float)
    parser.add_argument("--r-off", dest="r_off", type=float)
    parser.add_argument("--topology", type=int, nargs="+", metavar="N",
                        help="mlp layer widths, input first")
    parser.add_argument("--roc-thresholds", dest="roc_thresholds", type=float,
                        nargs="+", metavar="T")
    parser.add_argument("--out", dest="out_dir", metavar="DIR")
    parser.add_argument("--svg", action="store_true", default=None,
                        help="also write an .svg sibling next to each CSV")


def _overrides(args: argparse.Namespace) -> dict:
    values = vars(args)
    return {k: values[k] for k in _FLAG_FIELDS if values.get(k) is not None}


def _parsed(args: argparse.Namespace, defaults: dict | None = None):
    return parse_config(args.config_path, _overrides(args), defaults)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _parsed(args)
    path, records = run_learning_experiment(config)
    last = records[-1]
    print(f"wrote {path} ({len(records)} epochs, final mean E_total {last.mean_e_total:.6g})")
    if config.svg:
        print(f"wrote {path.with_suffix('.svg')}")
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    config = _parsed(args, defaults={"epochs": 500})
    path, points, auc_value = run_roc_experiment(config)
    summary = "; ".join(f"t={p.threshold:g}: tpr={p.tpr:.2f} fpr={p.fpr:.2f}" for p in points)
    print(f"wrote {path} ({summary}; AUC {auc_value:.3f})")
    if config.svg:
        print(f"wrote {path.with_suffix('.svg')}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    if args.load is not None:
        samples = load_samples_csv(args.load)
        gate = infer_gate(samples)
        positives = sum(s.t for s in samples)
        print(f"{args.load}: {len(samples)} samples, gate {gate.value}, "
              f"{positives} positive / {len(samples) - positives} negative")
        return 0
    try:
        gate = Gate[args.gate.upper()]
    except KeyError:
        raise ConfigError("config key 'gate' out of range: must be one of OR, AND, XOR") from None
    if args.dataset_size < 1:
        raise ConfigError("config key 'dataset_size' out of range: must be at least 1")
    if args.seed < 0:
        raise ConfigError("config key 'seed' out of range: must be non-negative")
    dataset = generate_dataset(gate, args.dataset_size, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"dataset_{gate.value.lower()}.csv"
    save_dataset_csv(dataset, path)
    print(f"wrote {path} ({len(dataset)} samples)")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    config = _parsed(args)
    print(json.dumps(config_as_dict(config), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memperceptron",
        description="Train memristor perceptrons on logic gates and emit CSV/SVG artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a learning-curve experiment")
    _add_config_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_roc = sub.add_parser("roc", help="train one model and write its ROC points")
    _add_config_flags(p_roc)
    p_roc.set_defaults(func=_cmd_roc)

    p_data = sub.add_parser("dataset", help="emit a gate dataset CSV or inspect one")
    p_data.add_argument("--gate", default="OR", help="OR, AND or XOR")
    p_data.add_argument("--dataset-size", dest="dataset_size", type=int, default=100)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--out", dest="out_dir", default=".", metavar="DIR")
    p_data.add_argument("--load", metavar="FILE",
                        help="read a dataset CSV back and report its gate")
    p_data.set_defaults(func=_cmd_dataset)

    p_val = sub.add_parser("validate-config", help="check a config, print the normalized form")
    _add_config_flags(p_val)
    p_val.set_defaults(func=_cmd_validate_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # I/O and other runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
