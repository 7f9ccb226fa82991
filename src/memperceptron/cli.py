"""Command line front end.

Subcommands: `train` runs a learning-curve experiment, `roc` trains one
model and scores a fresh evaluation set, `protocol` runs the paper's six
curves as `train` and three ROC models as `roc` at half the epochs,
`dataset` emits or inspects sample CSVs, `validate-config` checks a
config and prints the normalized result.  Exit codes: 0 success, 1
configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .data import Gate, infer_gate, load_dataset_csv, save_dataset_csv
from .harness import (
    ROC_EPOCHS,
    ConfigError,
    ExperimentConfig,
    gate_dataset,
    key_type,
    load_config_file,
    parse_config,
    run_learning_experiment,
    run_protocol,
    run_roc_experiment,
)

_FLAGS = {"n_realizations": "--realizations", "out_dir": "--out"}  # else --key-with-dashes


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig key; unset flags stay None so file
    and default values shine through."""
    parser.add_argument("--config", dest="config_path", metavar="FILE",
                        help="JSON config file; flags override its values")
    for f in fields(ExperimentConfig):
        kind = key_type(f.name)
        if kind is bool:
            shape = {"action": "store_true", "default": None}
        elif isinstance(f.default, tuple):
            shape = {"type": kind, "nargs": "+"}
        else:
            shape = {"type": kind}
        flag = _FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
        parser.add_argument(flag, dest=f.name, help=f"config key {f.name}", **shape)


def _overrides(args: argparse.Namespace) -> dict:
    values = vars(args)
    return {f.name: values[f.name] for f in fields(ExperimentConfig) if values[f.name] is not None}


def _parsed(args: argparse.Namespace, defaults: dict | None = None):
    return parse_config(args.config_path, _overrides(args), defaults)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _parsed(args)
    path, means, _ = run_learning_experiment(config)
    print(f"wrote {path} ({len(means)} epochs, final mean E_total {means[-1]:.6g})")
    if config.svg:
        print(f"wrote {path.with_suffix('.svg')}")
    return 0


def _cmd_roc(args: argparse.Namespace) -> int:
    config = _parsed(args, defaults={"epochs": ROC_EPOCHS})
    path, tprs, fprs, auc_value = run_roc_experiment(config)
    summary = "; ".join(f"t={thr:g}: tpr={tpr:.2f} fpr={fpr:.2f}"
                        for thr, tpr, fpr in zip(config.roc_thresholds, tprs, fprs))
    print(f"wrote {path} ({summary}; AUC {auc_value:.3f})")
    if config.svg:
        print(f"wrote {path.with_suffix('.svg')}")
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    in_file = load_config_file(args.config_path) if args.config_path is not None else {}
    for key in ("model", "gate"):
        if getattr(args, key) is not None:
            raise ConfigError(f"config key '{key}' is set pair by pair by protocol; drop --{key}")
        if key in in_file:
            raise ConfigError(f"config key '{key}' is set pair by pair by protocol; "
                              f"drop it from {args.config_path}")
    config = _parsed(args)
    for path in run_protocol(config):
        print(f"wrote {path}")
        if config.svg:
            print(f"wrote {path.with_suffix('.svg')}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    if args.load is not None:
        xs, ts = load_dataset_csv(args.load)
        gate, positives = infer_gate(xs, ts), int(ts.sum())
        print(f"{args.load}: {len(ts)} samples, gate {gate.value}, "
              f"{positives} positive / {len(ts) - positives} negative")
        return 0
    config = parse_config(overrides={
        "gate": args.gate, "dataset_size": args.dataset_size, "seed": args.seed,
    })
    gate = Gate[config.gate]
    xs, ts = gate_dataset(config, config.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"dataset_{gate.value.lower()}.csv"
    save_dataset_csv(xs, ts, path)
    print(f"wrote {path} ({len(ts)} samples)")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    config = _parsed(args)
    print(json.dumps(asdict(config), indent=2, sort_keys=True))
    return 0


class _Stdout:
    """stdout for one command: a reader gone away (a closed pipe) ends the printing, not the run."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text: str) -> int:
        try:
            self.stream.write(text)
            self.stream.flush()
        except BrokenPipeError:  # later lines and the exit flush go to /dev/null
            with contextlib.suppress(AttributeError, OSError, ValueError):
                fd = self.stream.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return len(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memperceptron",
        description="Train memristor perceptrons on logic gates and emit CSV/SVG artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("train", _cmd_train, "run a learning-curve experiment"),
        ("roc", _cmd_roc, "train one model and write its ROC points"),
        ("protocol", _cmd_protocol, "run the six curves and the three ROC models, these at half the epochs"),
        ("validate-config", _cmd_validate_config, "check a config, print the normalized form"),
    ):
        p_config = sub.add_parser(name, help=help_text)
        _add_config_flags(p_config)
        p_config.set_defaults(func=func)

    p_data = sub.add_parser("dataset", help="emit a gate dataset CSV or inspect one")
    p_data.add_argument("--gate", default="OR", help="OR, AND or XOR")
    p_data.add_argument("--dataset-size", dest="dataset_size", type=int, default=100)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--out", dest="out_dir", default=".", metavar="DIR")
    p_data.add_argument("--load", metavar="FILE",
                        help="read a dataset CSV back and report its gate")
    p_data.set_defaults(func=_cmd_dataset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with contextlib.redirect_stdout(_Stdout(sys.stdout)):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # I/O and other runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
