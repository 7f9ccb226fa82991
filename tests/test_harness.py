"""Config parsing, experiment runners, artifact emission, CLI exit codes."""

import hashlib
import json
import re
import shlex
import sys
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memperceptron.cli import build_parser, main
from memperceptron.device import WindowViolationError
from memperceptron.harness import (
    GATE_NAMES,
    MODELS,
    ConfigError,
    ExperimentConfig,
    _evaluation_set,
    aggregate_curve,
    effective_learning_rate,
    ensemble_scores,
    key_type,
    parse_config,
    run_learning_experiment,
    run_roc_experiment,
    trained_ensemble,
)
from memperceptron.metrics import read_curve_csv, read_roc_csv

from oracles import aggregate_curve_loop
from test_golden import GOLDEN, _digests

README = Path(__file__).resolve().parent.parent / "README.md"


def tiny(**kw):
    base = dict(model="slp", gate="OR", epochs=4, dataset_size=12, n_realizations=3)
    base.update(kw)
    return parse_config(overrides=base)


def test_empty_config_gives_protocol_defaults():
    config = parse_config()
    assert config.model == "slp" and config.gate == "OR"
    assert config.epochs == 1000
    assert config.dataset_size == 100
    assert config.n_realizations == 100
    assert config.learning_rate is None
    assert config.topology == (2, 2, 1)
    assert config.window_a == 1.0
    assert config.roc_thresholds == (0.3, 0.5, 0.7)


def test_learning_rate_defaults_per_model_and_gate():
    for model, gate, eta in [("slp", "OR", 0.1), ("slp", "XOR", 0.1),
                             ("mlp", "OR", 0.1), ("mlp", "AND", 0.1),
                             ("mlp", "XOR", 0.01)]:
        config = parse_config(overrides={"model": model, "gate": gate})
        assert effective_learning_rate(config) == eta
    explicit = parse_config(overrides={"model": "mlp", "gate": "XOR", "learning_rate": 0.5})
    assert effective_learning_rate(explicit) == 0.5


def test_flags_override_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.2, "epochs": 7}))
    config = parse_config(cfg, overrides={"learning_rate": 0.5})
    assert config.learning_rate == 0.5
    assert config.epochs == 7


def test_model_and_gate_are_normalized():
    config = parse_config(overrides={"model": "SLP", "gate": "xor"})
    assert config.model == "slp" and config.gate == "XOR"


def test_unknown_key_diagnostic():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(overrides={"learning_rte": 0.1})


def test_type_mismatch_diagnostics():
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config(overrides={"epochs": "ten"})
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config(overrides={"epochs": 3.5})
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config(overrides={"epochs": True})
    with pytest.raises(ConfigError, match="expects a number"):
        parse_config(overrides={"learning_rate": "fast"})
    with pytest.raises(ConfigError, match="expects true or false"):
        parse_config(overrides={"svg": "yes"})
    with pytest.raises(ConfigError, match="expects a list"):
        parse_config(overrides={"topology": 221})


def test_out_of_range_diagnostics():
    with pytest.raises(ConfigError, match="'epochs' out of range"):
        parse_config(overrides={"epochs": 0})
    with pytest.raises(ConfigError, match="'learning_rate' out of range"):
        parse_config(overrides={"learning_rate": -0.1})
    with pytest.raises(ConfigError, match="'gate' out of range"):
        parse_config(overrides={"gate": "NAND"})
    with pytest.raises(ConfigError, match="'roc_thresholds' out of range"):
        parse_config(overrides={"model": "slp", "roc_thresholds": [0.3, 1.5]})
    with pytest.raises(ConfigError, match="'window_a' out of range"):
        parse_config(overrides={"window_a": 0.0})
    # window_a needs only to be positive: no unused threshold caps it
    assert parse_config(overrides={"window_a": 15.0}).window_a == 15.0
    with pytest.raises(ConfigError, match="unknown config key: thresholds"):
        parse_config(overrides={"thresholds": [10.0, 20.0]})
    with pytest.raises(ConfigError, match="'topology' out of range"):
        parse_config(overrides={"model": "mlp", "topology": [3, 2, 1]})
    with pytest.raises(ConfigError, match="'seed' out of range"):
        parse_config(overrides={"seed": -1})


def test_topology_validation():
    # no hidden layer, and a layer of width 0
    for widths in ([2, 1], [2, 0, 1]):
        with pytest.raises(ConfigError, match="'topology' out of range"):
            parse_config(overrides={"model": "mlp", "topology": widths})


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        parse_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(bad)
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="top level"):
        parse_config(listy)


def test_reruns_are_byte_identical(tmp_path):
    for model in ("slp", "mlp"):
        blobs = []
        for tag in ("a", "b"):
            config = tiny(model=model, out_dir=str(tmp_path / f"{model}_{tag}"))
            path, _ = run_learning_experiment(config)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def test_aggregation_matches_independent_recomputation(tmp_path):
    config = tiny(gate="AND", out_dir=str(tmp_path))
    histories = trained_ensemble(config)[0]
    path, _ = run_learning_experiment(config)
    records = read_curve_csv(path)
    assert len(records) == config.epochs
    for rec in records:
        col = histories[:, rec.epoch - 1]
        mean = sum(col) / len(col)
        var = sum((v - mean) ** 2 for v in col) / len(col)
        assert abs(rec.mean_e_total - mean) <= 1e-12
        assert abs(rec.std_e_total - var ** 0.5) <= 1e-12


def test_single_realization_single_epoch_row(tmp_path):
    config = tiny(epochs=1, n_realizations=1, out_dir=str(tmp_path))
    path, _ = run_learning_experiment(config)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_e_total,std_e_total"
    assert len(lines) == 2
    assert lines[1].startswith("1,")


def test_curve_filename_and_seed_sensitivity(tmp_path):
    config = tiny(gate="XOR", out_dir=str(tmp_path))
    path, records = run_learning_experiment(config)
    assert path.name == "curve_slp_xor.csv"
    other = tiny(gate="XOR", seed=9, out_dir=str(tmp_path / "other"))
    _, other_records = run_learning_experiment(other)
    assert other_records[0].mean_e_total != records[0].mean_e_total


def test_roc_experiment_csv(tmp_path):
    config = parse_config(overrides={
        "model": "mlp", "gate": "XOR", "epochs": 40,
        "dataset_size": 30, "out_dir": str(tmp_path),
    })
    path, points, auc_value = run_roc_experiment(config)
    assert path.name == "roc_mlp_xor.csv"
    read_points, read_auc = read_roc_csv(path)
    assert [p.threshold for p in read_points] == [0.3, 0.5, 0.7]
    assert read_points == points
    assert read_auc == auc_value
    assert 0.0 <= auc_value <= 1.0
    for p in points:
        assert 0.0 <= p.tpr <= 1.0 and 0.0 <= p.fpr <= 1.0


def test_svg_siblings(tmp_path):
    config = tiny(out_dir=str(tmp_path), svg=True)
    path, _ = run_learning_experiment(config)
    svg = path.with_suffix(".svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    roc_cfg = tiny(epochs=3, out_dir=str(tmp_path), svg=True)
    roc_file, _, _ = run_roc_experiment(roc_cfg)
    roc_svg = roc_file.with_suffix(".svg").read_text()
    assert roc_svg.startswith("<svg") and "circle" in roc_svg


def test_aggregate_curve_epochs_one_based():
    histories = np.array([[4.0, 2.0], [2.0, 0.0]])
    records = aggregate_curve(histories)
    assert [r.epoch for r in records] == [1, 2]
    assert records[0].mean_e_total == 3.0
    assert records[0].std_e_total == 1.0


@pytest.mark.parametrize("n_real", [1, 7, 100, 1000])
def test_aggregate_curve_equals_mean_and_std_per_column(n_real):
    histories = np.random.default_rng(n_real).lognormal(0.0, 2.0, (n_real, 50))
    records = aggregate_curve(histories)
    want = aggregate_curve_loop(histories)
    got = [(r.mean_e_total, r.std_e_total) for r in records]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_cli_train_success(tmp_path, capsys):
    rc = main(["train", "--model", "slp", "--gate", "or", "--epochs", "3",
               "--realizations", "2", "--dataset-size", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "curve_slp_or.csv").exists()
    assert "curve_slp_or.csv" in capsys.readouterr().out


def test_cli_validation_failure_exits_1(tmp_path, capsys):
    rc = main(["train", "--epochs", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_cli_window_a_errors_name_their_key(tmp_path, capsys):
    rc = main(["train", "--window-a", "0", "--out", str(tmp_path)])
    assert rc == 1
    assert "'window_a' out of range" in capsys.readouterr().err
    rc = main(["validate-config", "--window-a", "15"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["window_a"] == 15.0


def test_cli_roc_one_class_evaluation_set_exits_1(tmp_path, capsys):
    # a one-sample evaluation set, and a 3-sample OR set drawn from seed 6
    # that holds no negative, cannot give ROC rates: a config error, before
    # any training
    for args in (["--dataset-size", "1"], ["--dataset-size", "3", "--seed", "5"]):
        rc = main(["roc", "--model", "slp", "--gate", "or", *args, "--out", str(tmp_path)])
        assert rc == 1
        assert "'dataset_size' out of range" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_runtime_failure_exits_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("in the way")
    rc = main(["train", "--epochs", "2", "--realizations", "1",
               "--dataset-size", "8", "--out", str(blocker)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_roc_defaults_to_500_epochs(tmp_path, capsys):
    # The roc subcommand's own default; an explicit flag still wins.
    rc = main(["roc", "--model", "slp", "--gate", "or", "--epochs", "5",
               "--dataset-size", "12", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "roc_slp_or.csv").exists()
    out = capsys.readouterr().out
    assert "AUC" in out


def test_cli_validate_config_prints_normalized(capsys):
    rc = main(["validate-config", "--model", "MLP", "--gate", "xor",
               "--learning-rate", "0.02"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["model"] == "mlp" and data["gate"] == "XOR"
    assert data["learning_rate"] == 0.02
    assert main(["validate-config", "--gate", "NAND"]) == 1


def test_cli_dataset_roundtrip(tmp_path, capsys):
    rc = main(["dataset", "--gate", "xor", "--dataset-size", "16",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "dataset_xor.csv"
    assert path.exists()
    rc = main(["dataset", "--load", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gate XOR" in out and "16 samples" in out


def test_cli_dataset_csv_bytes_are_pinned(tmp_path, capsys):
    # the CSV is written from the drawn arrays
    assert main(["dataset", "--gate", "xor", "--dataset-size", "100", "--seed", "0",
                 "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "dataset_xor.csv").read_bytes()).hexdigest()
    assert digest == "76ce2ab94c460dfecb204a80f896de53fcb13a137055142a03d151982b9beda2"


def test_cli_dataset_rejects_bad_labels(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,label\n0,0,1\n0,0,0\n")
    rc = main(["dataset", "--load", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


FLOAT_KEYS = [f.name for f in fields(ExperimentConfig) if key_type(f.name) is float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_in_any_float_key_is_a_keyed_config_error(capsys, key):
    # every range check compares, and NaN fails every comparison
    values = [0.5, float("nan")] if key == "roc_thresholds" else [float("nan")]
    with pytest.raises(ConfigError, match=f"^config key '{key}' out of range: must be finite$"):
        parse_config(overrides={key: values if key == "roc_thresholds" else values[0]})
    assert main(["validate-config", "--" + key.replace("_", "-"), *map(str, values)]) == 1
    assert f"config key '{key}' out of range" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_infinity_in_any_float_key_is_a_keyed_config_error(tmp_path, capsys, key, value):
    # the range checks are one-sided, so one infinity passes each of them
    setting = {key: [0.5, value] if key == "roc_thresholds" else value}
    with pytest.raises(ConfigError, match=f"^config key '{key}' out of range: must be finite$"):
        parse_config(overrides=setting)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(setting))  # JSON's Infinity
    # "--flag=-inf": argparse would take a bare "-inf" for an option
    for argv in (["--config", str(path)], [f"--{key.replace('_', '-')}={value}"]):
        assert main(["validate-config", *argv]) == 1
        assert f"config key '{key}' out of range: must be finite" in capsys.readouterr().err


def test_config_object_is_frozen():
    config = ExperimentConfig()
    with pytest.raises(Exception):
        config.epochs = 5


def test_config_validates_on_construction():
    # every config that exists can be run, however it was made
    with pytest.raises(ConfigError, match="'epochs' out of range"):
        ExperimentConfig(epochs=0)
    with pytest.raises(ConfigError, match="'seed' out of range"):
        replace(ExperimentConfig(), seed=-1)


def test_slp_window_overshoot_is_a_keyed_config_error():
    with pytest.raises(ConfigError, match="'learning_rate' and 'window_a'") as info:
        trained_ensemble(tiny(learning_rate=20.0, epochs=2))
    assert isinstance(info.value.__cause__, WindowViolationError)
    # the location of the overshoot is kept word for word
    assert str(info.value).endswith(str(info.value.__cause__))
    # an overshoot in epoch 2 of a run split at a snapshot after epoch 1 is
    # named as epoch 1 of the second trainer call, and the message says so
    late = tiny(learning_rate=6.8, epochs=2, seed=2)
    with pytest.raises(ConfigError, match=r"single pulses\): realization 2, epoch 2,"):
        trained_ensemble(late)
    with pytest.raises(ConfigError, match="counted after the epoch-1 snapshot.*, epoch 1,"):
        trained_ensemble(late, snapshot=1)


def test_window_a_changes_nothing_in_an_mlp_run():
    # mlp writes are bursts, which no window limits; the same small window
    # stops an slp run
    (h_wide, p_wide), (h_narrow, p_narrow) = (
        trained_ensemble(tiny(model="mlp", gate="XOR", learning_rate=0.5, window_a=a)) for a in (1.0, 1e-3))
    assert h_wide.tobytes() == h_narrow.tobytes()
    for wide, narrow in zip(p_wide, p_narrow, strict=True):
        assert wide.tobytes() == narrow.tobytes()
    with pytest.raises(ConfigError, match="'window_a'"):
        trained_ensemble(tiny(window_a=1e-3))


@pytest.mark.filterwarnings("error")  # numpy's overflow warning must not reach stderr either
def test_cli_roc_non_finite_scores_exit_2(tmp_path, capsys):
    # training stays finite, but the model's output overflows on the
    # evaluation set
    rc = main(["roc", "--model", "mlp", "--gate", "xor", "--dataset-size", "2", "--seed", "23",
               "--tau", "1e150", "--epochs", "3", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "error: mlp XOR: realization 0 is not finite on the evaluation set\n"
    assert not (tmp_path / "roc_mlp_xor.csv").exists()


@pytest.mark.parametrize("command", ["train", "roc"])
def test_cli_slp_window_overshoot_exits_1(tmp_path, capsys, command):
    out = tmp_path / "out"
    rc = main([command, "--model", "slp", "--gate", "or", "--learning-rate", "20",
               "--epochs", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'learning_rate'" in err and "'window_a'" in err
    assert not out.exists()


# one valid non-default value per config key
_NON_DEFAULTS = {
    "model": "mlp", "gate": "XOR", "epochs": 7, "dataset_size": 12, "n_realizations": 3,
    "learning_rate": 0.5, "seed": 4, "window_a": 2.5, "d_prime": 3.0, "b_scale": 2.0,
    "tau": 0.5, "mu_v": 50.0, "r_on": 0.02, "r_off": 2.0, "topology": [2, 3, 1],
    "roc_thresholds": [0.2, 0.4], "out_dir": "results", "svg": True,
}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
def test_every_key_has_one_working_flag(tmp_path, capsys, key):
    value = _NON_DEFAULTS[key]
    config = parse_config(overrides={key: value})
    assert getattr(config, key) != getattr(ExperimentConfig(), key)
    expected = json.dumps(asdict(config), indent=2, sort_keys=True)
    flag = {"n_realizations": "--realizations", "out_dir": "--out"}.get(
        key, "--" + key.replace("_", "-"))
    if value is True:
        args = [flag]
    elif isinstance(value, list):
        args = [flag, *map(str, value)]
    else:
        args = [flag, str(value)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    for argv in (["validate-config", *args], ["validate-config", "--config", str(cfg)]):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"


def _option_strings(command: str) -> list[str]:
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    return sorted(s for a in subparsers.choices[command]._actions for s in a.option_strings)


def test_config_option_strings_are_pinned():
    expected = [
        "--b-scale", "--config", "--d-prime", "--dataset-size", "--epochs", "--gate",
        "--help", "--learning-rate", "--model", "--mu-v", "--out", "--r-off", "--r-on",
        "--realizations", "--roc-thresholds", "--seed", "--svg", "--tau", "--topology",
        "--window-a", "-h",
    ]
    for command in ("train", "roc", "protocol", "validate-config"):
        assert _option_strings(command) == expected
    assert _option_strings("dataset") == [
        "--dataset-size", "--gate", "--help", "--load", "--out", "--seed", "-h",
    ]


@pytest.mark.parametrize("args, message", [
    (["--gate", "nand"], "'gate' out of range"),
    (["--dataset-size", "0"], "'dataset_size' out of range"),
    (["--seed", "-1"], "'seed' out of range"),
])
def test_cli_dataset_config_errors(tmp_path, capsys, args, message):
    rc = main(["dataset", *args, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_configuration_table_names_every_key():
    readme = README.read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    named = [key for row in rows for key in re.findall(r"`(\w+)` \(", row.split(" | ")[0])]
    assert sorted(named) == sorted(f.name for f in fields(ExperimentConfig))


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("memperceptron ")]
    assert any(line.startswith("memperceptron protocol ") for line in lines)
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_trained_ensemble_snapshot_splits_exactly():
    for model in ("slp", "mlp"):
        config = tiny(model=model, epochs=6)
        histories, final = trained_ensemble(config)
        head, at_2 = trained_ensemble(replace(config, epochs=2))
        split, split_final, taken = trained_ensemble(config, snapshot=2)
        assert np.array_equal(split, histories)
        assert np.array_equal(head, histories[:, :2])
        for got, want in zip(split_final + taken, final + at_2, strict=True):
            assert np.array_equal(got, want)


def test_cli_protocol_writes_the_golden_artifacts(tmp_path, capsys):
    rc = main(["protocol", "--epochs", "20", "--realizations", "10", "--svg",
               "--out", str(tmp_path)])
    assert rc == 0
    assert _digests(tmp_path) == GOLDEN
    assert capsys.readouterr().out.count("wrote ") == len(GOLDEN)


def test_cli_closed_stdout_stops_only_the_printing(tmp_path, monkeypatch):
    # e.g. `memperceptron protocol ... | head -1`: the reader goes away early
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = main(["protocol", "--epochs", "20", "--realizations", "10", "--svg",
               "--out", str(tmp_path)])
    assert rc == 0
    assert _digests(tmp_path) == GOLDEN


def test_cli_protocol_roc_files_equal_the_roc_command(tmp_path):
    shape = ["--epochs", "1", "--dataset-size", "12"]
    assert main(["protocol", *shape, "--realizations", "2", "--out", str(tmp_path / "p")]) == 0
    for model, gate in (("slp", "or"), ("slp", "xor"), ("mlp", "xor")):
        out = tmp_path / f"{model}_{gate}"
        assert main(["roc", "--model", model, "--gate", gate, *shape, "--out", str(out)]) == 0
        name = f"roc_{model}_{gate}.csv"
        assert (tmp_path / "p" / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("args, key", [(["--model", "mlp"], "'model'"),
                                       (["--gate", "xor"], "'gate'")])
def test_cli_protocol_rejects_model_and_gate(tmp_path, capsys, args, key):
    rc = main(["protocol", *args, "--epochs", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_protocol_one_class_evaluation_set_exits_1(tmp_path, capsys):
    rc = main(["protocol", "--dataset-size", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "'dataset_size' out of range" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["train", "roc", "protocol"])
@pytest.mark.parametrize("flag", ["--tau", "--mu-v"])
def test_cli_non_finite_training_exits_2(tmp_path, capsys, command, flag):
    # both pass validation, and the mlp's node output overflows
    pair = [] if command == "protocol" else ["--model", "mlp", "--gate", "xor"]
    rc = main([command, *pair, flag, "1e300", "--epochs", "3", "--realizations", "3",
               "--dataset-size", "12", "--out", str(tmp_path)])
    assert rc == 2
    assert re.search(r"mlp \w+: realization \d+ is not finite from epoch \d+ on",
                     capsys.readouterr().err)
    # nothing is written for the failing pair; protocol keeps the slp pairs before it
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["curve_slp_and.csv", "curve_slp_or.csv", "curve_slp_xor.csv",
                        "roc_slp_or.csv", "roc_slp_xor.csv"] if command == "protocol" else [])


def test_cli_curve_statistics_that_overflow_exit_2(tmp_path, capsys):
    # each realization's E_total is finite, near 5e246, and the std's squares
    # overflow; protocol hits a window violation first at this rate
    rc = main(["train", "--model", "mlp", "--gate", "xor", "--b-scale", "1e20", "--learning-rate", "10",
               "--epochs", "3", "--realizations", "3", "--dataset-size", "12", "--svg", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: the mean or std of E_total over the realizations is not finite at epoch 1\n"
    assert not any(tmp_path.iterdir())


def test_aggregate_curve_names_the_first_epoch_it_cannot_reduce():
    histories = np.array([[1.0, 1e200, 1e308], [3.0, -1e200, 1e308]])  # std, then mean overflow
    with pytest.raises(FloatingPointError, match=r"not finite at epoch 2$"):
        aggregate_curve(histories)
    with pytest.raises(FloatingPointError, match=r"not finite at epoch 1$"):
        aggregate_curve(histories[:, ::-1])
    assert [r.std_e_total for r in aggregate_curve(histories[:, :1])] == [1.0]


def test_a_parameter_gone_bad_in_the_last_write_is_a_non_finite_run():
    # one sample and one epoch: the error is taken before the write and is
    # finite, and the write's inf * 0 leaves a gamma NaN, which only the
    # check of the final parameters sees
    config = tiny(model="mlp", gate="XOR", epochs=1, n_realizations=1, dataset_size=1,
                  learning_rate=1e308, seed=1)
    with pytest.raises(FloatingPointError, match=r"^mlp XOR: realization 0 is not finite from epoch 1 on$"):
        trained_ensemble(config)


# each float key is drawn half the time from a working range, half the time
# from anywhere in its valid range, subnormals and the largest floats included
POSITIVE = st.floats(0.01, 10.0) | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
NON_NEGATIVE = st.floats(0.0, 100.0) | st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def small_configs(draw):
    """Config dicts over every key that changes a training run, at small sizes."""
    model = draw(st.sampled_from(MODELS))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    r_on, r_off = sorted(draw(st.lists(POSITIVE, min_size=2, max_size=2, unique=True)))
    return dict(
        model=model, gate=draw(st.sampled_from(GATE_NAMES)), epochs=draw(st.integers(1, 3)),
        n_realizations=draw(st.integers(1, 3)), dataset_size=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 2**70)), learning_rate=draw(st.none() | POSITIVE),
        window_a=draw(POSITIVE), d_prime=draw(POSITIVE), b_scale=draw(POSITIVE),
        tau=draw(NON_NEGATIVE), mu_v=draw(NON_NEGATIVE), r_on=r_on, r_off=r_off,
        topology=(2, *hidden, 1),
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(overrides=small_configs(), split=st.booleans())
def test_every_valid_config_finishes_in_bounds_or_fails_by_its_exit_code(overrides, split):
    # the three outcomes allowed: finite histories with every parameter inside
    # its clamp, and finite scores on a two-class ROC evaluation set; a
    # ConfigError naming a key (exit 1); a FloatingPointError (exit 2)
    config = parse_config(overrides=overrides)
    snapshot = (config.epochs + 1) // 2 if split else None
    try:
        histories, final, *taken = trained_ensemble(config, snapshot)
    except ConfigError as exc:
        assert set(re.findall(r"config keys? '(\w+)'", str(exc))) & {f.name for f in fields(ExperimentConfig)}
        return
    except FloatingPointError:
        return
    assert histories.shape == (config.n_realizations, config.epochs)
    assert np.isfinite(histories).all() and (histories >= 0.0).all()
    # the harness passes the slp's trainer window_a alone, so its weights
    # keep the default weight_bound of 10; the mlp's trainer clamps its
    # whole flat list, gammas and node biases alike, to +/- d_prime / 2
    bound = 10.0 if config.model == "slp" else config.d_prime / 2.0
    try:
        xs = _evaluation_set(config)[0]
    except ConfigError:  # one class: roc and protocol stop before training
        xs = None
    for params in [final, *taken]:
        for p in params:
            assert p.shape[0] == config.n_realizations
            assert np.isfinite(p).all() and (np.abs(p) <= bound).all()
        if xs is not None:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # scoring warns nothing, overflow included
                try:
                    scores = ensemble_scores(config, params, xs)
                except FloatingPointError:
                    continue
            assert np.isfinite(scores).all()
