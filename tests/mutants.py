"""A standing mutation check: each mutant below must make its test fail.

    python tests/mutants.py

Each mutant is one text replacement in one file.  It is applied to a fresh
copy of the repository's src/ and tests/ in a temporary directory, which
builds its own kernel, and only the test named for it runs there.  First
the named tests run on an unmutated copy, so that a test failing for
another reason is not taken for a catch.  Prints one line per mutant and
exits 1 if any survives or cannot be run.  The name keeps it out of the
test suite: a run takes minutes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL, HARNESS, DATA, TRAIN, METRICS = (f"src/memperceptron/{name}" for name in
                                         ("epoch.c", "harness.py", "data.py", "train.py", "metrics.py"))
ENGINE_TESTS, HARNESS_TESTS = "tests/test_engine.py::", "tests/test_harness.py::"

# (file, old text, new text, the test that must fail)
MUTANTS = [
    (HARNESS, "snapshot = (config.epochs + 1) // 2", "snapshot = config.epochs // 2",
     HARNESS_TESTS + "test_cli_protocol_roc_files_equal_the_roc_command"),
    (KERNEL, "over |= fabs(inc[b]) >= window_a", "over |= fabs(inc[b]) > window_a",
     "tests/test_acceptance.py::test_criterion_7_window_isolation"),
    (HARNESS, "bad = ~np.isfinite(scores).all(axis=1)", "bad = np.zeros(len(scores), dtype=bool)",
     HARNESS_TESTS + "test_cli_roc_non_finite_scores_exit_2"),
    (HARNESS, "bad[:, -1] |= ~np.isfinite(p.reshape(len(p), -1)).all(axis=1)", "pass",
     HARNESS_TESTS + "test_a_parameter_gone_bad_in_the_last_write_is_a_non_finite_run"),
    (KERNEL, "i < n_words && ++words[i] == 0", "i < 1 && ++words[i] == 0",
     ENGINE_TESTS + "test_seed_streams_hold_the_states_of_default_rng"),
    (HARNESS, "if ts.min() == ts.max():", "if False:",
     HARNESS_TESTS + "test_cli_roc_one_class_evaluation_set_exits_1"),
    (KERNEL, "if (c.where[0] < e || (c.where[0] == e && c.where[1] <= k))", "if (c.where[0] < e)",
     ENGINE_TESTS + "test_a_violation_leaves_each_stream_where_its_lane_block_stopped"),
    (KERNEL, "c.where[j] = INT64_MAX;", ";",
     ENGINE_TESTS + "test_an_overshoot_inside_the_second_lane_block_is_named_on_both_engines"),
    (KERNEL, "i < u.count; i++)", "i < u.count && where[0] == INT64_MAX; i++)",
     ENGINE_TESTS + "test_a_violation_leaves_each_stream_where_its_piece_stopped"),
    (KERNEL, "(W * PIECES)", "(W * 2)",
     ENGINE_TESTS + "test_a_violation_leaves_each_stream_where_its_piece_stopped"),
    (DATA, "return bits.astype(float),", "return bits[:, ::-1].astype(float),",
     "tests/test_data.py::test_generated_dataset_equals_the_per_sample_oracle"),
    (HARNESS, "bad = ~(np.isfinite(means) & np.isfinite(stds))", "bad = ~np.isfinite(means)",
     HARNESS_TESTS + "test_cli_curve_statistics_that_overflow_exit_2"),
    (TRAIN, "if xs.ndim != 2 or 0 in xs.shape:", "if 0 in xs.shape:",
     ENGINE_TESTS + "test_shapes_the_kernel_cannot_take_are_rejected"),
    (TRAIN, "shapes[n_layers:] != [(n_real, b) for b in widths[1:]]", "False",
     ENGINE_TESTS + "test_shapes_the_kernel_cannot_take_are_rejected"),
    # the rows stay right: only the final stream states show it
    (KERNEL, "g[b].uinteger = x >> 32;", ";",
     ENGINE_TESTS + "test_long_shuffles_equal_the_oracles"),
    (KERNEL, "drive[b] = acc[b] > 0.0 ? acc[b] : 0.0;", "drive[b] = acc[b];",
     ENGINE_TESTS + "test_long_shuffles_equal_the_oracles"),
    # types checked only on the parse_config route, as they once were
    (HARNESS, "_check(key_type(key), key, v)", "pass",
     HARNESS_TESTS + "test_construction_checks_the_type_of_every_key"),
    (METRICS, "float(np.cumsum(0.5 * (tprs[1:] + tprs[:-1]) * (fprs[1:] - fprs[:-1]))[-1])",
     "float(np.sum(0.5 * (tprs[1:] + tprs[:-1]) * (fprs[1:] - fprs[:-1])))",
     "tests/test_metrics.py::test_auc_equals_the_trapezoid_loop_bit_for_bit"),
    # the branch choice's sense swapped: the package's kernel would take the default copy
    (KERNEL, 'return __builtin_cpu_supports("avx2") != 0;', 'return __builtin_cpu_supports("avx2") == 0;',
     ENGINE_TESTS + "test_the_avx2_and_the_default_copy_of_the_mlp_blocks_give_the_same_bytes"),
    (HARNESS, "except OverflowError:", "except ZeroDivisionError:",
     HARNESS_TESTS + "test_an_integer_past_float_range_in_any_float_key_is_a_keyed_config_error"),
    (HARNESS, "except AllocationError as exc:", "except ZeroDivisionError as exc:",
     HARNESS_TESTS + "test_cli_ensembles_too_large_to_allocate_exit_1"),
    (TRAIN, "if math.prod(shape) * np.dtype(dtype).itemsize > sys.maxsize:", "if False:",
     HARNESS_TESTS + "test_cli_ensembles_too_large_to_allocate_exit_1"),
    (METRICS, "def _split_scores(", "def _unused():\n    return None\n\n\ndef _split_scores(",
     "tests/test_source.py::test_every_top_level_name_is_public_or_used_by_the_package"),
]


def run_tests(tests, mutant=None) -> int:
    """pytest's exit code for tests on a fresh copy, mutant (file, old, new) applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, copy / part)
        if mutant:
            file, old, new = mutant
            text = (copy / file).read_text()
            if text.count(old) != 1:
                print(f"ERROR    {file}: {old!r} is not found exactly once")
                return -1
            (copy / file).write_text(text.replace(old, new))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
                              capture_output=True, text=True)
        return done.returncode


def main() -> int:
    if run_tests(sorted({test for *_, test in MUTANTS})) != 0:
        print("ERROR    the named tests fail on the unmutated copy")
        return 1
    bad = 0
    for file, old, new, test in MUTANTS:
        code = run_tests([test], (file, old, new))
        verdict = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR {code}")
        bad += code != 1
        print(f"{verdict:8} {file}: {old!r} -> {new!r} ({test.split('::')[1]})", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
