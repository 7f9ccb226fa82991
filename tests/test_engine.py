"""The compiled epoch kernel against the numpy loop: the same bytes or the same error."""

import functools
import hashlib
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_golden as golden
from memperceptron import train
from memperceptron.device import DeviceParams, WindowViolationError
from memperceptron.harness import parse_config, trained_ensemble
from memperceptron.mlp import train_mlp_ensemble
from memperceptron.slp import train_slp_ensemble


def on_both_engines(run):
    """run() on the default engine, then on numpy; each a result or its error text."""
    results = []
    for loader in (train.load_library, lambda: None):
        with mock.patch.object(train, "load_library", loader):
            try:
                results.append(run())
            except WindowViolationError as exc:
                results.append(str(exc))
    return results


def arrays(result):
    """The histories and every parameter array of a trainer's result."""
    return [a for part in result for a in (part if isinstance(part, list) else [part])]


def assert_same(compiled, numpy):
    if isinstance(compiled, str) or isinstance(numpy, str):
        assert compiled == numpy
        return
    for got, want in zip(arrays(compiled), arrays(numpy), strict=True):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got[got == got]), np.signbit(want[want == want]))  # -0.0


def fresh_source(tmp_path, monkeypatch):
    """Point the loader at a copy of epoch.c, for which nothing is cached."""
    source = tmp_path / "epoch.c"
    source.write_bytes(train._SOURCE.read_bytes())
    monkeypatch.setattr(train, "_SOURCE", source)
    return source


def test_loader_returns_the_library_whenever_a_compiler_is_found(tmp_path, monkeypatch):
    # without this the suite could pass on the numpy engine alone
    if shutil.which("cc") is None:
        return
    assert train.load_library() is not None
    # a fresh build lands in the source's own cache, under its key
    source = fresh_source(tmp_path, monkeypatch)
    assert train.load_library.__wrapped__() is not None
    key = hashlib.sha256(source.read_bytes() + " ".join(train._CFLAGS).encode()).hexdigest()
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [f"epoch-{key}.so"]


def test_without_a_compiler_training_warns_once_and_runs_on_numpy(tmp_path, monkeypatch):
    fresh_source(tmp_path, monkeypatch)
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setattr(train, "load_library", functools.cache(train.load_library.__wrapped__))

    def run():
        return train_slp_ensemble(np.array([[0.3, -0.2, 0.1]]), 0.5, np.eye(2), np.ones(2), 3,
                                  [np.random.default_rng(4)])

    with pytest.warns(RuntimeWarning, match=r"training on numpy: .*'cc'") as caught:
        runs = [run(), run()]
    assert len(caught) == 1
    with mock.patch.object(train, "load_library", lambda: None):
        want = run()
    for got in runs:
        assert_same(got, want)


def test_golden_artifacts_on_the_numpy_engine(tmp_path, monkeypatch):
    monkeypatch.setattr(train, "load_library", lambda: None)
    golden.test_protocol_artifacts_match_golden_digests(tmp_path)


def test_overflow_is_reported_once_as_a_non_finite_run(engine):
    config = parse_config(overrides={"model": "mlp", "gate": "XOR", "tau": 1e300, "epochs": 3,
                                     "n_realizations": 3, "dataset_size": 12})
    train.load_library()  # a build warning, if any, comes before the filter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^mlp XOR: realization \d+ is not finite "
                           r"from epoch \d+ on$"):
            trained_ensemble(config)


def test_nan_realization_suppresses_the_window_check_on_both_engines():
    # numpy's per-array max is NaN, so realization 1's increment of exactly
    # the window width goes through; the kernel flags it and numpy decides
    weights0 = np.array([[np.nan, np.nan, np.nan], [0.0, 0.0, 0.0]])
    compiled, numpy = on_both_engines(lambda: train_slp_ensemble(
        weights0, 8.0, np.ones((1, 2)), np.ones(1), 2, [np.random.default_rng(r) for r in range(2)]))
    assert_same(compiled, numpy)
    assert np.isnan(numpy[0][0]).all() and numpy[1][1, 2] > 1.0


@pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
def test_clamp_is_np_clip_at_odd_bounds(bound):
    # d_prime nan passes config validation; a negative or zero bound only
    # reaches the trainers directly
    weights0 = np.array([[0.3, -0.2, 0.1], [-0.5, 0.0, 2.0]])
    compiled, numpy = on_both_engines(lambda: train_slp_ensemble(
        weights0, 0.5, np.eye(2), np.ones(2), 3, [np.random.default_rng(r) for r in range(2)],
        weight_bound=bound))
    assert_same(compiled, numpy)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=3, max_size=5),
    n_real=st.sampled_from([1, 3]),
    n_samples=st.integers(1, 5),
    epochs=st.integers(1, 3),
    eta=st.floats(1e-3, 5.0),
    b_scale=st.floats(0.1, 3.0),
    tau=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
    d_prime=st.floats(0.05, 4.0),
    window_a=st.sampled_from([0.05, 0.5, 1.0]),
    write_mode=st.sampled_from(["burst", "single"]),
    r_on=st.floats(0.001, 0.9),
    seed=st.integers(0, 2**16),
)
def test_mlp_kernel_equals_numpy(widths, n_real, n_samples, epochs, eta, b_scale, tau, d_prime,
                                 window_a, write_mode, r_on, seed):
    # widths 1-4, 1-3 hidden layers; small d_prime makes the clamp fire
    rng = np.random.default_rng(seed)
    pairs = list(zip(widths[:-1], widths[1:]))
    gammas0 = [rng.uniform(-1.0, 1.0, (n_real, a, b)) for a, b in pairs]
    biases0 = [rng.uniform(-1.0, 1.0, (n_real, b)) for _, b in pairs]
    xs = rng.integers(0, 2, (n_samples, widths[0])).astype(float)
    ts = rng.integers(0, 2, n_samples).astype(float)
    compiled, numpy = on_both_engines(lambda: train_mlp_ensemble(
        gammas0, biases0, eta, xs, ts, epochs, [np.random.default_rng(seed + r) for r in range(n_real)],
        params=DeviceParams(r_on=r_on), tau=tau, d_prime=d_prime, b_scale=b_scale,
        window_a=window_a, write_mode=write_mode))
    assert_same(compiled, numpy)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 4),
    n_real=st.sampled_from([1, 3]),
    n_samples=st.integers(1, 5),
    epochs=st.integers(1, 3),
    eta=st.floats(1e-3, 5.0),
    bound=st.floats(0.05, 10.0),
    window_a=st.sampled_from([0.05, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_slp_kernel_equals_numpy(width, n_real, n_samples, epochs, eta, bound, window_a, seed):
    rng = np.random.default_rng(seed)
    weights0 = rng.uniform(-bound, bound, (n_real, width + 1))
    xs = rng.uniform(-2.0, 2.0, (n_samples, width))
    ts = rng.integers(0, 2, n_samples).astype(float)
    compiled, numpy = on_both_engines(lambda: train_slp_ensemble(
        weights0, eta, xs, ts, epochs, [np.random.default_rng(seed + r) for r in range(n_real)],
        weight_bound=bound, window_a=window_a))
    assert_same(compiled, numpy)


def test_shapes_the_kernel_cannot_take_are_rejected():
    # the kernel trusts these shapes, so the trainers check them first
    rngs = [np.random.default_rng(0)]
    with pytest.raises(ValueError, match=r"need \(samples, inputs\), \(samples,\)"):
        train_slp_ensemble(np.zeros((1, 3)), 0.1, np.ones((3, 2)), np.ones(2), 1, rngs)
    with pytest.raises(ValueError, match="weights0 of shape"):
        train_slp_ensemble(np.zeros((1, 3, 1)), 0.1, np.ones((3, 2)), np.ones(3), 1, rngs)
    with pytest.raises(ValueError, match=r"gammas0 must be \[\(1, 2, 2\), \(1, 2, 1\)\]"):
        train_mlp_ensemble([np.zeros((1, 2, 2)), np.zeros((1, 2, 1))],
                           [np.zeros((1, 2)), np.zeros((1, 2))], 0.1, np.ones((3, 2)), np.ones(3), 1, rngs)
