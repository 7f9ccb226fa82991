"""The compiled engine against numpy: the same bytes, the same draws or the same error."""

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import types
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
from memperceptron.mlp import Topology, glorot_init, train_mlp_ensemble
from memperceptron.slp import glorot_slp_weights, train_slp_ensemble

from oracles import glorot_loop_init, glorot_slp_loop_init

# realization counts for the kernel properties: below one lane block, one
# partial block, and full blocks with a ragged tail
REALIZATIONS = [1, 3, 17, 35]


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


def test_nan_realization_keeps_the_window_check_on_both_engines():
    # realization 0's increments are NaN; realization 1's is exactly the
    # window width, which both engines must still reject
    weights0 = np.array([[np.nan, np.nan, np.nan], [0.0, 0.0, 0.0]])
    compiled, numpy = on_both_engines(lambda: train_slp_ensemble(
        weights0, 8.0, np.ones((1, 2)), np.ones(1), 2, [np.random.default_rng(r) for r in range(2)]))
    assert compiled == numpy
    assert numpy.startswith("realization 1, epoch 1, sample 1: increment 1.0 ")


@pytest.mark.parametrize("model", ["slp", "mlp"])
def test_an_overshoot_inside_the_second_lane_block_is_named_on_both_engines(model):
    # only realization 10 of 20 writes at least window_a; the others move
    # by almost nothing (slp) or exactly nothing (mlp)
    n_real, xs, ts = 20, np.ones((1, 2)), np.ones(1)
    weights0 = np.full((n_real, 3), 5.0)
    weights0[10] = 0.0
    gammas0 = [np.zeros((n_real, 2, 2)), np.zeros((n_real, 2, 1))]
    gammas0[0][10], gammas0[1][10] = 1.0, 1.0
    biases0 = [np.zeros((n_real, 2)), np.zeros((n_real, 1))]

    def run():
        rngs = [np.random.default_rng(r) for r in range(n_real)]
        if model == "slp":
            return train_slp_ensemble(weights0, 8.0, xs, ts, 2, rngs)
        return train_mlp_ensemble(gammas0, biases0, 0.1, xs, ts, 2, rngs, write_mode="single")

    compiled, numpy = on_both_engines(run)
    assert compiled == numpy
    assert numpy.startswith("realization 10, epoch 1, sample 1: increment ")


def test_a_wide_hidden_layer_fits_the_kernel_scratch():
    # the kernel sizes each lane's scratch from the topology: no fixed cap
    rng = np.random.default_rng(3)
    n_real, sizes = 9, (2, 300, 1)
    gammas0 = [rng.uniform(-0.1, 0.1, (n_real, a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases0 = [rng.uniform(-0.1, 0.1, (n_real, b)) for b in sizes[1:]]
    xs = rng.integers(0, 2, (6, 2)).astype(float)
    ts = rng.integers(0, 2, 6).astype(float)
    compiled, numpy = on_both_engines(lambda: train_mlp_ensemble(
        gammas0, biases0, 0.05, xs, ts, 2, [np.random.default_rng(r) for r in range(n_real)]))
    assert np.isfinite(numpy[0]).all()
    assert_same(compiled, numpy)


def test_a_kernel_without_memory_for_its_scratch_raises_memory_error(monkeypatch):
    lib = train.load_library()
    if lib is None:
        pytest.skip("no compiled library")
    failing = types.SimpleNamespace(bitgen=lib.bitgen, shuffle_rows=lib.shuffle_rows,
                                    slp_epoch=lambda *args: 2)
    monkeypatch.setattr(train, "load_library", lambda: failing)
    with pytest.raises(MemoryError, match="slp_epoch"):
        train_slp_ensemble(np.zeros((2, 3)), 0.1, np.eye(2), np.ones(2), 1,
                           [np.random.default_rng(r) for r in range(2)])


@pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
def test_clamp_is_np_clip_at_odd_bounds(bound):
    # config validation rejects a NaN, negative or zero d_prime, so these
    # bounds reach only direct trainer calls
    weights0 = np.array([[0.3, -0.2, 0.1], [-0.5, 0.0, 2.0]])
    compiled, numpy = on_both_engines(lambda: train_slp_ensemble(
        weights0, 0.5, np.eye(2), np.ones(2), 3, [np.random.default_rng(r) for r in range(2)],
        weight_bound=bound))
    assert_same(compiled, numpy)


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=3, max_size=5),
    n_real=st.sampled_from(REALIZATIONS),
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
    n_real=st.sampled_from(REALIZATIONS),
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


@pytest.mark.parametrize("n", [1, 2, 3, 100, 4099])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64,
                                           np.random.Philox])
def test_shuffle_rows_draws_rng_permutation(bit_generator, n):
    lib = train.load_library()
    if lib is None:
        pytest.skip("no compiled library")
    rngs, refs = ([np.random.Generator(bit_generator(s)) for s in range(3)] for _ in range(2))
    gens = (ctypes.c_void_p * 3)(*[lib.bitgen(rng.bit_generator.capsule, b"BitGenerator") for rng in rngs])
    perms = np.empty((3, n), dtype=np.int64)
    for _ in range(3):  # an odd number of 32-bit draws leaves half of a PCG64 output buffered
        lib.shuffle_rows(3, n, gens, perms.ctypes.data)
        assert np.array_equal(perms, [ref.permutation(n) for ref in refs])
    for rng, ref in zip(rngs, refs):
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("model", ["slp", "mlp"])
def test_generators_end_in_the_same_state_on_both_engines(model):
    xs = np.random.default_rng(1).uniform(-1.0, 1.0, (7, 2))
    ts = (xs[:, 0] > xs[:, 1]).astype(float)

    def run():
        rngs = [np.random.default_rng(10 + r) for r in range(3)]
        params = [np.full((3, 3), 0.1)] if model == "slp" else [
            [np.full((3, 2, 2), 0.1), np.full((3, 2, 1), -0.1)], [np.zeros((3, 2)), np.zeros((3, 1))]]
        for epochs in (2, 3):  # a snapshot split: two calls on the same generators
            if model == "slp":
                params = train_slp_ensemble(*params, 0.1, xs, ts, epochs, rngs)[1:]
            else:
                params = train_mlp_ensemble(*params, 0.1, xs, ts, epochs, rngs)[1:]
        return [rng.bit_generator.state for rng in rngs], [rng.random() for rng in rngs]

    compiled, numpy = on_both_engines(run)
    assert compiled == numpy


@pytest.mark.parametrize("sizes", [(2, 2, 1), (2, 3, 4, 1), (3, 1, 2)])
def test_glorot_init_equals_one_uniform_call_per_array(sizes):
    rngs, refs = ([np.random.default_rng(s) for s in range(40)] for _ in range(2))
    weights, biases = glorot_init(Topology(sizes), rngs)
    want = [glorot_loop_init(sizes, ref) for ref in refs]
    assert len(weights) == len(biases) == len(sizes) - 1
    for arrays, part in ((weights, 0), (biases, 1)):
        for l, got in enumerate(arrays):
            ref = np.stack([net[part][l] for net in want])
            assert got.shape == ref.shape and np.ascontiguousarray(got).tobytes() == ref.tobytes()
    for rng, ref in zip(rngs, refs):
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("input_dim", [1, 2, 5])
def test_glorot_slp_weights_equal_one_uniform_call_per_generator(input_dim):
    rngs, refs = ([np.random.default_rng(s) for s in range(40)] for _ in range(2))
    got = glorot_slp_weights(input_dim, rngs)
    want = np.stack([glorot_slp_loop_init(input_dim, ref) for ref in refs])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for rng, ref in zip(rngs, refs):
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings():
    # a full compile: -Wmaybe-uninitialized and friends need the optimizer
    built = subprocess.run(["cc", *train._CFLAGS, "-Wall", "-Wextra", "-Werror", "-c", "-o", os.devnull,
                            str(train._SOURCE)], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
