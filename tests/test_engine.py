"""The compiled runs against the plain loops of tests/oracles.py: the same bytes, the same draws or the same error.

The two engines of the test names are the compiled run and those numpy
loops.  Tests parametrized by `source` take their stream rows either from
the library's `seed_streams` ("compiled") or copied from numpy's own
generators ("numpy"), so the runs are seen to carry on any PCG64 state,
not only the ones the library seeded.
"""

import functools
import hashlib
import os
import re
import shutil
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from memperceptron import harness, train
from memperceptron.cli import main
from memperceptron.device import DeviceParams, WindowViolationError, quad_coefficient
from memperceptron.harness import parse_config, trained_ensemble
from memperceptron.mlp import device_constants, glorot_init, glorot_layer, train_mlp_ensemble
from memperceptron.slp import train_slp_ensemble
from memperceptron.train import score, seed_streams

from oracles import (
    Overshoot,
    glorot_loop_init,
    glorot_slp_loop_init,
    ideal_mlp_run,
    ideal_slp_run,
    mlp_forward,
    numpy_streams,
    pcg64_row,
    slp_forward,
)

# realization counts for the kernel properties: below one lane block, one
# partial block, two full blocks (the smallest run cut into pieces), and full
# blocks with a ragged tail
REALIZATIONS = [1, 3, 16, 17, 35]
# and for score: one lane, a ragged block, one full block, a full block and
# one lane, two full blocks and one lane
SCORED = [1, 3, 8, 9, 17]
SOURCES = {"compiled": seed_streams, "numpy": numpy_streams}


def outcome(run):
    """run()'s result, or the text of the WindowViolationError it raises."""
    try:
        return run()
    except WindowViolationError as exc:
        return str(exc)


def oracle_outcome(run_one, n_real, seed, window_a=None):
    """run_one(r, rng) for each realization r, rng being the generator of its
    stream, stacked as a trainer returns its result; or, if any overshoots
    window_a (the SLP's runs only), the trainer's error text for the first
    by (epoch, sample, realization, weight)."""
    runs, overshoots = [], []
    for r in range(n_real):
        try:
            runs.append(run_one(r, np.random.default_rng(seed + r)))
        except Overshoot as exc:
            epoch, sample, weight = exc.key
            overshoots.append((epoch, sample, r, weight, exc.increment))
    if overshoots:
        epoch, sample, r, weight, increment = min(overshoots)
        return (f"realization {r}, epoch {epoch + 1}, sample {sample + 1}: increment {increment!r} "
                f"to weight {weight} does not fit in window width {window_a}")
    return [[np.stack(layer) for layer in zip(*part)] if isinstance(part[0], list) else np.stack(part)
            for part in zip(*runs)]


def slp_oracle(w0, eta, xs, ts, epochs, rng, bound, window_a):
    """One machine's (history, final weights) from the plain delta-rule loop."""
    history, trail = ideal_slp_run(w0, eta, xs, ts, epochs, rng, record_weights=True, bound=bound,
                                   sigmoid=expit, window_a=window_a)
    return history, trail[-1]


def arrays(result):
    """The histories and every parameter array of a trainer's result."""
    return [a for part in result for a in (part if isinstance(part, list) else [part])]


def assert_same(compiled, oracle):
    if isinstance(compiled, str) or isinstance(oracle, str):
        assert compiled == oracle
        return
    for got, want in zip(arrays(compiled), arrays(oracle), strict=True):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got[got == got]), np.signbit(want[want == want]))  # -0.0


def fresh_source(tmp_path, monkeypatch):
    """Point the loader at a copy of epoch.c, for which nothing is cached."""
    source = tmp_path / "epoch.c"
    source.write_bytes(train._SOURCE.read_bytes())
    monkeypatch.setattr(train, "_SOURCE", source)
    return source


def test_loader_returns_the_library_whenever_a_compiler_is_found(tmp_path, monkeypatch):
    if shutil.which("cc") is None:
        return
    assert train.load_library() is not None
    # a fresh build lands in the source's own cache, under its key, and
    # removes the builds of other sources; one it cannot remove stays
    source = fresh_source(tmp_path, monkeypatch)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "epoch-stale.so").write_bytes(b"")
    (cache / "epoch-busy.so").mkdir()  # unlink raises IsADirectoryError
    assert train.load_library.__wrapped__() is not None
    key = hashlib.sha256(source.read_bytes() + " ".join(train._CFLAGS).encode()).hexdigest()
    assert sorted(p.name for p in cache.iterdir()) == sorted(["epoch-busy.so", f"epoch-{key}.so"])


def test_without_a_compiler_train_exits_2_naming_cc(tmp_path, monkeypatch, capsys):
    fresh_source(tmp_path, monkeypatch)
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))  # no such directory: no cc
    monkeypatch.setattr(train, "load_library", functools.cache(train.load_library.__wrapped__))
    out = tmp_path / "out"
    rc = main(["train", "--epochs", "2", "--realizations", "2", "--dataset-size", "8",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'cc'" in err
    assert not out.exists()


@pytest.mark.parametrize("source", SOURCES)
def test_overflow_is_reported_once_as_a_non_finite_run(source, monkeypatch):
    monkeypatch.setattr(harness, "seed_streams", SOURCES[source])
    config = parse_config(overrides={"model": "mlp", "gate": "XOR", "tau": 1e300, "epochs": 3,
                                     "n_realizations": 3, "dataset_size": 12})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^mlp XOR: realization \d+ is not finite "
                           r"from epoch \d+ on$"):
            trained_ensemble(config)


def test_nan_realization_keeps_the_window_check_on_both_engines():
    # realization 0's increments are NaN; realization 1's is exactly the
    # window width, which must still be rejected
    weights0 = np.array([[np.nan, np.nan, np.nan], [0.0, 0.0, 0.0]])
    xs, ts = np.ones((1, 2)), np.ones(1)
    got = outcome(lambda: train_slp_ensemble([weights0], 8.0, xs, ts, 2, seed_streams(0, 2)))
    assert got == oracle_outcome(lambda r, rng: slp_oracle(weights0[r], 8.0, xs, ts, 2, rng, 10.0, 1.0),
                                 2, 0, 1.0)
    assert got.startswith("realization 1, epoch 1, sample 1: increment 1.0 ")


def test_an_overshoot_inside_the_second_lane_block_is_named_on_both_engines():
    # only realization 10 of 20 writes at least window_a; the others move
    # by almost nothing
    n_real, xs, ts = 20, np.ones((1, 2)), np.ones(1)
    weights0 = np.full((n_real, 3), 5.0)
    weights0[10] = 0.0
    got = outcome(lambda: train_slp_ensemble([weights0], 8.0, xs, ts, 2, seed_streams(0, n_real)))
    assert got == oracle_outcome(lambda r, rng: slp_oracle(weights0[r], 8.0, xs, ts, 2, rng, 10.0, 1.0),
                                 n_real, 0, 1.0)
    assert got.startswith("realization 10, epoch 1, sample 1: increment ")


def test_the_first_violation_is_named_by_epoch_sample_realization_weight():
    # two equal samples, so the order of each epoch changes nothing: each
    # realization's increments grow step by step from a low output
    weights0 = np.full((10, 2), 5.0)  # saturated: almost no increment
    weights0[9] = -1.25  # lane block 2: 0.65, then 1.37 at epoch 1, sample 2
    weights0[0] = -1.5  # lane block 1: 0.43, 0.84, then 1.45 at epoch 2, sample 1
    with pytest.raises(WindowViolationError, match=r"^realization 9, epoch 1, sample 2: increment 1\.36\d* "
                       r"to weight 0 "):
        train_slp_ensemble([weights0], 10.0, np.ones((2, 1)), np.ones(2), 3, seed_streams(0, 10))


def test_a_violation_leaves_each_stream_where_its_lane_block_stopped():
    # realization 0 overshoots at epoch 2, sample 1, so its block stops
    # there, and the second block stops at the same sample: every stream has
    # drawn its init, then the permutations of epochs 1 and 2 and no more
    n_real, violating_epoch = 10, 1
    streams = seed_streams(0, n_real)
    glorot_layer(1, 1, streams)
    weights0 = np.full((n_real, 2), 5.0)  # saturated: almost no increment
    weights0[0] = -1.5  # 0.43, 0.84, then 1.45 at epoch 2, sample 1
    with pytest.raises(WindowViolationError, match=r"^realization 0, epoch 2, sample 1: "):
        train_slp_ensemble([weights0], 10.0, np.ones((2, 1)), np.ones(2), 4, streams)
    refs = [np.random.default_rng(r) for r in range(n_real)]
    for ref in refs:
        glorot_slp_loop_init(1, ref)
        for _ in range(violating_epoch + 1):
            ref.permutation(2)
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


@pytest.mark.parametrize("earlier", [0, 150])
def test_a_violation_leaves_each_stream_where_its_piece_stopped(earlier):
    # 160 realizations are cut into ten pieces of two lane blocks.
    # Realization `earlier` overshoots at epoch 1, sample 2, and the other of
    # 0 and 150 at epoch 2, sample 1, a later key.  Each piece stops its
    # blocks at its own first violation, so the streams of the piece holding
    # the earlier one draw one permutation, those of the piece holding the
    # later one two, and those of the other pieces all four
    n_real, piece, later = 160, 16, 150 - earlier
    streams = seed_streams(0, n_real)
    glorot_layer(1, 1, streams)
    weights0 = np.full((n_real, 2), 5.0)  # saturated: almost no increment
    weights0[earlier] = -1.25  # 0.65, then 1.37 at epoch 1, sample 2
    weights0[later] = -1.5  # 0.43, 0.84, then 1.45 at epoch 2, sample 1
    with pytest.raises(WindowViolationError, match=rf"^realization {earlier}, epoch 1, sample 2: "):
        train_slp_ensemble([weights0], 10.0, np.ones((2, 1)), np.ones(2), 4, streams)
    drawn = {earlier // piece: 1, later // piece: 2}
    refs = [np.random.default_rng(r) for r in range(n_real)]
    for r, ref in enumerate(refs):
        glorot_slp_loop_init(1, ref)
        for _ in range(drawn.get(r // piece, 4)):
            ref.permutation(2)
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


def on_cpus(cpus, monkeypatch, run):
    """run()'s outcome when the process may use cpus CPUs, and the CPU
    count of each compiled run it made."""
    lib, passed = train.load_library(), []

    class Counting:
        def __getattr__(self, name):
            if name == "run":
                return lambda *args: passed.append(args[-1]) or lib.run(*args)
            return getattr(lib, name)

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(train, "load_library", Counting)
        return outcome(run), passed


@pytest.mark.parametrize("model, n_real", [(model, n_real) for model in ("slp", "mlp")
                                           for n_real in (16, 17, 35, 100, 300)]
                         + [("slp overshooting", 160)])
def test_the_pieces_give_the_same_bytes_on_one_cpu_and_on_two(model, n_real, monkeypatch):
    # one CPU runs the pieces one after the other in the caller; more share
    # them with one more thread.  At 300 a piece holds three lane blocks and
    # the last one a full block and a ragged one
    rng = np.random.default_rng(n_real)
    xs = rng.uniform(-1.0, 1.0, (7, 2))
    ts = (xs[:, 0] > xs[:, 1]).astype(float)

    def trained(cpus):
        streams = seed_streams(3, n_real)
        if model == "mlp":
            gammas0, biases0 = glorot_init((2, 2, 1), streams)
            got = on_cpus(cpus, monkeypatch,
                          lambda: train_mlp_ensemble(gammas0 + biases0, 0.5, xs, ts, 4, streams))
        else:
            weights0, eta = glorot_layer(2, 1, streams), 7.0 if model == "slp overshooting" else 0.5
            got = on_cpus(cpus, monkeypatch, lambda: train_slp_ensemble([weights0], eta, xs, ts, 4, streams))
        return *got, streams.tolist()

    (one, one_cpus, one_streams), (two, two_cpus, two_streams) = trained(1), trained(4)
    assert (one_cpus, two_cpus) == ([1], [4])
    assert isinstance(one, str) == (model == "slp overshooting")
    assert_same(one, two)
    assert one_streams == two_streams


def test_concurrent_trainer_calls_each_run_every_piece_once(monkeypatch):
    # six callers at once, each with its own extra thread, so more threads
    # than cores, and a switch interval short enough to interleave the taking
    # of pieces: a piece run twice would advance its streams twice, and a
    # piece skipped would leave them where they were
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1.0, 1.0, (7, 2))
    ts = (xs[:, 0] > xs[:, 1]).astype(float)

    def trained():
        streams = seed_streams(3, 300)
        histories, (w,) = train_slp_ensemble([glorot_layer(2, 1, streams)], 0.5, xs, ts, 3, streams)
        return histories, w, streams

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    want = trained()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    got = [None] * 6
    callers = [threading.Thread(target=lambda i=i: got.__setitem__(i, trained())) for i in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [[a.tobytes() for a in g] for g in got] == [[a.tobytes() for a in want]] * 6


def test_signed_zeros_follow_the_oracles():
    # parameters of -0.0 and zero inputs make every sum a signed zero, which
    # a node bias keeps only if each sum starts from its first term
    gammas0 = [np.full((3, 2, 2), -0.0), np.full((3, 2, 1), -0.0)]
    biases0 = [np.full((3, 2), -0.0), np.full((3, 1), -0.0)]
    xs, ts = np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0])
    got = train_mlp_ensemble(gammas0 + biases0, 0.1, xs, ts, 3, seed_streams(0, 3))
    want = oracle_outcome(lambda r, rng: ideal_mlp_run(
        [g[r] for g in gammas0], [b[r] for b in biases0], 0.1, xs, ts, 3, rng, (0.01, 1.0, 1.0),
        1.0, 2.0)[:3], 3, 0)
    assert np.signbit(np.concatenate([b.ravel() for b in got[1][2:]])).any()
    assert_same(got, want)


def test_a_wide_hidden_layer_fits_the_kernel_scratch():
    # the kernel sizes each lane's scratch from the topology: no fixed cap
    rng = np.random.default_rng(3)
    n_real, sizes = 9, (2, 300, 1)
    gammas0 = [rng.uniform(-0.1, 0.1, (n_real, a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases0 = [rng.uniform(-0.1, 0.1, (n_real, b)) for b in sizes[1:]]
    xs = rng.integers(0, 2, (6, 2)).astype(float)
    ts = rng.integers(0, 2, 6).astype(float)
    got = train_mlp_ensemble(gammas0 + biases0, 0.05, xs, ts, 2, seed_streams(0, n_real))
    want = oracle_outcome(lambda r, stream: ideal_mlp_run(
        [g[r] for g in gammas0], [b[r] for b in biases0], 0.05, xs, ts, 2, stream, (0.01, 1.0, 1.0),
        1.0, 2.0)[:3], n_real, 0)
    assert np.isfinite(got[0]).all()
    assert_same(got, want)


@pytest.mark.parametrize("model", ["slp", "mlp"])
def test_a_trainer_call_is_one_compiled_call(model, monkeypatch):
    # wide runs too: the kernel cuts them into pieces and runs the second thread
    lib, calls = train.load_library(), []

    class Counting:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    monkeypatch.setattr(train, "load_library", Counting)
    for n_real in (0, 1, 3, 16, 100, 1000):
        streams = seed_streams(0, n_real)
        calls.clear()
        if model == "slp":
            train_slp_ensemble([np.zeros((n_real, 3))], 0.1, np.eye(2), np.ones(2), 5, streams)
        else:
            train_mlp_ensemble([np.zeros((n_real, 2, 2)), np.zeros((n_real, 2, 1)),
                                np.zeros((n_real, 2)), np.zeros((n_real, 1))], 0.1, np.eye(2), np.ones(2), 5,
                               streams)
        assert calls == ["run"], n_real


def test_an_empty_ensemble_trains_and_scores_to_empty_results():
    xs, ts, streams = np.eye(2), np.ones(2), seed_streams(0, 0)
    histories, (w,) = train_slp_ensemble([np.zeros((0, 3))], 0.1, xs, ts, 3, streams)
    assert (histories.shape, w.shape) == ((0, 3), (0, 3))
    gammas0, biases0 = [np.zeros((0, 2, 2)), np.zeros((0, 2, 1))], [np.zeros((0, 2)), np.zeros((0, 1))]
    histories, final = train_mlp_ensemble(gammas0 + biases0, 0.1, xs, ts, 3, streams)
    assert histories.shape == (0, 3)
    assert [a.shape for a in final] == [a.shape for a in gammas0 + biases0]
    assert score([np.zeros((0, 3))], xs).shape == (0, 2, 1)
    assert score(gammas0 + biases0, xs, (1.0,) * 6).shape == (0, 2, 1)


def test_a_kernel_without_memory_for_its_scratch_raises_memory_error(monkeypatch):
    streams = seed_streams(0, 2)
    failing = types.SimpleNamespace(run=lambda *args: 2, score=lambda *args: 2)
    monkeypatch.setattr(train, "load_library", lambda: failing)
    with pytest.raises(MemoryError, match="run: cannot allocate its scratch"):
        train_slp_ensemble([np.zeros((2, 3))], 0.1, np.eye(2), np.ones(2), 1, streams)
    with pytest.raises(MemoryError, match="score: cannot allocate its scratch"):
        score([np.zeros((2, 3))], np.eye(2))


@pytest.mark.parametrize("bound", [0.0, -1.0, np.nan])
def test_clamp_is_np_clip_at_odd_bounds(bound):
    # config validation rejects a NaN, negative or zero d_prime, so these
    # bounds reach only direct trainer calls
    weights0 = np.array([[0.3, -0.2, 0.1], [-0.5, 0.0, 2.0]])
    xs, ts = np.eye(2), np.ones(2)
    got = outcome(lambda: train_slp_ensemble([weights0], 0.5, xs, ts, 3, seed_streams(0, 2),
                                             weight_bound=bound))
    assert_same(got, oracle_outcome(lambda r, rng: slp_oracle(weights0[r], 0.5, xs, ts, 3, rng, bound, 1.0),
                                    2, 0, 1.0))


@pytest.mark.parametrize("n_real", [8, 11])
@pytest.mark.parametrize("model", ["slp", "mlp"])
def test_long_shuffles_equal_the_oracles(model, n_real):
    # the properties below shuffle 1-5 samples, so a lane block rarely takes
    # paired draws there; 60 samples take most of their draws in pairs, and
    # an epoch that ends on an odd number of 32-bit draws leaves half an
    # output buffered for the next
    seed, epochs, rng = 4, 3, np.random.default_rng(4)
    xs = rng.integers(0, 2, (60, 2)).astype(float)
    ts = rng.integers(0, 2, 60).astype(float)
    streams, refs = seed_streams(seed, n_real), []
    if model == "slp":
        weights0 = rng.uniform(-1.0, 1.0, (n_real, 3))
        got = train_slp_ensemble([weights0], 0.5, xs, ts, epochs, streams)
        want = oracle_outcome(lambda r, stream: refs.append(stream) or slp_oracle(
            weights0[r], 0.5, xs, ts, epochs, stream, 10.0, 1.0), n_real, seed)
    else:  # the default device, whose node drive is zero for a negative net input
        gammas0 = [rng.uniform(-1.0, 1.0, (n_real, 2, 2)), rng.uniform(-1.0, 1.0, (n_real, 2, 1))]
        biases0 = [rng.uniform(-1.0, 1.0, (n_real, 2)), rng.uniform(-1.0, 1.0, (n_real, 1))]
        got = train_mlp_ensemble(gammas0 + biases0, 0.1, xs, ts, epochs, streams)
        want = oracle_outcome(lambda r, stream: refs.append(stream) or ideal_mlp_run(
            [g[r] for g in gammas0], [b[r] for b in biases0], 0.1, xs, ts, epochs, stream, (0.01, 1.0, 1.0),
            1.0, 2.0)[:3], n_real, seed)
    assert_same(got, want)
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


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
    r_on=st.floats(0.001, 0.9),
    seed=st.integers(0, 2**16),
)
def test_mlp_kernel_equals_numpy(widths, n_real, n_samples, epochs, eta, b_scale, tau, d_prime, r_on,
                                 seed):
    # widths 1-4, 1-3 hidden layers; small d_prime makes the clamp fire
    rng = np.random.default_rng(seed)
    pairs = list(zip(widths[:-1], widths[1:]))
    gammas0 = [rng.uniform(-1.0, 1.0, (n_real, a, b)) for a, b in pairs]
    biases0 = [rng.uniform(-1.0, 1.0, (n_real, b)) for _, b in pairs]
    xs = rng.integers(0, 2, (n_samples, widths[0])).astype(float)
    ts = rng.integers(0, 2, n_samples).astype(float)
    params = DeviceParams(r_on=r_on)
    got = train_mlp_ensemble(gammas0 + biases0, eta, xs, ts, epochs, seed_streams(seed, n_real),
                             device_constants(params, tau, b_scale), d_prime)
    want = oracle_outcome(lambda r, stream: ideal_mlp_run(
        [g[r] for g in gammas0], [b[r] for b in biases0], eta, xs, ts, epochs, stream,
        (r_on, params.r_off, params.d), quad_coefficient(params) * tau, d_prime / 2.0, b_scale)[:3],
        n_real, seed)
    assert_same(got, want)


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
    got = outcome(lambda: train_slp_ensemble([weights0], eta, xs, ts, epochs, seed_streams(seed, n_real),
                                             weight_bound=bound, window_a=window_a))
    want = oracle_outcome(lambda r, stream: slp_oracle(weights0[r], eta, xs, ts, epochs, stream, bound,
                                                       window_a), n_real, seed, window_a)
    assert_same(got, want)


def with_specials(rng, a, specials):
    """a with each of specials (NaN, signed zeros) at a random entry."""
    a = a.copy()
    for value in specials:
        a.flat[rng.integers(a.size)] = value
    return a


SPECIALS = st.lists(st.sampled_from([np.nan, 0.0, -0.0]), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 4),
    n_real=st.sampled_from(SCORED),
    n_samples=st.integers(1, 5),
    specials=SPECIALS,
    seed=st.integers(0, 2**16),
)
def test_slp_score_equals_the_oracle_and_expit(width, n_real, n_samples, specials, seed):
    rng = np.random.default_rng(seed)
    weights = with_specials(rng, rng.uniform(-3.0, 3.0, (n_real, width + 1)), specials)
    xs = with_specials(rng, rng.uniform(-2.0, 2.0, (n_samples, width)), specials[::2])
    got = score([weights], xs)
    assert got.shape == (n_real, n_samples, 1)
    nets = np.empty((n_real, n_samples))
    for r in range(n_real):
        for k in range(n_samples):
            net = weights[r, 0] * xs[k, 0]
            for i in range(1, width):
                net = net + weights[r, i] * xs[k, i]
            nets[r, k] = net + weights[r, width]
    assert_same([got[:, :, 0]], [slp_forward(weights[:, None, :], xs)])
    assert_same([got[:, :, 0]], [expit(nets)])


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 4), min_size=3, max_size=5),
    n_real=st.sampled_from(SCORED),
    n_samples=st.integers(1, 5),
    b_scale=st.floats(0.1, 3.0),
    tau=st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1e300)),
    r_on=st.floats(0.001, 0.9),
    specials=SPECIALS,
    seed=st.integers(0, 2**16),
)
def test_mlp_score_equals_the_oracle(widths, n_real, n_samples, b_scale, tau, r_on, specials, seed):
    # widths 1-4, 1-3 hidden layers, every output compared; a huge tau
    # overflows to inf and NaN in both
    rng = np.random.default_rng(seed)
    pairs = list(zip(widths[:-1], widths[1:]))
    gammas = [with_specials(rng, rng.uniform(-1.0, 1.0, (n_real, a, b)), specials) for a, b in pairs]
    biases = [with_specials(rng, rng.uniform(-1.0, 1.0, (n_real, b)), specials[1::2]) for _, b in pairs]
    xs = with_specials(rng, rng.integers(0, 2, (n_samples, widths[0])).astype(float), [-0.0] * len(specials))
    params = DeviceParams(r_on=r_on)
    got = score(gammas + biases, xs, device_constants(params, tau, b_scale))
    want = mlp_forward([g[:, None] for g in gammas], [b[:, None] for b in biases], xs, params,
                       quad_coefficient(params) * tau, b_scale)[-1][2]
    assert got.shape == want.shape == (n_real, n_samples, widths[-1])
    assert_same([got], [want])


def test_read_only_arrays_are_taken_as_writeable_copies():
    # the kernel's arguments are taken by address from writeable arrays, so
    # the caller's read-only ones are copied first and never written
    rng = np.random.default_rng(5)
    weights0, xs = rng.uniform(-1.0, 1.0, (3, 3)), rng.integers(0, 2, (6, 2)).astype(float)
    ts = rng.integers(0, 2, 6).astype(float)
    frozen = [a.copy() for a in (weights0, xs, ts)]
    for a in frozen:
        a.flags.writeable = False
    weights0_ro, xs_ro, ts_ro = frozen
    got = train_slp_ensemble([weights0_ro], 0.5, xs_ro, ts_ro, 3, seed_streams(0, 3))
    assert_same(got, train_slp_ensemble([weights0], 0.5, xs, ts, 3, seed_streams(0, 3)))
    assert_same([score([weights0_ro], xs_ro)], [score([weights0], xs)])
    assert all(np.array_equal(a, b) for a, b in zip(frozen, (weights0, xs, ts)))


def test_nested_lists_train_and_score_as_their_arrays():
    # xs and ts are converted before their shapes are read
    rng = np.random.default_rng(6)
    weights0, xs = rng.uniform(-1.0, 1.0, (3, 3)), rng.integers(0, 2, (6, 2)).astype(float)
    ts = rng.integers(0, 2, 6).astype(float)
    got = train_slp_ensemble([weights0.tolist()], 0.5, xs.tolist(), ts.tolist(), 3, seed_streams(0, 3))
    assert_same(got, train_slp_ensemble([weights0], 0.5, xs, ts, 3, seed_streams(0, 3)))
    assert_same([score([weights0.tolist()], xs.tolist())], [score([weights0], xs)])


SHAPE_CHECKED = {  # the two compiled calls, on params, xs, ts and device
    "train_lockstep": lambda params, xs, ts, device: train.train_lockstep(
        params, xs, ts, 1, seed_streams(0, 1), 10.0, 1.0, 0.1, device),
    "score": lambda params, xs, ts, device: score(params, xs, device),
}


@pytest.mark.parametrize("call", SHAPE_CHECKED)
def test_shapes_the_kernel_cannot_take_are_rejected(call):
    # the kernel trusts these shapes, so both calls check them first; one
    # realization, 3 samples of 2 inputs
    run, xs, ts, mlp = SHAPE_CHECKED[call], np.ones((3, 2)), np.ones(3), (1.0,) * 6
    for bad in (np.ones((0, 2)), np.float64(1.0)):  # no samples; a 0-d xs
        with pytest.raises(ValueError, match=r"need \(samples, inputs\), .*none 0"):
            run([np.zeros((1, 3))], bad, np.ones(0), None)
    if call == "train_lockstep":  # score takes no targets
        with pytest.raises(ValueError, match=r"need \(samples, inputs\), \(samples,\)"):
            run([np.zeros((1, 3))], xs, np.ones(2), None)
    for device, params in [
        (None, [np.zeros((1, 3, 1))]),  # an SLP weight array with a third axis
        (None, [np.zeros((1, 4))]),  # an SLP row one element long
        (None, [np.zeros((1, 2))]),  # an SLP row one element short
        (mlp, [np.zeros((1, 3, 2)), np.zeros((1, 2, 1)), np.zeros((1, 2)), np.zeros((1, 1))]),  # 3 inputs
        (mlp, [np.zeros((1, 2, 2)), np.zeros((1, 2, 1)), np.zeros((2, 2)), np.zeros((1, 1))]),  # 2 realizations
        (mlp, [np.zeros((1, 2, 2)), np.zeros((1, 2, 1)), np.zeros((1, 2)), np.zeros((1, 2))]),  # 2 outputs
        (mlp, [np.zeros((1, 2, 2)), np.zeros((1, 2, 1))]),  # no biases
    ]:
        with pytest.raises(ValueError, match=rf"are not the {'SLP' if device is None else 'MLP'}'s .* 2 inputs"):
            run(params, xs, ts, device)


# bases whose five streams cross 2**32 and 2**64 (a carry into a new word),
# and one of 7 words, which SeedSequence mixes in past its pool of 4
STREAM_SEEDS = [0, 2**32 - 2, 2**64 - 2, 2**200 - 2]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_seed_streams_hold_the_states_of_default_rng(seed):
    streams = train.seed_streams(seed, 5)
    assert streams.dtype == np.uint64 and streams.shape == (5, train.STREAM)
    assert streams.tolist() == [pcg64_row(np.random.default_rng(seed + r)) for r in range(5)]
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        train.seed_streams(-1, 5)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("source", SOURCES)
def test_random_rows_draw_rng_random(source, seed):
    streams = SOURCES[source](seed, 5)
    refs = [np.random.default_rng(seed + r) for r in range(5)]
    for k in (3, 1):
        assert train.random_rows(streams, k).tobytes() == np.stack([ref.random(k) for ref in refs]).tobytes()
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


# rows for the shuffle tests: one full lane block and a ragged block of three
SHUFFLED = 11


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_shuffle_rows_on_seeded_streams_draw_rng_permutation(seed):
    lib = train.load_library()
    streams = train.seed_streams(seed, SHUFFLED)
    refs = [np.random.default_rng(seed + r) for r in range(SHUFFLED)]
    for n in (1, 2, 3, 100, 4099):
        perms = np.empty((SHUFFLED, n), dtype=np.int64)
        for _ in range(3):  # an odd number of 32-bit draws leaves half of an output buffered
            lib.shuffle_rows(SHUFFLED, n, streams.ctypes.data, perms.ctypes.data)
            assert np.array_equal(perms, [ref.permutation(n) for ref in refs])
            assert streams.tolist() == [pcg64_row(ref) for ref in refs]


@pytest.mark.parametrize("n", [1, 2, 3, 100, 4099])
@pytest.mark.parametrize("bit_generator", [np.random.PCG64])  # the one a stream row holds
def test_shuffle_rows_draws_rng_permutation(bit_generator, n):
    # on rows copied from generators seeded by the bit generator itself
    lib = train.load_library()
    rngs, refs = ([np.random.Generator(bit_generator(s)) for s in range(SHUFFLED)] for _ in range(2))
    streams = np.array([pcg64_row(rng) for rng in rngs], dtype=np.uint64)
    perms = np.empty((SHUFFLED, n), dtype=np.int64)
    for _ in range(3):
        lib.shuffle_rows(SHUFFLED, n, streams.ctypes.data, perms.ctypes.data)
        assert np.array_equal(perms, [ref.permutation(n) for ref in refs])
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


@pytest.mark.parametrize("source", SOURCES)
def test_other_bit_generators_and_malformed_stream_arrays_are_refused(source):
    # a trainer takes stream arrays only: a list of generators is refused
    # whatever its bit generator, PCG64 included
    for bit_generator in (np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937):
        rngs = [np.random.Generator(bit_generator(0))]
        state = rngs[0].bit_generator.state
        with pytest.raises(ValueError, match=r"\(R, 6\) uint64 array"):
            glorot_layer(2, 1, rngs)
        with pytest.raises(ValueError, match=r"\(R, 6\) uint64 array"):
            train_slp_ensemble([np.zeros((1, 3))], 0.1, np.eye(2), np.ones(2), 1, rngs)
        np.testing.assert_equal(rngs[0].bit_generator.state, state)
    read_only = SOURCES[source](0, 2)
    read_only.flags.writeable = False
    for streams in (SOURCES[source](0, 2).astype(np.int64), SOURCES[source](0, 2)[:, :5],
                    np.asfortranarray(SOURCES[source](0, 2)), read_only):
        with pytest.raises(ValueError, match=r"\(R, 6\) uint64 array"):
            train.random_rows(streams, 3)


@pytest.mark.parametrize("model", ["slp", "mlp"])
def test_generators_end_in_the_same_state_on_both_engines(model):
    # the compiled run's streams against numpy's generators after the same
    # five permutations
    xs = np.random.default_rng(1).uniform(-1.0, 1.0, (7, 2))
    ts = (xs[:, 0] > xs[:, 1]).astype(float)
    streams = seed_streams(10, 3)
    params = [np.full((3, 3), 0.1)] if model == "slp" else [
        np.full((3, 2, 2), 0.1), np.full((3, 2, 1), -0.1), np.zeros((3, 2)), np.zeros((3, 1))]
    for epochs in (2, 3):  # a snapshot split: two calls on the same streams
        if model == "slp":
            params = train_slp_ensemble(params, 0.1, xs, ts, epochs, streams)[1]
        else:
            params = train_mlp_ensemble(params, 0.1, xs, ts, epochs, streams)[1]
    refs = [np.random.default_rng(10 + r) for r in range(3)]
    for ref in refs:
        for _ in range(5):
            ref.permutation(7)
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


@pytest.mark.parametrize("sizes", [(2, 2, 1), (2, 3, 4, 1), (3, 1, 2)])
def test_glorot_init_equals_one_uniform_call_per_array(sizes):
    streams, refs = seed_streams(0, 40), [np.random.default_rng(s) for s in range(40)]
    weights, biases = glorot_init(sizes, streams)
    want = [glorot_loop_init(sizes, ref) for ref in refs]
    assert len(weights) == len(biases) == len(sizes) - 1
    for arrays, part in ((weights, 0), (biases, 1)):
        for l, got in enumerate(arrays):
            ref = np.stack([net[part][l] for net in want])
            assert got.shape == ref.shape and np.ascontiguousarray(got).tobytes() == ref.tobytes()
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


@pytest.mark.parametrize("input_dim", [1, 2, 5])
def test_glorot_slp_weights_equal_one_uniform_call_per_generator(input_dim):
    streams, refs = seed_streams(0, 40), [np.random.default_rng(s) for s in range(40)]
    got = glorot_layer(input_dim, 1, streams)
    want = np.stack([glorot_slp_loop_init(input_dim, ref) for ref in refs])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert streams.tolist() == [pcg64_row(ref) for ref in refs]


def test_run_argtypes_follow_the_definition_of_run():
    # ctypes does not check an argument list against the C function: a
    # mismatch is undefined behaviour, not an error; score's too
    for name, argtypes in (("run", train._RUN), ("score", train._SCORE)):
        params = re.search(rf"^int {name}\(([^)]*)\)", train._SOURCE.read_text(), re.M).group(1).split(",")
        assert len(argtypes) == len(params)
        assert argtypes == [train._P if "*" in p else train._F if p.split()[0] == "double" else train._I
                            for p in params]


def modules_loaded_by_the_package(*prefixes):
    """The modules under prefixes that a fresh interpreter holds after importing the package and its CLI."""
    probe = ("import sys, memperceptron, memperceptron.cli; "
             f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {prefixes!r})))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(train.__file__).parents[1])})
    return done.stdout


def test_the_package_imports_without_scipy():
    # scipy is a test dependency only: importing it would double start-up
    assert modules_loaded_by_the_package("scipy") == "[]\n"


def test_the_package_imports_without_the_network_and_xml_stack():
    # xml.sax.saxutils pulls in urllib.request, http, email and ssl: about 20 ms of import.
    # urllib.parse is not here: numpy imports it.
    assert modules_loaded_by_the_package("xml", "urllib.request", "http", "email", "ssl") == "[]\n"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings():
    # a full compile: -Wmaybe-uninitialized and friends need the optimizer
    built = subprocess.run(["cc", *train._CFLAGS, "-Wall", "-Wextra", "-Werror", "-c", "-o", os.devnull,
                            str(train._SOURCE)], capture_output=True, text=True)
    assert built.returncode == 0, built.stderr
