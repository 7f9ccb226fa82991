"""Single-layer perceptron: hand values, ideal-rule equivalence, ensembles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from memperceptron.data import Gate, generate_dataset
from memperceptron.mlp import glorot_layer
from memperceptron.train import WindowViolationError, score, seed_streams, train_slp_ensemble

from oracles import glorot_slp_loop_init, ideal_slp_run, numpy_streams, pcg64_row, slp_forward


def forward(weights, x):
    """The kernel's output of one machine on one sample."""
    return score([np.array([weights], dtype=float)], np.array([x], dtype=float))[0, 0, 0]


def one_step(weights=(0.0, 0.0, 0.0), x=(1, 0), t=1, eta=0.1, bound=10.0):
    """Present one sample once to one machine; returns (cost, new weights)."""
    hist, (w,) = train_slp_ensemble(
        [np.array([weights], dtype=float)], eta, np.array([x], dtype=float),
        np.array([t], dtype=float), 1, seed_streams(0, 1), weight_bound=bound,
    )
    return hist[0, 0], w[0]


# ------------------------------------------------------------------ forward

def test_net_input_values():
    # the bias weight cancels the input sum exactly, leaving the centre
    assert forward([0.5, -0.25, -0.25], [1.0, 1.0]) == 0.5
    assert forward([0.5, -0.25, 0.0], [0.0, 0.0]) == 0.5
    assert forward(np.zeros(3), [1.0, 1.0]) == 0.5


def test_net_input_dimension_check():
    with pytest.raises(ValueError):
        train_slp_ensemble([np.zeros((1, 3))], 0.1, np.zeros((4, 3)), np.zeros(4), 1, seed_streams(0, 1))


def test_logistic_activation_center():
    assert forward(np.zeros(3), np.zeros(2)) == 0.5
    assert forward([1.0, 0.0, -1.0], [1.0, 0.0]) == 0.5
    # out * (1 - out) = 0.25 at the centre: the hand example's factor
    cost, w = one_step(eta=4.0, x=(0, 0), t=1)
    assert cost == 0.125
    assert w[2] == 0.5


def test_logistic_activation_saturates():
    assert forward([40.0, 0.0, 0.0], [1.0, 0.0]) == 1.0
    low = forward([-40.0, 0.0, 0.0], [1.0, 0.0])
    assert low == pytest.approx(0.0, abs=1e-17)
    # the derivative vanishes in the saturated tail, so even a full
    # residual moves nothing
    cost, w = one_step(weights=(40.0, 0.0, 0.0), x=(1, 0), t=0, bound=100.0)
    assert cost == 0.5
    assert np.array_equal(w, [40.0, 0.0, 0.0])


def test_forward_broadcasts_over_leading_axes():
    # the kernel scores every machine on every sample, each score the
    # oracle's and expit's for that machine and sample alone
    rng = np.random.default_rng(4)
    weights = rng.uniform(-1.0, 1.0, (5, 3))
    xs = rng.integers(0, 2, (7, 2)).astype(float)
    scores = score([weights], xs)
    assert scores.shape == (5, 7, 1)
    scores = scores[:, :, 0]
    assert np.array_equal(scores, slp_forward(weights[:, None, :], xs))
    for r in range(5):
        for i in range(7):
            assert scores[r, i] == slp_forward(weights[r], xs[i])
            assert scores[r, i] == expit(weights[r, 0] * xs[i, 0] + weights[r, 1] * xs[i, 1]
                                         + weights[r, 2])


# ------------------------------------------------------------------- updates

def test_delta_rule_step_hand_example():
    cost, w = one_step(x=(1, 0), t=1)
    # out = 0.5, deriv = 0.25, diff = 0.5 -> common factor 0.1 * 0.5 * 0.25
    assert cost == 0.125
    assert w[0] == pytest.approx(0.0125)
    assert w[1] == 0.0
    assert w[2] == pytest.approx(0.0125)


def test_delta_rule_step_all_zero_input_moves_only_bias():
    _, w = one_step(x=(0, 0), t=0)
    assert w[0] == 0.0
    assert w[1] == 0.0
    assert w[2] != 0.0


def test_delta_rule_step_zero_residual_changes_nothing():
    # deep in the saturated tail the output is exactly 0.0, so a 0 target
    # leaves no residual and no variable moves
    cost, w = one_step(weights=(0.0, 0.0, -800.0), x=(0, 0), t=0, bound=1000.0)
    assert cost == 0.0
    assert np.array_equal(w, [0.0, 0.0, -800.0])


def test_delta_rule_step_rejects_window_overshoot():
    # eta * residual * slope = 8 * 0.5 * 0.25 lands exactly on the width
    with pytest.raises(WindowViolationError, match=r"realization 0, epoch 1, sample 1: "
                       r"increment 1\.0 to weight 0 does not fit in window width 1\.0"):
        one_step(x=(1, 1), t=1, eta=8.0)


def test_window_violation_names_where_it_happened():
    # the zero input's weight 0 gets no increment, so weight 1 is the first
    # to reach the width; weight 2, the bias weight, reaches it too
    with pytest.raises(WindowViolationError, match=r"^realization 0, epoch 1, sample 1: "
                       r"increment 1\.0 to weight 1 does not fit in window width 1\.0$"):
        one_step(x=(0, 1), t=1, eta=8.0)


@settings(max_examples=150, deadline=None)
@given(
    w1=st.floats(-3.0, 3.0),
    w2=st.floats(-3.0, 3.0),
    wb=st.floats(-3.0, 3.0),
    x1=st.integers(0, 1),
    x2=st.integers(0, 1),
    t=st.integers(0, 1),
)
def test_update_moves_with_the_residual(w1, w2, wb, x1, x2, t):
    before = np.array([w1, w2, wb])
    out = forward(before, [x1, x2])
    _, after = one_step(weights=before, x=(x1, x2), t=t)
    moved = after - before
    residual = t - out
    for i, x in enumerate((x1, x2)):
        if x == 0 or residual == 0.0:
            assert moved[i] == 0.0
        else:
            assert np.sign(moved[i]) == np.sign(residual)


# ------------------------------------------------------------------ training

def test_training_is_seed_deterministic():
    xs, ts = generate_dataset(Gate.AND, 30, 11)
    runs = []
    for _ in range(2):
        w0 = np.array([[0.2, 0.4, -0.1]])
        runs.append(train_slp_ensemble([w0], 0.1, xs, ts, 20, seed_streams(42, 1)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_training_validates_arguments():
    xs, ts = generate_dataset(Gate.AND, 5, 1)
    w0 = np.zeros((1, 3))
    with pytest.raises(ValueError):
        train_slp_ensemble([w0], 0.1, xs, ts, 0, seed_streams(0, 1))
    with pytest.raises(ValueError):
        train_slp_ensemble([w0], 0.1, xs[:0], ts[:0], 3, seed_streams(0, 1))


def test_memristor_updates_equal_ideal_delta_rule():
    # away from the clamps the device route must retrace the textbook rule
    # with the naive sigmoid; one stream per run covers init then
    # shuffling, in both routes
    for seed in range(6):
        streams = seed_streams(100 + seed, 1)
        w0 = glorot_layer(2, 1, streams)[0]
        xs, ts = generate_dataset(Gate.XOR if seed % 2 else Gate.OR, 12, seed)

        hist, (w,) = train_slp_ensemble([w0[None]], 0.1, xs, ts, 40, streams)

        rng_ref = np.random.default_rng(100 + seed)
        assert np.array_equal(glorot_slp_loop_init(2, rng_ref), w0)  # the init draw, made the same way
        ref_hist, trail = ideal_slp_run(w0, 0.1, xs, ts, 40, rng_ref, record_weights=True)
        assert streams.tolist() == [pcg64_row(rng_ref)]

        assert np.max(np.abs(hist[0] - ref_hist)) < 1e-12
        assert np.max(np.abs(w[0] - trail[-1])) < 1e-12


@pytest.mark.parametrize("source", ["compiled", "numpy"])
def test_ensemble_matches_scalar_bit_for_bit(source):
    # the oracle is a plain per-sample loop with the trainer's float
    # order; bound 0.3 makes the clamps fire; the streams are seeded by the
    # library, or copied from numpy's generators
    xs, ts = generate_dataset(Gate.OR, 20, 9)
    seeds = [60, 61, 62, 63, 64]
    for bound in (10.0, 0.3):
        streams = {"compiled": seed_streams, "numpy": numpy_streams}[source](seeds[0], len(seeds))
        weights0 = np.clip(glorot_layer(2, 1, streams), -bound, bound)
        hist_ens, (w_ens,) = train_slp_ensemble([weights0], 0.1, xs, ts, 15, streams,
                                             weight_bound=bound)
        clamped = 0
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            glorot_slp_loop_init(2, rng)  # burn the init draw the same way
            hist, trail = ideal_slp_run(weights0[r], 0.1, xs, ts, 15, rng, record_weights=True,
                                        bound=bound, sigmoid=expit)
            assert np.array_equal(hist, hist_ens[r])
            assert np.array_equal(trail[-1], w_ens[r])
            assert streams[r].tolist() == pcg64_row(rng)
            clamped += np.count_nonzero(np.abs(trail) == bound)
        assert (clamped > 0) == (bound < 1.0)


def test_ensemble_rejects_mismatched_generators():
    xs = np.zeros((4, 2))
    ts = np.zeros(4)
    with pytest.raises(ValueError):
        train_slp_ensemble([np.zeros((3, 3))], 0.1, xs, ts, 1, seed_streams(0, 1))


# ------------------------------------------------------- learning behaviour

def test_glorot_draws_stay_inside_limit():
    limit = np.sqrt(6.0 / 3.0)
    draws = glorot_layer(2, 1, seed_streams(0, 400))
    assert np.max(np.abs(draws)) < limit
    assert np.max(np.abs(draws)) > 0.9 * limit  # actually fills the range


def test_or_is_learnable_and_xor_is_not():
    for gate, learnable in [(Gate.OR, True), (Gate.XOR, False)]:
        xs, ts = generate_dataset(gate, 60, 21)
        streams = seed_streams(300, 5)
        weights0 = glorot_layer(2, 1, streams)
        hist, _ = train_slp_ensemble([weights0], 0.1, xs, ts, 150, streams)
        ratios = hist[:, -1] / hist[:, 0]
        if learnable:
            assert np.count_nonzero(ratios < 0.25) >= 4
        else:
            assert np.all(ratios > 0.5)
