"""Memristor MLP: forward oracle, gradient checks, ensemble equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memperceptron.data import Gate, generate_dataset
from memperceptron.mlp import (
    DeviceParams,
    bias_drift_slope,
    device_constants,
    glorot_init,
    glorot_limit,
    quad_coefficient,
    train_mlp_ensemble,
)
from memperceptron.train import score, seed_streams

from oracles import (
    central_diff_bias_grads,
    central_diff_weight_grads,
    glorot_loop_init,
    ideal_mlp_run,
    ideal_mlp_step,
    mlp_forward,
    numpy_streams,
    pcg64_row,
    plain_mlp_forward,
)

SLOPE_PARAMS = (0.01, 1.0, 1.0)  # (r_on, r_off, d) used by the oracles
T221 = (2, 2, 1)
# r_on = r_off / 2 puts the slope at exactly 0.5 for a stored bias of 1;
# mu_v = 0 makes every node linear
LINEAR_HALF = DeviceParams(r_on=0.5, r_off=1.0, mu_v=0.0)


def forward(weights, biases, x, params=None, b_scale=1.0):
    """The oracle's mlp_forward of one network given its effective weights."""
    params = params or DeviceParams()
    gammas = [np.asarray(w, dtype=float) / b_scale for w in weights]
    return mlp_forward(gammas, [np.asarray(b, dtype=float) for b in biases],
                       np.asarray(x, dtype=float), params, quad_coefficient(params), b_scale)


def kernel_output(weights, biases, x):
    """The kernel's outputs of one default-device network, given its weights, on one sample."""
    arrays = [np.asarray(a, dtype=float)[None] for a in (*weights, *biases)]
    return score(arrays, np.array([x], dtype=float), device_constants(DeviceParams(), 1.0, 1.0))[0, 0]


def node(s, b=0.0, params=None):
    """(output, derivative) of one node driven by net input s."""
    _, _, out, deriv = forward([[[1.0]]], [[b]], [s], params)[0]
    return out[0], deriv[0]


def constant_net(w=0.5, b=0.0):
    return [np.full((2, 2), w), np.full((2, 1), w)], [np.full(2, b), np.full(1, b)]


def one_step(weights, biases, x, t, eta=0.1, params=None):
    """Present one sample once to one network; returns (cost, weights, biases)."""
    hist, final = train_mlp_ensemble(
        [np.asarray(w, dtype=float)[None] for w in weights]
        + [np.asarray(b, dtype=float)[None] for b in biases],
        eta, np.array([x], dtype=float), np.array([t], dtype=float), 1, seed_streams(0, 1),
        device_constants(params or DeviceParams(), 1.0, 1.0),
    )
    return hist[0, 0], [g[0] for g in final[:len(weights)]], [b[0] for b in final[len(weights):]]


def train_one(weights, biases, dataset, epochs, seed, eta=0.1):
    """Train a single network on a dataset (xs, ts); returns (history, weights, biases)."""
    xs, ts = dataset
    hist, final = train_mlp_ensemble(
        [np.asarray(w)[None] for w in weights] + [np.asarray(b)[None] for b in biases],
        eta, xs, ts, epochs, seed_streams(seed, 1),
    )
    return hist[0], [g[0] for g in final[:len(weights)]], [b[0] for b in final[len(weights):]]


def stacked_inits(seed, n, topology=T221, streams_from=seed_streams):
    """Glorot draws on the streams of seeds seed .. seed + n - 1, stacked; also returns the streams."""
    streams = streams_from(seed, n)
    return *glorot_init(topology, streams), streams


def init_one(topology, rng):
    """One network's Glorot draws, without the realization axis: those of
    glorot_init on rng's stream (see test_engine)."""
    return glorot_loop_init(topology, rng)


# -------------------------------------------------------------- components

def test_glorot_limits():
    assert glorot_limit(2, 2) == pytest.approx(1.224744871391589, abs=1e-12)
    assert glorot_limit(2, 1) == pytest.approx(1.4142135623730951, abs=1e-12)


def test_glorot_init_support():
    weights, biases = glorot_init(T221, seed_streams(0, 300))
    assert np.abs(weights[0]).max() < glorot_limit(2, 2)
    assert np.abs(weights[0]).max() > 0.95 * glorot_limit(2, 2)
    assert np.abs(biases[1]).max() < glorot_limit(2, 1)


def test_synapse_output():
    # a connection outputs weight * current into its node's net input
    weights, biases = constant_net(w=0.5)
    assert forward(weights, biases, (1, 0))[0][1][0] == 0.5
    assert forward(weights, biases, (0, 0))[0][1][0] == 0.0
    # the forward pass takes stored gammas: scaling changes the stored
    # gamma, not the weight itself
    layer = forward([np.full((2, 2), 0.6), np.full((2, 1), 0.6)],
                    [np.zeros(2), np.zeros(1)], (2.0, 0.0), b_scale=2.0)[0]
    assert layer[0][0, 0] == pytest.approx(0.6)
    assert layer[1][0] == pytest.approx(1.2)


def test_node_activation_hand_values():
    assert quad_coefficient(DeviceParams()) == 1.0  # defaults give kappa * tau = 1
    assert node(0.0) == (0.0, 1.0)
    out, deriv = node(0.5)
    assert out == pytest.approx(0.25)
    assert deriv == pytest.approx(0.0)


def test_node_activation_is_linear_for_negative_input():
    # negative current cannot drift the device during the read, so there
    # is no bend on that side
    out, deriv = node(-0.5)
    assert out == pytest.approx(-0.5)
    assert deriv == pytest.approx(1.0)
    # response is continuous through zero
    lo, _ = node(-1e-12)
    hi, _ = node(1e-12)
    assert abs(hi - lo) < 1e-11


def test_node_activation_linear_limit():
    params = DeviceParams(mu_v=0.0)
    assert quad_coefficient(params) == 0.0
    out, deriv = node(0.7, params=params)
    assert out == pytest.approx(0.7)
    assert deriv == 1.0


def test_node_bias_tilts_slope():
    # m = 1 - 0.99 * (-1) = 1.99 on both sides of zero
    out, _ = node(0.5, b=-1.0)
    assert out == pytest.approx(1.99 * 0.5 - 0.25)
    out, _ = node(-0.5, b=-1.0)
    assert out == pytest.approx(-0.995)


def test_bias_drift_slope_value():
    assert bias_drift_slope(DeviceParams()) == pytest.approx(-0.99)


# ----------------------------------------------------------------- forward

def test_forward_zero_input_gives_zero_output():
    for seed in range(5):
        w, b = init_one(T221, np.random.default_rng(seed))
        assert kernel_output(w, b, (0, 0))[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9))
def test_forward_zero_input_invariant_any_weights(vals):
    w = [np.array(vals[:4]).reshape(2, 2), np.array(vals[4:6]).reshape(2, 1)]
    b = [np.array(vals[6:8]), np.array(vals[8:9])]
    assert kernel_output(w, b, (0, 0))[0] == 0.0


def test_forward_zero_weights_gives_zero_output():
    weights, biases = constant_net(w=0.0, b=0.3)
    assert kernel_output(weights, biases, (1, 1))[0] == 0.0
    # derivative at zero drive is the slope itself
    assert forward(weights, biases, (1, 1))[0][3][0] == pytest.approx(1.0 - 0.99 * 0.3)


def test_forward_matches_plain_oracle():
    rng = np.random.default_rng(17)
    for topo in [T221, (2, 3, 1), (3, 2, 2)]:
        w, b = init_one(topo, rng)
        x = rng.integers(0, 2, topo[0])
        layers = forward(w, b, x)
        ref = plain_mlp_forward(w, b, x, SLOPE_PARAMS, 1.0)
        for l in range(len(w)):
            assert np.allclose(layers[l][2], ref[l + 1], atol=1e-12)


def test_forward_broadcasts_over_leading_axes():
    # the kernel scores every network on every sample, each score the
    # oracle's for that network and sample alone
    gammas, biases, _ = stacked_inits(5, 3)
    xs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    scores = score(gammas + biases, xs, device_constants(DeviceParams(), 1.0, 1.0))
    assert scores.shape == (3, 4, 1)
    for r in range(3):
        for i in range(4):
            single = forward([g[r] for g in gammas], [b[r] for b in biases], xs[i])
            assert np.array_equal(scores[r, i], single[-1][2])


def test_forward_checks_input_width():
    weights, biases = constant_net()
    with pytest.raises(ValueError):
        one_step(weights, biases, (1, 0, 1), 1)


# --------------------------------------------------------------- gradients

def test_output_gradient_values():
    # linear 1-1 unit with slope 0.5: out = 0.5 * w * x, and the output
    # gradient is residual * slope; eta = 1 lands it on w unscaled
    cost, w, b = one_step([[[0.5]]], [[1.0]], (1.0,), 1.0, eta=1.0, params=LINEAR_HALF)
    assert cost == 0.5 * 0.75 * 0.75
    assert w[0][0, 0] == 0.5 + 0.375
    # a matching output leaves a zero gradient, whatever the slope
    _, w, _ = one_step([[[2.0]]], [[1.0]], (1.0,), 1.0, eta=1.0, params=LINEAR_HALF)
    assert w[0][0, 0] == 2.0
    _, w, _ = one_step([[[0.0]]], [[0.0]], (1.0,), 0.0, eta=1.0, params=LINEAR_HALF)
    assert w[0][0, 0] == 0.0


def test_hidden_gradient_values():
    # linear 1-1-1 chain: hidden slope 0.5, output slope 1, output weight
    # -1.  The output delta t - out = 0.1 + 0.5 = 0.6 travels back as
    # 0.5 * (0.6 * -1) = -0.3 onto the first weight
    _, w, _ = one_step([[[1.0]], [[-1.0]]], [[1.0], [0.0]], (1.0,), 0.1, eta=1.0,
                       params=LINEAR_HALF)
    assert w[0][0, 0] == pytest.approx(0.7)
    # no residual downstream, no hidden gradient
    _, w, _ = one_step([[[1.0]], [[-1.0]]], [[1.0], [0.0]], (1.0,), -0.5, eta=1.0,
                       params=LINEAR_HALF)
    assert w[0][0, 0] == 1.0


def test_backprop_zero_residual_moves_nothing():
    weights, biases = constant_net(w=0.0, b=0.2)
    err, after_w, after_b = one_step(weights, biases, (1, 1), 0)
    assert err == 0.0
    for bw, aw in zip(weights, after_w):
        assert np.array_equal(bw, aw)
    for bb, ab in zip(biases, after_b):
        assert np.array_equal(bb, ab)


def test_backprop_step_matches_ideal_arithmetic():
    rng = np.random.default_rng(23)
    for topo in [T221, (2, 3, 1), (3, 3, 1)]:
        w, b = init_one(topo, rng)
        x = rng.integers(0, 2, topo[0]).astype(float)
        t = float(rng.integers(0, 2))
        inc_w, inc_b, ref_cost = ideal_mlp_step(w, b, x, [t], 0.1, SLOPE_PARAMS, 1.0)
        err, after_w, after_b = one_step(w, b, x, t)
        assert err == ref_cost
        for l in range(len(w)):
            assert np.array_equal(after_w[l], w[l] + inc_w[l])
            assert np.array_equal(after_b[l], b[l] + inc_b[l])


def test_update_rule_recovers_cost_gradient():
    # every delivered update, connection and bias alike, must equal
    # -eta * dE/dtheta measured by central finite differences on the
    # forward cost
    rng = np.random.default_rng(31)
    eta = 0.01
    checked = 0
    worst = 0.0
    while checked < 10:
        w, b = init_one(T221, rng)
        x = rng.integers(0, 2, 2).astype(float)
        t = float(rng.integers(0, 2))
        ref = plain_mlp_forward(w, b, x, SLOPE_PARAMS, 1.0)
        nets_in = []
        for l, wl in enumerate(w):
            for j in range(wl.shape[1]):
                nets_in.append(sum(wl[i, j] * ref[l][i] for i in range(wl.shape[0])))
        if min(abs(s) for s in nets_in) < 1e-3:
            continue  # keep the finite-difference stencil off the kink
        _, after_w, after_b = one_step(w, b, x, t, eta=eta)
        fd_w = central_diff_weight_grads(w, b, x, [t], SLOPE_PARAMS, 1.0)
        fd_b = central_diff_bias_grads(w, b, x, [t], SLOPE_PARAMS, 1.0)
        for l in range(len(w)):
            for delivered, expected in (
                (after_w[l] - w[l], -eta * fd_w[l]),
                (after_b[l] - b[l], -eta * fd_b[l]),
            ):
                denom = np.maximum(np.abs(expected), 1e-8)
                worst = max(worst, np.max(np.abs(delivered - expected) / denom))
        checked += 1
    assert worst < 1e-4


def test_burst_writes_deliver_oversized_updates():
    weights, biases = constant_net(w=1.5, b=-1.5)
    before = [a.copy() for a in weights + biases]
    _, after_w, after_b = one_step(weights, biases, (1, 1), 1, eta=50.0)
    assert not np.array_equal(weights[0], after_w[0])
    for arr in after_w + after_b:
        assert np.all(np.abs(arr) <= 2.0)
    for arr, orig in zip(weights + biases, before):
        assert np.array_equal(arr, orig)  # the caller's arrays are never written


# ---------------------------------------------------------------- training

def test_training_is_seed_deterministic():
    ds = generate_dataset(Gate.AND, 25, 2)
    runs = []
    for _ in range(2):
        w, b = init_one(T221, np.random.default_rng(8))
        runs.append(train_one(w, b, ds, 12, 8)[0])
    assert np.array_equal(runs[0], runs[1])


def test_weights_stay_inside_device_range():
    ds = generate_dataset(Gate.XOR, 30, 4)
    w, b = init_one(T221, np.random.default_rng(3))
    _, ws, bs = train_one(w, b, ds, 40, 3, eta=0.5)
    for arr in ws + bs:
        assert np.all(np.abs(arr) <= 2.0)


@pytest.mark.parametrize("source", ["compiled", "numpy"])
def test_ensemble_matches_scalar_bit_for_bit(source):
    # at rate 0.1 both gates stage increments too large for one pulse,
    # which burst writes land in full; on OR the first epoch blows up and
    # the clamp at +/- d_prime/2 fires, in the trainer and the oracle alike;
    # the streams are seeded by the library, or copied from numpy's generators
    streams_from = {"compiled": seed_streams, "numpy": numpy_streams}[source]
    seeds = [70, 71, 72, 73]
    for gate in (Gate.XOR, Gate.OR):
        xs, ts = generate_dataset(gate, 18, 6)
        gammas0, biases0, streams = stacked_inits(seeds[0], len(seeds), streams_from=streams_from)
        hist_ens, final = train_mlp_ensemble(gammas0 + biases0, 0.1, xs, ts, 10, streams)
        g_ens, b_ens = final[:2], final[2:]

        clamps = 0
        for r, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            w, b = init_one(T221, rng)
            hist, ws, bs, hits = ideal_mlp_run(w, b, 0.1, xs, ts, 10, rng, SLOPE_PARAMS, 1.0, 2.0)
            assert np.array_equal(hist, hist_ens[r])
            for l in range(2):
                assert np.array_equal(ws[l], g_ens[l][r])
                assert np.array_equal(bs[l], b_ens[l][r])
            assert streams[r].tolist() == pcg64_row(rng)
            clamps += hits
        if gate is Gate.OR:
            assert clamps > 0


def test_xor_is_learnable_by_the_mlp():
    xs, ts = generate_dataset(Gate.XOR, 60, 13)
    gammas0, biases0, streams = stacked_inits(500, 5)
    hist, _ = train_mlp_ensemble(gammas0 + biases0, 0.01, xs, ts, 500, streams)
    ratios = hist[:, -1] / hist[:, 0]
    assert np.count_nonzero(ratios < 0.1) >= 4
