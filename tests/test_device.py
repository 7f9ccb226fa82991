"""Device model: resistance law, thresholded drift, read pulses."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from memperceptron.device import DeviceParams
from memperceptron.mlp import device_constants
from memperceptron.train import score

from oracles import apply_read_pulse, drift_rate, euler_pulse_batch

HP = DeviceParams(r_on=1.0, r_off=100.0, d=1.0, mu_v=1.0)


# ---------------------------------------------------------------- memristance

def node_slope(p, gamma_b):
    """The memristance r_off * (1 - g/d) + r_on * (g/d) of a node storing
    gamma_b, read from the trained network: a 1-1 net with a unit gamma,
    b_scale 1 and tau 0 outputs its node's slope times the input 1."""
    return score([np.ones((1, 1, 1)), np.full((1, 1), gamma_b)], np.ones((1, 1)),
                 device_constants(p, 0.0, 1.0))[0, 0, 0]


def test_memristance_endpoints():
    assert node_slope(HP, 0.0) == 100.0
    assert node_slope(HP, 1.0) == 1.0


def test_memristance_midpoint():
    assert node_slope(HP, 0.5) == pytest.approx(50.5)


@given(
    gamma=st.floats(0.0, 1.0),
    r_on=st.floats(1e-3, 1.0),
    ratio=st.floats(1.5, 1e3),
)
def test_memristance_between_extremes(gamma, r_on, ratio):
    p = DeviceParams(r_on=r_on, r_off=r_on * ratio, d=1.0)
    r = node_slope(p, gamma)
    assert p.r_on <= r <= p.r_off


# ------------------------------------------------------------------- drift

I_GAMMA = 0.5  # the threshold current of the drift tests, on HP


def test_drift_rate_above_threshold():
    assert drift_rate(HP, 2.0, I_GAMMA) == pytest.approx(1.5)


def test_drift_rate_at_and_below_threshold():
    assert drift_rate(HP, 0.5, I_GAMMA) == 0.0
    assert drift_rate(HP, 0.4, I_GAMMA) == 0.0
    assert drift_rate(HP, -3.0, I_GAMMA) == 0.0


@given(i1=st.floats(-5.0, 5.0), i2=st.floats(-5.0, 5.0))
def test_drift_rate_monotone_in_current(i1, i2):
    lo, hi = sorted((i1, i2))
    assert drift_rate(HP, lo, I_GAMMA) <= drift_rate(HP, hi, I_GAMMA)
    assert drift_rate(HP, lo, I_GAMMA) >= 0.0


# ------------------------------------------------------------------- pulses

def test_read_pulse_fresh_device():
    final, voltage = apply_read_pulse(HP, 0.0, 0.5, 0.4)
    assert final == pytest.approx(0.2)
    assert voltage == pytest.approx(40.0)


def test_read_pulse_zero_duration_is_identity():
    final, voltage = apply_read_pulse(HP, 0.3, 0.7, 0.0)
    assert final == 0.3
    assert voltage == pytest.approx(100.0 * 0.7 * 0.7)


def test_read_pulse_saturates_at_d():
    final, voltage = apply_read_pulse(HP, 0.9, 1.0, 0.5)
    assert final == 1.0
    assert voltage == 0.0


def test_read_pulse_rejects_bad_inputs():
    with pytest.raises(ValueError):
        apply_read_pulse(HP, 0.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        apply_read_pulse(HP, 1.5, 0.5, 1.0)


@given(
    r_off=st.floats(0.5, 50.0),
    d=st.floats(0.5, 2.0),
    mu_v=st.floats(0.01, 5.0),
    current=st.floats(0.01, 1.0),
    duration=st.floats(0.0, 0.5),
)
def test_quadratic_response_of_fresh_device(r_off, d, mu_v, current, duration):
    # With zero threshold and gamma0 = 0 the end-of-pulse voltage is the
    # MLP node's activation in the trainer's kernel: a unit-weight 1->1 net
    # with a zero bias and kt = kappa * duration reads out the same
    # quadratic response.
    p = DeviceParams(r_on=r_off / 100.0, r_off=r_off, d=d, mu_v=mu_v)
    assume(drift_rate(p, current) * duration < d)
    _, voltage = apply_read_pulse(p, 0.0, current, duration)
    node = score([np.ones((1, 1, 1)), np.zeros((1, 1))], np.array([[current]]),
                 device_constants(p, duration, 1.0))[0, 0, 0]
    assert voltage == pytest.approx(node, abs=1e-9)


def test_closed_form_matches_brute_force_integration():
    rng = np.random.default_rng(20)
    n = 30
    r_off = rng.uniform(0.5, 10.0, n)
    r_on = r_off / rng.uniform(10.0, 200.0, n)
    d = rng.uniform(0.5, 2.0, n)
    mu_v = rng.uniform(0.0, 3.0, n)
    i_gamma = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 0.5, n))
    gamma0 = rng.uniform(0.0, 1.0, n) * d
    current = rng.uniform(-1.0, 1.5, n)
    n_steps = rng.integers(1, 30_000, n)
    g_ref, v_ref = euler_pulse_batch(mu_v, r_on, r_off, d, i_gamma, gamma0, current, n_steps)
    for k in range(n):
        p = DeviceParams(r_on=r_on[k], r_off=r_off[k], d=d[k], mu_v=mu_v[k])
        final, voltage = apply_read_pulse(p, gamma0[k], current[k], n_steps[k] * 1e-5, i_gamma[k])
        assert abs(final - g_ref[k]) < 1e-6
        assert abs(voltage - v_ref[k]) < 1e-6
