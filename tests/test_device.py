"""Device model: resistance law, thresholded drift, window addressing."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memperceptron.device import (
    DeviceParams,
    MemristorState,
    WindowSpec,
    WindowViolationError,
    apply_read_pulse,
    default_window,
    drift_rate,
    make_state,
    memristance,
    select_and_update,
    window_update_rate,
)

from oracles import euler_pulse_batch

HP = DeviceParams(r_on=1.0, r_off=100.0, d=1.0, mu_v=1.0, i_gamma=0.0)


# ---------------------------------------------------------------- memristance

def test_memristance_endpoints():
    assert memristance(HP, 0.0, 1.0) == 100.0
    assert memristance(HP, 1.0, 1.0) == 1.0


def test_memristance_midpoint():
    assert memristance(HP, 0.5, 1.0) == pytest.approx(50.5)


def test_memristance_domain_error():
    with pytest.raises(ValueError):
        memristance(HP, -0.1, 1.0)
    with pytest.raises(ValueError):
        memristance(HP, 1.2, 1.0)


@given(
    gamma=st.floats(0.0, 1.0),
    r_on=st.floats(1e-3, 1.0),
    ratio=st.floats(1.5, 1e3),
)
def test_memristance_between_extremes(gamma, r_on, ratio):
    p = DeviceParams(r_on=r_on, r_off=r_on * ratio, d=1.0)
    r = memristance(p, gamma, 1.0)
    assert p.r_on <= r <= p.r_off


# ------------------------------------------------------------------- drift

THRESHOLDED = DeviceParams(r_on=1.0, r_off=100.0, d=1.0, mu_v=1.0, i_gamma=0.5)


def test_drift_rate_above_threshold():
    assert drift_rate(THRESHOLDED, 2.0) == pytest.approx(1.5)


def test_drift_rate_at_and_below_threshold():
    assert drift_rate(THRESHOLDED, 0.5) == 0.0
    assert drift_rate(THRESHOLDED, 0.4) == 0.0
    assert drift_rate(THRESHOLDED, -3.0) == 0.0


@given(i1=st.floats(-5.0, 5.0), i2=st.floats(-5.0, 5.0))
def test_drift_rate_monotone_in_current(i1, i2):
    lo, hi = sorted((i1, i2))
    assert drift_rate(THRESHOLDED, lo) <= drift_rate(THRESHOLDED, hi)
    assert drift_rate(THRESHOLDED, lo) >= 0.0


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
    # With zero threshold and gamma0 = 0 the end-of-pulse voltage deviates
    # from the ohmic value by a term quadratic in the drive current.
    p = DeviceParams(r_on=r_off / 100.0, r_off=r_off, d=d, mu_v=mu_v, i_gamma=0.0)
    assume(drift_rate(p, current) * duration < d)
    _, voltage = apply_read_pulse(p, 0.0, current, duration)
    expected_quad = -p.r_off * p.mu_v * (p.r_on / (d * d)) * current * current * duration
    assert voltage - p.r_off * current == pytest.approx(expected_quad, abs=1e-9)


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
        p = DeviceParams(r_on=r_on[k], r_off=r_off[k], d=d[k], mu_v=mu_v[k], i_gamma=i_gamma[k])
        final, voltage = apply_read_pulse(p, gamma0[k], current[k], n_steps[k] * 1e-5)
        assert abs(final - g_ref[k]) < 1e-6
        assert abs(voltage - v_ref[k]) < 1e-6


# -------------------------------------------------------------- addressing

def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec((10.0, 11.5), a=1.0)  # closer than 2a
    with pytest.raises(ValueError):
        WindowSpec((0.5,), a=1.0)  # threshold below window width
    with pytest.raises(ValueError):
        WindowSpec((10.0,), a=0.0)
    with pytest.raises(ValueError):
        WindowSpec(())


def test_state_validation():
    with pytest.raises(ValueError):
        MemristorState(
            gamma=np.array([0.0, 0.0]),
            window=default_window(3),
            bounds=np.tile((-2.0, 2.0), (2, 1)),
        )
    with pytest.raises(ValueError):
        make_state([3.0], lo=-2.0, hi=2.0)  # gamma outside bounds


def test_window_rate_inside_positive_window():
    state = make_state([0.0, 0.0, 0.0], WindowSpec((10.0, 20.0, 30.0), a=1.0))
    assert window_update_rate(state, 0, 10.3, 10.0) == pytest.approx(0.3)
    assert window_update_rate(state, 1, 10.3, 10.0) == 0.0
    assert window_update_rate(state, 2, 10.3, 10.0) == 0.0


def test_window_rate_inside_negative_window():
    state = make_state([0.0, 0.0, 0.0], WindowSpec((10.0, 20.0, 30.0), a=1.0))
    assert window_update_rate(state, 0, -10.3, -10.0) == pytest.approx(-0.3)


def test_window_rate_outside_all_windows():
    state = make_state([0.0, 0.0, 0.0], WindowSpec((10.0, 20.0, 30.0), a=1.0))
    for idx in range(3):
        assert window_update_rate(state, idx, 5.0, 0.0) == 0.0
        assert window_update_rate(state, idx, 10.0, 0.0) == 0.0  # boundary is exclusive
        assert window_update_rate(state, idx, 11.0, 0.0) == 0.0


@given(
    current=st.floats(-8.9, 8.9),
    gammas=st.lists(st.floats(-1.9, 1.9), min_size=1, max_size=4),
)
def test_subthreshold_currents_leave_state_alone(current, gammas):
    # |I| below the lowest window can address nothing when no bias is applied.
    state = make_state(gammas)
    for idx in range(len(gammas)):
        assert window_update_rate(state, idx, current, 0.0) == 0.0


def test_select_and_update_moves_only_target():
    state = make_state([0.1, 0.2, 0.3])
    select_and_update(state, 1, 0.05)
    assert state.gamma[0] == 0.1
    assert state.gamma[1] == 0.2 + 0.05
    assert state.gamma[2] == 0.3


def test_select_and_update_clamps_at_bounds():
    state = make_state([1.98, 0.0, 0.0], lo=-2.0, hi=2.0)
    select_and_update(state, 0, 0.05)
    assert state.gamma[0] == 2.0
    select_and_update(state, 1, -0.05)
    select_and_update(state, 1, -0.05)
    assert state.gamma[1] == pytest.approx(-0.1)


def test_select_and_update_rejects_wide_delta():
    state = make_state([0.0, 0.0])
    with pytest.raises(WindowViolationError):
        select_and_update(state, 0, 1.0)
    with pytest.raises(WindowViolationError):
        select_and_update(state, 0, -1.2)


def test_select_and_update_zero_delta_is_noop():
    state = make_state([0.4, -0.6])
    select_and_update(state, 0, 0.0)
    assert state.gamma[0] == 0.4
    assert state.gamma[1] == -0.6


@settings(max_examples=200)
@given(
    gammas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
    data=st.data(),
)
def test_select_and_update_is_exact_and_isolated(gammas, data):
    state = make_state(gammas, default_window(len(gammas)), lo=-2.0, hi=2.0)
    idx = data.draw(st.integers(0, len(gammas) - 1))
    delta = data.draw(st.floats(-0.99, 0.99))
    before = state.gamma.copy()
    select_and_update(state, idx, delta)
    for j in range(len(gammas)):
        if j == idx:
            assert state.gamma[j] == min(max(before[j] + delta, -2.0), 2.0)
        else:
            assert state.gamma[j] == before[j]
