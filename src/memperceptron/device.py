"""Current-controlled memristor models with threshold-window state addressing.

A current-controlled memristor couples Ohm's law V = R(gamma, I) * I with
internal-variable dynamics gamma_dot = f(gamma, I).  Two device flavours
live here:

* a linear ion-drift device: series combination of doped (R_on) and
  undoped (R_off) regions, R(gamma) = R_on * gamma/D + R_off * (1 - gamma/D),
  whose state drifts only above a current threshold, and
* a multi-variable device whose internal variables are addressed one at a
  time through disjoint current windows, so a single physical component can
  store several weights and be written selectively.

Pulses are integrated in closed form.  The drift rate never depends on
gamma itself, so the trajectory is piecewise linear in time and the end
state is exact, which keeps update postconditions bit-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class WindowViolationError(ValueError):
    """Requested state change does not fit inside an addressing window."""


@dataclass(frozen=True)
class DeviceParams:
    """Physical constants of one linear ion-drift device.

    Dimensionless unit system with r_off = 1 as the reference scale.
    The defaults keep r_on / r_off = 1/100 and make mu_v * r_on / d = 1,
    so a unit-duration pulse of current I drifts gamma by I when the
    threshold is zero.
    """

    r_on: float = 0.01
    r_off: float = 1.0
    d: float = 1.0
    mu_v: float = 100.0
    i_gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r_on < self.r_off:
            raise ValueError(f"need 0 < r_on < r_off, got {self.r_on}, {self.r_off}")
        if self.d <= 0.0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.mu_v < 0.0:
            raise ValueError(f"mu_v must be non-negative, got {self.mu_v}")
        if self.i_gamma < 0.0:
            raise ValueError(f"i_gamma must be non-negative, got {self.i_gamma}")


@dataclass(frozen=True)
class WindowSpec:
    """Addressing windows for a multi-variable device.

    Variable i is writable only while the drive current magnitude sits in
    the open interval (thresholds[i], thresholds[i] + a).  Windows must be
    disjoint with room to spare: consecutive thresholds more than 2a apart,
    and the lowest one above a, so that signal-level currents and writes
    aimed at one variable can never graze another window.
    """

    thresholds: tuple[float, ...]
    a: float = 1.0

    def __post_init__(self):
        if self.a <= 0.0:
            raise ValueError(f"window width a must be positive, got {self.a}")
        if len(self.thresholds) == 0:
            raise ValueError("need at least one threshold")
        prev = None
        for thr in self.thresholds:
            if thr <= self.a:
                raise ValueError(f"threshold {thr} must exceed window width {self.a}")
            if prev is not None and thr - prev <= 2.0 * self.a:
                raise ValueError(
                    f"thresholds {prev} and {thr} closer than 2a = {2.0 * self.a}"
                )
            prev = thr


def default_window(n: int, base: float = 10.0, spacing: float = 10.0, a: float = 1.0) -> WindowSpec:
    """Evenly spaced windows for an n-variable device."""
    return WindowSpec(tuple(base + spacing * i for i in range(n)), a)


@dataclass
class MemristorState:
    """Mutable state of one multi-variable memristor.

    gamma holds the internal variables and bounds the closed clamping
    interval per variable.
    """

    gamma: np.ndarray
    window: WindowSpec
    bounds: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.bounds = np.asarray(self.bounds, dtype=float)
        n = self.gamma.shape[0]
        if len(self.window.thresholds) != n:
            raise ValueError(
                f"{n} variables but {len(self.window.thresholds)} windows"
            )
        if self.bounds.shape != (n, 2):
            raise ValueError(f"bounds must have shape ({n}, 2), got {self.bounds.shape}")
        if np.any(self.bounds[:, 0] > self.bounds[:, 1]):
            raise ValueError("each bound must satisfy lo <= hi")
        if np.any(self.gamma < self.bounds[:, 0]) or np.any(self.gamma > self.bounds[:, 1]):
            raise ValueError("gamma outside bounds")


def make_state(gamma, window: WindowSpec | None = None, lo: float = -2.0, hi: float = 2.0) -> MemristorState:
    """Convenience constructor with uniform bounds and default windows."""
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0]
    if window is None:
        window = default_window(n)
    bounds = np.tile((lo, hi), (n, 1)).astype(float)
    return MemristorState(gamma=gamma, window=window, bounds=bounds)


def memristance(params: DeviceParams, gamma: float, d_eff: float) -> float:
    """Resistance of the doped/undoped series stack at state gamma.

    gamma/d_eff is the doped fraction, so the value interpolates between
    r_off (gamma = 0) and r_on (gamma = d_eff).
    """
    if not 0.0 <= gamma <= d_eff:
        raise ValueError(f"gamma {gamma} outside [0, {d_eff}]")
    frac = gamma / d_eff
    return params.r_on * frac + params.r_off * (1.0 - frac)


def drift_rate(params: DeviceParams, current: float) -> float:
    """State drift rate under constant current, zero below threshold.

    gamma_dot = mu_v * (r_on / d) * I - i_gamma once the driven term
    exceeds the threshold current, else 0.  Negative currents never
    drift (the driven term is below any non-negative threshold).
    """
    driven = params.mu_v * (params.r_on / params.d) * current
    if driven > params.i_gamma:
        return driven - params.i_gamma
    return 0.0


def apply_read_pulse(params: DeviceParams, gamma0: float, current: float,
                     duration: float) -> tuple[float, float]:
    """Integrate a constant-current pulse in closed form; returns (final gamma, voltage).

    The rate is constant, so gamma(t) = gamma0 + rate * t until it pins at
    d.  The reported voltage is taken at the end of the pulse in the
    R_off approximation V = r_off * (1 - gamma/d) * I, valid because
    r_on / r_off is small.  For a zero threshold this makes the response
    of a fresh device quadratic in the drive: V = r_off*I - r_off*mu_v*(r_on/d^2)*I^2*t.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    if not 0.0 <= gamma0 <= params.d:
        raise ValueError(f"gamma0 {gamma0} outside [0, {params.d}]")
    rate = drift_rate(params, current)
    final = gamma0 + rate * duration
    if final > params.d:
        final = params.d
    output = params.r_off * (1.0 - final / params.d) * current
    return final, output


def window_update_rate(state: MemristorState, index: int, current: float, i_b: float) -> float:
    """Drift rate of variable `index` under drive current `current`.

    Writes ride on a bias current of magnitude |i_b| that lifts the drive
    into a window; the net rate is the drive with that bias stripped off:

        rate = (I - |i_b|) inside the positive window,
               (I + |i_b|) inside the mirrored negative window,
               0 elsewhere.

    Both windows are open intervals, so currents sitting exactly on a
    threshold do nothing.
    """
    thr = state.window.thresholds[index]
    hi = thr + state.window.a
    b = abs(i_b)
    if thr < current < hi:
        return current - b
    if thr < -current < hi:
        return current + b
    return 0.0


def select_and_update(state: MemristorState, index: int, delta: float) -> MemristorState:
    """Write `delta` onto variable `index` through its addressing window.

    Models one unit-duration write pulse: the bias current i_b is set to
    +/- thresholds[index] (sign following delta), the drive
    I = delta + i_b then sits inside that variable's window and nowhere
    else, and closed-form integration of the window rate over unit time
    adds exactly delta.  The result is clamped to the variable's bounds.

    Mutates `state` in place and returns it.  |delta| must stay below the
    window width a, otherwise the write would overshoot the window.
    """
    if abs(delta) >= state.window.a:
        raise WindowViolationError(
            f"|delta| = {abs(delta)} does not fit in window width {state.window.a}"
        )
    lo, hi = state.bounds[index]
    new = state.gamma[index] + delta
    if new < lo:
        new = lo
    elif new > hi:
        new = hi
    state.gamma[index] = new
    return state

