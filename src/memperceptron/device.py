"""How a current-controlled memristor is read.

A current-controlled memristor couples Ohm's law V = R(gamma, I) * I with
internal-variable dynamics gamma_dot = f(gamma, I).  The device here is a
linear ion-drift device: a series combination of doped (R_on) and undoped
(R_off) regions, R(gamma) = R_on * gamma/D + R_off * (1 - gamma/D), whose
state drifts only above a current threshold.  A constant-current read
pulse bends the response of a fresh device quadratically in the drive,
which is the node activation of the multilayer network.

Pulses are integrated in closed form.  The drift rate never depends on
gamma itself, so the trajectory is piecewise linear in time and the end
state is exact.  How stored variables are written through their
addressing windows lives in `train`.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def quad_coefficient(params: DeviceParams) -> float:
    """Curvature kappa of the read response, R_off approximation."""
    return params.r_off * params.mu_v * params.r_on / (params.d * params.d)


def bias_drift_slope(params: DeviceParams) -> float:
    """Sensitivity dm/dgamma_b of the slope to the stored bias (negative)."""
    return (params.r_on - params.r_off) / params.d
