"""How a current-controlled memristor is read.

A current-controlled memristor couples Ohm's law V = R(gamma, I) * I with
internal-variable dynamics gamma_dot = f(gamma, I).  The device here is a
linear ion-drift device: a series combination of doped (R_on) and undoped
(R_off) regions, R(gamma) = R_on * gamma/D + R_off * (1 - gamma/D), whose
state drifts only above a current threshold, zero here.  A constant-current read
pulse bends the response of a fresh device quadratically in the drive,
which is the node activation of the multilayer network.

The drift rate does not depend on gamma, so a read pulse has a closed
form, of which the node activation needs the two constants below; the
pulse itself is integrated only by the tests.  How stored variables are
written through their addressing windows lives in `train`.
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
    so a unit-duration pulse of current I > 0 drifts gamma by I.
    """

    r_on: float = 0.01
    r_off: float = 1.0
    d: float = 1.0
    mu_v: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.r_on < self.r_off:
            raise ValueError(f"need 0 < r_on < r_off, got {self.r_on}, {self.r_off}")
        if self.d <= 0.0:
            raise ValueError(f"d must be positive, got {self.d}")
        if self.mu_v < 0.0:
            raise ValueError(f"mu_v must be non-negative, got {self.mu_v}")


def quad_coefficient(params: DeviceParams) -> float:
    """Curvature kappa of the read response, R_off approximation."""
    return params.r_off * params.mu_v * params.r_on / (params.d * params.d)


def bias_drift_slope(params: DeviceParams) -> float:
    """Sensitivity dm/dgamma_b of the slope to the stored bias (negative)."""
    return (params.r_on - params.r_off) / params.d
