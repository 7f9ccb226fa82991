"""Single-layer perceptron stored inside one multi-variable memristor.

For a unit with n inputs, one device holds the n input weights and the
bias weight.  The output is logistic in the weighted input sum shifted
by the bias weight.  Weight updates follow the delta rule and are
delivered one at a time through the device's addressing windows, each
as a unit-duration write pulse, so the stored weight moves by exactly
the requested amount (then clamps at the variable bounds).  Every update
must fit a single pulse.

`train_slp_ensemble` runs many independently seeded machines in lock
step through the shared loop in `train`, compiled as `slp_epoch`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .train import random_rows, train_lockstep


def glorot_slp_weights(input_dim: int, rngs) -> np.ndarray:
    """Uniform draws in +/- sqrt(6 / (fan_in + 1)) for weights and bias, a row per stream.

    rngs is a stream array or a list of PCG64 Generators (see
    `train_lockstep`).  Each stream makes one rng.random draw, scaled as
    rng.uniform scales it: the values and the final state of
    rng.uniform(-limit, limit, input_dim + 1).  Returns (realizations,
    input_dim + 1).
    """
    limit = np.sqrt(6.0 / (input_dim + 1))
    draws = random_rows(rngs, input_dim + 1)
    # rng.uniform(low, high) is low + (high - low) * rng.random(), bit for bit
    return -limit + (limit - -limit) * draws


def slp_forward(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Logistic output, broadcasting over any leading axes.

    weights is (..., n + 1) with the bias weight last and x is (..., n);
    the inputs are summed in order, then the bias weight is added.
    """
    n = x.shape[-1]
    v = weights[..., 0] * x[..., 0]
    for i in range(1, n):
        v = v + weights[..., i] * x[..., i]
    return expit(v + weights[..., n])


def train_slp_ensemble(weights0: np.ndarray, eta: float, xs: np.ndarray, ts: np.ndarray,
                       epochs: int, rngs, weight_bound: float = 10.0,
                       window_a: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Train one machine per row of weights0, all in lock step.

    weights0 is (realizations, n + 1) with the bias weight last; rngs is
    one stream per realization, consumed one permutation per epoch.
    The common factor eta * (t - out) * out * (1 - out) scales each input
    component; the bias acts as an always-on input of 1.  Returns
    (histories, final weights).
    """
    if np.ndim(weights0) != 2 or xs.shape[1] != np.shape(weights0)[1] - 1:
        raise ValueError(f"weights0 of shape {np.shape(weights0)} does not fit {xs.shape[1]} inputs")

    def delta_rule(params, x, t):
        out = slp_forward(params[0], x)
        diff = t - out
        base = (eta * diff * (out * (1.0 - out)))[:, None]
        return 0.5 * diff * diff, [np.concatenate((base * x, base), axis=1)]

    histories, (w,) = train_lockstep([weights0], delta_rule, xs, ts, epochs, rngs,
                                     weight_bound, window_a, "single", ("slp_epoch", (eta,)))
    return histories, w
