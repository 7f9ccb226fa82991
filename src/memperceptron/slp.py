"""Single-layer perceptron stored inside one multi-variable memristor.

For a unit with n inputs, one device holds the n input weights and the
bias weight.  The output is logistic in the weighted input sum shifted
by the bias weight.  Weight updates follow the delta rule and are
delivered one at a time through the device's addressing windows, each
as a unit-duration write pulse, so the stored weight moves by exactly
the requested amount (then clamps at the variable bounds).  Every update
must fit a single pulse.

`train_slp_ensemble` runs many independently seeded machines through
the run shared with the MLP in `train`, with the delta rule as its step.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .mlp import glorot_layer
from .train import train_lockstep


def glorot_slp_weights(input_dim: int, streams: np.ndarray) -> np.ndarray:
    """Uniform draws in +/- sqrt(6 / (fan_in + 1)) for weights and bias, a row per stream.

    The one-output case of `mlp.glorot_layer`: the values and the final
    state of rng.uniform(-limit, limit, input_dim + 1) on each stream.
    Returns (realizations, input_dim + 1).
    """
    return glorot_layer(input_dim, 1, streams)


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
                       epochs: int, streams: np.ndarray, weight_bound: float = 10.0,
                       window_a: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Train one machine per row of weights0, all in one compiled run.

    weights0 is (realizations, n + 1) with the bias weight last; streams
    has one row per realization, consumed one permutation per epoch.
    The common factor eta * (t - out) * out * (1 - out) scales each input
    component; the bias acts as an always-on input of 1.  Returns
    (histories, final weights).
    """
    if np.ndim(weights0) != 2 or xs.shape[1] != np.shape(weights0)[1] - 1:
        raise ValueError(f"weights0 of shape {np.shape(weights0)} does not fit {xs.shape[1]} inputs")
    histories, (w,) = train_lockstep([weights0], xs, ts, epochs, streams, weight_bound, window_a, eta)
    return histories, w
