"""Single-layer perceptron stored inside one multi-variable memristor.

For a unit with n inputs, one device holds the n input weights and the
bias weight.  The output is logistic in the weighted input sum shifted
by the bias weight.  Weight updates follow the delta rule and are
delivered one at a time through the device's addressing windows, each
as a unit-duration write pulse, so the stored weight moves by exactly
the requested amount (then clamps at the variable bounds).  Every update
must fit a single pulse.

`train_slp_ensemble` runs many independently seeded machines through
the run shared with the MLP in `train`, with the delta rule as its step;
their starting weights are the one-output draw `mlp.glorot_layer(n, 1,
streams)`.  The forward pass lives only there, in `epoch.c`: the
logistic is computed as 1 / (1 + exp(-z)), which is scipy.special.expit
bit for bit, and `train.score(params, xs)` runs that forward pass alone
to score trained machines.
"""

from __future__ import annotations

import numpy as np

from .train import train_lockstep


def train_slp_ensemble(params, eta: float, xs: np.ndarray, ts: np.ndarray, epochs: int,
                       streams: np.ndarray, window_a: float = 1.0, weight_bound: float = 10.0):
    """Train one machine per realization, all in one compiled run.

    params is [weights], weights being (realizations, n + 1) with the
    bias weight last; streams has one row per realization, consumed one
    permutation per epoch.  The common factor eta * (t - out) * out *
    (1 - out) scales each input component; the bias acts as an always-on
    input of 1.  Returns (histories, [final weights]).
    """
    return train_lockstep(params, xs, ts, epochs, streams, weight_bound, window_a, eta)
