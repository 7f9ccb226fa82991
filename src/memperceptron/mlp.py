"""Multilayer perceptron built entirely from memristors.

Connections are linear memristors used as programmable resistors: the
output is weight * current with weight = B * gamma, and gamma may swing
over a signed range [-d_prime/2, d_prime/2] so weights carry sign.  Nodes
are nonlinear devices read with a constant-current pulse of duration tau.
A positive input current drifts the state during the read (it is restored
afterwards, so the read is non-destructive), which bends the response; a
negative current sits below the drift threshold and reads out through the
plain resistance.  The activation is therefore one-sidedly quadratic:

    out = m(gamma_b) * s - kappa * tau * s**2   for s > 0,
    out = m(gamma_b) * s                        for s <= 0,
    m(gamma_b) = r_off * (1 - gamma_b/d) + r_on * gamma_b/d,
    kappa = r_off * mu_v * r_on / d**2,

with derivative m - 2*kappa*tau*s on the bent side and m on the linear
side.  The node's own internal variable gamma_b stores its bias weight by
tilting the slope m.

Training is online backpropagation: local gradients are computed against
the frozen pre-update weights, connections move by eta * delta_j * v_i,
and each node's bias variable follows its own cost gradient, which under
slope-bias semantics carries the device's slope response m' = dm/dgamma_b
instead of the activation derivative.  Every change is delivered through
its device's addressing hardware as a burst of pulses, which lands in
full however large the change, then clamps to the device range.
`train_mlp_ensemble` runs many seeded networks through the run shared
with the SLP in `train`, with backpropagation as its per-sample step, on
one flat list of arrays, the gammas then the node biases, whose shapes
give the layer widths; `train.score(params, xs, device)` reads trained
networks out through the same forward pass.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceParams, bias_drift_slope, quad_coefficient
from .train import random_rows, train_lockstep


def glorot_limit(n_in: int, n_out: int) -> float:
    return float(np.sqrt(6.0 / (n_in + n_out)))


def glorot_layer(n_in: int, n_out: int, streams: np.ndarray) -> np.ndarray:
    """Each stream's rng.uniform(-limit, limit, (n_in + 1) * n_out), limit = glorot_limit."""
    limit = glorot_limit(n_in, n_out)
    # rng.uniform(low, high) is low + (high - low) * rng.random(), bit for bit
    return -limit + (limit - -limit) * random_rows(streams, (n_in + 1) * n_out)


def glorot_init(widths, streams: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer uniform draws in +/- sqrt(6/(n_in+n_out)), one network per stream.

    widths are the layer widths, input first.  streams is a stream array
    (see `train.seed_streams`).  Bias weights are drawn from the same
    interval as their layer.  Each stream makes one `glorot_layer` draw
    per layer, split in the order W1, b1, W2, b2, ...: the values and the
    final state of one rng.uniform call per array.  Returns per-layer
    weights (realizations, n_in, n_out) and biases (realizations, n_out).
    """
    weights, biases = [], []
    for n_in, n_out in zip(widths[:-1], widths[1:]):
        layer = glorot_layer(n_in, n_out, streams)
        weights.append(layer[:, :n_in * n_out].reshape(len(layer), n_in, n_out))
        biases.append(layer[:, n_in * n_out:])
    return weights, biases


def device_constants(params: DeviceParams, tau: float, b_scale: float) -> tuple[float, ...]:
    """The device constants `train.train_lockstep` and `train.score` take for
    the MLP: (b_scale, kappa * tau, m', r_off, r_on, d)."""
    return (b_scale, quad_coefficient(params) * tau, bias_drift_slope(params), params.r_off, params.r_on,
            params.d)


def train_mlp_ensemble(params, eta: float, xs: np.ndarray, ts: np.ndarray, epochs: int,
                       streams: np.ndarray, device=device_constants(DeviceParams(), 1.0, 1.0),
                       d_prime: float = 4.0):
    """Backprop many seeded networks, one stream row each.

    params is the gammas, gammas[l] being (realizations, n_in, n_out) of
    synapse internal variables (weight / b_scale), then the biases,
    biases[l] being (realizations, n_out); device is `device_constants`'
    tuple.  A node's bias moves by eta * pull * m' * net input, where the
    pull on its output is the residual (output node) or summed delta * w
    (hidden node).  Every variable is bounded by +/- d_prime / 2.
    Returns (histories, final gammas + biases).
    """
    return train_lockstep(params, xs, ts, epochs, streams, d_prime / 2.0, np.inf, eta, device)
