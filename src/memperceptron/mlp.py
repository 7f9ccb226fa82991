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
with the SLP in `train`, with backpropagation as its per-sample step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, bias_drift_slope, bias_slope, quad_coefficient
from .train import random_rows, train_lockstep


@dataclass(frozen=True)
class Topology:
    """Layer widths, input first; at least one hidden layer."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.layer_sizes) < 3:
            raise ValueError(f"need input, hidden and output layers, got {self.layer_sizes}")
        if any(n < 1 for n in self.layer_sizes):
            raise ValueError(f"layer sizes must be >= 1, got {self.layer_sizes}")


def glorot_limit(n_in: int, n_out: int) -> float:
    return float(np.sqrt(6.0 / (n_in + n_out)))


def glorot_layer(n_in: int, n_out: int, streams: np.ndarray) -> np.ndarray:
    """Each stream's rng.uniform(-limit, limit, (n_in + 1) * n_out), limit = glorot_limit."""
    limit = glorot_limit(n_in, n_out)
    # rng.uniform(low, high) is low + (high - low) * rng.random(), bit for bit
    return -limit + (limit - -limit) * random_rows(streams, (n_in + 1) * n_out)


def glorot_init(topology: Topology, streams: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer uniform draws in +/- sqrt(6/(n_in+n_out)), one network per stream.

    streams is a stream array (see `train.seed_streams`).  Bias weights
    are drawn from the same interval as their layer.  Each stream makes
    one `glorot_layer` draw per layer, split in the order W1, b1, W2, b2,
    ...: the values and the final state of one rng.uniform call per
    array.  Returns per-layer weights (realizations, n_in, n_out) and
    biases (realizations, n_out).
    """
    weights, biases = [], []
    for n_in, n_out in zip(topology.layer_sizes[:-1], topology.layer_sizes[1:]):
        layer = glorot_layer(n_in, n_out, streams)
        weights.append(layer[:, :n_in * n_out].reshape(len(layer), n_in, n_out))
        biases.append(layer[:, n_in * n_out:])
    return weights, biases


def mlp_forward(gammas, biases, x, params: DeviceParams, kt: float, b_scale: float):
    """Forward pass of memristor networks, broadcasting over any leading axes.

    gammas[l] is (..., n_in, n_out) of synapse internal variables
    (weight / b_scale), biases[l] is (..., n_out) and x is (..., n_inputs);
    kt is kappa * tau.  Returns one (effective weights, net input, output,
    activation derivative) tuple per layer, the network output last.
    """
    layers = []
    v = x
    for g, b in zip(gammas, biases):
        w = b_scale * g
        s = w[..., 0, :] * v[..., 0, None]
        for i in range(1, w.shape[-2]):
            s = s + w[..., i, :] * v[..., i, None]
        m = bias_slope(params, b)
        drive = np.where(s > 0.0, s, 0.0)
        v = m * s - kt * (drive * drive)
        layers.append((w, s, v, m - 2.0 * kt * drive))
    return layers


def train_mlp_ensemble(gammas0, biases0, eta: float, xs: np.ndarray, ts: np.ndarray,
                       epochs: int, streams: np.ndarray, params: DeviceParams | None = None,
                       tau: float = 1.0, d_prime: float = 4.0, b_scale: float = 1.0):
    """Backprop many seeded networks, one stream row each.

    gammas0[l] is (realizations, n_in, n_out) of synapse internal
    variables (weight / b_scale), biases0[l] is (realizations, n_out).
    A node's bias moves by eta * pull * m' * net input, where the pull
    on its output is the residual (output node) or summed delta * w
    (hidden node).  Every variable is bounded by +/- d_prime / 2.
    Returns (histories, final gammas, final biases).
    """
    if params is None:
        params = DeviceParams()
    n_layers, sizes = len(gammas0), [xs.shape[1]] + [np.shape(g)[-1] for g in gammas0]
    want = [(np.shape(gammas0[0])[0], *sizes[l:l + 2]) for l in range(n_layers)]  # (R, n_in, n_out)
    shapes = [np.shape(a) for a in (*gammas0, *biases0)]
    if 0 in sizes or shapes != want + [(r, n_out) for r, _, n_out in want]:
        raise ValueError(f"gammas0 must be {want} (no width 0) for {xs.shape[1]} inputs, biases0 to match")
    device = (b_scale, quad_coefficient(params) * tau, bias_drift_slope(params), params.r_off,
              params.r_on, params.d)
    histories, final = train_lockstep(list(gammas0) + list(biases0), xs, ts, epochs, streams,
                                      d_prime / 2.0, np.inf, eta, sizes, device)
    return histories, final[:n_layers], final[n_layers:]
