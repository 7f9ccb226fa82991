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
its device's addressing hardware; changes too large for one pulse go out
as a burst of pulses by default, or raise in "single" write mode.
`train_mlp_ensemble` runs many seeded networks in lock step through the
shared loop in `train`, compiled as `mlp_epoch`.
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


def glorot_init(topology: Topology, rngs) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer uniform draws in +/- sqrt(6/(n_in+n_out)), one network per stream.

    rngs is a stream array or a list of PCG64 Generators (see
    `train_lockstep`).  Bias weights are drawn from the same interval as
    their layer.  Each stream makes one rng.random draw, split in the
    order W1, b1, W2, b2, ... and scaled as rng.uniform scales it: the
    values and the final state of one rng.uniform call per array.
    Returns per-layer weights (realizations, n_in, n_out) and biases
    (realizations, n_out).
    """
    pairs = list(zip(topology.layer_sizes[:-1], topology.layer_sizes[1:]))
    draws = random_rows(rngs, sum((n_in + 1) * n_out for n_in, n_out in pairs))
    weights, biases, start = [], [], 0
    for n_in, n_out in pairs:
        limit = glorot_limit(n_in, n_out)
        # rng.uniform(low, high) is low + (high - low) * rng.random(), bit for bit
        layer = -limit + (limit - -limit) * draws[:, start:start + (n_in + 1) * n_out]
        start += (n_in + 1) * n_out
        weights.append(layer[:, :n_in * n_out].reshape(len(draws), n_in, n_out))
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
                       epochs: int, rngs, params: DeviceParams | None = None,
                       tau: float = 1.0, d_prime: float = 4.0, b_scale: float = 1.0,
                       window_a: float = 1.0, write_mode: str = "burst"):
    """Backprop many seeded networks in lock step.

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
    kt = quad_coefficient(params) * tau
    m_prime = bias_drift_slope(params)

    def backprop(state, x, t):
        layers = mlp_forward(state[:n_layers], state[n_layers:], x, params, kt, b_scale)
        diff = t[:, None] - layers[-1][2]
        sq = 0.5 * diff * diff
        err = sq[:, 0]
        for k in range(1, sq.shape[1]):
            err = err + sq[:, k]
        # upstream is the pull on layer l's outputs; delta folds in the
        # activation derivative to give the pull on its net inputs
        upstream = diff
        delta = diff * layers[-1][3]
        inc_g, inc_b = [None] * n_layers, [None] * n_layers
        for l in range(n_layers - 1, -1, -1):
            w, s = layers[l][:2]
            prev = layers[l - 1][2] if l else x
            inc_g[l] = ((eta * delta)[:, None, :] * prev[:, :, None]) / b_scale
            inc_b[l] = eta * upstream * m_prime * s
            if l:
                upstream = delta[:, 0, None] * w[:, :, 0]
                for j in range(1, w.shape[2]):
                    upstream = upstream + delta[:, j, None] * w[:, :, j]
                delta = layers[l - 1][3] * upstream
        return err, inc_g + inc_b

    kernel = ("mlp_epoch", (eta, n_layers, np.array(sizes, dtype=np.int64), b_scale, kt,
                            m_prime, params.r_off, params.r_on, params.d))
    histories, final = train_lockstep(list(gammas0) + list(biases0), backprop, xs, ts, epochs,
                                      rngs, d_prime / 2.0, window_a, write_mode, kernel)
    return histories, final[:n_layers], final[n_layers:]
