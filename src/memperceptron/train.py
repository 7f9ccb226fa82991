"""The online training loop shared by every model.

Both perceptrons learn by one rule: present a sample, compute an
increment for every stored variable, write it through the addressing
hardware, clamp to the device range.  A model supplies only its step,
which returns the per-realization error and the increments in
device-variable units, computed in its own float operation order.
"""

from __future__ import annotations

import numpy as np

from .device import WindowViolationError

def train_lockstep(params, step, xs: np.ndarray, ts: np.ndarray, epochs: int, rngs,
                   bound: float, window_a: float, write_mode: str):
    """Train every realization online, vectorised across realizations.

    params is a list of arrays with realizations on the leading axis
    (copied, never mutated); step(params, x, t) gets one sample per
    realization.  Each generator in rngs draws one permutation per
    epoch.  Increments are added, then clamped to [-bound, bound].  In
    "single" mode an increment reaching window_a raises before the step
    is applied; in "burst" mode it lands in full as a pulse train.
    Returns (histories, params), histories being (realizations, epochs)
    of the epoch-summed pre-update error.
    """
    if write_mode not in ("burst", "single"):
        raise ValueError(f"write_mode must be 'burst' or 'single', got {write_mode!r}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    n_samples = xs.shape[0]
    if n_samples == 0:
        raise ValueError("no samples to train on")
    params = [np.array(p, dtype=float) for p in params]
    n_real = params[0].shape[0]
    if len(rngs) != n_real:
        raise ValueError(f"{n_real} realizations but {len(rngs)} generators")
    histories = np.zeros((n_real, epochs))
    for e in range(epochs):
        perms = np.stack([rng.permutation(n_samples) for rng in rngs])
        totals = np.zeros(n_real)
        for k in range(n_samples):
            idx = perms[:, k]
            err, increments = step(params, xs[idx], ts[idx])
            totals += err
            if write_mode == "single" and any(np.abs(inc).max() >= window_a for inc in increments):
                raise WindowViolationError(
                    f"epoch {e + 1}, sample {k + 1}: an update does not fit "
                    f"in window width {window_a}"
                )
            for i, inc in enumerate(increments):
                params[i] = np.clip(params[i] + inc, -bound, bound)
        histories[:, e] = totals
    return histories, params
