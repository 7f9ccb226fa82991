"""The online training loop shared by every model, and how devices are written.

Both perceptrons learn by one rule: present a sample, compute an
increment for every stored variable, write it through the addressing
hardware, clamp to the device range.  A model supplies only its step,
which returns the per-realization error and the increments in
device-variable units, computed in its own float operation order.

A stored variable is written by one pulse through its addressing window,
which adds exactly the increment and touches no other variable.  One
pulse fits only |increment| < window_a; larger increments go out as a
burst of pulses, or raise in "single" write mode.
"""

from __future__ import annotations

import numpy as np

from .device import WindowViolationError


def _window_violation(increments, window_a: float, epoch: int, sample: int) -> WindowViolationError:
    """Locate the first increment reaching window_a: array, then realization."""
    for i, inc in enumerate(increments):
        over = np.abs(inc) >= window_a
        if over.any():
            pos = np.unravel_index(np.argmax(over), inc.shape)
            return WindowViolationError(
                f"realization {pos[0]}, epoch {epoch + 1}, sample {sample + 1}: increment "
                f"{float(inc[pos])!r} to parameter array {i} does not fit in window width {window_a}"
            )


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
                raise _window_violation(increments, window_a, e, k)
            for i, inc in enumerate(increments):
                params[i] = np.clip(params[i] + inc, -bound, bound)
        histories[:, e] = totals
    return histories, params
