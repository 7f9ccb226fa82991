"""The online training loop shared by every model, and how devices are written.

Both perceptrons learn by one rule: present a sample, compute an
increment for every stored variable, write it through the addressing
hardware, clamp to the device range.  A model supplies its step, which
returns the per-realization error and the increments in device-variable
units, computed in its own float operation order, and may name a
compiled epoch in `epoch.c` that does the same arithmetic.

A stored variable is written by one pulse through its addressing window,
which adds exactly the increment and touches no other variable.  One
pulse fits only |increment| < window_a; larger increments go out as a
burst of pulses, or raise in "single" write mode.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import warnings
from pathlib import Path

import numpy as np

from .device import WindowViolationError

_SOURCE = Path(__file__).with_name("epoch.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_I, _F, _P = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# R, samples, inputs, xs, ts, perms, parameter pointers, totals, bound, window_a, single, eta
_HEAD = [_I, _I, _I, _P, _P, _P, _P, _P, _F, _F, _I, _F]
_TAILS = {"slp_epoch": [], "mlp_epoch": [_I, _P] + [_F] * 6}


@functools.cache
def load_library():
    """The compiled epochs, built at first use into __pycache__ under the sha256
    of source and flags, renamed into place so concurrent builds are safe.  On
    failure (no cc, say) it warns once and returns None: training runs on numpy."""
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    path = _SOURCE.parent / "__pycache__" / f"epoch-{key}.so"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            subprocess.run(["cc", *_CFLAGS, str(_SOURCE), "-o", str(tmp), "-lm"], check=True,
                           capture_output=True, text=True)
            os.replace(tmp, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        tmp.unlink(missing_ok=True)
        warnings.warn(f"compiled epoch kernel unavailable, training on numpy: "
                      f"{getattr(exc, 'stderr', None) or exc}", RuntimeWarning, stacklevel=2)
        return None
    for name, tail in _TAILS.items():
        getattr(lib, name).argtypes, getattr(lib, name).restype = _HEAD + tail, ctypes.c_int
    lib.shuffle_rows.argtypes, lib.shuffle_rows.restype = [_I, _I, _P, _P], None
    # a bit generator's bitgen_t from its capsule, by a prototype of our own
    # so that the shared ctypes.pythonapi keeps its declarations
    lib.bitgen = ctypes.PYFUNCTYPE(_P, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return lib


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
                   bound: float, window_a: float, write_mode: str, kernel=None):
    """Train every realization online, vectorised across realizations.

    params is a list of arrays with realizations on the leading axis
    (copied, never mutated); step(params, x, t) gets one sample per
    realization.  Each generator in rngs is consumed by one permutation
    per epoch, the draws of rng.permutation(samples), and by nothing
    else.  On the compiled engine `shuffle_rows` makes those draws in C
    through the generator's own bitgen_t, without the GIL or numpy's
    generator lock: the generators belong to the trainer until it
    returns.  Increments are added, then clamped to [-bound, bound].  In
    "single" mode an increment reaching window_a raises before the step
    is applied; in "burst" mode it lands in full as a pulse train.
    kernel, if given, is (name, trailing arguments) of a compiled epoch
    that computes what step does, array arguments passed by pointer;
    when the library loads, each epoch is one call into it, and a kernel
    that cannot allocate its scratch raises MemoryError.  Returns
    (histories, params), histories being (realizations, epochs) of the
    summed pre-update error.
    """
    if write_mode not in ("burst", "single"):
        raise ValueError(f"write_mode must be 'burst' or 'single', got {write_mode!r}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    n_samples = xs.shape[0]
    if xs.ndim != 2 or 0 in xs.shape or np.shape(ts) != (n_samples,):
        raise ValueError(f"xs {xs.shape}, ts {np.shape(ts)}: need (samples, inputs), (samples,), none 0")
    xs, ts = np.ascontiguousarray(xs, dtype=float), np.ascontiguousarray(ts, dtype=float)
    params = [np.array(p, dtype=float, order="C") for p in params]
    n_real = params[0].shape[0]
    if len(rngs) != n_real:
        raise ValueError(f"{n_real} realizations but {len(rngs)} generators")
    single = write_mode == "single"
    histories = np.zeros((n_real, epochs))
    perms = np.empty((n_real, n_samples), dtype=np.int64)
    lib = load_library() if kernel is not None else None
    if lib is not None:
        totals = np.empty(n_real)
        compiled = functools.partial(
            getattr(lib, kernel[0]), n_real, n_samples, xs.shape[1], xs.ctypes.data, ts.ctypes.data,
            perms.ctypes.data, (ctypes.c_void_p * len(params))(*[p.ctypes.data for p in params]),
            totals.ctypes.data, bound, window_a, single,
            *[a.ctypes.data if isinstance(a, np.ndarray) else a for a in kernel[1]])
        gens = (_P * n_real)(*[lib.bitgen(rng.bit_generator.capsule, b"BitGenerator") for rng in rngs])
        shuffle = functools.partial(lib.shuffle_rows, n_real, n_samples, gens, perms.ctypes.data)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite runs are the caller's to report
        for e in range(epochs):
            if lib is None:
                perms[:] = np.arange(n_samples)
                for rng, row in zip(rngs, perms):
                    rng.shuffle(row)  # the draws of rng.permutation(n_samples)
            else:
                shuffle()
                start = [p.copy() for p in params] if single else []
                status = compiled()
                if status == 0:
                    histories[:, e] = totals
                    continue
                if status == 2:
                    raise MemoryError(f"{kernel[0]}: cannot allocate its scratch")
                # an increment reached window_a: numpy replays the epoch on the
                # same permutations to raise at the first one in its order
                for p, saved in zip(params, start):
                    p[...] = saved
            sums = np.zeros(n_real)
            for k in range(n_samples):
                idx = perms[:, k]
                err, increments = step(params, xs[idx], ts[idx])
                sums += err
                if single and any((np.abs(inc) >= window_a).any() for inc in increments):
                    raise _window_violation(increments, window_a, e, k)
                for p, inc in zip(params, increments):
                    np.clip(p + inc, -bound, bound, out=p)
            histories[:, e] = sums
    return histories, params
