"""How devices are written, in the training run shared by every model.

Both perceptrons learn by one rule: present a sample, compute an
increment for every stored variable, write it through the addressing
hardware, clamp to the device range.  Only the increments differ by
model.  A whole run, every epoch's shuffles included, is one call of
`run` in `epoch.c`, which this module builds and loads.

A stored variable is written through its addressing window, which adds
exactly the increment and touches no other variable.  The SLP writes one
pulse per weight, which fits only |increment| < window_a, or raises
WindowViolationError; the MLP writes bursts of pulses, which land in full.

Each realization draws its starting weights and its shuffles from its
own PCG64 stream, a row of a stream array (`seed_streams`) that the
compiled library seeds and advances exactly as numpy would.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import operator
import os
import subprocess
from pathlib import Path

import numpy as np

from .device import WindowViolationError

_SOURCE = Path(__file__).with_name("epoch.c")
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_I, _F, _P = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# R, samples, inputs, xs, ts, epochs, streams, parameter pointers, histories,
# bound, window_a, violation key, violation increment, eta, layers, sizes,
# then the MLP's b_scale, kappa * tau, m', r_off, r_on, d
_RUN = [_I, _I, _I, _P, _P, _I, _P, _P, _P, _F, _F, _P, _P, _F, _I, _P] + [_F] * 6
STREAM = 6  # words per stream row: state and inc (high, low), has_uint32, uinteger


@functools.cache
def load_library():
    """The compiled runs and streams, built at first use into __pycache__
    under the sha256 of source and flags, renamed into place so concurrent
    builds are safe; a build removes the other builds there.  Raises
    RuntimeError naming the compiler if the build or the load fails."""
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    path = _SOURCE.parent / "__pycache__" / f"epoch-{key}.so"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            subprocess.run(["cc", *_CFLAGS, str(_SOURCE), "-o", str(tmp), "-lm"], check=True,
                           capture_output=True, text=True)
            os.replace(tmp, path)
            for stale in path.parent.glob("epoch-*.so"):
                if stale != path:
                    with contextlib.suppress(OSError):
                        stale.unlink()
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as exc:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(f"cannot build the training kernel {_SOURCE.name} with cc: "
                           f"{getattr(exc, 'stderr', None) or exc}") from exc
    lib.run.argtypes, lib.run.restype = _RUN, ctypes.c_int
    for name in ("seed_streams", "random_rows", "shuffle_rows"):  # R, a count, two arrays
        getattr(lib, name).argtypes, getattr(lib, name).restype = [_I, _I, _P, _P], None
    lib.write_pulses.argtypes, lib.write_pulses.restype = [_I, _P, _P, _F, _F], _I
    return lib


def seed_streams(seed: int, n: int) -> np.ndarray:
    """The streams of np.random.default_rng(seed + r) for r < n, one row each.

    The rows hold the fields of PCG64.state (see STREAM); the trainers,
    glorot_slp_weights and glorot_init advance them in place, as they
    would advance the generators.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    streams = np.empty((n, STREAM), dtype=np.uint64)
    n_words = (seed + n).bit_length() // 32 + 1
    words = np.frombuffer(seed.to_bytes(4 * n_words, "little"), dtype="<u4").astype(np.uint32)
    load_library().seed_streams(n, n_words, words.ctypes.data, streams.ctypes.data)
    return streams


def _check_streams(streams) -> None:
    """Raise ValueError unless streams is a stream array (see `seed_streams`)."""
    if not isinstance(streams, np.ndarray) or streams.dtype != np.uint64 or streams.ndim != 2 \
            or streams.shape[1] != STREAM or not streams.flags.c_contiguous \
            or not streams.flags.writeable:
        raise ValueError(f"streams must be a writeable C-contiguous (R, {STREAM}) uint64 array")


def random_rows(streams: np.ndarray, k: int) -> np.ndarray:
    """(R, k): row r is stream r's rng.random(k), the stream advanced to match."""
    _check_streams(streams)
    out = np.empty((len(streams), k))
    load_library().random_rows(len(streams), k, streams.ctypes.data, out.ctypes.data)
    return out


def train_lockstep(params, xs: np.ndarray, ts: np.ndarray, epochs: int, streams: np.ndarray,
                   bound: float, window_a: float, eta: float, sizes=None, device=(0.0,) * 6):
    """Train every realization online, the whole run in one compiled call.

    params is a list of arrays with realizations on the leading axis
    (copied, never mutated).  streams is a stream array from
    `seed_streams`, a row per realization, advanced in place; each
    stream is consumed by one permutation per epoch, the draws of
    rng.permutation(samples), and by nothing else.  Increments are
    added, then clamped to [-bound, bound].  Without sizes the run
    trains the SLP on its weights, in single pulses: an increment
    reaching window_a raises WindowViolationError for the first one by
    epoch, sample, realization and weight, and leaves each stream where
    its lane block stopped.  The MLP passes its gammas, then biases,
    sizes as its layer widths, input first, and device as (b_scale,
    kappa * tau, m', r_off, r_on, d); it writes bursts, and ignores
    window_a.  A run that cannot allocate its scratch raises
    MemoryError.  Returns (histories, params), histories being
    (realizations, epochs) of the summed pre-update error.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    n_samples = xs.shape[0]
    if xs.ndim != 2 or 0 in xs.shape or np.shape(ts) != (n_samples,):
        raise ValueError(f"xs {xs.shape}, ts {np.shape(ts)}: need (samples, inputs), (samples,), none 0")
    xs, ts = np.ascontiguousarray(xs, dtype=float), np.ascontiguousarray(ts, dtype=float)
    params = [np.array(p, dtype=float, order="C") for p in params]
    n_real = params[0].shape[0]
    _check_streams(streams)
    if len(streams) != n_real:
        raise ValueError(f"{n_real} realizations but {len(streams)} streams")
    histories = np.empty((n_real, epochs))
    where, increment = (_I * 4)(), _F()
    # the layer count and widths; 0 layers runs the SLP
    layers = (0, None) if sizes is None else (len(sizes) - 1, (_I * len(sizes))(*sizes))
    status = load_library().run(
        n_real, n_samples, xs.shape[1], xs.ctypes.data, ts.ctypes.data, epochs, streams.ctypes.data,
        (ctypes.c_void_p * len(params))(*[p.ctypes.data for p in params]), histories.ctypes.data,
        bound, window_a, where, ctypes.byref(increment), eta, *layers, *device)
    if status == 2:
        raise MemoryError("run: cannot allocate its scratch")
    if status == 1:
        epoch, sample, r, weight = where
        raise WindowViolationError(
            f"realization {r}, epoch {epoch + 1}, sample {sample + 1}: increment "
            f"{increment.value!r} to weight {weight} does not fit in window width {window_a}"
        )
    return histories, params
