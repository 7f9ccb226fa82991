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
A trained model is scored by `score`, the forward half of the same
compiled steps.

Each realization draws its starting weights and its shuffles from its
own PCG64 stream, a row of a stream array (`seed_streams`) that the
compiled library seeds and advances exactly as numpy would.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("epoch.c")
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC", "-pthread")
_I, _F, _P = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
# R, samples, inputs, xs, ts, epochs, streams, parameter pointers, histories,
# bound, window_a, violation key, violation increment, eta, layers, widths,
# then the MLP's b_scale, kappa * tau, m', r_off, r_on, d, then the CPUs the process may use
_RUN = [_I, _I, _I, _P, _P, _I, _P, _P, _P, _F, _F, _P, _P, _F, _I, _P] + [_F] * 6 + [_I]
# R, samples, inputs, xs, parameter pointers, scores, layers, widths, then run's six device constants
_SCORE = [_I, _I, _I, _P, _P, _P, _I, _P] + [_F] * 6
_NO_DEVICE = (0.0,) * 6  # the device constants the SLP's run and score ignore
STREAM = 6  # words per stream row: state and inc (high, low), has_uint32, uinteger


class WindowViolationError(ValueError):
    """Requested state change does not fit inside an addressing window."""


class AllocationError(MemoryError):
    """An array sized by the realization and epoch counts cannot be allocated."""


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
    lib.score.argtypes, lib.score.restype = _SCORE, ctypes.c_int
    for name in ("seed_streams", "random_rows", "shuffle_rows"):  # R, a count, two arrays
        getattr(lib, name).argtypes, getattr(lib, name).restype = [_I, _I, _P, _P], None
    lib.write_pulses.argtypes, lib.write_pulses.restype = [_I, _P, _P, _F, _F], _I
    lib.avx2.argtypes, lib.avx2.restype = [], ctypes.c_int
    return lib


def _address(a: np.ndarray):
    """The address of a's data as a pointer argument, NULL if a is empty.

    Cheaper than a.ctypes.data; a must be writeable and C-contiguous,
    and must outlive the call.
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a)) if a.nbytes else None


def _pointers(params):
    """A C array of the addresses of params' arrays."""
    return (ctypes.c_void_p * len(params))(*[_address(p) for p in params])


def _layers(params, n_in: int, device):
    """The layer count and widths that run and score take, read from the
    shapes of params: the SLP's [weights] (0 layers) if device is None, else
    the MLP's gammas, then its biases.  The kernel trusts these shapes, so
    this is their one check: raises ValueError unless params fit n_in inputs
    with every width at least 1."""
    shapes = [p.shape for p in params]
    n_real = shapes[0][0] if shapes and shapes[0] else -1
    if device is None:
        if shapes != [(n_real, n_in + 1)]:
            raise ValueError(f"params of shapes {shapes} are not the SLP's [weights] for {n_in} inputs")
        return 0, None
    n_layers = len(shapes) // 2
    widths = [n_in] + [s[-1] if s else 0 for s in shapes[:n_layers]]
    gammas = [(n_real, a, b) for a, b in zip(widths, widths[1:])]
    if not n_layers or 0 in widths or shapes[:n_layers] != gammas \
            or shapes[n_layers:] != [(n_real, b) for b in widths[1:]]:
        raise ValueError(f"params of shapes {shapes} are not the MLP's gammas, then biases, for {n_in} "
                         f"inputs, widths at least 1")
    return n_layers, (_I * len(widths))(*widths)


def _inputs(params, xs, device):
    """params and xs as fresh float C-contiguous copies, which _address can
    pass even where the caller's arrays are read-only, and their layers (see
    `_layers`).  The input check train_lockstep and score share: raises
    ValueError unless xs is (samples, inputs), neither 0, and params fit it."""
    xs = np.array(xs, dtype=float, order="C")
    if xs.ndim != 2 or 0 in xs.shape:
        raise ValueError(f"xs {xs.shape}: need (samples, inputs), none 0")
    params = [np.array(p, dtype=float, order="C") for p in params]
    return params, xs, _layers(params, xs.shape[1], device)


def _empty(shape, dtype=float) -> np.ndarray:
    """np.empty(shape, dtype), raising AllocationError where it cannot be
    made: past the largest array numpy can index, or where the memory is
    refused."""
    if math.prod(shape) * np.dtype(dtype).itemsize > sys.maxsize:
        raise AllocationError(f"an array of shape {shape} is past the largest numpy can make")
    try:
        return np.empty(shape, dtype)
    except MemoryError as exc:
        raise AllocationError(str(exc)) from exc


def seed_streams(seed: int, n: int) -> np.ndarray:
    """The streams of np.random.default_rng(seed + r) for r < n, one row each.

    The rows hold the fields of PCG64.state (see STREAM); the trainers,
    glorot_layer and glorot_init advance them in place, as they would
    advance the generators.  Raises AllocationError if the rows cannot be
    allocated.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    streams = _empty((n, STREAM), np.uint64)
    n_words = (seed + n).bit_length() // 32 + 1
    words = np.frombuffer(seed.to_bytes(4 * n_words, "little"), dtype="<u4").astype(np.uint32)
    load_library().seed_streams(n, n_words, _address(words), _address(streams))
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
    load_library().random_rows(len(streams), k, _address(streams), _address(out))
    return out


def train_lockstep(params, xs: np.ndarray, ts: np.ndarray, epochs: int, streams: np.ndarray,
                   bound: float, window_a: float, eta: float, device=None):
    """Train every realization online, in one compiled call.

    params is a list of arrays with realizations on the leading axis
    (copied, never mutated).  streams is a stream array from
    `seed_streams`, a row per realization, advanced in place; each
    stream is consumed by one permutation per epoch, the draws of
    rng.permutation(samples), and by nothing else.  Increments are
    added, then clamped to [-bound, bound].  Without device the run
    trains the SLP on [weights], (realizations, inputs + 1) with the
    bias weight last, in single pulses: an increment reaching window_a
    raises WindowViolationError for the first one by epoch, sample,
    realization and weight.  The MLP passes its gammas, (realizations,
    n_in, n_out) per layer, then its biases, (realizations, n_out), and
    device as (b_scale, kappa * tau, m', r_off, r_on, d); it writes
    bursts, and ignores window_a.  The layer widths are read from the
    shapes, which must fit xs (ValueError).  A run that cannot allocate
    its histories raises AllocationError, its scratch MemoryError.
    Returns (histories, params), histories being (realizations, epochs)
    of the summed pre-update error.

    The run trains the realizations in lane blocks, 8 wide for the SLP
    and 16 for the MLP, whose code it runs on a copy built for AVX2
    where the CPU has it.  It cuts a wide ensemble into pieces of whole
    lane blocks, which one more thread and the caller take in turn when
    the process may use two CPUs, and the caller alone when it may use
    one (see epoch.c).  The bytes are the same on either copy and on
    any number of CPUs.  After a violation each stream is left where its
    lane block stopped, a block stopping after the sample of the first
    violation its own piece had found so far.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    params, xs, layers = _inputs(params, xs, device)
    n_real, n_samples = len(params[0]), len(xs)
    ts = np.array(ts, dtype=float, order="C")
    if ts.shape != (n_samples,):
        raise ValueError(f"xs {xs.shape}, ts {ts.shape}: need (samples, inputs), (samples,)")
    _check_streams(streams)
    if len(streams) != n_real:
        raise ValueError(f"{n_real} realizations but {len(streams)} streams")
    histories, where, increment = _empty((n_real, epochs)), (_I * 4)(), _F()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    status = load_library().run(
        n_real, n_samples, xs.shape[1], _address(xs), _address(ts), epochs, _address(streams),
        _pointers(params), _address(histories), bound, window_a, where, ctypes.byref(increment), eta,
        *layers, *(device or _NO_DEVICE), cpus)
    if status == 2:
        raise MemoryError("run: cannot allocate its scratch")
    if status == 1:
        epoch, sample, r, weight = where
        raise WindowViolationError(
            f"realization {r}, epoch {epoch + 1}, sample {sample + 1}: increment "
            f"{increment.value!r} to weight {weight} does not fit in window width {window_a}"
        )
    return histories, params


def train_slp_ensemble(params, eta: float, xs: np.ndarray, ts: np.ndarray, epochs: int,
                       streams: np.ndarray, window_a: float = 1.0, weight_bound: float = 10.0):
    """Train one single-layer perceptron per realization, all in one compiled run.

    For a unit with n inputs, one multi-variable memristor holds the n
    input weights and the bias weight.  The output is logistic in the
    weighted input sum shifted by the bias weight, computed in `epoch.c`
    as 1 / (1 + exp(-z)), which is scipy.special.expit bit for bit.
    Weight updates follow the delta rule and are delivered one at a time
    through the device's addressing windows, each as a unit-duration
    write pulse, so the stored weight moves by exactly the requested
    amount (then clamps to +/- weight_bound); every update must fit a
    single pulse (see `train_lockstep`).

    params is [weights], weights being (realizations, n + 1) with the
    bias weight last, the one-output draw `mlp.glorot_layer(n, 1,
    streams)` at the start; streams has one row per realization, consumed
    one permutation per epoch.  The common factor eta * (t - out) * out *
    (1 - out) scales each input component; the bias acts as an always-on
    input of 1.  Returns (histories, [final weights]).
    """
    return train_lockstep(params, xs, ts, epochs, streams, weight_bound, window_a, eta)


def score(params, xs: np.ndarray, device=None) -> np.ndarray:
    """Every realization's outputs on every sample of xs, in one compiled call.

    The forward half of `train_lockstep`'s steps alone, the same float
    operations: params and device are as there, and none is written.  xs
    is (samples, inputs).  A score that cannot allocate its scratch
    raises MemoryError.  Returns (realizations, samples, outputs).
    """
    params, xs, (n_layers, widths) = _inputs(params, xs, device)
    n_real = len(params[0])
    scores = np.empty((n_real, len(xs), widths[n_layers] if n_layers else 1))
    if load_library().score(n_real, len(xs), xs.shape[1], _address(xs), _pointers(params), _address(scores),
                            n_layers, widths, *(device or _NO_DEVICE)) == 2:
        raise MemoryError("score: cannot allocate its scratch")
    return scores
