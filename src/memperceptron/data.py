"""Logic-gate datasets: generation and CSV round-trip.

Inputs are uniform random draws from {0,1}^2 labelled by the gate's truth
table.  Generation is driven by numpy's default generator (PCG64), so a
seed pins the dataset exactly.  A dataset is two float arrays, inputs xs
(n, 2) and labels ts (n,), from the draw through the CSV and back;
`_GATE_OPS` is the one truth table, which labels a draw and names the
gate of a loaded file.
"""

from __future__ import annotations

import csv
import enum

import numpy as np


class Gate(enum.Enum):
    OR = "OR"
    AND = "AND"
    XOR = "XOR"


_GATE_OPS = {Gate.OR: np.bitwise_or, Gate.AND: np.bitwise_and, Gate.XOR: np.bitwise_xor}


def generate_dataset(gate: Gate, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float (xs, ts) of n samples with inputs drawn uniformly from {0,1}^2."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    if gate not in _GATE_OPS:
        raise ValueError(f"unknown gate {gate!r}")
    bits = np.random.default_rng(seed).integers(0, 2, size=(n, 2))
    return bits.astype(float), _GATE_OPS[gate](bits[:, 0], bits[:, 1]).astype(float)


def save_dataset_csv(xs: np.ndarray, ts: np.ndarray, path) -> None:
    """Write x1,x2,label rows of integers."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "label"])
        writer.writerows(np.column_stack((xs, ts)).astype(np.int64).tolist())


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read x1,x2,label rows back as float (xs, ts); every field must be a binary integer."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x1", "x2", "label"]:
            raise ValueError(f"expected header x1,x2,label, got {header}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"expected 3 fields per row, got {row}")
            try:
                x1, x2, t = (int(v) for v in row)
            except ValueError as exc:
                raise ValueError(f"non-integer field in row {row}") from exc
            if x1 not in (0, 1) or x2 not in (0, 1):
                raise ValueError(f"inputs must be binary, got {(x1, x2)}")
            if t not in (0, 1):
                raise ValueError(f"label must be binary, got {t}")
            rows.append((x1, x2, t))
    if not rows:
        raise ValueError("dataset file contains no samples")
    table = np.array(rows, dtype=float)
    return table[:, :2].copy(), table[:, 2].copy()


def infer_gate(xs: np.ndarray, ts: np.ndarray) -> Gate:
    """The first gate, in Gate order, whose truth table labels xs as ts; error if none does."""
    bits = np.asarray(xs, dtype=np.int64)
    for gate in Gate:
        if np.array_equal(_GATE_OPS[gate](bits[:, 0], bits[:, 1]), ts):
            return gate
    raise ValueError("labels match no known gate truth table")
