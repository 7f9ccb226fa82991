"""Logic-gate datasets: generation and CSV round-trip.

Inputs are uniform random draws from {0,1}^2 labelled by the gate's truth
table.  Generation is driven by numpy's default generator (PCG64), so a
seed pins the dataset exactly.  A dataset is drawn and labelled as arrays;
`Sample` and `gate_label` are the per-row spec it is held to, and the
validation of rows read back from CSV.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np


class Gate(enum.Enum):
    OR = "OR"
    AND = "AND"
    XOR = "XOR"


@dataclass(frozen=True)
class Sample:
    """One labelled input pattern; components and label are binary."""

    x: tuple[int, ...]
    t: int

    def __post_init__(self):
        if any(v not in (0, 1) for v in self.x):
            raise ValueError(f"inputs must be binary, got {self.x}")
        if self.t not in (0, 1):
            raise ValueError(f"label must be binary, got {self.t}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Float inputs xs (n, 2) and labels ts (n,) of one gate draw."""

    xs: np.ndarray
    ts: np.ndarray
    gate: Gate
    seed: int | None = None

    def __len__(self):
        return len(self.ts)

    @property
    def samples(self) -> tuple[Sample, ...]:
        """The rows as validated Samples, built on each access."""
        xs, ts = self.xs.astype(np.int64).tolist(), self.ts.astype(np.int64).tolist()
        return tuple(Sample(x=tuple(x), t=t) for x, t in zip(xs, ts))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Fresh copies of (inputs, labels), which the caller may write."""
        return self.xs.copy(), self.ts.copy()


def gate_label(gate: Gate, x1: int, x2: int) -> int:
    if x1 not in (0, 1) or x2 not in (0, 1):
        raise ValueError(f"inputs must be binary, got ({x1}, {x2})")
    if gate is Gate.OR:
        return x1 | x2
    if gate is Gate.AND:
        return x1 & x2
    if gate is Gate.XOR:
        return x1 ^ x2
    raise ValueError(f"unknown gate {gate!r}")


_GATE_OPS = {Gate.OR: np.bitwise_or, Gate.AND: np.bitwise_and, Gate.XOR: np.bitwise_xor}


def generate_dataset(gate: Gate, n: int, seed: int) -> Dataset:
    """n samples with inputs drawn uniformly from {0,1}^2."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    if gate not in _GATE_OPS:
        raise ValueError(f"unknown gate {gate!r}")
    bits = np.random.default_rng(seed).integers(0, 2, size=(n, 2))
    ts = _GATE_OPS[gate](bits[:, 0], bits[:, 1])
    return Dataset(xs=bits.astype(float), ts=ts.astype(float), gate=gate, seed=seed)


def save_dataset_csv(dataset: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x1", "x2", "label"])
        for s in dataset.samples:
            writer.writerow([s.x[0], s.x[1], s.t])


def load_samples_csv(path) -> list[Sample]:
    """Read x1,x2,label rows back; every field must be a binary integer."""
    samples = []
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
            samples.append(Sample(x=(x1, x2), t=t))
    if not samples:
        raise ValueError("dataset file contains no samples")
    return samples


def infer_gate(samples) -> Gate:
    """Which gate's truth table labels these samples; error if none do."""
    for gate in Gate:
        if all(s.t == gate_label(gate, s.x[0], s.x[1]) for s in samples):
            return gate
    raise ValueError("labels match no known gate truth table")
