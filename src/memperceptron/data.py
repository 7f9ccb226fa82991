"""Logic-gate datasets: generation and CSV round-trip.

Inputs are uniform random draws from {0,1}^2 labelled by the gate's truth
table.  Generation is driven by numpy's default generator (PCG64), so a
seed pins the dataset exactly.
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


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    gate: Gate
    seed: int | None = None

    def __len__(self):
        return len(self.samples)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Float arrays (inputs, labels) ready for training loops."""
        xs = np.array([s.x for s in self.samples], dtype=float)
        ts = np.array([s.t for s in self.samples], dtype=float)
        return xs, ts


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


def generate_dataset(gate: Gate, n: int, seed: int) -> Dataset:
    """n samples with inputs drawn uniformly from {0,1}^2."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(n, 2))
    samples = tuple(
        Sample(x=(int(b[0]), int(b[1])), t=gate_label(gate, int(b[0]), int(b[1])))
        for b in bits
    )
    return Dataset(samples=samples, gate=gate, seed=seed)


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
