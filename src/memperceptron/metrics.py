"""Learning-curve records and ROC statistics, plus their CSV serialisations."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EpochRecord:
    """Aggregated epoch-summed cost across realizations."""

    epoch: int
    mean_e_total: float
    std_e_total: float


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    tpr: float
    fpr: float


def _split_scores(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError(f"shape mismatch {scores.shape} vs {labels.shape}")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both positive and negative labels for ROC rates")
    return pos, neg


def roc_points(scores, labels, thresholds) -> list[RocPoint]:
    """Classify positive iff score >= threshold; rates per threshold."""
    pos, neg = _split_scores(scores, labels)
    points = []
    for thr in thresholds:
        tpr = float(np.count_nonzero(pos >= thr)) / len(pos)
        fpr = float(np.count_nonzero(neg >= thr)) / len(neg)
        points.append(RocPoint(threshold=float(thr), tpr=tpr, fpr=fpr))
    return points


def auc(scores, labels) -> float:
    """Area under the full ROC sweep, trapezoidal over distinct cutoffs.

    Tied scores move along both axes in one step, so the value equals the
    probability that a random positive outranks a random negative, ties
    counting one half.
    """
    pos, neg = _split_scores(scores, labels)
    scores = np.asarray(scores, dtype=float)
    cutoffs = np.unique(scores)[::-1]
    tprs = [0.0]
    fprs = [0.0]
    for c in cutoffs:
        tprs.append(float(np.count_nonzero(pos >= c)) / len(pos))
        fprs.append(float(np.count_nonzero(neg >= c)) / len(neg))
    area = 0.0
    for k in range(1, len(tprs)):
        area += 0.5 * (tprs[k] + tprs[k - 1]) * (fprs[k] - fprs[k - 1])
    return area


def write_curve_csv(path, records: list[EpochRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "mean_e_total", "std_e_total"])
        for rec in records:
            writer.writerow([rec.epoch, repr(float(rec.mean_e_total)), repr(float(rec.std_e_total))])


def read_curve_csv(path) -> list[EpochRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["epoch", "mean_e_total", "std_e_total"]:
            raise ValueError(f"expected header epoch,mean_e_total,std_e_total, got {header}")
        for row in reader:
            records.append(EpochRecord(int(row[0]), float(row[1]), float(row[2])))
    return records


def write_roc_csv(path, points: list[RocPoint], auc_value: float) -> None:
    """Threshold rows followed by one summary line `auc,<value>,`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "tpr", "fpr"])
        for p in points:
            writer.writerow([repr(float(p.threshold)), repr(float(p.tpr)), repr(float(p.fpr))])
        writer.writerow(["auc", repr(float(auc_value)), ""])


def read_roc_csv(path) -> tuple[list[RocPoint], float]:
    points = []
    auc_value = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["threshold", "tpr", "fpr"]:
            raise ValueError(f"expected header threshold,tpr,fpr, got {header}")
        for row in reader:
            if row[0] == "auc":
                auc_value = float(row[1])
            else:
                points.append(RocPoint(float(row[0]), float(row[1]), float(row[2])))
    if auc_value is None:
        raise ValueError("roc file is missing its auc line")
    return points, auc_value
