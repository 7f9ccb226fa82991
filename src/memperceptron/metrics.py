"""ROC rates and AUC, and the CSV files of learning curves and ROC runs.

A learning curve is two arrays, the per-epoch mean and standard deviation
of E_total over the realizations; ROC rates are two arrays, the true- and
false-positive rates at each threshold in the order given.
"""

from __future__ import annotations

import csv

import numpy as np


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


def roc_points(scores, labels, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """Classify positive iff score >= threshold: (tprs, fprs), one rate per threshold."""
    pos, neg = _split_scores(scores, labels)
    tprs = np.array([np.count_nonzero(pos >= thr) for thr in thresholds]) / len(pos)
    fprs = np.array([np.count_nonzero(neg >= thr) for thr in thresholds]) / len(neg)
    return tprs, fprs


def auc(scores, labels) -> float:
    """Area under the full ROC sweep, trapezoidal over distinct cutoffs.

    Tied scores move along both axes in one step, so the value equals the
    probability that a random positive outranks a random negative, ties
    counting one half.
    """
    tprs, fprs = roc_points(scores, labels, np.unique(np.asarray(scores, dtype=float))[::-1])
    tprs, fprs = np.concatenate(([0.0], tprs)), np.concatenate(([0.0], fprs))
    # cumsum adds the trapezoids left to right, where sum would add them pairwise
    return float(np.cumsum(0.5 * (tprs[1:] + tprs[:-1]) * (fprs[1:] - fprs[:-1]))[-1])


def write_curve_csv(path, means: np.ndarray, stds: np.ndarray) -> None:
    """One epoch,mean_e_total,std_e_total row per epoch, epochs 1-based."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "mean_e_total", "std_e_total"])
        for epoch, (mean, std) in enumerate(zip(means.tolist(), stds.tolist()), 1):
            writer.writerow([epoch, repr(mean), repr(std)])


def write_roc_csv(path, thresholds, tprs: np.ndarray, fprs: np.ndarray, auc_value: float) -> None:
    """Threshold rows followed by one summary line `auc,<value>,`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "tpr", "fpr"])
        for thr, tpr, fpr in zip(thresholds, tprs.tolist(), fprs.tolist()):
            writer.writerow([repr(float(thr)), repr(tpr), repr(fpr)])
        writer.writerow(["auc", repr(float(auc_value)), ""])
