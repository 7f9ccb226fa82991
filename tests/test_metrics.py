"""ROC metrics against hand values and a pairwise-count oracle; CSV round trips."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from memperceptron.metrics import (
    EpochRecord,
    RocPoint,
    auc,
    read_curve_csv,
    read_roc_csv,
    roc_points,
    write_curve_csv,
    write_roc_csv,
)

from oracles import pairwise_auc


def test_roc_perfect_separation():
    scores = [0.9, 0.8, 0.1, 0.2]
    labels = [1, 1, 0, 0]
    (p,) = roc_points(scores, labels, [0.5])
    assert (p.fpr, p.tpr) == (0.0, 1.0)


def test_roc_constant_scores():
    (p,) = roc_points([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], [0.3])
    assert (p.fpr, p.tpr) == (1.0, 1.0)


def test_roc_scores_equal_labels():
    pts = roc_points([1.0, 0.0, 1.0, 0.0], [1, 0, 1, 0], [0.3, 0.5, 0.7])
    for p in pts:
        assert (p.fpr, p.tpr) == (0.0, 1.0)


def test_roc_single_class_is_an_error():
    with pytest.raises(ValueError):
        roc_points([0.2, 0.4], [1, 1], [0.5])
    with pytest.raises(ValueError):
        auc([0.2, 0.4], [0, 0])


@given(
    scores=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=40),
    data=st.data(),
)
def test_roc_rates_grow_as_threshold_drops(scores, data):
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
    )
    assume(0 < sum(labels) < len(labels))
    pts = roc_points(scores, labels, [0.8, 0.5, 0.2])
    for lo, hi in zip(pts, pts[1:]):
        assert hi.tpr >= lo.tpr
        assert hi.fpr >= lo.fpr


def test_auc_extremes():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_uninformative_scores_near_half():
    rng = np.random.default_rng(77)
    scores = rng.random(4000)
    labels = rng.integers(0, 2, 4000)
    assert abs(auc(scores, labels) - 0.5) < 0.1


@given(
    scores=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=25),
    data=st.data(),
)
def test_auc_matches_pairwise_ranking_probability(scores, data):
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
    )
    assume(0 < sum(labels) < len(labels))
    assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


@given(
    grid=st.lists(st.integers(-48, 48), min_size=4, max_size=25),
    data=st.data(),
    scale=st.floats(0.1, 5.0),
    shift=st.floats(-2.0, 2.0),
)
def test_auc_invariant_under_increasing_transforms(grid, data, scale, shift):
    # Scores on a coarse grid so the affine map cannot create or destroy
    # ties through rounding.
    scores = [k / 16.0 for k in grid]
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
    )
    assume(0 < sum(labels) < len(labels))
    base = auc(scores, labels)
    affine = [scale * s + shift for s in scores]
    assert auc(affine, labels) == pytest.approx(base, abs=1e-9)


def test_curve_csv_round_trip(tmp_path):
    records = [EpochRecord(1, 12.25, 0.5), EpochRecord(2, 3.125, 0.25)]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, records)
    assert path.read_text().splitlines()[0] == "epoch,mean_e_total,std_e_total"
    assert read_curve_csv(path) == records


def test_roc_csv_round_trip(tmp_path):
    points = [RocPoint(0.3, 1.0, 0.0), RocPoint(0.5, 1.0, 0.0), RocPoint(0.7, 0.96, 0.0)]
    path = tmp_path / "roc.csv"
    write_roc_csv(path, points, 0.98)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,tpr,fpr"
    assert lines[-1].startswith("auc,")
    loaded, auc_value = read_roc_csv(path)
    assert loaded == points
    assert auc_value == 0.98


def test_roc_csv_requires_auc_line(tmp_path):
    path = tmp_path / "roc.csv"
    path.write_text("threshold,tpr,fpr\n0.5,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_roc_csv(path)
