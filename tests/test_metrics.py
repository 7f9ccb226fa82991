"""ROC metrics against hand values and a pairwise-count oracle; CSV round trips."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from memperceptron.metrics import auc, roc_points, write_curve_csv, write_roc_csv

from oracles import pairwise_auc, read_curve_csv, read_roc_csv, sweep_auc_loop


def test_roc_perfect_separation():
    scores = [0.9, 0.8, 0.1, 0.2]
    labels = [1, 1, 0, 0]
    tprs, fprs = roc_points(scores, labels, [0.5])
    assert (fprs.tolist(), tprs.tolist()) == ([0.0], [1.0])


def test_roc_constant_scores():
    tprs, fprs = roc_points([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], [0.3])
    assert (fprs.tolist(), tprs.tolist()) == ([1.0], [1.0])


def test_roc_scores_equal_labels():
    tprs, fprs = roc_points([1.0, 0.0, 1.0, 0.0], [1, 0, 1, 0], [0.3, 0.5, 0.7])
    for tpr, fpr in zip(tprs, fprs, strict=True):
        assert (fpr, tpr) == (0.0, 1.0)


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
    tprs, fprs = roc_points(scores, labels, [0.8, 0.5, 0.2])
    assert len(tprs) == len(fprs) == 3
    for rates in (tprs, fprs):
        for lo, hi in zip(rates, rates[1:]):
            assert hi >= lo


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
    scores=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=60),
    data=st.data(),
)
def test_auc_equals_the_trapezoid_loop_bit_for_bit(scores, data):
    # the trapezoids are added left to right, so the float is the loop's
    labels = data.draw(
        st.lists(st.integers(0, 1), min_size=len(scores), max_size=len(scores))
    )
    assume(0 < sum(labels) < len(labels))
    assert auc(scores, labels) == sweep_auc_loop(scores, labels)


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
    means, stds = np.array([12.25, 3.125]), np.array([0.5, 0.25])
    path = tmp_path / "curve.csv"
    write_curve_csv(path, means, stds)
    assert path.read_text().splitlines()[0] == "epoch,mean_e_total,std_e_total"
    epochs, read_means, read_stds = read_curve_csv(path)
    assert (epochs.tolist(), read_means.tolist(), read_stds.tolist()) == ([1, 2], means.tolist(), stds.tolist())


def test_roc_csv_round_trip(tmp_path):
    thresholds, tprs, fprs = (0.3, 0.5, 0.7), np.array([1.0, 1.0, 0.96]), np.array([0.0, 0.0, 0.0])
    path = tmp_path / "roc.csv"
    write_roc_csv(path, thresholds, tprs, fprs, 0.98)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,tpr,fpr"
    assert lines[-1].startswith("auc,")
    read_thresholds, read_tprs, read_fprs, auc_value = read_roc_csv(path)
    assert read_thresholds.tolist() == list(thresholds)
    assert (read_tprs.tolist(), read_fprs.tolist()) == (tprs.tolist(), fprs.tolist())
    assert auc_value == 0.98


def test_roc_csv_requires_auc_line(tmp_path):
    path = tmp_path / "roc.csv"
    path.write_text("threshold,tpr,fpr\n0.5,1.0,0.0\n")
    with pytest.raises(ValueError):
        read_roc_csv(path)
