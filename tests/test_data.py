"""Gate datasets: truth tables, seeding, epoch shuffles, CSV round-trip."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memperceptron.data import (
    Dataset,
    Gate,
    Sample,
    gate_label,
    generate_dataset,
    infer_gate,
    load_samples_csv,
    save_dataset_csv,
)
from memperceptron.train import load_library, seed_streams

from oracles import per_sample_dataset

TRUTH = {
    Gate.OR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    Gate.AND: {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    Gate.XOR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
}


def test_truth_tables():
    for gate, table in TRUTH.items():
        for (x1, x2), label in table.items():
            assert gate_label(gate, x1, x2) == label


def test_gate_label_rejects_non_binary():
    with pytest.raises(ValueError):
        gate_label(Gate.OR, 2, 0)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(x=(0, 2), t=0)
    with pytest.raises(ValueError):
        Sample(x=(0, 1), t=3)


@given(
    gate=st.sampled_from(list(Gate)),
    n=st.integers(1, 50),
    seed=st.integers(0, 2**31),
)
def test_generated_labels_follow_truth_table(gate, n, seed):
    ds = generate_dataset(gate, n, seed)
    assert len(ds) == n
    for s in ds.samples:
        assert s.t == TRUTH[gate][s.x]


def test_generation_is_seed_deterministic():
    a = generate_dataset(Gate.XOR, 40, 7)
    b = generate_dataset(Gate.XOR, 40, 7)
    c = generate_dataset(Gate.XOR, 40, 8)
    assert a.samples == b.samples
    assert a.samples != c.samples


def test_generation_rejects_empty():
    with pytest.raises(ValueError):
        generate_dataset(Gate.OR, 0, 1)


def test_pattern_frequencies_are_roughly_uniform():
    ds = generate_dataset(Gate.OR, 4000, 123)
    counts = {}
    for s in ds.samples:
        counts[s.x] = counts.get(s.x, 0) + 1
    for pattern in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert abs(counts[pattern] / 4000 - 0.25) < 0.05


def presented_order(n, epochs, seed):
    """Sample indices a training run presents, one row per epoch: the
    shuffle it draws from the stream of default_rng(seed)."""
    streams, order = seed_streams(seed, 1), np.empty((epochs, n), dtype=np.int64)
    for row in order:
        load_library().shuffle_rows(1, n, streams.ctypes.data, row.ctypes.data)
    return order


def test_shuffle_preserves_multiset_and_is_seeded():
    order = presented_order(30, 4, 9)
    assert np.array_equal(order, presented_order(30, 4, 9))
    rng = np.random.default_rng(9)
    for row in order:
        assert sorted(row) == list(range(30))  # every sample exactly once
        assert np.array_equal(row, rng.permutation(30))  # one draw per epoch
    assert not np.array_equal(order[0], order[1])


def test_shuffle_singleton():
    assert presented_order(1, 3, 5).tolist() == [[0], [0], [0]]


def test_csv_round_trip(tmp_path):
    ds = generate_dataset(Gate.XOR, 25, 11)
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,label"
    loaded = load_samples_csv(path)
    assert tuple(loaded) == ds.samples


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0\n")
    with pytest.raises(ValueError):
        load_samples_csv(path)


def test_load_rejects_non_binary(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,label\n0,3,1\n")
    with pytest.raises(ValueError):
        load_samples_csv(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2,label\n")
    with pytest.raises(ValueError):
        load_samples_csv(path)


def test_infer_gate():
    for gate in Gate:
        ds = generate_dataset(gate, 50, 3)
        assert infer_gate(ds.samples) is gate
    bad = [Sample((0, 0), 1), Sample((1, 1), 0)]
    with pytest.raises(ValueError):
        infer_gate(bad)


def test_to_arrays():
    ds = Dataset(xs=np.array([[1.0, 0.0], [0.0, 0.0]]), ts=np.array([1.0, 0.0]), gate=Gate.OR)
    xs, ts = ds.to_arrays()
    assert xs.dtype == float and ts.dtype == float
    assert xs.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert ts.tolist() == [1.0, 0.0]
    assert ds.samples == (Sample((1, 0), 1), Sample((0, 0), 0))


@pytest.mark.parametrize("n", [1, 2, 7, 100, 4000])
@pytest.mark.parametrize("gate", list(Gate))
def test_generated_dataset_equals_the_per_sample_oracle(gate, n):
    for seed in (0, 5, 2**32 + 7):
        xs, ts, samples = per_sample_dataset(gate, n, seed)
        ds = generate_dataset(gate, n, seed)
        for got, want in zip(ds.to_arrays(), (xs, ts)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert ds.samples == samples
        assert len(ds) == n


def test_to_arrays_returns_copies_the_caller_may_write():
    ds = generate_dataset(Gate.XOR, 20, 3)
    xs, ts = ds.to_arrays()
    xs[:] = 7.0
    ts[:] = 7.0
    again = ds.to_arrays()
    want = per_sample_dataset(Gate.XOR, 20, 3)[:2]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, want))
