"""Gate datasets: truth tables, seeding, CSV round-trip."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from memperceptron.data import (
    Gate,
    generate_dataset,
    infer_gate,
    load_dataset_csv,
    save_dataset_csv,
)

from oracles import TRUTH, per_sample_dataset


def as_arrays(rows):
    """A {(x1, x2): label} table as the float (xs, ts) the package takes."""
    return np.array(list(rows), dtype=float), np.array(list(rows.values()), dtype=float)


def test_truth_tables():
    # each gate's four rows, written out, name that gate and no earlier one
    for gate, table in TRUTH.items():
        assert infer_gate(*as_arrays(table)) is gate


@given(
    gate=st.sampled_from(list(Gate)),
    n=st.integers(1, 50),
    seed=st.integers(0, 2**31),
)
def test_generated_labels_follow_truth_table(gate, n, seed):
    xs, ts = generate_dataset(gate, n, seed)
    assert xs.shape == (n, 2) and ts.shape == (n,)
    for x, t in zip(xs.astype(int).tolist(), ts.tolist()):
        assert t == TRUTH[gate][tuple(x)]


def test_generation_is_seed_deterministic():
    a = generate_dataset(Gate.XOR, 40, 7)
    b = generate_dataset(Gate.XOR, 40, 7)
    c = generate_dataset(Gate.XOR, 40, 8)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert not np.array_equal(a[0], c[0])


def test_generation_rejects_empty():
    with pytest.raises(ValueError):
        generate_dataset(Gate.OR, 0, 1)


def test_pattern_frequencies_are_roughly_uniform():
    xs, _ = generate_dataset(Gate.OR, 4000, 123)
    patterns, counts = np.unique(xs, axis=0, return_counts=True)
    assert patterns.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert all(abs(c / 4000 - 0.25) < 0.05 for c in counts)


def test_csv_round_trip(tmp_path):
    xs, ts = generate_dataset(Gate.XOR, 25, 11)
    path = tmp_path / "ds.csv"
    save_dataset_csv(xs, ts, path)
    text = path.read_text()
    assert text.splitlines()[0] == "x1,x2,label"
    assert text.splitlines()[1:] == [f"{a:.0f},{b:.0f},{t:.0f}" for (a, b), t in zip(xs, ts)]
    for got, want in zip(load_dataset_csv(path), (xs, ts)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, message", [
    ("0,0\n", "expected 3 fields per row"),
    ("0,0,0,1\n", "expected 3 fields per row"),
    ("0,0.0,0\n", "non-integer field"),
    ("0,x,0\n", "non-integer field"),
])
def test_load_rejects_malformed_rows(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,label\n0,0,0\n" + rows)
    with pytest.raises(ValueError, match=message):
        load_dataset_csv(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,0\n")
    with pytest.raises(ValueError, match="expected header x1,x2,label"):
        load_dataset_csv(path)


def test_load_rejects_non_binary(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,label\n0,3,1\n")
    with pytest.raises(ValueError, match=r"inputs must be binary, got \(0, 3\)"):
        load_dataset_csv(path)


def test_load_rejects_non_binary_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,label\n0,1,1\n0,1,3\n")
    with pytest.raises(ValueError, match="label must be binary, got 3"):
        load_dataset_csv(path)


def test_load_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2,label\n")
    with pytest.raises(ValueError, match="no samples"):
        load_dataset_csv(path)


def test_infer_gate():
    for gate in Gate:
        assert infer_gate(*generate_dataset(gate, 50, 3)) is gate
    # ambiguous rows take the first gate in Gate order: these fit OR and AND, then all three
    for rows in ({(0, 0): 0, (1, 1): 1}, {(0, 0): 0}):
        assert infer_gate(*as_arrays(rows)) is Gate.OR
    with pytest.raises(ValueError, match="match no known gate"):
        infer_gate(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [1, 2, 7, 100, 4000])
@pytest.mark.parametrize("gate", list(Gate))
def test_generated_dataset_equals_the_per_sample_oracle(gate, n):
    for seed in (0, 5, 2**32 + 7):
        for got, want in zip(generate_dataset(gate, n, seed), per_sample_dataset(gate, n, seed)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_generated_arrays_are_fresh_and_writeable():
    xs, ts = generate_dataset(Gate.XOR, 20, 3)
    xs[:] = 7.0
    ts[:] = 7.0
    again = generate_dataset(Gate.XOR, 20, 3)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, per_sample_dataset(Gate.XOR, 20, 3)))
