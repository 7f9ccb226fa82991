"""Fixtures shared by the test modules."""

import pytest

from memperceptron import train


@pytest.fixture(params=["compiled", "numpy"])
def engine(request, monkeypatch):
    """Each training engine in turn: the default loader, which gives the
    compiled kernel whenever it builds, and numpy, picked by a loader that
    finds no library."""
    if request.param == "numpy":
        monkeypatch.setattr(train, "load_library", lambda: None)
    return request.param
