import numpy as np
import pytest

from logharnack import estimators as E


@pytest.fixture
def ensemble_starts(monkeypatch):
    """(start coordinates..., T) of every ensemble the estimators simulate."""
    calls = []
    inner = E.simulate_ensemble

    def counted(*args, **kwargs):
        calls.append(tuple(np.ravel(args[1])) + (args[2],))
        return inner(*args, **kwargs)

    monkeypatch.setattr(E, "simulate_ensemble", counted)
    return calls
