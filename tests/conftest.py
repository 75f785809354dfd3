import numpy as np
import pytest
from hypothesis import settings

from logharnack import diffusion as D
from logharnack import estimators as E

# the property tests draw the same examples on every run (a hash of each
# test seeds them, and no example database is replayed), so tier-1 is the
# same run twice
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def _record_ensembles(monkeypatch, modules, entry):
    """Patch simulate_ensemble in ``modules``; every call appends
    entry(args, result) to the returned list."""
    calls = []
    inner = D.simulate_ensemble

    def counted(*args, **kwargs):
        res = inner(*args, **kwargs)
        calls.append(entry(args, res))
        return res

    for module in modules:
        monkeypatch.setattr(module, "simulate_ensemble", counted)
    return calls


@pytest.fixture
def ensemble_starts(monkeypatch):
    """(start coordinates..., T) of every ensemble the estimators simulate."""
    return _record_ensembles(monkeypatch, [E], lambda args, res: tuple(np.ravel(args[1])) + (args[2],))


@pytest.fixture
def ensemble_steps(monkeypatch):
    """(T, number of steps) of every ensemble the estimators and
    ``local_time_profile`` simulate."""
    return _record_ensembles(monkeypatch, [E, D], lambda args, res: (args[2], res["n_steps"]))
