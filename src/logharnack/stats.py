"""Monte Carlo estimate container and deterministic reductions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MonteCarloEstimate", "sample_mean", "estimate_from_values"]


@dataclass
class MonteCarloEstimate:
    """Sample mean with its standard error and provenance."""

    mean: float
    stderr: float
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def __repr__(self):
        return f"{self.mean:.6g} +- {self.stderr:.2g} (n={self.n})"


def sample_mean(values: np.ndarray) -> float:
    """The mean that ``estimate_from_values`` reports, without its
    standard-error temporaries."""
    values = np.asarray(values, dtype=float)
    return float(np.sum(values) / values.size)


def estimate_from_values(values: np.ndarray, seed: int = 0) -> MonteCarloEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = sample_mean(values)
    if n > 1:
        var = float(np.sum((values - mean) ** 2) / (n - 1))
        stderr = math.sqrt(var / n)
    else:
        stderr = math.nan
    return MonteCarloEstimate(mean=mean, stderr=stderr, n=n, seed=seed)
