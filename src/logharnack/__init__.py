"""Numerical verification of coupling-based log-Harnack, gradient and
Harnack inequalities on a catalogue of model Riemannian manifolds."""

import numpy as _np

from . import coupling, diffusion, estimators, geometry, local_bounds, verify
from .geometry import (
    Euclidean,
    EuclideanBall,
    ExplosiveDrift1D,
    HalfSpace,
    Hyperbolic,
    ModelSpace,
    OrnsteinUhlenbeck,
    Sphere,
    model_from_config,
)
from .local_bounds import DomainSpec, LocalConstants, ReferenceFunction, cosine_reference
from .stats import MonteCarloEstimate

# glibc malloc maps blocks above its mmap threshold (128 KiB at start)
# and trims the heap top beyond twice that threshold, so the per-step
# temporaries of a path block (BLOCK_SIZE paths x up to 3 coordinates x
# 8 B = 1.2 MB) would fault in fresh pages at every step.  Freeing one
# mapped 4 MiB block raises the dynamic threshold for the whole process;
# under other allocators this is one untouched allocation.
_np.empty(4 << 17)

__version__ = "0.1.0"

__all__ = [
    "coupling",
    "diffusion",
    "estimators",
    "geometry",
    "local_bounds",
    "verify",
    "ModelSpace",
    "Euclidean",
    "OrnsteinUhlenbeck",
    "Sphere",
    "Hyperbolic",
    "HalfSpace",
    "EuclideanBall",
    "ExplosiveDrift1D",
    "model_from_config",
    "DomainSpec",
    "ReferenceFunction",
    "LocalConstants",
    "cosine_reference",
    "MonteCarloEstimate",
    "__version__",
]
