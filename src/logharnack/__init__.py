"""Numerical verification of coupling-based log-Harnack, gradient and
Harnack inequalities on a catalogue of model Riemannian manifolds."""

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
