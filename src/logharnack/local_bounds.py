"""Local geometry constants over bounded domains.

Provides the pointwise curvature bound K, its supremum over a domain and
over enlarged domains, the cosine reference function phi = cos(pi rho(y,
.) / 2r) on the ball D = B(y, r), the constant c_D(phi) = sup_D
{5|grad phi|^2 - phi L phi}, the assembled constant kappa(y) that
dominates c_D, and the log-Harnack bound ``log_harnack_rhs`` built from
them, which the checkers and the coupling share.

phi is the only reference function: it is positive inside D and vanishes
on the boundary of D by construction, and N phi >= 0 holds on the convex
boundaries of the catalogue.  Being radial, it makes c_D a maximum over
rho along one ray from y (see ``c_D``), computed to rounding error.

``c_D`` keeps a per-process memo, so each (model, y, r) is computed
once.  Its key is the model's class and full record (``to_config``), the
bytes of y and r: never ``id(M)``, which Python reuses once a model is
freed.  A lock guards it, because the CLI's pool threads share a model.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INJ_MARGIN,
    EuclideanBall,
    GeometryError,
    HalfSpace,
    ModelSpace,
    _arr,
)

__all__ = [
    "DomainSpec",
    "ReferenceFunction",
    "LocalConstants",
    "harnack_rate",
    "entropy_gain",
    "log_harnack_rate",
    "log_harnack_rhs",
    "K_of_domain",
    "enlarged_K",
    "c_D",
    "cosine_reference",
    "kappa",
]

K_ZERO_TOL = 1e-8


# ----------------------------------------------------------------------
# K-dependent rate expressions with their K -> 0 limits
# ----------------------------------------------------------------------


def harnack_rate(K: float, T: float) -> float:
    """K / (1 - exp(-2 K T)), continued by 1/(2T) through K = 0.

    Positive for every real K and T > 0.  Where exp(-2 K T) would
    overflow, 1 - exp(-2 K T) is -exp(-2 K T) to double precision, so the
    rate is -K exp(2 K T), which may underflow to 0.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if abs(K) < K_ZERO_TOL:
        return 1.0 / (2.0 * T)
    if -2.0 * K * T > 700.0:
        return -K * math.exp(2.0 * K * T)
    return K / (1.0 - math.exp(-2.0 * K * T))


def entropy_gain(K: float, T: float) -> float:
    """(exp(2 K T) - 1) / (2 K), continued by T through K = 0.

    Saturates to inf instead of overflowing for extreme K T (a bound of
    +inf holds trivially and keeps margin arithmetic well defined).
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if abs(K) < K_ZERO_TOL:
        return T
    if 2.0 * K * T > 700.0:
        return math.inf
    return (math.exp(2.0 * K * T) - 1.0) / (2.0 * K)


def log_harnack_rate(K: float, T: float, c: float, phi: float = 1.0) -> float:
    """K/(1-e^{-2KT}) + c^2 (e^{2KT}-1) / (2 K phi^4): the factor of
    rho^2/2 in the log-Harnack bound, with the continuous K -> 0 limits."""
    return harnack_rate(K, T) + c**2 * entropy_gain(K, T) / phi**4


def log_harnack_rhs(rho: float, K: float, T: float, c: float) -> float:
    """The log-Harnack bound rho^2/2 log_harnack_rate(K, T, c) at phi = 1:
    c is c_D(phi) in the theorem form, kappa(y) in the local form."""
    return 0.5 * rho**2 * log_harnack_rate(K, T, c)


# ----------------------------------------------------------------------
# Domains
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Open metric ball D = B(center, radius)."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:  # NaN too: checkers rely on c in B(c, r)
            raise ValueError("radius must be > 0")

    def validate(self, M: ModelSpace):
        if self.radius >= M.injectivity_radius:
            raise GeometryError("domain radius must stay below the injectivity radius")

    def contains(self, M: ModelSpace, pts) -> np.ndarray:
        return M.distance(self.center, pts) < self.radius

    def enlarged(self, r: float) -> "DomainSpec":
        """The r-enlargement; for a metric ball this is radius + r."""
        return DomainSpec(self.center, self.radius + r)


# ----------------------------------------------------------------------
# Pointwise and domain-level curvature bounds
# ----------------------------------------------------------------------


def K_of_domain(M: ModelSpace, D: DomainSpec) -> float:
    """sup of pointwise_K over D, in the closed form every variant has."""
    D.validate(M)
    return float(M.sup_pointwise_K_ball(D.center, D.radius))


def enlarged_K(M: ModelSpace, x, y, D: DomainSpec) -> float:
    """K over the enlargement of D by the distance between x and y."""
    rho = float(M.distance(_arr(x), _arr(y)))
    return K_of_domain(M, D.enlarged(rho))


# ----------------------------------------------------------------------
# The cosine reference function and c_D
# ----------------------------------------------------------------------


def _cosine(rho, radius: float):
    """The cosine profile cos(pi rho / (2 radius)) at distances rho."""
    a = 0.5 * np.pi / radius
    return np.cos(a * rho)


@dataclass(frozen=True)
class ReferenceFunction:
    """phi(z) = cos(a rho(y, z)), a = pi / (2 r), on D = B(y, r) with
    y = domain.center and r = domain.radius; built by ``cosine_reference``.

    ``phi``, ``grad_norm_sq`` and ``l_phi`` evaluate the function, the
    square of its Riemannian gradient norm and the generator applied to
    it on point arrays.  All three are exact: |grad phi| = a sin(a rho)
    and L phi uses the model-space value of the radial Laplacian plus the
    drift term.
    """

    M: ModelSpace
    domain: DomainSpec

    def __post_init__(self):
        if self.M.injectivity_radius <= self.domain.radius / INJ_MARGIN:
            raise GeometryError("cosine reference needs injectivity radius beyond the ball")

    def phi(self, z):
        return _cosine(self.M.distance(self.domain.center, z), self.domain.radius)

    def grad_norm_sq(self, z):
        a = 0.5 * np.pi / self.domain.radius
        return a**2 * np.sin(a * self.M.distance(self.domain.center, z)) ** 2

    def l_phi(self, z):
        M, y, radius = self.M, self.domain.center, self.domain.radius
        a = 0.5 * np.pi / radius
        z = np.asarray(z, dtype=float)
        rho = M.distance(y, z)
        # sin(a rho) * (Laplacian of rho), stable through rho = 0 where
        # every catalogue variant has the limit (d-1) a.
        sin_lap = np.full_like(rho, (M.dim - 1) * a)
        ok = rho > 1e-8
        if np.any(ok):
            with np.errstate(divide="ignore", invalid="ignore"):
                lap = M.radial_laplacian(y, z)
            sin_lap = np.where(ok, np.sin(a * rho) * np.where(ok, lap, 0.0), sin_lap)
        val = -(a**2) * _cosine(rho, radius) - a * sin_lap
        if np.any(M.drift(z)):
            ok = rho > 1e-12
            zs = z[ok] if z.ndim > 1 else z
            radial = np.zeros_like(rho)
            if np.any(ok):
                gd = M.grad_distance(np.broadcast_to(y, zs.shape), zs)
                radial[ok] = M.inner(zs, M.drift(zs), gd)
            val = val - a * np.sin(a * rho) * radial
        return val


def cosine_reference(M: ModelSpace, y, radius: float = 1.0) -> ReferenceFunction:
    """phi(z) = cos(pi rho(y, z) / (2 radius)) on the ball B(y, radius)."""
    return ReferenceFunction(M, DomainSpec(y, radius))


def _ray(M: ModelSpace, y, radius: float):
    """Unit direction u at y and the length rho_max of the ray
    exp_y(s u), 0 <= s <= rho_max, on which c_D's objective is largest
    at every s.

    The objective depends on z only through rho(y, z) and the drift term
    <Z, grad rho>(z), which the direction of Z(y) maximises on the
    catalogue (constant drift b; OU toward 0; x^3 along sign y); with no
    drift at y any direction does.  On a boundary variant the ray must
    also reach as far as D meets M: the inward normal on the half-space,
    the diameter through the centre of the ball.  Any other boundary,
    a subclass of these two included, has no ray here and is refused.
    """
    if type(M) is HalfSpace:
        return np.eye(M.chart_dim)[0], radius
    if type(M) is EuclideanBall:
        n = float(np.linalg.norm(y))
        return (-y / n if n > 0 else M.frame(y)[0]), min(radius, M.radius + n)
    if M.has_boundary:
        raise ValueError(f"c_D has no ray for the boundary of variant {M.variant!r}")
    z = M.drift(y)
    n = float(M.norm(y, z))
    return (z / n if n > 0 else M.frame(y)[0]), radius


_C_D_LOCK = threading.Lock()
_C_D_MEMO: dict = {}


def c_D(M: ModelSpace, ref: ReferenceFunction) -> float:
    """c_D(phi) = sup_D {5 |grad phi|^2 - phi L phi}, floored at 0.

    Computed once per process for each (model record, y, r) and read
    from a memo after that; see ``_c_D_sup``.
    """
    if ref.M is not M:
        raise ValueError("ref must be built on M")
    key = (type(M), repr(M.to_config()), ref.domain.center.tobytes(), ref.domain.radius)
    # the CLI's pool threads share models: one lock, so each key is
    # computed once
    with _C_D_LOCK:
        if key not in _C_D_MEMO:
            _C_D_MEMO[key] = _c_D_sup(M, ref)
        return _C_D_MEMO[key]


def _c_D_sup(M: ModelSpace, ref: ReferenceFunction) -> float:
    """c_D(phi) computed afresh.

    With sin, cos = sin(a rho), cos(a rho) >= 0 on D the objective is
    a^2 (5 sin^2 + cos^2) + a sin cos (Laplacian of rho + <Z, grad rho>);
    the Laplacian of rho depends on rho alone on the catalogue, so the
    supremum is the maximum over rho along ``_ray``, end point included.
    It is found on a 1025-point grid followed by six 65-point zooms
    around the best point, each 32 times finer.
    """
    y = ref.domain.center
    u, rho_max = _ray(M, y, ref.domain.radius)

    def objective(rho):
        z = M.exp(np.broadcast_to(y, (len(rho), M.chart_dim)), rho[:, None] * u)
        return 5.0 * ref.grad_norm_sq(z) - ref.phi(z) * ref.l_phi(z)

    rho = np.linspace(0.0, rho_max, 1025)
    best, best_rho = -math.inf, 0.0
    for _ in range(7):
        vals = objective(rho)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_rho = float(vals[i]), float(rho[i])
        step = rho[1] - rho[0]
        rho = np.linspace(max(best_rho - step, 0.0), min(best_rho + step, rho_max), 65)
    return max(0.0, best)


# ----------------------------------------------------------------------
# Assembled constants
# ----------------------------------------------------------------------


@dataclass
class LocalConstants:
    """Constants attached to an inequality check for provenance."""

    K_D: float = math.nan
    K_D_rho: float = math.nan
    c_D_phi: float = math.nan
    kappa_y: float = math.nan
    K_y: float = math.nan
    K_y0: float = math.nan
    b_y: float = math.nan
    K_xy: float = math.nan

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if not math.isnan(v)}


def kappa(M: ModelSpace, y, x=None) -> LocalConstants:
    """kappa(y) = K_y + pi^2 (d+3)/4 + pi (b_y + sqrt(K_y^0 (d-1)) / 2)
    together with its ingredients; K_xy is filled when x is given."""
    if M.injectivity_radius <= 1.0 / INJ_MARGIN:
        raise GeometryError("kappa needs injectivity radius > 1")
    y = np.asarray(y, dtype=float)
    unit_ball = DomainSpec(y, 1.0)
    K_y = max(0.0, K_of_domain(M, unit_ball))
    # -Ric is constant on every catalogue variant, so the sup over the
    # unit ball is the pointwise value.
    K_y0 = max(0.0, float(M.max_neg_ricci(y)))
    b_y = float(M.sup_drift_norm_ball(y, 1.0))
    d = M.dim
    kap = K_y + np.pi**2 * (d + 3) / 4 + np.pi * (b_y + 0.5 * math.sqrt(K_y0 * (d - 1)))
    out = LocalConstants(kappa_y=float(kap), K_y=K_y, K_y0=K_y0, b_y=b_y)
    if x is not None:
        rho = float(M.distance(np.asarray(x, dtype=float), y))
        out.K_xy = K_of_domain(M, DomainSpec(y, 1.0 + rho))
    return out
