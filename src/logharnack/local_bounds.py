"""Local geometry constants over bounded domains.

Provides the pointwise curvature bound K, its supremum over a domain and
over enlarged domains, the reference-function class on a ball (positive
inside, vanishing on the inner boundary, nonnegative normal derivative on
the manifold boundary), the constant c_D(phi) = sup_D {5|grad phi|^2 -
phi L phi}, the cosine reference function, and the assembled constant
kappa(y) that dominates c_D for the cosine choice.

Suprema are taken by low-discrepancy sampling with local refinement; a
re-check at four times the resolution is reported alongside the value.
The Sobol' points come from the private kernel ``_sobol``, which is bit
for bit the set ``scipy.stats.qmc.Sobol(d, scramble=..., seed=seed)
.random_base2(m)`` gives with its default 30 bits (pinned in
``tests/test_local_bounds.py``), so the runtime needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    EuclideanBall,
    GeometryError,
    HalfSpace,
    ModelSpace,
    _arr,
)

__all__ = [
    "ClassViolation",
    "DomainSpec",
    "ReferenceFunction",
    "LocalConstants",
    "SupremumResult",
    "harnack_rate",
    "entropy_gain",
    "log_harnack_rate",
    "domain_supremum",
    "K_of_domain",
    "enlarged_K",
    "c_D",
    "c_D_detail",
    "cosine_reference",
    "kappa",
    "validate_reference",
]

K_ZERO_TOL = 1e-8


class ClassViolation(ValueError):
    """A candidate reference function fails the class membership check."""


# ----------------------------------------------------------------------
# K-dependent rate expressions with their K -> 0 limits
# ----------------------------------------------------------------------


def harnack_rate(K: float, T: float) -> float:
    """K / (1 - exp(-2 K T)), continued by 1/(2T) through K = 0.

    Positive for every real K and T > 0.
    """
    if T <= 0:
        raise ValueError("T must be > 0")
    if abs(K) < K_ZERO_TOL:
        return 1.0 / (2.0 * T)
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


# ----------------------------------------------------------------------
# Domains and sampling
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Open metric ball D = B(center, radius) with a sampling budget."""

    center: np.ndarray
    radius: float
    sample_resolution: int = 4096

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not self.radius > 0:  # NaN too: checkers rely on c in B(c, r)
            raise ValueError("radius must be > 0")
        if self.sample_resolution < 1000:
            raise ValueError("sample_resolution must be >= 1000")

    def validate(self, M: ModelSpace):
        if self.radius >= M.injectivity_radius:
            raise GeometryError("domain radius must stay below the injectivity radius")

    def contains(self, M: ModelSpace, pts) -> np.ndarray:
        return M.distance(self.center, pts) < self.radius

    def enlarged(self, r: float) -> "DomainSpec":
        """The r-enlargement; for a metric ball this is radius + r."""
        return DomainSpec(self.center, self.radius + r, self.sample_resolution)


_SOBOL_BITS = 30


def _sobol_directions():
    """Direction numbers of Sobol' dimensions 1-3 (primitive polynomials
    1, 3, 7 with initial numbers (1), (1), (1, 3)) as 30-bit integers."""
    v = np.ones((3, _SOBOL_BITS), dtype=np.int64)
    v[2, 1] = 3
    for j in range(1, _SOBOL_BITS):
        v[1, j] = v[1, j - 1] ^ (v[1, j - 1] << 1)
        if j >= 2:
            v[2, j] = v[2, j - 2] ^ (v[2, j - 1] << 1) ^ (v[2, j - 2] << 2)
    return (v << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))).astype(np.uint32)


_SOBOL_V = _sobol_directions()


def _sobol(d: int, m: int, seed: int = 0) -> np.ndarray:
    """The first 2^m Sobol' points in [0, 1)^d, d <= 3.

    seed=0 gives the plain sequence; another seed scrambles it (linear
    matrix scrambling plus a digital shift, both drawn from
    ``np.random.default_rng(seed)``).  Points come in Gray-code order.
    """
    v, shift = _SOBOL_V[:d], np.zeros(d, dtype=np.uint32)
    if seed:
        rng = np.random.default_rng(seed)
        bit = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # top bit first
        shift = rng.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ (1 << bit[::-1])
        ltm = np.tril(rng.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
        ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
        v_bits = (v[:, :, None] >> bit) & 1  # (d, column, bit)
        v = ((v_bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << bit)
    q = shift[None, :]
    for c in range(m):
        q = np.concatenate([q, q[::-1] ^ v[:, c]])
    return q * (1.0 / 2**_SOBOL_BITS)


def _tangent_ball_samples(M: ModelSpace, center, radius, n, skip=0):
    """Quasi-random tangent vectors of length < radius at center.

    skip=0 gives the plain Sobol set; other values give deterministic
    scrambled variants for refinement rounds.  Covers d <= 3.
    """
    d = M.dim
    if d > 3:
        raise GeometryError(f"ball sampling covers d <= 3, got d = {d}")
    m = max(4, math.ceil(math.log2(max(n, 2))))
    u = _sobol(d, m, skip)[:n]
    frame = M.frame(np.asarray(center, dtype=float))
    if d == 1:
        s = (2.0 * u[:, 0] - 1.0) * radius
        return s[:, None] * frame[0]
    if d == 3:
        # volume-uniform spherical map: cube-root radius, uniform height
        r = radius * np.cbrt(u[:, 0])
        z = 2.0 * u[:, 1] - 1.0
        rho = r * np.sqrt(1.0 - z * z)
        theta = 2.0 * np.pi * u[:, 2]
        return (
            (rho * np.cos(theta))[:, None] * frame[0]
            + (rho * np.sin(theta))[:, None] * frame[1]
            + (r * z)[:, None] * frame[2]
        )
    # area-uniform polar map in the tangent disc
    r = radius * np.sqrt(u[:, 0])
    theta = 2.0 * np.pi * u[:, 1]
    return (r * np.cos(theta))[:, None] * frame[0] + (r * np.sin(theta))[:, None] * frame[1]


def ball_samples(M: ModelSpace, center, radius, n, skip=0):
    """Quasi-random points covering B(center, radius) via the exp map."""
    center = np.asarray(center, dtype=float)
    v = _tangent_ball_samples(M, center, radius, n, skip=skip)
    pts = M.exp(np.broadcast_to(center, v.shape), v)
    if M.has_boundary:
        pts = pts[M.contains(pts)]
    return np.concatenate([center[None, :], pts], axis=0)


def sphere_samples(M: ModelSpace, center, radius, n):
    """Points on the metric sphere of the given radius around center."""
    center = np.asarray(center, dtype=float)
    frame = M.frame(center)
    if M.dim == 1:
        v = np.array([[radius], [-radius]]) @ frame
    else:
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        v = radius * (np.cos(theta)[:, None] * frame[0] + np.sin(theta)[:, None] * frame[1])
    return M.exp(np.broadcast_to(center, v.shape), v)


@dataclass
class SupremumResult:
    value: float
    argmax: np.ndarray
    resolution: int
    recheck_delta: float


def domain_supremum(M: ModelSpace, D: DomainSpec, fn: Callable) -> SupremumResult:
    """Supremum of ``fn`` over D by Sobol sampling plus three rounds of
    local refinement.

    ``fn`` maps point arrays (n, chart_dim) to values (n,).  A re-check at
    4x the base resolution is reported as ``recheck_delta``.
    """
    D.validate(M)
    n = D.sample_resolution

    def scan(num, skip=0):
        pts = ball_samples(M, D.center, D.radius, num, skip=skip)
        vals = np.asarray(fn(pts))
        i = int(np.argmax(vals))
        return float(vals[i]), pts[i]

    best, best_pt = scan(n)
    radius = D.radius
    for k in range(1, 4):
        radius *= 0.15
        pts = ball_samples(M, best_pt, radius, max(256, n // 8), skip=k)
        pts = pts[D.contains(M, pts) | (M.distance(D.center, pts) <= D.radius * (1 + 1e-12))]
        if len(pts) == 0:
            break
        vals = np.asarray(fn(pts))
        i = int(np.argmax(vals))
        if vals[i] > best:
            best, best_pt = float(vals[i]), pts[i]
    check, check_pt = scan(4 * n, skip=7)
    delta = check - best
    if check > best:
        best, best_pt = check, check_pt
    return SupremumResult(best, best_pt, n, float(delta))


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
# Reference functions
# ----------------------------------------------------------------------


@dataclass
class ReferenceFunction:
    """A candidate member of the reference class on a domain D.

    ``phi``, ``grad_norm_sq`` and ``l_phi`` evaluate the function, the
    square of the Riemannian gradient norm and the generator applied to
    it on point arrays.  ``normal_derivative`` (optional) evaluates N phi
    on the manifold boundary.
    """

    domain: DomainSpec
    phi: Callable
    grad_norm_sq: Callable
    l_phi: Callable
    normal_derivative: Optional[Callable] = None
    label: str = "custom"

    def scaled(self, a: float) -> "ReferenceFunction":
        return ReferenceFunction(
            domain=self.domain,
            phi=lambda z: a * self.phi(z),
            grad_norm_sq=lambda z: a**2 * self.grad_norm_sq(z),
            l_phi=lambda z: a * self.l_phi(z),
            normal_derivative=(
                None
                if self.normal_derivative is None
                else (lambda z: a * self.normal_derivative(z))
            ),
            label=f"{a}*{self.label}",
        )


def _manifold_boundary_samples(M: ModelSpace, D: DomainSpec, n=512):
    """Points of (boundary of M) intersected with the closed domain."""
    if isinstance(M, HalfSpace):
        c = np.asarray(D.center, dtype=float)
        if c[0] > D.radius:
            return np.zeros((0, M.chart_dim))
        if M.dim == 1:
            pts = np.zeros((1, 1))
        else:
            half_w = math.sqrt(max(D.radius**2 - c[0] ** 2, 0.0))
            ts = np.linspace(-half_w, half_w, n)
            pts = np.zeros((n, M.chart_dim))
            pts[:, 1] = c[1] + ts
            for j in range(2, M.chart_dim):
                pts[:, j] = c[j]
        return pts[M.distance(c, pts) <= D.radius]
    if isinstance(M, EuclideanBall):
        c = np.asarray(D.center, dtype=float)
        if M.dim == 1:
            pts = np.array([[M.radius], [-M.radius]])
        else:
            theta = np.linspace(0, 2 * np.pi, n, endpoint=False)
            pts = M.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return pts[M.distance(c, pts) <= D.radius]
    return np.zeros((0, M.chart_dim))


def validate_reference(M: ModelSpace, ref: ReferenceFunction, tol: float = 1e-8):
    """Numerical class-membership check; raises ClassViolation on failure."""
    D = ref.domain
    D.validate(M)
    interior = ball_samples(M, D.center, 0.98 * D.radius, min(D.sample_resolution, 2048))
    if np.any(ref.phi(interior) <= 0):
        raise ClassViolation("phi must be strictly positive inside D")
    shell = sphere_samples(M, D.center, D.radius, 512)
    if M.has_boundary:
        shell = shell[M.contains(shell)]
        if isinstance(M, HalfSpace):
            off_bdry = shell[:, 0] > 1e-9
        else:  # EuclideanBall
            off_bdry = np.linalg.norm(shell, axis=-1) < M.radius - 1e-9
        shell = shell[off_bdry]
    if len(shell) and np.any(np.abs(ref.phi(shell)) > tol):
        raise ClassViolation("phi must vanish on the inner part of the domain boundary")
    if M.has_boundary:
        wall = _manifold_boundary_samples(M, D)
        if len(wall):
            if ref.normal_derivative is None:
                raise ClassViolation(
                    "boundary variant requires a normal_derivative evaluator"
                )
            if np.any(ref.normal_derivative(wall) < -tol):
                raise ClassViolation("N phi must be >= 0 on the manifold boundary")
    return True


def c_D_detail(M: ModelSpace, ref: ReferenceFunction) -> SupremumResult:
    """Full supremum report for c_D(phi) = sup_D {5 |grad phi|^2 - phi L phi}."""
    validate_reference(M, ref)

    def objective(pts):
        return 5.0 * ref.grad_norm_sq(pts) - ref.phi(pts) * ref.l_phi(pts)

    res = domain_supremum(M, ref.domain, objective)
    res.value = max(0.0, res.value)
    return res


def c_D(M: ModelSpace, ref: ReferenceFunction) -> float:
    return c_D_detail(M, ref).value


def _cosine(rho, radius: float):
    """The cosine profile cos(pi rho / (2 radius)) at distances rho."""
    a = 0.5 * np.pi / radius
    return np.cos(a * rho)


def cosine_reference(M: ModelSpace, y, radius: float = 1.0) -> ReferenceFunction:
    """phi(z) = cos(pi rho(y, z) / (2 radius)) on the ball B(y, radius).

    The gradient norm and generator are exact: |grad phi| =
    (pi/2r) sin(pi rho / 2r) and L phi uses the model-space value of the
    radial Laplacian plus the drift term.
    """
    if M.injectivity_radius <= radius / 0.9:
        raise GeometryError("cosine reference needs injectivity radius beyond the ball")
    y = np.asarray(y, dtype=float)
    D = DomainSpec(y, radius)
    a = 0.5 * np.pi / radius  # phi = cos(a rho)

    def phi(z):
        return _cosine(M.distance(y, z), radius)

    def grad_norm_sq(z):
        return a**2 * np.sin(a * M.distance(y, z)) ** 2

    def sin_radial_laplacian(rho, z):
        # sin(a rho) * (Laplacian of rho), stable through rho = 0 where
        # every catalogue variant has the limit (d-1) a.
        out = np.full_like(rho, (M.dim - 1) * a)
        ok = rho > 1e-8
        if np.any(ok):
            with np.errstate(divide="ignore", invalid="ignore"):
                lap = M.radial_laplacian(y, z)
            out = np.where(ok, np.sin(a * rho) * np.where(ok, lap, 0.0), out)
        return out

    def l_phi(z):
        z = np.asarray(z, dtype=float)
        rho = M.distance(y, z)
        val = -(a**2) * _cosine(rho, radius)
        val = val - a * sin_radial_laplacian(rho, z)
        drift = M.drift(z)
        if np.any(drift):
            ok = rho > 1e-12
            zs = z[ok] if z.ndim > 1 else z
            radial = np.zeros_like(rho)
            if np.any(ok):
                gd = M.grad_distance(np.broadcast_to(y, zs.shape), zs)
                radial[ok] = M.inner(zs, M.drift(zs), gd)
            val = val - a * np.sin(a * rho) * radial
        return val

    normal_derivative = None
    if M.has_boundary:

        def normal_derivative(z):
            z = np.asarray(z, dtype=float)
            rho = M.distance(y, z)
            out = np.zeros_like(rho)
            ok = rho > 1e-12
            if np.any(ok):
                zs = z[ok]
                gd = M.grad_distance(np.broadcast_to(y, zs.shape), zs)
                if isinstance(M, HalfSpace):
                    ndir = gd[:, 0]
                else:  # EuclideanBall
                    ndir = -np.sum(gd * zs, axis=-1) / M.radius
                out[ok] = -a * np.sin(a * rho[ok]) * ndir
            return out

    return ReferenceFunction(
        domain=D,
        phi=phi,
        grad_norm_sq=grad_norm_sq,
        l_phi=l_phi,
        normal_derivative=normal_derivative,
        label=f"cosine(r={radius})" if radius != 1.0 else "cosine",
    )


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
    if M.injectivity_radius <= 1.0 / 0.9:
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
