"""Model-manifold catalogue with exact closed-form geometry.

Every variant supplies distance, the exponential map, parallel
transport along the minimal geodesic, the unit directions of a pair of
points, a noise frame, curvature-with-drift Ric_Z (from
which the base class derives the curvature bound K), and boundary data
(inward normal, second fundamental form).  The catalogue is fixed so
that all geometric primitives are exact; discretisation error then lives
entirely in the SDE stepping.

All operations are vectorised over leading axes: points are arrays of
shape ``(..., chart_dim)``.  Everything is immutable after construction
and safe to call concurrently.
"""

from __future__ import annotations

import inspect
import math
import sys

import numpy as np

__all__ = [
    "GeometryError",
    "InjectivityRadiusExceeded",
    "CoincidentPoints",
    "NoBoundary",
    "NotOnBoundary",
    "ModelSpace",
    "Euclidean",
    "OrnsteinUhlenbeck",
    "Sphere",
    "Hyperbolic",
    "HalfSpace",
    "EuclideanBall",
    "ExplosiveDrift1D",
    "model_from_config",
]

# Pairwise operations refuse to work beyond this fraction of the
# injectivity radius; experiments are configured to stay inside it.
INJ_MARGIN = 0.9


class GeometryError(ValueError):
    pass


class InjectivityRadiusExceeded(GeometryError):
    pass


class CoincidentPoints(GeometryError):
    pass


class NoBoundary(GeometryError):
    pass


class NotOnBoundary(GeometryError):
    pass


def _require_apart(rho):
    if np.any(rho < 1e-14):
        raise CoincidentPoints("grad_distance needs x != y")


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _sum_products(u, v):
    """u_0 v_0 + u_1 v_1 + ... over the last (chart) axis, added left to
    right: the order in which numpy reduces an axis of width <= 3, at a
    fraction of the cost of a strided reduce."""
    out = u[..., 0] * v[..., 0]
    for k in range(1, u.shape[-1]):
        out = out + u[..., k] * v[..., k]
    return out


def _dot(u, v):
    """Bit for bit np.sum(u * v, axis=-1) on axes of width <= 3."""
    # numpy's reduce starts from +0.0, so a sum of -0.0 terms is +0.0
    return _sum_products(u, v) + 0.0


def _norm(v):
    """Bit for bit np.linalg.norm(v, axis=-1) on axes of width <= 3."""
    # squares are never -0.0, so no +0.0 start is needed
    return np.sqrt(_sum_products(v, v))


def _scale(a, v):
    """Bit for bit a[..., None] * v, one chart column at a time: the
    broadcast form runs numpy's inner loop once per row."""
    out = np.empty(np.broadcast_shapes(np.shape(a) + (1,), v.shape))
    for k in range(v.shape[-1]):
        np.multiply(a, v[..., k], out=out[..., k])
    return out


def _divide(v, a):
    """Bit for bit v / a[..., None], one chart column at a time."""
    out = np.empty(np.broadcast_shapes(v.shape, np.shape(a) + (1,)))
    for k in range(v.shape[-1]):
        np.divide(v[..., k], a, out=out[..., k])
    return out


class ModelSpace:
    """Base class for the fixed catalogue of model manifolds.

    Subclasses define the chart, its geometry and the drift field Z of
    the generator  L = Laplace-Beltrami + Z, and ``step`` its step law.
    ``euler_exact`` says that one step of any size h has the law of X_h,
    so a read of X_T alone may take one step to T; ``step_uniform`` that
    the step reads one uniform per path besides its normals.
    """

    variant = "abstract"
    dim: int
    chart_dim: int
    has_boundary = False
    conservative = True
    euler_exact = False
    step_uniform = False
    injectivity_radius = np.inf

    # -- step law ------------------------------------------------------

    def step(self, x, h, xi, alive, u=None):
        """One step of size h for a batch: (positions, local-time
        increments, alive).  The geodesic Euler step exp_x(sqrt(2h)
        tangent_from_frame(x, xi) + h Z(x)), a proposal that leaves the
        chart mirrored back with its overshoot feeding the local time.
        ``u``, one uniform in (0, 1] per path, is read where
        ``step_uniform`` is set; only the explosive variant ends lifetimes.
        """
        v = math.sqrt(2.0 * h) * self.tangent_from_frame(x, xi) + h * self.drift(x)
        new = self.exp(x, v)
        if self.has_boundary:
            new, dl = self.reflect(new)
        else:
            dl = np.zeros(x.shape[:-1])
        return new, dl, alive

    # -- drift ---------------------------------------------------------

    def drift(self, x: np.ndarray) -> np.ndarray:
        """Z(x) in chart components; zero unless overridden."""
        return np.zeros_like(_arr(x))

    def sup_drift_norm_ball(self, center, radius: float) -> float:
        """Exact sup of |Z| over the metric ball B(center, radius)."""
        return 0.0

    # -- metric core (must be overridden) ------------------------------

    def distance(self, x, y) -> np.ndarray:
        raise NotImplementedError

    def exp(self, x, v) -> np.ndarray:
        raise NotImplementedError

    def transport(self, x, y, v) -> np.ndarray:
        """Parallel transport of v from T_x M to T_y M along the minimal
        geodesic."""
        raise NotImplementedError

    def norm(self, x, v) -> np.ndarray:
        """Riemannian norm of tangent components v at x."""
        return _norm(_arr(v))

    def inner(self, x, u, v) -> np.ndarray:
        return _dot(_arr(u), _arr(v))

    def grad_distance(self, x, y) -> np.ndarray:
        """Unit gradient of rho(x, .) evaluated at y (points away from x)."""
        x, y = _arr(x), _arr(y)
        rho = self.distance(x, y)
        _require_apart(rho)
        return self._units(x, y, rho)[1]

    # -- fused pair geometry of the coupled step ------------------------

    def _units(self, x, y, rho):
        """(u_x, u_y) = (grad_distance(y, x), grad_distance(x, y)) given
        rho = distance(x, y): the unit at x pointing away from y and the
        unit at y pointing away from x, in closed form.
        Swapping x and y swaps them, up to the sign of zero."""
        raise NotImplementedError

    def _transport(self, x, y, v, u_x, u_y):
        """transport(x, y, v) given (u_x, u_y) = _units(x, y, rho);
        variants whose transport needs them override this."""
        return self.transport(x, y, v)

    def _pair_geometry(self, x, y, rho, xi):
        """Pair geometry of one coupled step, each quantity computed once.

        Given rho = distance(x, y) and step noise xi at x, returns
        (G, GY, u_y, c_x), bit for bit equal to
        G = tangent_from_frame(x, xi), GY = transport(x, y, G),
        u_y = grad_distance(x, y) and
        c_x = frame_components(x, grad_distance(y, x)).
        The two unit directions come once each from ``_units``, and
        ``_transport`` may build on them.
        """
        _require_apart(rho)
        u_x, u_y = self._units(x, y, rho)
        G = self.tangent_from_frame(x, xi)
        return G, self._transport(x, y, G, u_x, u_y), u_y, self.frame_components(x, u_x)

    # -- frames and noise ----------------------------------------------

    def frame(self, x) -> np.ndarray:
        """Orthonormal tangent frame at x, shape (..., dim, chart_dim)."""
        raise NotImplementedError

    @property
    def noise_width(self) -> int:
        """Vectors in the noise frame: the standard normals per path and
        step that tangent_from_frame maps."""
        return self.dim

    def tangent_from_frame(self, x, xi) -> np.ndarray:
        """The step noise map: tangent components of sum_i xi_i f_i, (f_i)
        the noise frame at x, noise_width vectors whose sum of f_i f_i^T
        is the identity of T_x M (a Parseval frame), so that standard
        normals xi give a standard Gaussian of T_x M."""
        raise NotImplementedError

    def frame_components(self, x, v) -> np.ndarray:
        """Coefficients <v, f_i> of tangent components v in the noise
        frame: the adjoint of tangent_from_frame, with <c, xi> =
        <v, tangent_from_frame(x, xi)>, and its inverse when the frame
        is orthonormal."""
        raise NotImplementedError

    # -- curvature -----------------------------------------------------

    def ricci_z(self, x, u) -> np.ndarray:
        """Ric(u,u) - <u, grad_u Z> for a unit tangent vector u; the
        same for every u on the catalogue, which may pass u = None."""
        raise NotImplementedError

    def pointwise_K(self, x) -> np.ndarray:
        """Smallest admissible K(x):  max over unit u of -ricci_z(x, u)."""
        # not a bare minus: Ric_Z = 0.0 must give K = 0.0, not -0.0
        return 0.0 - self.ricci_z(x, None)

    # max over unit u of -Ric(u, u) (driftless, for the kappa constant):
    # pointwise_K where there is no drift; the drifting variants are flat
    # charts, which override it with Ric = 0
    max_neg_ricci = pointwise_K

    def sup_pointwise_K_ball(self, center, radius: float) -> float:
        """Exact sup of pointwise_K over B(center, radius); a variant whose
        pointwise_K varies overrides it."""
        return float(self.pointwise_K(_arr(center)))

    def radial_laplacian(self, center, z) -> np.ndarray:
        """Laplacian of rho(center, .) at z, the model-space comparison
        value (exact on the catalogue)."""
        raise NotImplementedError

    # -- boundary -------------------------------------------------------

    def boundary_data(self, x, u):
        """Inward unit normal N and second fundamental form II(u, u) at a
        boundary point x for u tangent to the boundary."""
        raise NoBoundary(f"{self.variant} has no boundary")

    def reflect(self, q):
        """Mirror a proposed chart position across the boundary.

        Returns (position, local_time_increment).  The increment is the
        Skorokhod regulator consistent with  dX = sqrt(2) dB + N dl:
        a mirrored overshoot of size s contributes 2 s.
        """
        return q, np.zeros(q.shape[:-1])

    def contains(self, x) -> np.ndarray:
        """Chart-domain membership."""
        return np.ones(_arr(x).shape[:-1], dtype=bool)

    # -- config ----------------------------------------------------------

    def to_config(self) -> dict:
        """The record ``model_from_config`` reads back: the variant and
        every constructor argument that is set."""
        cfg = {"variant": self.variant}
        for k in inspect.signature(type(self)).parameters:
            v = getattr(self, k)
            if v is not None:
                cfg[k] = v.tolist() if isinstance(v, np.ndarray) else v
        return cfg

    def _require_inside_injectivity(self, rho):
        lim = INJ_MARGIN * self.injectivity_radius
        if np.any(np.asarray(rho) > lim):
            raise InjectivityRadiusExceeded(
                f"separation exceeds {INJ_MARGIN} x injectivity radius "
                f"({float(np.max(rho)):.4g} > {lim:.4g})"
            )

    def __repr__(self):
        cfg = self.to_config()
        args = ", ".join(f"{k}={v}" for k, v in cfg.items() if k != "variant")
        return f"{type(self).__name__}({args})"


# ----------------------------------------------------------------------
# Flat chart variants
# ----------------------------------------------------------------------


class _FlatChart(ModelSpace):
    """Shared implementation for variants whose chart metric is Euclidean
    (geodesics are straight lines in the chart)."""

    def distance(self, x, y):
        return _norm(_arr(y) - _arr(x))

    def exp(self, x, v):
        # injectivity_radius is infinite on a flat chart: no check
        return _arr(x) + _arr(v)

    def transport(self, x, y, v):
        return np.array(_arr(v), copy=True)

    def _units(self, x, y, rho):
        u_y = _divide(y - x, rho)
        return -u_y, u_y

    def frame(self, x):
        x = _arr(x)
        eye = np.eye(self.chart_dim)
        return np.broadcast_to(eye, x.shape[:-1] + eye.shape)

    def tangent_from_frame(self, x, xi):
        return np.array(_arr(xi), copy=True)

    def frame_components(self, x, v):
        # the identity frame's components; + 0.0 turns -0.0 into +0.0 as
        # an einsum's sum over the frame does
        return _arr(v) + 0.0

    def ricci_z(self, x, u):
        return np.zeros(_arr(x).shape[:-1])

    def max_neg_ricci(self, x):
        return np.zeros(_arr(x).shape[:-1])

    def radial_laplacian(self, center, z):
        rho = self.distance(center, z)
        return (self.dim - 1) / rho


class Euclidean(_FlatChart):
    """R^d, optionally with a constant drift vector."""

    variant = "euclidean"
    # x + h b + sqrt(2h) xi is the Gaussian law of X_h
    euler_exact = True

    def __init__(self, dim: int, drift_vec=None):
        self.dim = self.chart_dim = int(dim)
        self.drift_vec = None
        if drift_vec is not None:
            self.drift_vec = np.asarray(drift_vec, dtype=float)
            if self.drift_vec.shape != (self.dim,):
                raise GeometryError("drift_vec must have length dim")

    def drift(self, x):
        x = _arr(x)
        if self.drift_vec is None:
            return np.zeros_like(x)
        return np.broadcast_to(self.drift_vec, x.shape).copy()

    def sup_drift_norm_ball(self, center, radius):
        return 0.0 if self.drift_vec is None else float(np.linalg.norm(self.drift_vec))


class OrnsteinUhlenbeck(_FlatChart):
    """R^d with the linear restoring drift Z(x) = -lam * x."""

    variant = "ornstein_uhlenbeck"

    def __init__(self, dim: int, lam: float):
        if lam <= 0:
            raise GeometryError("lam must be > 0")
        self.dim = self.chart_dim = int(dim)
        self.lam = float(lam)

    def drift(self, x):
        return -self.lam * _arr(x)

    def sup_drift_norm_ball(self, center, radius):
        return self.lam * (float(np.linalg.norm(_arr(center))) + radius)

    def ricci_z(self, x, u):
        # grad Z = -lam * Id, so -<u, grad_u Z> = lam for |u| = 1.
        return np.full(_arr(x).shape[:-1], self.lam)


class ExplosiveDrift1D(_FlatChart):
    """The real line with the superlinear drift Z(x) = x^3.

    The diffusion explodes in finite time with positive probability, so
    the variant is the only non-conservative member of the catalogue.
    """

    variant = "explosive_drift_1d"
    conservative = False
    explosion_threshold = 1e6

    def __init__(self):
        self.dim = self.chart_dim = 1

    def step(self, x, h, xi, alive, u=None):
        """Splitting step for the cubic drift: exact drift flow, then noise.

        The drift ODE dx = x^3 dt integrates in closed form to
        x / sqrt(1 - 2 h x^2), which blows up within the step exactly when
        2 h x^2 >= 1; that event (or crossing the explosion threshold)
        flips the lifetime flag, and dead paths stay where they are.  Near
        the origin the flow agrees with the Euler increment to O(h^2), and
        unlike Euler it has no stability cap on the drift displacement.
        """
        x0 = x[..., 0]
        noise = math.sqrt(2.0 * h) * xi[..., 0]
        thr = self.explosion_threshold
        disc = 1.0 - 2.0 * h * x0**2
        explodes = disc <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            flowed = x0 / np.sqrt(np.maximum(disc, 1e-300))
        prop = np.where(explodes, x0, np.clip(flowed, -thr, thr) + noise)
        live = alive & ~explodes & (np.abs(prop) < thr)
        out = np.where(live, prop, x0)[..., None]
        return out, np.zeros(x.shape[:-1]), live

    def drift(self, x):
        x = _arr(x)
        return x**3

    def sup_drift_norm_ball(self, center, radius):
        return (abs(float(_arr(center)[..., 0])) + radius) ** 3

    def ricci_z(self, x, u):
        # d/dx (x^3) = 3 x^2 pointing along u = +-1, so Ric_Z = -3 x^2.
        x = _arr(x)
        return -3.0 * x[..., 0] ** 2

    def sup_pointwise_K_ball(self, center, radius):
        c = float(_arr(center)[..., 0])
        return 3.0 * (abs(c) + radius) ** 2


class HalfSpace(_FlatChart):
    """R^d restricted to x_1 >= 0 with reflection at the flat boundary."""

    variant = "half_space"
    has_boundary = True
    # reflecting x_1 + sqrt(2h) xi_1 gives the law of reflected Brownian
    # motion at h, and the local time is drawn given the step's two ends
    euler_exact = True
    step_uniform = True

    def __init__(self, dim: int):
        self.dim = self.chart_dim = int(dim)

    def step(self, x, h, xi, alive, u=None):
        """The Euler step, y = |a + sqrt(2h) xi_1| on the first coordinate,
        with the local time dl drawn from its exact law given a and y: the
        path touched the wall with probability q = 2 e^{-ay/h} /
        (1 + e^{-ay/h}), and dl = sqrt((a + y)^2 - 4h log(u / q)) - (a + y)
        for u < q, else 0.  Without u (positions only) dl is None.
        """
        new = super().step(x, h, xi, alive)[0]
        if u is None:
            return new, None, alive
        a, y = x[..., 0], new[..., 0]
        e = np.exp(-a * y / h)  # a, y >= 0: e <= 1, never an overflow
        q = 2.0 * e / (1.0 + e)
        hit = u < q
        s = (a + y)[hit]
        dl = np.zeros(a.shape)
        dl[hit] = np.sqrt(s * s - 4.0 * h * np.log(u[hit] / q[hit])) - s
        return new, dl, alive

    def contains(self, x):
        return _arr(x)[..., 0] >= 0

    def boundary_data(self, x, u):
        x, u = _arr(x), _arr(u)
        if np.any(np.abs(x[..., 0]) > 1e-10):
            raise NotOnBoundary("x must satisfy x_1 = 0")
        if np.any(np.abs(u[..., 0]) > 1e-10 * (1 + np.abs(u).max())):
            raise GeometryError("u must be tangent to the boundary")
        normal = np.zeros_like(x)
        normal[..., 0] = 1.0
        return normal, np.zeros(x.shape[:-1])

    def reflect(self, q):
        q = np.array(q, copy=True)
        over = np.maximum(-q[..., 0], 0.0)
        q[..., 0] = np.abs(q[..., 0])
        return q, 2.0 * over


class EuclideanBall(_FlatChart):
    """Closed ball of radius R in R^d with reflection at the sphere."""

    variant = "euclidean_ball"
    has_boundary = True

    def __init__(self, dim: int, radius: float):
        if radius <= 0:
            raise GeometryError("radius must be > 0")
        self.dim = self.chart_dim = int(dim)
        self.radius = float(radius)

    def contains(self, x):
        return _norm(_arr(x)) <= self.radius + 1e-12

    def boundary_data(self, x, u):
        x, u = _arr(x), _arr(u)
        r = np.linalg.norm(x, axis=-1)
        if np.any(np.abs(r - self.radius) > 1e-10):
            raise NotOnBoundary("x must lie on the sphere |x| = R")
        normal = -x / self.radius
        if np.any(np.abs(np.sum(u * normal, axis=-1)) > 1e-10 * (1 + np.abs(u).max())):
            raise GeometryError("u must be tangent to the boundary")
        # Principal curvatures of the sphere w.r.t. the inward normal
        # are all 1/R, hence II(u, u) = |u|^2 / R  (convex boundary).
        ii = np.sum(u * u, axis=-1) / self.radius
        return normal, ii

    def reflect(self, q):
        q = np.array(q, copy=True)
        r = _norm(q)
        over = np.maximum(r - self.radius, 0.0)
        out = over > 0
        if np.any(out):
            scale = np.where(out, np.maximum(2 * self.radius - r, 0.0) / np.maximum(r, 1e-300), 1.0)
            q *= scale[..., None]
        return q, 2.0 * over


# ----------------------------------------------------------------------
# Sphere (embedded chart) and hyperbolic plane (upper half-plane chart)
# ----------------------------------------------------------------------


class Sphere(ModelSpace):
    """Round sphere of dimension 1 or 2, embedded in R^{d+1} with
    |coords| = radius."""

    variant = "sphere"

    def __init__(self, dim: int, radius: float = 1.0):
        if dim not in (1, 2):
            raise GeometryError("sphere catalogue covers d in {1, 2}")
        if radius <= 0:
            raise GeometryError("radius must be > 0")
        self.dim = int(dim)
        self.chart_dim = self.dim + 1
        self.radius = float(radius)
        self.injectivity_radius = np.pi * self.radius

    def contains(self, x):
        r = _norm(_arr(x))
        return np.abs(r - self.radius) <= 1e-9 * self.radius

    def _angle(self, x, y):
        # 2 arcsin of half the chord length: stable near coincidence.
        chord = _norm(_arr(y) - _arr(x)) / self.radius
        return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))

    def distance(self, x, y):
        return self.radius * self._angle(x, y)

    def exp(self, x, v):
        x, v = _arr(x), _arr(v)
        s = _norm(v)
        self._require_inside_injectivity(s)
        theta = s / self.radius
        with np.errstate(invalid="ignore", divide="ignore"):
            direction = _divide(v, np.maximum(s, 1e-300))
        direction[~(s > 0)] = 0.0
        out = _scale(np.cos(theta), x) + _scale(self.radius * np.sin(theta), direction)
        # renormalise to kill accumulated rounding
        return _scale(self.radius / _norm(out), out)

    def transport(self, x, y, v):
        x, y, v = _arr(x), _arr(y), _arr(v)
        return self._transport(x, y, v, *self._units(x, y, self.distance(x, y)))

    def _units(self, x, y, rho):
        # with d = y - x and k = 1 - cos(rho / R) = |d|^2 / 2 R^2, the
        # projections of d onto the tangent planes are d + k x =
        # y - cos(rho / R) x at x and d - k y at y; x = y gives d = 0
        # and zero units
        self._require_inside_injectivity(rho)
        d = y - x
        k = _sum_products(d, d) / (2.0 * self.radius**2)
        at_x, at_y = d + _scale(k, x), d - _scale(k, y)
        return (_divide(at_x, -np.maximum(_norm(at_x), 1e-300)),
                _divide(at_y, np.maximum(_norm(at_y), 1e-300)))

    def _transport(self, x, y, v, u_x, u_y):
        # the geodesic's unit tangent goes from -u_x at x to u_y at y and
        # the part of v normal to the plane of x and y is kept (on the
        # circle there is none), so v -> v - <v, u_x> (u_x + u_y); at
        # x = y the units are zero and v comes back as it is
        return v - _scale(_sum_products(v, u_x), u_x + u_y)

    @property
    def noise_width(self):
        return self.chart_dim if self.dim == 2 else 1

    def tangent_from_frame(self, x, xi):
        """On the 2-sphere the noise frame is the projection of the three
        ambient axes onto the tangent plane, so sum_i xi_i f_i is
        xi - <xi, n> n, n = x / radius: no frame is built, and the map is
        smooth in x, so starts that share noise move alike.  On the
        circle, xi times frame(x)."""
        if self.dim == 1:
            return np.einsum("...ik,...i->...k", self.frame(x), _arr(xi))
        x, xi = _arr(x), _arr(xi)
        return xi - _scale(_dot(xi, x) / self.radius**2, x)

    def frame_components(self, x, v):
        """On the 2-sphere <v, f_i> = <v, P e_i> = v_i, P the projection
        onto the tangent plane: tangent v is its own projection."""
        if self.dim == 1:
            return np.einsum("...ik,...k->...i", self.frame(x), _arr(v))
        return _arr(v)

    def frame(self, x):
        x = _arr(x)
        if self.dim == 1:
            e = np.stack([-x[..., 1], x[..., 0]], axis=-1) / self.radius
            return e[..., None, :]
        # dim == 2: pick the coordinate axis least aligned with x.
        n = x / self.radius
        ref = np.zeros_like(n)
        idx = np.argmin(np.abs(n), axis=-1)
        np.put_along_axis(ref, idx[..., None], 1.0, axis=-1)
        e1 = np.cross(ref, n)
        e1 /= _norm(e1)[..., None]
        e2 = np.cross(n, e1)
        return np.stack([e1, e2], axis=-2)

    def ricci_z(self, x, u):
        return np.full(_arr(x).shape[:-1], (self.dim - 1) / self.radius**2)

    def radial_laplacian(self, center, z):
        rho = self.distance(center, z)
        if self.dim == 1:
            return np.zeros_like(rho)
        return (self.dim - 1) / self.radius / np.tan(rho / self.radius)


class Hyperbolic(ModelSpace):
    """Hyperbolic plane (curvature -1) in the upper half-plane chart.

    Points are (x1, x2) with x2 > 0 and metric (dx1^2 + dx2^2) / x2^2.
    Internally the chart is handled as complex numbers; geodesic maps go
    through the Cayley transform to the disk, where geodesics from the
    origin are straight diameters.
    """

    variant = "hyperbolic"

    def __init__(self, dim: int = 2):
        if dim != 2:
            raise GeometryError("hyperbolic catalogue covers d = 2 only")
        self.dim = self.chart_dim = 2

    @staticmethod
    def _c(x):
        """Chart points (..., 2) as complex x_1 + i x_2: a view of x where
        its last axis is contiguous."""
        x = _arr(x)
        return (x if x.strides[-1] == x.itemsize else x.copy()).view(np.complex128)[..., 0]

    @staticmethod
    def _r(z):
        """The inverse of _c: a (..., 2) view of complex z."""
        z = np.asarray(z)
        return (z if z.flags.c_contiguous else z.copy())[..., None].view(np.float64)

    def contains(self, x):
        return _arr(x)[..., 1] > 0

    def distance(self, x, y):
        zx, zy = self._c(x), self._c(y)
        u = np.abs(zy - zx) ** 2 / (2.0 * zx.imag * zy.imag)
        # arccosh(1 + u) in a form stable near coincidence
        return np.log1p(u + np.sqrt(u * (2.0 + u)))

    def exp(self, x, v):
        # real arithmetic where numpy's complex division would do: v / Im x
        # with its rounding v (1 / Im x), and a turn by -i
        zx = self._c(x)
        vz = self._c(_scale(1.0 / zx.imag, _arr(v)))
        s = np.abs(vz)
        d = np.where(s > 0, vz / np.maximum(s, 1e-300) * -1j, 0.0)
        zeta = np.tanh(s / 2.0) * d
        w = 1j * (1.0 + zeta) / (1.0 - zeta)
        out = w * zx.imag + zx.real
        return self._r(out)

    def transport(self, x, y, v):
        # the chart is conformal: v turns by t1 conj(t0), the unit chart
        # tangent of the geodesic at y over that at x, and is scaled by
        # Im y / Im x, which keeps its metric length.  With s = zx -
        # conj(zy), t1 conj(t0) = -conj(s)^2 / |s|^2, and Im s > 0, so
        # x = y turns by exactly 1 (real divisions: numpy's complex one
        # multiplies by a reciprocal)
        zx, zy = self._c(x), self._c(y)
        sr, si = zx.real - zy.real, zx.imag + zy.imag
        n, scale = sr * sr + si * si, zy.imag / zx.imag
        re, im = (si * si - sr * sr) / n * scale, 2.0 * sr * si / n * scale
        return self._r(self._c(v) * (re + 1j * im))

    def _units(self, x, y, rho):
        zx, zy = self._c(x), self._c(y)
        return self._r(self._away(zy, zx)), self._r(self._away(zx, zy))

    @staticmethod
    def _away(zx, zy):
        """The unit at y pointing away from x, as a complex chart vector:
        the direction -i (zy - zx) (zy - conj zx) with metric length 1,
        i.e. chart length Im y."""
        w = -1j * (zy - zx) * (zy - zx.conj())
        return w * (zy.imag / np.abs(w))

    def frame(self, x):
        x = _arr(x)
        sc = x[..., 1]
        eye = np.eye(2)
        return sc[..., None, None] * np.broadcast_to(eye, x.shape[:-1] + eye.shape)

    def tangent_from_frame(self, x, xi):
        return _scale(_arr(x)[..., 1], _arr(xi))

    def frame_components(self, x, v):
        return _divide(_arr(v), _arr(x)[..., 1])

    def norm(self, x, v):
        return _norm(_arr(v)) / _arr(x)[..., 1]

    def inner(self, x, u, v):
        return _dot(_arr(u), _arr(v)) / _arr(x)[..., 1] ** 2

    def ricci_z(self, x, u):
        return np.full(_arr(x).shape[:-1], -1.0)

    def radial_laplacian(self, center, z):
        rho = self.distance(center, z)
        return 1.0 / np.tanh(rho)


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------

_VARIANTS = {
    "euclidean": Euclidean,
    "ornstein_uhlenbeck": OrnsteinUhlenbeck,
    "sphere": Sphere,
    "hyperbolic": Hyperbolic,
    "half_space": HalfSpace,
    "euclidean_ball": EuclideanBall,
    "explosive_drift_1d": ExplosiveDrift1D,
}


def _is_finite(v) -> bool:
    # YAML true/false load as bool, a subclass of int; NaN fails the compare
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def read_record(cfg, key: str, builders: dict):
    """(name, args) of a config record ``{key: name, arg: value, ...}``
    whose name is a key of ``builders`` and whose other keys are that
    builder's arguments.

    The builder's signature defines the record: its parameters are the
    keys allowed, those without a default the keys required.  A parameter
    annotated ``int`` takes an integer, one annotated ``float`` a finite
    number, any other a list of finite numbers; booleans are refused.
    Raises ValueError saying what the record must be.
    """
    name = cfg.get(key) if isinstance(cfg, dict) else None
    if not isinstance(name, str) or name not in builders:
        raise ValueError(f"must be a mapping with a {key} among {', '.join(builders)}, got {cfg!r}")
    args = {k: v for k, v in cfg.items() if k != key}
    params = inspect.signature(builders[name], eval_str=True).parameters
    need = [k for k, par in params.items() if par.default is par.empty]
    if not set(need) <= set(args) <= set(params):
        raise ValueError(f"{name} takes {', '.join(params) or 'no arguments'}, of which "
                         f"{', '.join(need) or 'none'} required, got {list(args)}")
    for k, v in args.items():
        kind = params[k].annotation
        entries = v if kind not in (int, float) and isinstance(v, list) else [v]
        if not all(map(_is_finite, entries)) or kind is int and not isinstance(v, int):
            what = {int: "an integer", float: "a finite number"}.get(kind, "finite numbers")
            raise ValueError(f"{name} {k} must be {what}, got {v!r}")
    return name, args


def model_from_config(cfg: dict) -> ModelSpace:
    """Build a catalogue variant from its configuration record, e.g.
    ``{variant: sphere, dim: 2, radius: 1.0}``: the variant names a class
    above and the other keys are its constructor arguments, read by
    ``read_record``.  Raises GeometryError saying what the record must
    be, including dim >= 1."""
    try:
        name, args = read_record(cfg, "variant", _VARIANTS)
    except ValueError as e:
        raise GeometryError(str(e)) from None
    if args.get("dim", 1) < 1:
        raise GeometryError(f"{name} dim must be >= 1, got {args['dim']!r}")
    return _VARIANTS[name](**args)
