"""Semigroup functionals: Monte Carlo estimators and closed-form oracles.

``mc_functional`` estimates P_T f(x) = E[f(X_T) 1_{T < lifetime}] (and the
log and constant variants) by simulating the diffusion;
``oracle_semigroup`` evaluates the same quantity by quadrature against the
exact transition kernel on the variants that have one.  Keeping the two
routes independent is the point: the oracle never touches the stepping
code.

``mc_functional_values`` simulates one ensemble from a batch of start
points that share its noise and reads it at the (start, mode) pairs the
caller names; on ``euclidean`` and ``half_space``, where the Euler step
is exact in law, it takes one step to T.  Gradients use central finite
differences at 2 dim starts of one such ensemble (common random
numbers), and the short-time generator identity is checked by a
least-squares slope of (P_s g - g) against s, from one ensemble read
at the steps that reach the s grid (stepping at h) when there is no
oracle.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import hermite as npherm
from numpy.polynomial import legendre as npleg

from .diffusion import PathConfig, simulate_ensemble
from .geometry import (
    Euclidean,
    HalfSpace,
    Hyperbolic,
    ModelSpace,
    OrnsteinUhlenbeck,
    Sphere,
    read_record,
)
from .stats import MonteCarloEstimate, estimate_from_values, sample_mean

__all__ = [
    "NonpositiveF",
    "NoOracle",
    "OracleNotConverged",
    "TestFunction",
    "Derived",
    "const",
    "coord",
    "coord_sq",
    "coord_exp",
    "gauss_bump",
    "one_plus_bump",
    "log_bump",
    "test_function_from_config",
    "mc_functional",
    "mc_functional_values",
    "oracle_semigroup",
    "generator_check",
    "heat_kernel",
    "mu_ball",
    "mu_quadrature",
    "kernel_entropy",
    "series_tail_bound",
    "SERIES_TERMS",
]

SERIES_TERMS = 200


class NonpositiveF(ValueError):
    pass


class NoOracle(ValueError):
    pass


class OracleNotConverged(ValueError):
    """The oracle's quadrature did not settle at its highest order: it
    gives no value rather than an unconverged one."""


# ----------------------------------------------------------------------
# Test function catalogue
# ----------------------------------------------------------------------


def _bump_profile(s):
    """exp(1 - 1/(1-s)) on s < 1, 0 beyond: smooth with compact support."""
    out = np.zeros_like(s)
    inside = s < 1.0
    si = np.clip(s, 0.0, 1.0 - 1e-12)
    with np.errstate(divide="ignore", over="ignore"):
        vals = np.exp(1.0 - 1.0 / (1.0 - si))
    out[inside] = vals[inside]
    return out


@dataclass
class TestFunction:
    """Catalogue observable with closed-form derivatives where needed.

    ``params`` are tag-specific; evaluation is vectorised over point
    arrays of shape (n, chart_dim).
    """

    tag: str
    params: dict = field(default_factory=dict)

    # -- evaluation ------------------------------------------------------

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        p = self.params
        if self.tag == "const":
            return np.full(z.shape[:-1], p["c"])
        if self.tag == "coord":
            return z[..., p["i"]]
        if self.tag == "coord_sq":
            return z[..., p["i"]] ** 2
        if self.tag == "coord_exp":
            return np.exp(z @ np.asarray(p["a"], dtype=float))
        if self.tag == "gauss_bump":
            d2 = np.sum((z - np.asarray(p["center"])) ** 2, axis=-1)
            return p["amp"] * np.exp(-d2 / (2.0 * p["width"] ** 2))
        if self.tag == "one_plus_bump":
            d2 = np.sum((z - np.asarray(p["center"])) ** 2, axis=-1)
            return 1.0 + p["b"] * np.exp(-d2 / (2.0 * p["width"] ** 2))
        if self.tag == "log_bump":
            s = np.sum((z - np.asarray(p["center"])) ** 2, axis=-1) / p["width"] ** 2
            return np.exp(p["amp"] * _bump_profile(s))
        raise ValueError(f"unknown test function tag {self.tag!r}")

    def log(self, z):
        """log f; for a gauss_bump in closed form, log amp - |z - c|^2 /
        (2 w^2), since its f underflows to 0 about 38.6 widths out."""
        if self.tag != "gauss_bump":
            return np.log(self(z))
        p = self.params
        d2 = np.sum((np.asarray(z, dtype=float) - np.asarray(p["center"])) ** 2, axis=-1)
        return math.log(p["amp"]) - d2 / (2.0 * p["width"] ** 2)

    @property
    def strictly_positive(self) -> bool:
        p = self.params
        return {
            "const": p.get("c", 0) > 0,
            "coord": False,
            "coord_sq": False,
            "coord_exp": True,
            "gauss_bump": p.get("amp", 0) > 0,
            "one_plus_bump": p.get("b", 0) > -1,
            "log_bump": True,
        }[self.tag]

    @property
    def width(self) -> Optional[float]:
        """A bump's width, the scale an oracle rule must resolve around
        its centre; None for the other tags."""
        return self.params.get("width")

    @property
    def nonnegative(self) -> bool:
        if self.tag == "coord_sq":
            return True
        if self.tag == "gauss_bump":
            return self.params.get("amp", 0) >= 0
        if self.tag == "const":
            return self.params.get("c", 0) >= 0
        return self.strictly_positive

    # -- derivatives (flat charts) ----------------------------------------

    def grad(self, z):
        z = np.asarray(z, dtype=float)
        p = self.params
        if self.tag == "const":
            return np.zeros_like(z)
        if self.tag == "coord":
            g = np.zeros_like(z)
            g[..., p["i"]] = 1.0
            return g
        if self.tag == "coord_sq":
            g = np.zeros_like(z)
            g[..., p["i"]] = 2.0 * z[..., p["i"]]
            return g
        if self.tag == "coord_exp":
            a = np.asarray(p["a"], dtype=float)
            return self(z)[..., None] * a
        if self.tag == "gauss_bump":
            c = np.asarray(p["center"])
            return self(z)[..., None] * (-(z - c) / p["width"] ** 2)
        if self.tag == "one_plus_bump":
            c = np.asarray(p["center"])
            bump = (self(z) - 1.0)[..., None]
            return bump * (-(z - c) / p["width"] ** 2)
        if self.tag == "log_bump":
            return self(z)[..., None] * self.grad_log(z)
        raise ValueError(f"no gradient for tag {self.tag!r}")

    def grad_log(self, z):
        """Gradient of log f (for functions with compactly supported log)."""
        if self.tag != "log_bump":
            raise ValueError("grad_log is defined for log_bump functions")
        z = np.asarray(z, dtype=float)
        p = self.params
        c = np.asarray(p["center"])
        s = np.sum((z - c) ** 2, axis=-1) / p["width"] ** 2
        prof = _bump_profile(s)
        inside = s < 1.0
        fac = np.zeros_like(s)
        si = np.clip(s, 0.0, 1.0 - 1e-12)
        fac[inside] = (-prof / (1.0 - si) ** 2)[inside]
        return (p["amp"] * fac)[..., None] * (2.0 * (z - c) / p["width"] ** 2)

    def laplacian(self, z):
        z = np.asarray(z, dtype=float)
        p = self.params
        d = z.shape[-1]
        if self.tag == "const":
            return np.zeros(z.shape[:-1])
        if self.tag == "coord":
            return np.zeros(z.shape[:-1])
        if self.tag == "coord_sq":
            return np.full(z.shape[:-1], 2.0)
        if self.tag == "coord_exp":
            a = np.asarray(p["a"], dtype=float)
            return float(a @ a) * self(z)
        if self.tag in ("gauss_bump", "one_plus_bump"):
            c = np.asarray(p["center"])
            w2 = p["width"] ** 2
            d2 = np.sum((z - c) ** 2, axis=-1)
            bump = self(z) if self.tag == "gauss_bump" else self(z) - 1.0
            return bump * (d2 / w2**2 - d / w2)
        raise ValueError(f"no laplacian for tag {self.tag!r}")

    def generator(self, M: ModelSpace, z):
        """L f = Laplace-Beltrami f + <Z, grad f>, closed form."""
        z = np.asarray(z, dtype=float)
        if isinstance(M, Sphere):
            if self.tag != "coord":
                raise ValueError("sphere generator catalogue covers coord only")
            return -(M.dim / M.radius**2) * self(z)
        lap = self.laplacian(z)
        if isinstance(M, Hyperbolic):
            # conformal chart of the half-plane: Laplace-Beltrami is x_2^2
            # times the flat Laplacian, with no first-order term
            lap = z[..., 1] ** 2 * lap
        drift = M.drift(z)
        if np.any(drift):
            return lap + np.sum(drift * self.grad(z), axis=-1)
        return lap

    def to_config(self) -> dict:
        cfg = {"tag": self.tag}
        cfg.update({k: (list(v) if isinstance(v, (list, tuple, np.ndarray)) else v) for k, v in self.params.items()})
        return cfg


@dataclass(frozen=True)
class Derived:
    """The integrand z -> op(f(z)) of a catalogue f (log f, f^2), which
    the oracle refuses exactly when it refuses f; log f is ``f.log``."""

    f: TestFunction
    op: Callable

    def __call__(self, z):
        return self.f.log(z) if self.op is np.log else self.op(self.f(z))


def const(c: float) -> TestFunction:
    return TestFunction("const", {"c": float(c)})


def coord(i: int = 0) -> TestFunction:
    return TestFunction("coord", {"i": int(i)})


def coord_sq(i: int = 0) -> TestFunction:
    return TestFunction("coord_sq", {"i": int(i)})


def coord_exp(a) -> TestFunction:
    return TestFunction("coord_exp", {"a": [float(v) for v in np.atleast_1d(a)]})


def gauss_bump(center, width: float, amp: float = 1.0) -> TestFunction:
    return TestFunction(
        "gauss_bump",
        {"center": [float(v) for v in np.atleast_1d(center)], "width": float(width), "amp": float(amp)},
    )


def one_plus_bump(center, width: float, b: float = 0.5) -> TestFunction:
    return TestFunction(
        "one_plus_bump",
        {"center": [float(v) for v in np.atleast_1d(center)], "width": float(width), "b": float(b)},
    )


def log_bump(center, width: float, amp: float = 1.0) -> TestFunction:
    return TestFunction(
        "log_bump",
        {"center": [float(v) for v in np.atleast_1d(center)], "width": float(width), "amp": float(amp)},
    )


_BUILDERS = {
    "const": const,
    "coord": coord,
    "coord_sq": coord_sq,
    "coord_exp": coord_exp,
    "gauss_bump": gauss_bump,
    "one_plus_bump": one_plus_bump,
    "log_bump": log_bump,
}


def test_function_from_config(cfg: dict, chart_dim: int) -> TestFunction:
    """Read a catalogue function from its config mapping, e.g.
    ``{tag: coord, i: 0}``: the tag names a builder above and the other
    keys are its arguments, read by ``geometry.read_record``.

    Raises ValueError saying what the mapping must be: a record the
    builder takes, an index ``i`` in range(chart_dim), a ``center`` or
    ``a`` of chart_dim entries.
    """
    tag, args = read_record(cfg, "tag", _BUILDERS)
    for k, v in args.items():
        if k in ("center", "a") and np.size(v) != chart_dim:
            raise ValueError(f"{tag} {k} must have {chart_dim} entries, got {v!r}")
        if k == "i" and not 0 <= v < chart_dim:
            raise ValueError(f"{tag} i must lie in range({chart_dim}), got {v!r}")
    return _BUILDERS[tag](**args)


# ----------------------------------------------------------------------
# Monte Carlo route
# ----------------------------------------------------------------------

_MODES = ("f", "log f", "1")


def _mode_values(f, mode, positions, alive):
    if mode == "1":
        return alive.astype(float)
    vals = f.log(positions) if mode == "log f" else f(positions)
    return np.where(alive, vals, 0.0)


def mc_functional_values(
    M: ModelSpace,
    starts,
    T: float,
    f: Optional[TestFunction],
    reads: Sequence[tuple],
    n_paths: int,
    h: float,
    master_seed: int,
) -> list:
    """Per-path observable values (killed paths contribute zero), all read
    from one ensemble simulated from ``starts``, shape (n_starts,
    chart_dim), whose start points share its noise.  ``reads`` lists
    (start index, mode) pairs; the values are one array per pair, in that
    order.

    Only X_T is read, so on a variant whose Euler step is exact in law at
    any size (``ModelSpace.euler_exact``: ``euclidean`` and
    ``half_space``) the ensemble takes one step to T: there h would pick
    only which noise is drawn, not the law, and is not used."""
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2:
        raise ValueError("starts must have shape (n_starts, chart_dim)")
    for i, m in reads:
        if not 0 <= i < len(starts) or m not in _MODES:
            raise ValueError(f"need a start index below {len(starts)} and a mode among {_MODES}")
        if m == "log f" and (f is None or not f.strictly_positive):
            raise NonpositiveF("mode 'log f' needs a strictly positive f")
    res = simulate_ensemble(M, starts, T, T if M.euler_exact else h, n_paths, master_seed)
    return [_mode_values(f, m, res["positions"][i], res["alive"][i]) for i, m in reads]


def mc_functional(
    M: ModelSpace,
    x,
    T: float,
    f: Optional[TestFunction],
    mode: str = "f",
    n_paths: int = 100_000,
    h: float = 1e-2,
    master_seed: int = 0,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of P_T f(x) (or the log / one mode) at one
    start point x."""
    if n_paths < 1000:
        raise ValueError("n_paths must be >= 1000")
    if np.ndim(x) > 1:
        raise ValueError("mc_functional estimates at one start point")
    vals = mc_functional_values(M, np.reshape(x, (1, -1)), T, f, [(0, mode)], n_paths, h, master_seed)
    return estimate_from_values(vals[0])


# ----------------------------------------------------------------------
# Oracle route (quadrature against exact kernels)
# ----------------------------------------------------------------------


_RULES_LOCK = threading.Lock()


def _rule(kind: str, n: int):
    """The n-node Gauss rule of ``kind`` ("legendre" on [-1, 1] or
    "hermite" for the weight exp(-z^2)) as read-only (nodes, weights).
    numpy builds a rule with a dense eigensolve, so each is built once
    per process, on first use."""
    # lru_cache alone lets two pool threads that meet a rule first both build it
    with _RULES_LOCK:
        return _build_rule(kind, n)


@functools.lru_cache(maxsize=None)
def _build_rule(kind: str, n: int):
    nodes, weights = {"legendre": npleg.leggauss, "hermite": npherm.hermgauss}[kind](n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_hermite_expectation(fn: Callable, mean: np.ndarray, sigma: float, order: int) -> float:
    """E fn(N(mean, sigma^2 I)) by a tensor Gauss-Hermite rule."""
    nodes, weights = _rule("hermite", order)
    d = len(mean)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    w = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    z = mean + math.sqrt(2.0) * sigma * pts
    return float(np.sum(w * fn(z)) / math.pi ** (d / 2))


def _gh_axes(mean: np.ndarray, sigma: float, order: int) -> list:
    """(node positions, probability weights) of the tensor Gauss-Hermite
    rule along each axis."""
    nodes, weights = _rule("hermite", order)
    nodes, weights = math.sqrt(2.0) * sigma * nodes, weights / math.sqrt(math.pi)
    return [(m + nodes, weights) for m in mean]


def _reflected_expectation(fn: Callable, x: np.ndarray, sigma: float, n_wall: int, order: int):
    """E fn of N(x, sigma^2 I) with its first coordinate reflected at 0,
    and the rule's (node positions, probability weights) along each axis.

    That coordinate has the density phi(z - x_0) + phi(z + x_0) on z >= 0
    (phi the N(0, sigma^2) density), integrated by an n_wall-node
    Gauss-Legendre rule on [max(0, x_0 - 10 sigma), x_0 + 10 sigma]: the
    wall is an end of the window, so the integrand is smooth on it.  The
    other coordinates take the Gauss-Hermite rule of ``order``."""
    lo, hi = max(0.0, x[0] - 10.0 * sigma), x[0] + 10.0 * sigma
    u, wu = _rule("legendre", n_wall)
    half = 0.5 * (hi - lo)
    z0 = lo + half * (1.0 + u)
    dens = np.exp(-0.5 * ((z0 - x[0]) / sigma) ** 2) + np.exp(-0.5 * ((z0 + x[0]) / sigma) ** 2)
    w0 = half * wu * dens / (sigma * math.sqrt(2.0 * math.pi))
    if len(x) == 1:
        return float(w0 @ fn(z0[:, None])), [(z0, w0)]

    def along_normal(rest):
        pts = np.concatenate([np.broadcast_to(z0[:, None, None], (n_wall, len(rest), 1)),
                              np.broadcast_to(rest, (n_wall,) + rest.shape)], axis=-1)
        return w0 @ fn(pts)

    return _gauss_hermite_expectation(along_normal, x[1:], sigma, order), [(z0, w0)] + _gh_axes(x[1:], sigma, order)


# Gauss-Hermite orders tried in turn; a tensor grid of more than 180**3
# points is not built
_GH_ORDERS = (48, 96, 180, 256, 360)


def _gaussian_values(fn: Callable, mean: np.ndarray, sigma: float):
    """E fn(N(mean, sigma^2 I)) at the rising Gauss-Hermite orders, each
    with the rule's (node positions, probability weights) along each axis."""
    return ((_gauss_hermite_expectation(fn, mean, sigma, n), _gh_axes(mean, sigma, n))
            for n in _GH_ORDERS if n ** len(mean) <= 180**3)


def _require_resolved(variant: str, f: Callable, axes, tol: float) -> None:
    """Refuse a catalogue bump narrower than the gap between the two
    nodes around its centre along some axis, where the rule weighs those
    nodes above ``tol``: it falls between the nodes of every order alike,
    so their agreement says nothing.  Where they weigh less, the bump
    moves the value by less than the tolerance."""
    f = f.f if isinstance(f, Derived) else f  # a derived integrand has f's bump
    width = getattr(f, "width", None)
    if width is None:
        return
    for (nodes, weights), c in zip(axes, f.params["center"]):
        k = int(np.searchsorted(nodes, c))  # c lies between nodes k - 1 and k
        if 0 < k < len(nodes) and nodes[k] - nodes[k - 1] > width and weights[k - 1] + weights[k] > tol:
            raise OracleNotConverged(
                f"{variant} oracle quadrature cannot resolve f: the node gap {nodes[k] - nodes[k - 1]:.3g} "
                f"at its centre exceeds its width {width!r}")


def _converged(variant: str, values, f: Callable, tol=1e-10) -> float:
    """The first of ``values`` (one quadrature at rising orders, each
    with its (node positions, weights) along each axis) that agrees with
    the one before to ``tol`` relative, once ``_require_resolved``
    passes."""
    prev = last = None
    for val, axes in values:
        if prev is not None and abs(val - prev) < tol * (1.0 + abs(val)):
            _require_resolved(variant, f, axes, tol)
            return val
        prev, last = val, prev
    raise OracleNotConverged(
        f"{variant} oracle quadrature did not converge: its last two orders give {last!r} and {prev!r}")


def series_tail_bound(M: Sphere, t: float) -> float:
    """Upper bound on the eigen-series truncation error after
    SERIES_TERMS terms (geometric comparison of the damped coefficients);
    far below 1e-10 for every horizon the checkers use."""
    tau = t / M.radius**2
    K = SERIES_TERMS
    if M.dim == 1:
        q = math.exp(-(2 * K + 1) * tau)
        return 2.0 * math.exp(-((K + 1) ** 2) * tau) / max(1.0 - q, 1e-16)
    a_next = (2 * K + 3) * math.exp(-(K + 1) * (K + 2) * tau)
    q = (2 * K + 5) / (2 * K + 3) * math.exp(-2 * (K + 2) * tau)
    if q >= 1.0:
        return math.inf
    return a_next / (1.0 - q)


def _row_dots(a, v):
    """a[..., k] v[k] summed over k for each row of a, by the BLAS dot
    that np.dot uses on one row: each row gets its one-row value bit for
    bit, which a matrix-vector product over many rows does not give."""
    return (a[..., None, :] @ v[:, None])[..., 0, 0]


def _sphere1_kernel_vals(M: Sphere, delta, t):
    """Transition density on the circle w.r.t. normalised arclength."""
    ks = np.arange(1, SERIES_TERMS + 1)
    damp = np.exp(-(ks**2) * t / M.radius**2)
    return 1.0 + 2.0 * _row_dots(np.cos(np.asarray(delta)[..., None] * ks / M.radius), damp)


def _sphere2_kernel_vals(radius: float, cos_theta, t):
    """Transition density on the 2-sphere w.r.t. normalised area."""
    ls = np.arange(SERIES_TERMS + 1)
    coeff = (2 * ls + 1) * np.exp(-ls * (ls + 1) * t / radius**2)
    return npleg.legval(np.asarray(cos_theta), coeff)


@functools.lru_cache(maxsize=64)
def _sphere2_u_rule(radius: float, t: float):
    """The kernel p_t at the nodes of the 2-sphere oracle's Gauss-Legendre
    rule in u = cos(theta), and the rule's weights each times it
    (read-only): the series is summed once per node."""
    u, wu = _rule("legendre", 240)
    kern = _sphere2_kernel_vals(radius, u, t)
    weights = wu * kern
    kern.flags.writeable = weights.flags.writeable = False
    return kern, weights


def oracle_semigroup(M: ModelSpace, x, T: float, f: Callable) -> float:
    """P_T f(x) by quadrature against the exact kernel.

    Supported: Euclidean (Gaussian), Ornstein-Uhlenbeck (Gaussian with
    contracted mean), half-space (the Neumann kernel, split at the wall;
    see ``_reflected_expectation``), and spheres of dimension 1 and 2
    (eigenfunction series).  The Gaussian and half-space rules rise in
    order until two orders agree to 1e-10 relative, and raise
    OracleNotConverged when the highest does not, or when f is a bump
    (or a ``Derived`` integrand of one) narrower than the node gap around
    its centre where the rule weighs those nodes above the tolerance; the
    sphere rules are fixed.  Each Gauss rule is built once per process
    (``_rule``).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(M, OrnsteinUhlenbeck):
        m = math.exp(-M.lam * T)
        sigma = math.sqrt((1.0 - m**2) / M.lam)
        return _converged(M.variant, _gaussian_values(f, m * x, sigma), f)
    if isinstance(M, HalfSpace):
        sigma = math.sqrt(2.0 * T)
        return _converged(M.variant, (_reflected_expectation(f, x, sigma, n_wall, n)
                                      for n_wall, n in zip((128, 256, 512), _GH_ORDERS)), f)
    if isinstance(M, Euclidean):
        if M.drift_vec is not None:
            x = x + T * M.drift_vec
        return _converged(M.variant, _gaussian_values(f, x, math.sqrt(2.0 * T)), f)
    if isinstance(M, Sphere) and M.dim == 1:
        n = 4096
        theta0 = math.atan2(x[1], x[0])
        theta = theta0 + 2.0 * np.pi * np.arange(n) / n
        pts = M.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        kern = _sphere1_kernel_vals(M, M.radius * (theta - theta0), T)
        return float(np.mean(kern * f(pts)))
    if isinstance(M, Sphere) and M.dim == 2:
        n_psi = 240
        u, _ = _rule("legendre", 240)
        psi = 2.0 * np.pi * (np.arange(n_psi) + 0.5) / n_psi
        nvec = x / M.radius
        fr = M.frame(x)
        sin_t = np.sqrt(np.maximum(1.0 - u**2, 0.0))
        pts = (
            u[:, None, None] * nvec
            + sin_t[:, None, None] * (np.cos(psi)[None, :, None] * fr[0] + np.sin(psi)[None, :, None] * fr[1])
        ) * M.radius
        fvals = f(pts.reshape(-1, 3)).reshape(len(u), n_psi)
        return float(np.sum(_sphere2_u_rule(M.radius, T)[1] * fvals.mean(axis=1)) / 2.0)
    raise NoOracle(f"no closed-form semigroup oracle for variant {M.variant!r}")


# -- symmetric kernels and invariant measures ---------------------------


def heat_kernel(M: ModelSpace, x, y, t: float):
    """Transition density p_t(x, y) w.r.t. the invariant probability
    measure (circle / 2-sphere with normalised volume, OU with its
    normalised Gaussian).  ``y`` is one point or an array of points
    (..., chart_dim); each density is bit for bit that of its point
    alone."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(M, Sphere) and M.dim == 1:
        return _sphere1_kernel_vals(M, M.distance(x, y), t)
    if isinstance(M, Sphere) and M.dim == 2:
        return _sphere2_kernel_vals(M.radius, _row_dots(y, x) / M.radius**2, t)
    if isinstance(M, OrnsteinUhlenbeck) and M.dim == 1:
        m = math.exp(-M.lam * t)
        xx = float(x[0])

        def mehler(yy):
            # in Python floats: numpy's exp and square differ from libm's
            # exp and pow in the last bit
            expo = M.lam * (-(m**2) * (xx**2 + yy**2) / (2 * (1 - m**2)) + m * xx * yy / (1 - m**2))
            return math.exp(expo) / math.sqrt(1.0 - m**2)

        return np.vectorize(mehler, otypes=[float])(y[..., 0])[()]
    raise NoOracle(f"no symmetric kernel for variant {M.variant!r}")


def mu_ball(M: ModelSpace, y, s: float) -> float:
    """Invariant-measure mass of the metric ball B(y, s)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(M, Sphere) and M.dim == 1:
        return min(1.0, s / (np.pi * M.radius))
    if isinstance(M, Sphere) and M.dim == 2:
        theta = min(s / M.radius, np.pi)
        return 0.5 * (1.0 - math.cos(theta))
    if isinstance(M, OrnsteinUhlenbeck) and M.dim == 1:
        # N(0, 1/lam) mass of (|y| - s, |y| + s), by upper tails so that
        # a far-out ball keeps its mass instead of rounding to 0
        a, y0 = math.sqrt(0.5 * M.lam), abs(float(y[0]))
        return 0.5 * (math.erfc(a * (y0 - s)) - math.erfc(a * (y0 + s)))
    raise NoOracle(f"no invariant measure for variant {M.variant!r}")


def mu_quadrature(M: ModelSpace, n: int = 512):
    """(points, weights) integrating functions against the invariant
    probability measure."""
    if isinstance(M, Sphere) and M.dim == 1:
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        pts = M.radius * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return pts, np.full(n, 1.0 / n)
    if isinstance(M, OrnsteinUhlenbeck) and M.dim == 1:
        nodes, weights = _rule("hermite", min(n, 180))
        sd = 1.0 / math.sqrt(M.lam)
        pts = (math.sqrt(2.0) * sd * nodes)[:, None]
        return pts, weights / math.sqrt(math.pi)
    raise NoOracle(f"no invariant measure for variant {M.variant!r}")


def kernel_entropy(M: ModelSpace, y, t: float) -> float:
    """Relative entropy  int p_t(y, z) log p_t(y, z) mu(dz), which is the
    semigroup expectation P_t(log p_t(y, .))(y).

    On the 2-sphere p_t(y, z) depends on z only through u = cos(theta),
    so this is the oracle's u rule alone, 1/2 sum_i w_i p(u_i) log p(u_i),
    the same at every y."""
    if isinstance(M, Sphere) and M.dim == 2:
        kern, weights = _sphere2_u_rule(M.radius, t)
        return float(np.sum(weights * np.log(np.maximum(kern, 1e-300))) / 2.0)
    return oracle_semigroup(M, y, t, lambda z: np.log(np.maximum(heat_kernel(M, y, z, t), 1e-300)))


# ----------------------------------------------------------------------
# Gradient and generator checks
# ----------------------------------------------------------------------


def _fd_starts(M: ModelSpace, x, eps: float) -> np.ndarray:
    """The finite-difference starts x + eps e_i, x - eps e_i for each
    frame vector e_i at x, in that order."""
    fr = M.frame(x)
    return np.stack([M.exp(x, sign * eps * fr[i]) for i in range(M.dim) for sign in (1.0, -1.0)])


def _fd_gradient(vals, eps: float) -> MonteCarloEstimate:
    """|grad P_T f| from the per-path values at the ``_fd_starts``; its
    standard error is that of the component along the mean gradient."""
    dim, n_paths = len(vals) // 2, len(vals[0])
    diffs = np.empty((n_paths, dim))
    for i in range(dim):
        diffs[:, i] = (vals[2 * i] - vals[2 * i + 1]) / (2.0 * eps)
    g = diffs.mean(axis=0)
    cov = np.cov(diffs, rowvar=False).reshape(dim, dim) / n_paths
    norm = float(np.linalg.norm(g))
    if norm > 1e-12:
        direction = g / norm
        se = float(np.sqrt(direction @ cov @ direction))
    else:
        se = float(np.sqrt(np.trace(cov)))
    return MonteCarloEstimate(mean=norm, stderr=se, n=n_paths)


def generator_check(
    M: ModelSpace,
    x,
    g: TestFunction,
    n_paths: int = 200_000,
    h: float = 2e-3,
    master_seed: int = 0,
) -> dict:
    """Least-squares slope of (P_s g(x) - g(x)) over the s grid
    0.002, 0.004, ..., 0.02, compared with the closed-form generator value
    L g(x).

    Without an oracle, one ensemble runs to max(s) and is read once at
    each step that reaches an s (``diffusion.PathConfig.mark_steps``);
    the fit then uses those distinct times, returned as ``s_grid``.  The
    slope is linear in the per-time means, so each path carries its own
    slope w . (g(X_s) 1_alive - g(x)), w the first row of
    pinv([s, s^2]); ``slope_paths`` is their estimate, whose standard
    error is the slope's (None on the oracle route)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    s_grid = 0.002 * np.arange(1, 11)
    g0 = float(g(x[None, :])[0])
    slope_paths = None
    try:
        vals = np.array([oracle_semigroup(M, x, s, g) for s in s_grid])
        used_oracle = True
    except NoOracle:
        used_oracle = False
        if n_paths < 1000:
            raise ValueError("n_paths must be >= 1000") from None
        cfg = PathConfig(h=h, T=float(np.max(s_grid)))
        # when h does not divide the grid, several s share a step: each
        # reached step is read and fitted once, in ascending order
        steps = np.unique(cfg.mark_steps(s_grid))
        reached = steps * cfg.h_eff
        w = np.linalg.pinv(np.stack([reached, reached**2], axis=-1))[0]
        vals = np.empty_like(reached)
        per_path = np.zeros(n_paths)
        index = {k: i for i, k in enumerate(steps.tolist())}

        def on_step(k, positions, alive, _):
            if k not in index:
                return
            i = index[k]
            gv = _mode_values(g, "f", positions, alive)
            vals[i] = sample_mean(gv)
            gv -= g0
            gv *= w[i]
            np.add(per_path, gv, out=per_path)

        simulate_ensemble(M, x, cfg.T, h, n_paths, master_seed, on_step=on_step)
        slope_paths = estimate_from_values(per_path)
        s_grid = reached
    y = vals - g0
    # least-squares fit y = b s + c s^2: the quadratic term absorbs the
    # second-order semigroup expansion, leaving b as the slope at 0
    A = np.stack([s_grid, s_grid**2], axis=-1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    lg = float(g.generator(M, x[None, :])[0])
    denom = abs(lg) if abs(lg) > 1e-12 else 1.0
    return {
        "slope": slope,
        "slope_paths": slope_paths,
        "lg": lg,
        "rel_error": abs(slope - lg) / denom,
        "s_grid": s_grid,
        "values": vals,
        "oracle": used_oracle,
    }
