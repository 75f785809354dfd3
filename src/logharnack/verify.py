"""Inequality checkers: assemble both sides with Monte Carlo error bands.

Each checker builds the left and right side of one inequality (log-
Harnack on a domain, its local-geometry version, the L^2-gradient bound,
the Harnack bound, the kernel lower bound, the entropy upper bound, the
entropy-cost bound) and returns an InequalityReport.  Verdicts use a band
of three combined standard errors so Monte Carlo noise can never produce
a false violation: "violated" requires the margin to fall below minus the
band.

The domain checkers (log-Harnack, gradient, Harnack) take a
``domain_radius`` r: D = B(c, r) around the check's own start point c (y,
or x for the gradient check), with the cosine reference phi on D, so the
start lies in D by construction and phi(c) = cos 0 = 1.  Every right-hand
side takes its bound from ``local_bounds.log_harnack_rhs``, with c =
c_D(phi) or kappa(y), or, without the rho^2/2 factor (gradient, Harnack,
entropy), its rate ``log_harnack_rate``.  A report's ``constants`` is
the dict of what built its right side, by name: K over D (``K_D``), or
over its rho-enlargement B(y, r + rho) (``K_D_rho``), and ``c_D_phi``
for the domain checkers; ``kappa``'s dict for the local ones.  A
checker's keywords are the grid keys of its CLI tag.

Monte Carlo sides run one ensemble per check, its start points sharing
the noise: log-Harnack and Harnack from y and x, the gradient check from
the 2 dim finite-difference starts and x (for the variance).  With
``use_oracle`` a checker reads its sides from the closed-form oracle
instead, with no band; on a variant without one, ``NoOracle`` reaches the
caller, so an oracle request never quietly runs paths.

The sharpness experiment estimates the small-time slope of the log-
Harnack defect along y_s = exp_x(s v) and converts it into an empirical
lower bound on the admissible constant in front of rho^2 / (2T); it runs
one ensemble per s, from x and every y_s of that s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    Derived,
    NoOracle,
    TestFunction,
    _fd_gradient,
    _fd_starts,
    heat_kernel,
    kernel_entropy,
    mc_functional_values,
    mu_ball,
    mu_quadrature,
    oracle_semigroup,
)
from .geometry import INJ_MARGIN, ModelSpace, OrnsteinUhlenbeck
from .local_bounds import (
    c_D,
    cosine_reference,
    kappa,
    K_of_domain,
    log_harnack_rate,
    log_harnack_rhs,
)
from .stats import estimate_from_values

__all__ = [
    "GeodesicLeavesDomain",
    "ZeroGradient",
    "InequalityReport",
    "check_log_harnack",
    "check_log_harnack_local",
    "check_gradient",
    "check_harnack",
    "check_kernel_lower_bound",
    "check_entropy_bound",
    "check_entropy_cost",
    "sharpness_experiment",
    "SharpnessReport",
]


class GeodesicLeavesDomain(ValueError):
    pass


class ZeroGradient(ValueError):
    pass


VERDICT_HOLDS = "holds"
VERDICT_BAND = "holds-within-band"
VERDICT_VIOLATED = "violated"
VERDICT_INVALID = "invalid"


@dataclass
class InequalityReport:
    """LHS / RHS of one inequality instance.  ``config`` holds only the
    keys of this instance that its checker's inputs do not name (the
    sharpness rows' r); the runner writes the job's inputs with them."""

    tag: str
    lhs: float
    rhs: float
    lhs_se: float = 0.0
    rhs_se: float = 0.0
    constants: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def band(self) -> float:
        return 3.0 * math.hypot(self.lhs_se, self.rhs_se)

    @property
    def verdict(self) -> str:
        # NaN compares false both ways and would read as within band
        # below; an infinite side or standard error backs no claim either
        if not all(map(math.isfinite, (self.lhs, self.rhs, self.lhs_se, self.rhs_se))):
            return VERDICT_INVALID
        if self.margin < -self.band:
            return VERDICT_VIOLATED
        if self.margin > self.band:
            return VERDICT_HOLDS
        return VERDICT_BAND

    def to_row(self) -> dict:
        return {
            "tag": self.tag,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "band": self.band,
            "verdict": self.verdict,
            "constants": json.dumps(self.constants, sort_keys=True),
        }


def report_config(M: ModelSpace, **values) -> dict:
    """The config of a job on M: its variant and ``values``, the
    keywords of the job's call, a point as a list and a test function as
    its record."""
    def entry(v):
        if isinstance(v, np.ndarray):
            return v.tolist()
        return v.to_config() if isinstance(v, TestFunction) else v

    return {"variant": M.variant, **{k: entry(v) for k, v in values.items()}}


# ----------------------------------------------------------------------
# Log-Harnack
# ----------------------------------------------------------------------


def _lhs_log_harnack(M, x, y, T, f, use_oracle, n_paths, h, seed, correction=True):
    """P_T log f(y) - log(P_T f(x) + 1 - P_T 1(x)) and its standard error.

    By the oracle the error is 0.  By Monte Carlo the two start points
    share the noise of one ensemble and killed paths enter as zeros;
    without the correction the argument of the log is P_T f(x) alone (the
    oracle route always keeps it)."""
    if use_oracle:
        a = oracle_semigroup(M, y, T, Derived(f, np.log))
        b = oracle_semigroup(M, x, T, f)
        one = oracle_semigroup(M, x, T, lambda z: np.ones(z.shape[:-1]))
        return a - math.log(b + 1.0 - one), 0.0
    reads = [(0, "log f"), (1, "f"), (1, "1")]
    ell, fx, ax = mc_functional_values(M, np.stack([y, x]), T, f, reads, n_paths, h, seed)
    if correction:
        g = fx - ax  # per path: f(X_T) 1_alive - 1_alive; E g = P_T f - P_T 1
        arg = 1.0 + float(np.mean(g))
    else:
        g = fx
        arg = float(np.mean(fx))
    return float(np.mean(ell)) - math.log(arg), estimate_from_values(ell - g / arg).stderr


def check_log_harnack(
    M: ModelSpace,
    x,
    y,
    T: float,
    f: TestFunction,
    *,
    n_paths: int = 20_000,
    h: float = 1e-2,
    master_seed: int = 0,
    use_oracle: bool = False,
    correction: bool = True,
    domain_radius: float = 1.0,
) -> InequalityReport:
    """Theorem-form log-Harnack check on D = B(y, domain_radius) with the
    cosine reference phi on D.

    correction=False drops the 1 - P_T 1(x) term (only meaningful on the
    explosive variant, where the dropped form must fail)."""
    if not f.strictly_positive:
        raise ValueError("log-Harnack needs strictly positive f")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = cosine_reference(M, y, radius=domain_radius)
    rho = float(M.distance(x, y))
    K_rho = K_of_domain(M, y, domain_radius + rho)
    c_phi = c_D(M, phi)
    rhs = log_harnack_rhs(rho, K_rho, T, c_phi)  # phi(y) = 1

    lhs, lhs_se = _lhs_log_harnack(M, x, y, T, f, use_oracle, n_paths, h, master_seed, correction)

    consts = {"K_D_rho": K_rho, "c_D_phi": c_phi}
    return InequalityReport("log-harnack", lhs=lhs, rhs=rhs, lhs_se=lhs_se, constants=consts)


def check_log_harnack_local(
    M: ModelSpace,
    x,
    y,
    t: float,
    f: TestFunction,
    *,
    n_paths: int = 20_000,
    h: float = 1e-2,
    master_seed: int = 0,
    use_oracle: bool = False,
) -> InequalityReport:
    """Local-geometry log-Harnack: D = B(y, 1), cosine reference, RHS built
    from K_{x,y} = K(B(y, 1 + rho)) and kappa(y)."""
    if not f.strictly_positive:
        raise ValueError("log-Harnack needs strictly positive f")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rho = float(M.distance(x, y))
    if M.injectivity_radius <= (1.0 + rho) / INJ_MARGIN:
        raise ValueError("needs injectivity radius beyond 1 + rho(x, y)")
    consts = kappa(M, y, x=x)
    rhs = log_harnack_rhs(rho, consts["K_xy"], t, consts["kappa_y"])
    lhs, lhs_se = _lhs_log_harnack(M, x, y, t, f, use_oracle, n_paths, h, master_seed)
    return InequalityReport("log-harnack-local", lhs=lhs, rhs=rhs, lhs_se=lhs_se, constants=consts)


# ----------------------------------------------------------------------
# Gradient inequality
# ----------------------------------------------------------------------


def check_gradient(
    M: ModelSpace,
    x,
    T: float,
    f: TestFunction,
    *,
    n_paths: int = 20_000,
    h: float = 1e-2,
    master_seed: int = 0,
    use_oracle: bool = False,
    domain_radius: float = 1.0,
) -> InequalityReport:
    """|grad P_T f|^2(x) against the variance times the constant of
    D = B(x, domain_radius) with the cosine reference phi on D; the
    gradient is a central difference of step 1e-3 along each frame
    vector."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phi = cosine_reference(M, x, radius=domain_radius)
    K_D = K_of_domain(M, x, domain_radius)
    c_phi = c_D(M, phi)
    const = log_harnack_rate(K_D, T, c_phi)  # phi(x) = 1
    eps = 1e-3
    starts = _fd_starts(M, x, eps)

    if use_oracle:
        vals = np.array([oracle_semigroup(M, z, T, f) for z in starts])
        lhs = float(np.sum(((vals[0::2] - vals[1::2]) / (2 * eps)) ** 2))
        var = oracle_semigroup(M, x, T, Derived(f, np.square)) - oracle_semigroup(M, x, T, f) ** 2
        lhs_se = var_se = 0.0
    else:
        # x is one more start of the finite-difference ensemble
        reads = [(i, "f") for i in range(len(starts) + 1)]
        *fd, fv = mc_functional_values(M, np.vstack([starts, x]), T, f, reads, n_paths, h, master_seed)
        g = _fd_gradient(fd, eps)
        lhs = g.mean**2
        lhs_se = 2.0 * abs(g.mean) * g.stderr
        m1 = float(np.mean(fv))
        var = float(np.mean(fv**2)) - m1**2
        var_se = estimate_from_values(fv**2 - 2.0 * m1 * fv).stderr

    rhs = var * const
    rhs_se = var_se * const
    consts = {"K_D": K_D, "c_D_phi": c_phi}
    return InequalityReport("gradient", lhs=lhs, rhs=rhs, lhs_se=lhs_se, rhs_se=rhs_se, constants=consts)


# ----------------------------------------------------------------------
# Harnack inequality
# ----------------------------------------------------------------------


def check_harnack(
    M: ModelSpace,
    x,
    y,
    T: float,
    f: TestFunction,
    *,
    n_paths: int = 20_000,
    h: float = 1e-2,
    master_seed: int = 0,
    use_oracle: bool = False,
    domain_radius: float = 1.0,
) -> InequalityReport:
    """P_T f(y) <= P_T f(x) + rho sqrt(const / inf_geodesic phi^4)
    sqrt(P_T f^2(y)) on conservative variants, with the cosine reference
    phi on D = B(y, domain_radius) and the minimal geodesic inside D."""
    if not M.conservative:
        raise ValueError("Harnack form requires a conservative variant")
    if not f.nonnegative:
        raise ValueError("Harnack form requires nonnegative f")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    phi = cosine_reference(M, y, radius=domain_radius)
    rho = float(M.distance(x, y))
    # rho(y, .) falls linearly from rho(x, y) to 0 along the minimal
    # geodesic, so it stays in D = B(y, r) iff x does, and the infimum of
    # the decreasing profile phi over it is phi(x)
    if not M.distance(y, x) < domain_radius:
        raise GeodesicLeavesDomain("minimal geodesic must stay inside D")
    K_D = K_of_domain(M, y, domain_radius)
    c_phi = c_D(M, phi)
    const = log_harnack_rate(K_D, T, c_phi, float(phi.phi(x)))
    root_const = math.sqrt(const)

    if use_oracle:
        py = oracle_semigroup(M, y, T, f)
        px = oracle_semigroup(M, x, T, f)
        py2 = oracle_semigroup(M, y, T, Derived(f, np.square))
        lhs, rhs = py, px + rho * root_const * math.sqrt(py2)
        lhs_se = rhs_se = 0.0
    else:
        fy, fx = mc_functional_values(M, np.stack([y, x]), T, f, [(0, "f"), (1, "f")], n_paths, h, master_seed)
        lhs = float(np.mean(fy))
        m2 = float(np.mean(fy**2))
        rhs = float(np.mean(fx)) + rho * root_const * math.sqrt(m2)
        # the starts share noise; fold the correlated-margin
        # stderr into the lhs slot so the band reflects the pairing.  With
        # m2 = 0 every f(X_T) at y is 0, and so is the term of sqrt(m2)
        margin_lin = fx - fy
        if m2 > 0:
            margin_lin = margin_lin + rho * root_const * fy**2 / (2.0 * math.sqrt(m2))
        lhs_se = estimate_from_values(margin_lin).stderr
        rhs_se = 0.0

    consts = {"K_D": K_D, "c_D_phi": c_phi}
    return InequalityReport("harnack", lhs=lhs, rhs=rhs, lhs_se=lhs_se, rhs_se=rhs_se, constants=consts)


# ----------------------------------------------------------------------
# Corollary checks (exact kernels)
# ----------------------------------------------------------------------


def check_kernel_lower_bound(M: ModelSpace, x, y, t: float) -> InequalityReport:
    """Gaussian lower bound p_{2t}(x, y) >= exp(-local log-Harnack cost)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rho = float(M.distance(x, y))
    consts = kappa(M, y, x=x)
    cost = log_harnack_rhs(rho, consts["K_xy"], t, consts["kappa_y"])
    lhs = math.exp(-cost)  # the bound
    rhs = float(heat_kernel(M, x, y, 2.0 * t))  # the kernel must dominate it
    return InequalityReport("kernel-lower", lhs=lhs, rhs=rhs, constants=consts)


def check_entropy_bound(M: ModelSpace, y, t: float) -> InequalityReport:
    """Entropy of p_t(y, .) against sqrt(t^1) * local constant plus the
    volume term (conservative symmetric variants: P1 = 1)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not M.conservative:
        raise ValueError("entropy bound checker covers conservative variants")
    lhs = kernel_entropy(M, y, t)
    consts = kappa(M, y)
    K_bar = consts["K_D"] = K_of_domain(M, y, 2.0)
    s = math.sqrt(min(t, 1.0))
    rhs = s * log_harnack_rate(K_bar, t, consts["kappa_y"]) + math.log(1.0 / mu_ball(M, y, s))
    return InequalityReport("entropy", lhs=lhs, rhs=rhs, constants=consts)


def check_entropy_cost(M: ModelSpace, t: float, eps_tilt: float = 0.2) -> InequalityReport:
    """Entropy of P_t f against the transport cost of the comonotone
    coupling of mu and f mu (any coupling upper-bounds the infimum, so
    LHS <= RHS at the quantile coupling is implied by the inequality).

    Catalogue case: 1-d Ornstein-Uhlenbeck with the exponential tilt
    f = e^{eps z} / mu(e^{eps z}), for which f mu is the stationary
    Gaussian shifted by eps / lam and the quantile map is that shift.
    """
    if not (isinstance(M, OrnsteinUhlenbeck) and M.dim == 1):
        raise NoOracle("entropy-cost checker covers the 1-d OU variant")
    lam = M.lam
    shift = eps_tilt / lam

    def ptf(z):
        # P_t applied to the normalised tilt, closed form for OU
        m = math.exp(-lam * t)
        vt = (1.0 - m**2) / lam
        z = np.asarray(z)[..., 0]
        return np.exp(eps_tilt * m * z + 0.5 * eps_tilt**2 * vt - 0.5 * eps_tilt**2 / lam)

    pts, w = mu_quadrature(M, 180)
    vals = ptf(pts)
    lhs = float(np.sum(w * vals * np.log(np.maximum(vals, 1e-300))))

    # quantile coupling: Y = X + shift under the comonotone pairing
    def cost(xv, yv):
        consts = kappa(M, np.array([yv]), x=np.array([xv]))
        return log_harnack_rhs(abs(shift), consts["K_xy"], t, consts["kappa_y"])

    rhs = float(np.sum(w * np.array([cost(float(p[0]), float(p[0]) + shift) for p in pts])))
    return InequalityReport("entropy-cost", lhs=lhs, rhs=rhs)


# ----------------------------------------------------------------------
# Sharpness of the constant 1/2
# ----------------------------------------------------------------------


@dataclass
class SharpnessReport:
    """Small-time slopes of the log-Harnack defect and the implied
    admissible-constant lower bound."""

    rows: list
    c_min: float
    c_min_se: float

    def to_reports(self) -> list:
        out = []
        for r in self.rows:
            # tolerance scale: |limit| when it is the larger, else the
            # |v|^2/2 cost scale (the r = 1 limit is exactly zero and
            # only constrains c >= 0)
            scale = max(abs(r["limit_exact"]), 0.5 * r["v2"])
            out.append(
                InequalityReport(
                    "sharpness",
                    lhs=abs(r["limit_mc"] - r["limit_exact"]),
                    rhs=0.05 * scale,
                    lhs_se=r["limit_se"],
                    config={"r": r["r"]},
                )
            )
        out.append(InequalityReport("sharpness-cmin", lhs=0.45, rhs=self.c_min, rhs_se=self.c_min_se))
        return out


# the multiples r of grad log f(x) and the times s of the sharpness grid
SHARPNESS_R = (1.0, 1.5, 2.0, 3.0)
SHARPNESS_S = (0.001, 0.002, 0.004, 0.007, 0.01)


def sharpness_experiment(
    M: ModelSpace,
    x,
    f: TestFunction,
    *,
    n_paths: int = 1_000_000,
    master_seed: int = 0,
) -> SharpnessReport:
    """Estimate Q(s)/s for Q(s) = P_s log f(y_s) - log P_s f(x) with
    y_s = exp_x(s r grad log f(x)) and common random numbers across the
    whole grid; extrapolate s -> 0 and compare with the closed-form limit
    (r - 1) |grad log f|^2(x).

    The admissible-constant bound is c_min = max_r 2 L(r) / |v_r|^2,
    which the exact limits maximise at r = 2 with value 1/2.
    """
    if M.variant != "euclidean":
        raise ValueError("sharpness experiment runs on the Euclidean variant")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = f.grad_log(x[None, :])[0]
    g2 = float(g @ g)
    if g2 < 1e-12:
        raise ZeroGradient("need |grad log f|(x) > 0")

    r_values, s_grid = SHARPNESS_R, np.array(SHARPNESS_S)
    q_vals = np.empty((len(r_values), len(s_grid)))
    q_ses = np.empty_like(q_vals)
    for i, s in enumerate(s_grid):
        # one ensemble from x and from every y_s of this s: the variant is
        # Euclidean, so it takes one exact Gaussian step to s
        # (``mc_functional_values`` on an ``euler_exact`` variant)
        starts = [x] + [M.exp(x, s * (r * g)) for r in r_values]
        reads = [(0, "f")] + [(k, "log f") for k in range(1, len(starts))]
        fx, *ells = mc_functional_values(M, np.stack(starts), s, f, reads, n_paths, s, master_seed)
        bx = float(np.mean(fx))
        for k, ell in enumerate(ells):
            q_vals[k, i] = float(np.mean(ell)) - math.log(bx)
            q_ses[k, i] = estimate_from_values(ell - fx / bx).stderr
    rows = []
    best_c, best_c_se = -np.inf, 0.0
    for k, r in enumerate(r_values):
        v2 = r**2 * g2
        ratio = q_vals[k] / s_grid
        # weighted linear fit ratio = L + C s
        wts = 1.0 / (q_ses[k] / s_grid) ** 2
        A = np.stack([np.ones_like(s_grid), s_grid], axis=-1)
        W = A * wts[:, None]
        cov = np.linalg.inv(A.T @ W)
        coef = cov @ (W.T @ ratio)
        limit_mc = float(coef[0])
        limit_se = float(math.sqrt(cov[0, 0]))
        limit_exact = (r - 1.0) * g2
        rows.append(
            {
                "r": r,
                "limit_mc": limit_mc,
                "limit_exact": limit_exact,
                "limit_se": limit_se,
                "ratio": ratio,
                "v2": v2,
                "c_bound": 2.0 * limit_mc / v2,
            }
        )
        if 2.0 * limit_mc / v2 > best_c:
            best_c = 2.0 * limit_mc / v2
            best_c_se = 2.0 * limit_se / v2
    return SharpnessReport(rows=rows, c_min=best_c, c_min_se=best_c_se)
