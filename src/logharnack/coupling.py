"""Coupling by parallel displacement with explicit Girsanov accounting.

The pair (X, Y) is driven by one Brownian motion: X takes the plain
diffusion step, Y takes the same tangent noise parallel-transported along
the minimal geodesic plus an attracting drift of size
sqrt(xi_1^2 + xi_2^2) toward X.  The drift xi_1 follows the deterministic
deadline schedule 2 K e^{-K t} / (1 - e^{-2 K T}) rho(x, y) built from
the curvature bound K on the enlarged domain (rho(x, y) / T as K -> 0);
xi_2 = 2 c_D(phi) rho / phi(Y)^2 activates near the domain boundary so
the pair couples before Y can reach it; where phi(Y) < PHI_CAP the step
uses PHI_CAP and flags the pair boundary-degenerate.  The change-of-
measure density R is accumulated exactly for the drift actually
applied, so E R = 1 holds step by step by construction.

A pair stops at the first of: Y reaching the domain boundary, X leaving
the enlarged domain, coupling (rho below the detection radius, then Y is
snapped onto X), or the time horizon.  log R freezes at that moment.
A run's config is a ``diffusion.PathConfig``, so its clock is the one
of the plain diffusion: steps of h_eff = T / ceil(T / h), ending exactly
at T.  ``standard_coupling_config`` builds it for the domain
D = B(y, domain_radius) with the cosine reference on D.

``run_coupling`` is the one way to step pairs; its batch step
(``_coupled_step``) has this pair-geometry budget per step:
rho(X, Y) and phi(Y) carry over from the previous step's stopping
checks; the pair's two unit directions, at X away from Y and at Y away
from X, come once each in closed form (on the
sphere from y - x and |y - x|, on the hyperbolic plane from one
complex product each), and on the sphere the transported noise is
built from them; the noise map at X and its adjoint, which the
Girsanov increment dots with the normals, need no frame on the
2-sphere; the stopping checks then take rho(X', Y') and the distances
of Y' and of X' to the domain centre y, phi(Y') and Y' in D both being
read from the distance of Y'.  On the 2-sphere that is three angle
evaluations, all in the stopping checks, and no frame per step.
``run_coupling`` keeps the running pairs of a block in compacted arrays,
in index order, and writes a pair back only when it stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffusion import PathConfig
from .geometry import ModelSpace, _dot, _scale
from .local_bounds import (
    _cosine,
    c_D,
    cosine_reference,
    K_of_domain,
    log_harnack_rhs,
    K_ZERO_TOL,
)
from .rng import path_blocks, stream
from .stats import MonteCarloEstimate, estimate_from_values

__all__ = [
    "CouplingConfig",
    "CouplingDiagnostics",
    "standard_coupling_config",
    "run_coupling",
]

# xi_2 is capped (and the pair flagged boundary-degenerate) below this phi.
PHI_CAP = 1e-4

THETA_NONE = 0
THETA_BOUNDARY_Y = 1  # tau_D(y): Y reached the domain boundary
THETA_EXIT_X = 2      # tau_{D(x,y)}(x): X left the enlarged domain
THETA_COUPLED = 3     # tau: coupling
THETA_HORIZON = 4     # T

THETA_NAMES = {
    THETA_NONE: "running",
    THETA_BOUNDARY_Y: "tau_D_y",
    THETA_EXIT_X: "tau_Dxy_x",
    THETA_COUPLED: "coupled",
    THETA_HORIZON: "horizon",
}


@dataclass
class CouplingConfig(PathConfig):
    """Frozen data of one coupled run on the clock (h, T): the domain is
    D = B(y, domain_radius) and phi its cosine reference, so phi(y) = 1."""

    x: np.ndarray
    y: np.ndarray
    domain_radius: float
    K_D_rho: float
    c_D_phi: float
    eps_couple: float
    rho0: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if not self.domain_radius > 0:
            raise ValueError("domain_radius must be > 0")
        if self.eps_couple > 10.0 * math.sqrt(2.0 * self.h):
            raise ValueError("eps_couple must stay within 10 sqrt(2h)")

    @property
    def phi_floor(self) -> float:
        """Y stops where phi(Y) <= pi eps_couple / 4, near the boundary of D."""
        return 0.25 * np.pi * self.eps_couple


def standard_coupling_config(
    M: ModelSpace,
    x,
    y,
    T: float,
    h: float,
    *,
    domain_radius: float = 1.0,
) -> CouplingConfig:
    """Config on D = B(y, domain_radius) with the cosine reference on D and
    constants from the enlarged-domain curvature supremum.

    The detection radius is 3 sqrt(2h), capped at a quarter of the initial
    separation so that nearby pairs are not born coupled; x = y is the
    legitimate degenerate case.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rho0 = float(M.distance(x, y))
    phi = cosine_reference(M, y, radius=domain_radius)
    eps_couple = 3.0 * math.sqrt(2.0 * h)
    if rho0 > 0:
        eps_couple = min(eps_couple, rho0 / 4.0)
    return CouplingConfig(
        h=h,
        T=T,
        x=x,
        y=y,
        domain_radius=domain_radius,
        K_D_rho=K_of_domain(M, y, domain_radius + rho0),
        c_D_phi=c_D(M, phi),
        eps_couple=eps_couple,
        rho0=rho0,
    )


# ----------------------------------------------------------------------
# Stepping kernel
# ----------------------------------------------------------------------


def _xi1_rate(t, cfg):
    """The deadline drift xi_1 at times t per unit of rho(x, y)."""
    K, T = cfg.K_D_rho, cfg.T
    t = np.asarray(t, dtype=float)
    if abs(K) < K_ZERO_TOL:
        return np.full_like(t, 1.0 / T)
    if -2.0 * K * T > 700.0:  # as in local_bounds.harnack_rate
        return -2.0 * K * np.exp(K * (2.0 * T - t))
    return 2.0 * K * np.exp(-K * t) / (1.0 - math.exp(-2.0 * K * T))


class _Pairs(NamedTuple):
    """Batch state of running pairs; rho = distance(X, Y) and phi_y =
    phi(Y) are the values the last stopping checks computed."""

    X: np.ndarray
    Y: np.ndarray
    rho: np.ndarray
    phi_y: np.ndarray
    log_R: np.ndarray
    flagged: np.ndarray

    def take(self, keep) -> "_Pairs":
        """The pairs at the indices ``keep``."""
        return _Pairs(*(a.take(keep, axis=0) for a in self))


def _coupled_step(M, cfg, h, t, p: _Pairs, xi):
    """Advance every pair of the batch from time t by one step of size h,
    then apply the stopping checks in the fixed order: boundary of D for
    Y, exit of the enlarged domain for X, coupling, horizon.

    Returns (new state, theta): theta is each pair's stopping event
    (THETA_NONE while it runs).  Y is snapped onto X where the pair
    coupled.
    """
    n = p.X.shape[0]
    flagged = p.flagged | (p.phi_y < PHI_CAP)
    phi_eff = np.maximum(p.phi_y, PHI_CAP)

    x1 = _xi1_rate(t, cfg) * cfg.rho0
    x2 = 2.0 * cfg.c_D_phi * p.rho / phi_eff**2
    # never move Y past X within one explicit step; R stays the exact
    # density of the drift actually applied
    a = np.minimum(np.sqrt(x1**2 + x2**2), p.rho / h)

    # G = tangent_from_frame(X, xi) realises Phi dB in chart components;
    # GY is its transport to Y, toward the unit at Y pointing away from X,
    # away_c the noise-frame components at X of the unit pointing away
    # from Y
    G, GY, toward, away_c = M._pair_geometry(p.X, p.Y, p.rho, xi)
    vX = math.sqrt(2.0 * h) * G + h * M.drift(p.X)
    Xn = M.exp(p.X, vX)
    vY = math.sqrt(2.0 * h) * GY + h * (M.drift(p.Y) - _scale(a, toward))
    Yn = M.exp(p.Y, vY)
    if M.has_boundary:
        Xn, Yn = M.reflect(Xn)[0], M.reflect(Yn)[0]

    # Girsanov increment for eta = (a / sqrt 2) * (unit at X away from Y),
    # held in noise-frame components: <eta, Phi dB> is eta_i xi_i sqrt(h).
    eta = _scale(a / math.sqrt(2.0), away_c)
    dlogR = -math.sqrt(h) * _dot(eta, xi) - 0.5 * h * _dot(eta, eta)

    rho = M.distance(Xn, Yn)
    dy = M.distance(cfg.y, Yn)  # phi(Y') and Y' in D, from one distance
    phi_y = _cosine(dy, cfg.domain_radius)
    theta = np.select(
        [
            (phi_y <= cfg.phi_floor) | ~(dy < cfg.domain_radius),
            M.distance(cfg.y, Xn) >= cfg.domain_radius + cfg.rho0,  # X left B(y, r + rho0)
            rho <= cfg.eps_couple,
            np.full(n, t + h >= cfg.T - 1e-12),
        ],
        [THETA_BOUNDARY_Y, THETA_EXIT_X, THETA_COUPLED, THETA_HORIZON],
        THETA_NONE,
    ).astype(np.int8)
    coupled = theta == THETA_COUPLED
    Yn[coupled] = Xn[coupled]
    return _Pairs(Xn, Yn, rho, phi_y, p.log_R + dlogR, flagged), theta


# ----------------------------------------------------------------------
# Ensemble driver and diagnostics
# ----------------------------------------------------------------------


@dataclass
class CouplingDiagnostics:
    """Monte Carlo summary of a coupled run; ``values`` holds the per-pair
    arrays R, log_R, coupled and theta, and terminal with a terminal_fn."""

    e_r: MonteCarloEstimate
    e_rlogr: MonteCarloEstimate
    entropy_bound: float
    coupling_weighted: MonteCarloEstimate
    coupled_fraction: float
    flagged_fraction: float
    theta_counts: dict
    max_rho_excess: float
    n: int
    seed: int
    values: dict

    def to_row(self) -> dict:
        return {
            "e_r": self.e_r.mean,
            "e_r_stderr": self.e_r.stderr,
            "e_rlogr": self.e_rlogr.mean,
            "e_rlogr_stderr": self.e_rlogr.stderr,
            "entropy_bound": self.entropy_bound,
            "coupling_weighted": self.coupling_weighted.mean,
            "coupling_weighted_stderr": self.coupling_weighted.stderr,
            "coupled_fraction": self.coupled_fraction,
            "flagged_fraction": self.flagged_fraction,
            "max_rho_excess": self.max_rho_excess,
            "n": self.n,
            "seed": self.seed,
        }


def run_coupling(
    M: ModelSpace,
    cfg: CouplingConfig,
    n_pairs: int,
    master_seed: int = 0,
    *,
    terminal_fn=None,
):
    """Simulate n_pairs independent coupled pairs and report the Girsanov
    diagnostics (E R, E R log R with its closed-form bound
    ``local_bounds.log_harnack_rhs``, the weighted probability of
    coupling before the competing stopping events).

    With ``terminal_fn`` the merged point of every coupled pair keeps
    evolving as a plain diffusion to the horizon and fn(X_T) is recorded;
    under the change of measure E[R fn(X_T); coupled] reproduces the
    semigroup started at y up to the coupling defect, which is the
    identity the whole construction exists for.
    """
    n_steps, h = cfg.n_steps, cfg.h_eff

    all_logR = np.empty(n_pairs)
    all_theta = np.empty(n_pairs, dtype=np.int8)
    all_flagged = np.empty(n_pairs, dtype=bool)
    all_terminal = np.full(n_pairs, np.nan)
    max_rho_excess = -np.inf

    for b, lo, hi in path_blocks(n_pairs):
        rng = stream(master_seed, 0, b)
        bn = hi - lo
        X = np.broadcast_to(cfg.x, (bn, M.chart_dim)).copy()
        logR = np.zeros(bn)
        flagged = np.zeros(bn, dtype=bool)
        theta = np.full(bn, THETA_NONE, dtype=np.int8)

        # the stopping cascade also applies to the initial state: pairs
        # born within the detection radius are coupled at t = 0
        if cfg.rho0 <= cfg.eps_couple:
            theta[:] = THETA_COUPLED
        # running pairs live in compacted arrays, in index order, and are
        # written back to the block's arrays when they stop
        run = np.flatnonzero(theta == THETA_NONE)
        X0 = X[run]
        Y0 = np.broadcast_to(cfg.y, X0.shape).copy()
        phi_y = _cosine(M.distance(cfg.y, Y0), cfg.domain_radius)
        pairs = _Pairs(X0, Y0, M.distance(X0, Y0), phi_y, logR[run], flagged[run])

        for k in range(n_steps):
            if terminal_fn is not None:
                merged = np.flatnonzero(theta == THETA_COUPLED)
            if run.size == 0 and (terminal_fn is None or merged.size == 0):
                break
            xi = rng.standard_normal((run.size, M.noise_width))
            if run.size:
                pairs, th = _coupled_step(M, cfg, h, k * h, pairs, xi)
                max_rho_excess = max(max_rho_excess, float(np.max(pairs.rho)) - cfg.rho0)
                stop = np.flatnonzero(th)  # THETA_NONE is 0
                if stop.size:
                    done, keep = run[stop], np.flatnonzero(th == THETA_NONE)
                    X[done], logR[done] = pairs.X.take(stop, axis=0), pairs.log_R.take(stop)
                    flagged[done], theta[done] = pairs.flagged.take(stop), th.take(stop)
                    run, pairs = run.take(keep), pairs.take(keep)
            if terminal_fn is not None and merged.size:
                xim = rng.standard_normal((merged.size, M.noise_width))
                X[merged] = M.step(X[merged], h, xim, np.ones(merged.size, dtype=bool))[0]
        X[run], logR[run], flagged[run] = pairs.X, pairs.log_R, pairs.flagged

        all_logR[lo:hi] = logR
        all_theta[lo:hi] = theta
        all_flagged[lo:hi] = flagged
        if terminal_fn is not None:
            vals = np.full(bn, np.nan)
            idxc = np.flatnonzero(theta == THETA_COUPLED)
            if idxc.size:
                vals[idxc] = terminal_fn(X[idxc])
            all_terminal[lo:hi] = vals

    all_coupled = all_theta == THETA_COUPLED
    R = np.exp(all_logR)
    values = {"R": R, "log_R": all_logR, "coupled": all_coupled, "theta": all_theta}
    if terminal_fn is not None:
        values["terminal"] = all_terminal
    return CouplingDiagnostics(
        e_r=estimate_from_values(R),
        e_rlogr=estimate_from_values(R * all_logR),
        entropy_bound=log_harnack_rhs(cfg.rho0, cfg.K_D_rho, cfg.T, cfg.c_D_phi),
        coupling_weighted=estimate_from_values(R * all_coupled),
        coupled_fraction=float(np.mean(all_coupled)),
        flagged_fraction=float(np.mean(all_flagged)),
        theta_counts={THETA_NAMES[k]: int(np.sum(all_theta == k)) for k in THETA_NAMES},
        max_rho_excess=float(max_rho_excess),
        n=n_pairs,
        seed=master_seed,
        values=values,
    )
