"""Independent numerical oracles used by the tests.

These deliberately avoid the library's closed-form code paths: geodesics
and parallel transport are integrated from the Christoffel symbols of the
upper half-plane metric, curvature is recovered from geodesic deviation,
boundary-exit probabilities and the stopped local time come from the
classical eigen-series, and domain suprema are maxima over polar grids in every direction.
First-exit times and stopped local times are read from ensembles through
mark reducers that mark every step.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from logharnack.diffusion import PathConfig, simulate_ensemble


def hyperbolic_geodesic_ivp(x0, v0, length=1.0):
    """Integrate the half-plane geodesic ODE; returns the endpoint.

    Christoffels of (dx^2 + dy^2)/y^2:  G^x_xy = -1/y, G^y_xx = 1/y,
    G^y_yy = -1/y.
    """

    def rhs(_, state):
        x, y, vx, vy = state
        ax = 2.0 * vx * vy / y
        ay = (vy**2 - vx**2) / y
        return [vx, vy, ax, ay]

    sol = solve_ivp(rhs, (0.0, length), [x0[0], x0[1], v0[0], v0[1]],
                    rtol=1e-12, atol=1e-12, dense_output=True)
    return np.array(sol.y[:2, -1])


def hyperbolic_transport_ivp(x0, v_dir, w0, length=1.0):
    """Parallel-transport w0 along the geodesic with initial velocity
    v_dir by integrating dw/ds + Gamma(gamma')(w) = 0."""

    def rhs(_, state):
        x, y, vx, vy, wx, wy = state
        ax = 2.0 * vx * vy / y
        ay = (vy**2 - vx**2) / y
        # dw^x/ds = (vx wy + vy wx)/y ; dw^y/ds = (vy wy - vx wx)/y
        dwx = (vx * wy + vy * wx) / y
        dwy = (vy * wy - vx * wx) / y
        return [vx, vy, ax, ay, dwx, dwy]

    sol = solve_ivp(
        rhs,
        (0.0, length),
        [x0[0], x0[1], v_dir[0], v_dir[1], w0[0], w0[1]],
        rtol=1e-12,
        atol=1e-12,
    )
    return np.array(sol.y[:2, -1]), np.array(sol.y[4:, -1])


def curvature_from_deviation(M, x, u, w, t=0.2, delta=1e-5):
    """Sectional/Ricci curvature (surfaces) from geodesic deviation:
    |J(t)| = t - K t^3/6 + O(t^5); Richardson in t kills the t^2 error of
    the inverted estimate."""

    def estimate(tt):
        a = M.exp(x, tt * u)
        v2 = u + delta * w
        v2 = v2 / M.norm(x, v2)
        b = M.exp(x, tt * v2)
        dist = float(M.distance(a, b))
        return 6.0 * (delta * tt - dist) / (delta * tt**3)

    k_t = estimate(t)
    k_half = estimate(t / 2.0)
    return (4.0 * k_half - k_t) / 3.0


def bm_two_sided_exit_prob(t, r=1.0, terms=40):
    """P(sup_{s<=t} |X_s| >= r) for the driftless generator-Delta
    diffusion in 1-d (variance 2s), via the reflection eigen-series."""
    tau = 2.0 * t  # standard BM clock
    s = 0.0
    for k in range(terms):
        s += ((-1) ** k / (2 * k + 1)) * math.exp(-((2 * k + 1) ** 2) * math.pi**2 * tau / (8.0 * r**2))
    return 1.0 - 4.0 / math.pi * s


def reflected_stopped_local_time(t, r):
    """(E l_{t ^ sigma_r}, bound on the truncation error) for reflected
    Brownian motion of generator d^2/dx^2 on x >= 0 from x = 0, sigma_r
    its first hitting time of r.

    The eigen-series sum_{n>=0} (2/r)(1 - e^{-lam_n t}) / lam_n, lam_n =
    ((n + 1/2) pi / r)^2, summed as r - (2/r) sum_n e^{-lam_n t} / lam_n
    (sum_n 1 / lam_n = r^2 / 2), whose terms fall off like Gaussians.
    The terms from n = N on are below (2/r) e^{-lam_N t} / lam_N times
    sum_k e^{-k (pi/r)^2 t} (lam_{N+k} - lam_N >= k (pi/r)^2), and the
    sum stops once that tail is below 1e-15.
    """
    ratio = math.exp(-((math.pi / r) ** 2) * t)
    total, n = 0.0, 0
    while True:
        lam = ((n + 0.5) * math.pi / r) ** 2
        tail = 2.0 / r * math.exp(-lam * t) / lam / (1.0 - ratio)
        if tail < 1e-15:
            return r - 2.0 / r * total, tail
        total += math.exp(-lam * t) / lam
        n += 1


def simulate_with_exits(M, x0, T, h, n_paths, master_seed, *, domains=(), stop=None,
                        marks=(), on_mark=None, **kwargs):
    """``simulate_ensemble`` read at every step through its marks.

    ``domains`` is a list of (center, radius) whose first-exit step
    times are recorded (inf before the exit); with ``stop`` = (center, r)
    the local time is frozen at the first exit from B(center, r), the
    exit step's increment included.  Every step is marked ahead of the
    caller's ``marks``, at which ``on_mark`` sees (positions, alive,
    frozen local time).  Returns the ensemble's dict with the frozen
    local time, the caller's marks and ``exit_times`` of shape
    (domains, starts..., paths).
    """
    cfg = PathConfig(h=h, T=T)
    steps = [k * cfg.h_eff for k in range(1, cfg.n_steps + 1)]
    shape = np.shape(x0)[:-1] + (n_paths,)
    exit_times = np.full((len(domains),) + shape, np.inf)
    frozen = np.zeros(shape)
    stopped = np.zeros(shape, dtype=bool)

    def reader(i, pos, alive, l):
        if i >= len(steps):
            return on_mark(i - len(steps), pos, alive, frozen)
        np.copyto(frozen, l, where=~stopped)
        if stop is not None:
            stopped[...] |= M.distance(stop[0], pos) >= stop[1]
        for et, (c, r) in zip(exit_times, domains):
            et[np.isinf(et) & (M.distance(c, pos) >= r)] = (i + 1) * cfg.h_eff
        return None

    res = simulate_ensemble(M, x0, T, h, n_paths, master_seed, marks=steps + list(marks),
                            on_mark=reader, **kwargs)
    return dict(res, local_time=frozen, exit_times=exit_times, marks=res["marks"][len(steps):])


def polar_grid_sup(M, ref, coef=5.0, n_rho=401, k=12):
    """Maximum of coef |grad phi|^2 - phi L phi over a polar grid of
    D ∩ M for a reference function on D = B(y, r).

    The grid is exp_y(s v): n_rho radii s in [0, r], end point included,
    times unit directions v = sum_i xi_i e_i in the frame at y, with xi
    = +-1 in 1-d and otherwise the normalised integer points of the cube
    surface max_i |xi_i| = k.  Points outside M are dropped.  Nothing is
    assumed about which direction holds the supremum.
    """
    y, r = ref.domain.center, ref.domain.radius
    if M.dim == 1:
        xi = np.array([[1.0], [-1.0]])
    else:
        axis = np.arange(-k, k + 1)
        cube = np.stack(np.meshgrid(*[axis] * M.dim, indexing="ij"), axis=-1).reshape(-1, M.dim)
        cube = cube[np.abs(cube).max(axis=1) == k].astype(float)
        xi = cube / np.linalg.norm(cube, axis=1, keepdims=True)
    v = xi @ M.frame(y)
    s = np.linspace(0.0, r, n_rho)[1:]
    tangent = (s[:, None, None] * v[None]).reshape(-1, M.chart_dim)
    pts = M.exp(np.broadcast_to(y, tangent.shape), tangent)
    pts = np.concatenate([y[None, :], pts[M.contains(pts)]])
    return float(np.max(coef * ref.grad_norm_sq(pts) - ref.phi(pts) * ref.l_phi(pts)))


def workload_configs(workload, seed, directory):
    """Write the benchmark's seeded configs of one workload
    (``perfbench/workloads.py``) under ``directory``; returns their paths."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.write_configs(workload, seed, directory)
