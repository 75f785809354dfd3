"""Geodesic Euler simulation of the (reflecting) diffusion with generator
Laplace-Beltrami + Z.

One step moves the path to  exp_x( sqrt(2h) * noise + h * Z(x) ), the
noise being the variant's ``noise_width`` standard normals mapped to a
standard Gaussian of T_x M by ``ModelSpace.tangent_from_frame``;
proposals that leave the chart through the boundary are mirrored back
and the overshoot feeds the boundary local time.  The explosive catalogue
variant instead splits each step into the exact flow of its cubic drift
and the noise, and paths that blow up or cross the explosion threshold
flip their ``alive`` flag (the lifetime indicator of the semigroup).

``simulate_ensemble`` is the one way to step paths.  Paths are
independent; block b of a run draws from the counter-based stream keyed
by (master seed, 0, b), so ensembles are bitwise reproducible for any
worker count.  All blocks step in lockstep: step k advances block 0,
then block 1, and so on, each block with its own stream on its own rows
of the state, so every path is the same bit for bit as when the blocks
ran one after another.  The start point may carry a leading axis of
starts: they share each block's noise draw (common random numbers), and
each start's rows go through their own step call, so each start's paths
are those of a run from that start alone.  At each mark time the state
of all paths (positions, alive flags, local times) goes to a reducer
that the caller passes, so one run serves every time on a grid and no
(marks x paths) array is stored.  The clock steps h_eff = T / ceil(T / h),
so it ends exactly at T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import ExplosiveDrift1D, ModelSpace
from .rng import BLOCK_SIZE, path_blocks, stream
from .stats import estimate_from_values

__all__ = [
    "PathConfig",
    "simulate_ensemble",
    "local_time_profile",
]


@dataclass
class PathConfig:
    """The clock of one run: step size at most about h, horizon T."""

    h: float
    T: float

    def __post_init__(self):
        if not (0 < self.h <= self.T):
            raise ValueError("need 0 < h <= T")

    @property
    def n_steps(self) -> int:
        """Number of steps of size at most about h that end the clock at T."""
        return max(1, math.ceil(self.T / self.h - 1e-12))

    @property
    def h_eff(self) -> float:
        """Step size that ends the clock exactly at T."""
        return self.T / self.n_steps

    def mark_steps(self, marks: Sequence[float]) -> list:
        """The step that reads each mark time: the nearest one in
        1..n_steps; the time reached is that step times h_eff."""
        return [min(self.n_steps, max(1, round(t / self.h_eff))) for t in marks]


def _advance(M: ModelSpace, pos, h, xi, alive):
    """One geodesic Euler step for a batch.  Returns (positions,
    local-time increments, alive).  Only the explosive variant ends
    lifetimes, and it freezes its dead paths; on every other variant
    ``alive`` passes through."""
    if isinstance(M, ExplosiveDrift1D):
        return _advance_explosive(M, pos, h, xi, alive)
    v = math.sqrt(2.0 * h) * M.tangent_from_frame(pos, xi) + h * M.drift(pos)
    new = M.exp(pos, v)
    if M.has_boundary:
        new, dl = M.reflect(new)
    else:
        dl = np.zeros(pos.shape[:-1])
    return new, dl, alive


def _advance_explosive(M: ExplosiveDrift1D, pos, h, xi, alive):
    """Splitting step for the cubic drift: exact drift flow, then noise.

    The drift ODE dx = x^3 dt integrates in closed form to
    x / sqrt(1 - 2 h x^2), which blows up within the step exactly when
    2 h x^2 >= 1; that event (or crossing the explosion threshold)
    flips the lifetime flag.  Near the origin the flow agrees with the
    Euler increment to O(h^2), and unlike Euler it has no stability cap
    on the drift displacement.
    """
    x = pos[..., 0]
    noise = math.sqrt(2.0 * h) * xi[..., 0]
    thr = M.explosion_threshold
    disc = 1.0 - 2.0 * h * x**2
    explodes = disc <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        flowed = x / np.sqrt(np.maximum(disc, 1e-300))
    prop = np.where(explodes, x, np.clip(flowed, -thr, thr) + noise)
    live = alive & ~explodes & (np.abs(prop) < thr)
    out = np.where(live, prop, x)[..., None]
    return out, np.zeros(pos.shape[:-1]), live


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def simulate_ensemble(
    M: ModelSpace,
    x0,
    T: float,
    h: float,
    n_paths: int,
    master_seed: int,
    *,
    marks: Sequence[float] = (),
    on_mark: Optional[Callable] = None,
    stop_domain: Optional[tuple] = None,
    domains: Sequence[tuple] = (),
    block_size: int = BLOCK_SIZE,
):
    """Simulate n_paths independent copies up to time T from each start.

    ``x0`` is one start point or an array of them, shape (..., chart_dim);
    every output gains those leading axes in front of the path axis.  The
    starts share each block's noise draw (common random numbers), and
    each start's rows go through their own step, so every path is the one
    a run from that start alone would give.

    stop_domain=(center, r) freezes the local-time series at the first
    exit from B(center, r); ``domains`` is a list of (center, radius)
    whose first exit times are recorded.  At the step that reads each
    time in ``marks`` (``PathConfig.mark_steps``), ``on_mark(i, positions,
    alive, local_time)`` gets mark i and read-only views of the state of
    all paths, valid during the call.

    Returns a dict with terminal positions / alive flags / local times,
    the reducer's value per mark (``marks``, in mark order), exit times
    (domains first), and the effective step size.
    """
    if len(marks) and on_mark is None:
        raise ValueError("marks need an on_mark reducer")
    cfg = PathConfig(h=h, T=T)
    n_steps, h_eff = cfg.n_steps, cfg.h_eff
    readers = {}
    for mi, ms in enumerate(cfg.mark_steps(marks)):
        readers.setdefault(ms, []).append(mi)
    x0 = np.asarray(x0, dtype=float)
    lead = x0.shape[:-1]
    starts = x0.reshape(-1, M.chart_dim)
    n_starts = len(starts)

    spans = list(path_blocks(n_paths, block_size))
    rngs = [stream(master_seed, 0, b) for b, _, _ in spans]
    # the state of all paths, one contiguous slab per start; each block
    # steps on its own rows of it
    pos = np.repeat(starts[:, None, :], n_paths, axis=1)
    alive = np.ones((n_starts, n_paths), dtype=bool)
    l = np.zeros((n_starts, n_paths))
    stopped = np.zeros((n_starts, n_paths), dtype=bool)
    exited = np.zeros((len(domains), n_starts, n_paths), dtype=bool)
    out_exit = np.full((len(domains), n_starts, n_paths), np.inf)
    out_marks = [None] * len(marks)
    views = [_read_only(a.reshape(lead + a.shape[1:])) for a in (pos, alive, l)]

    for kstep in range(n_steps):
        t_now = (kstep + 1) * h_eff
        for rng, (_, lo, hi) in zip(rngs, spans):
            xi = rng.standard_normal((hi - lo, M.noise_width))
            for s in range(n_starts):
                p, a, ls, st = pos[s, lo:hi], alive[s, lo:hi], l[s, lo:hi], stopped[s, lo:hi]
                new, dl, live = _advance(M, p, h_eff, xi, a)
                p[...], a[...] = new, live
                # without a boundary dl is zero: l stays untouched zero pages
                if M.has_boundary and stop_domain is not None:
                    ls += np.where(st, 0.0, dl)
                    c, r = stop_domain
                    st |= M.distance(c, p) >= r
                elif M.has_boundary:
                    ls += dl
                for j, (c, r) in enumerate(domains):
                    ex = exited[j, s, lo:hi]
                    newly = ~ex & (M.distance(c, p) >= r)
                    out_exit[j, s, lo:hi][newly] = t_now
                    ex |= newly
        for mi in readers.get(kstep + 1, ()):
            out_marks[mi] = on_mark(mi, *views)

    return {
        "positions": pos.reshape(lead + pos.shape[1:]),
        "alive": alive.reshape(lead + alive.shape[1:]),
        "local_time": l.reshape(lead + l.shape[1:]),
        "marks": out_marks,
        "exit_times": out_exit.reshape(out_exit.shape[:1] + lead + out_exit.shape[2:]),
        "h_eff": h_eff,
        "n_steps": n_steps,
    }


def local_time_profile(
    M: ModelSpace,
    x,
    t_grid: Sequence[float],
    n_paths: int,
    h: float,
    master_seed: int,
    r: float = 1.0,
):
    """Monte Carlo estimates of E l_{t ^ sigma_r} on a time grid, where
    sigma_r is the first exit from the ball of radius r around the start.

    Returns (estimates, reference) with reference the flat-boundary value
    2 sqrt(t) / sqrt(pi).
    """
    if not M.has_boundary:
        raise ValueError("local_time_profile needs a boundary variant")
    t_grid = list(t_grid)
    res = simulate_ensemble(
        M,
        x,
        max(t_grid),
        h,
        n_paths,
        master_seed,
        marks=t_grid,
        on_mark=lambda i, pos, alive, l: estimate_from_values(l, seed=master_seed),
        stop_domain=(np.asarray(x, dtype=float), r),
    )
    reference = [2.0 * math.sqrt(t) / math.sqrt(math.pi) for t in t_grid]
    return res["marks"], reference
