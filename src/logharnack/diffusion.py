"""Simulation of the (reflecting) diffusion with generator
Laplace-Beltrami + Z, on each variant's step law (``ModelSpace.step``).

``simulate_ensemble`` is the one way to step paths.  Paths are
independent; block b of a run draws its normals from the counter-based
stream keyed by (master seed, 0, b), and the uniforms of a step law that
reads them (the half-space's exact local time) from (master seed, 1, b),
so ensembles are bitwise reproducible for any worker count and the
uniforms move no position.  All blocks step in lockstep: step k advances
block 0, then block 1, and so on, each block with its own streams on its
own rows of the state, so every path is the same bit for bit as when
the blocks ran one after another.  The start point may carry a leading
axis of starts: they share each block's draws (common random numbers),
and each start's rows go through their own step call, so each start's
paths are those of a run from that start alone.  A per-step hook is the
one way to read paths along the way: after each step the state of all
paths (positions, alive flags, local times) goes to a reader that the
caller passes, so one run serves every time on a grid and no (times x
paths) array is stored; a reader maps its times to steps with
``PathConfig.mark_steps``.  Exit times and stopped functionals read
every step (``local_time_profile`` stops its local time so).  The clock
steps h_eff = T / ceil(T / h), so it ends exactly at T.

On ``euclidean`` and ``half_space`` one step of any size has the law of
the diffusion at that time (``ModelSpace.euler_exact``), so a check that
reads only X_T takes one step to T (``estimators.mc_functional_values``):
there h picks only which noise is drawn, not the law.  On the half-line
the local time is exact in law too, so ``local_time_profile`` steps
there on a clock of at most r^2 / 40 that puts its grid on steps, and
reads the exit inside each step; the one event it treats approximately
is a step that touches both the wall and the ball's boundary.  The
generator slope, the local time elsewhere, a direct
``simulate_ensemble`` call and the coupled run still step at h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import HalfSpace, ModelSpace
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
    on_step: Optional[Callable] = None,
    block_size: int = BLOCK_SIZE,
):
    """Simulate n_paths independent copies up to time T from each start.

    ``x0`` is one start point or an array of them, shape (..., chart_dim);
    every output gains those leading axes in front of the path axis.  The
    starts share each block's noise draw (common random numbers), and
    each start's rows go through their own step, so every path is the one
    a run from that start alone would give.  Where ``M.step_uniform`` is
    set, each path also draws one uniform in (0, 1] per step, from its
    block's stream (master_seed, 1, b).

    After each step k = 1, ..., n_steps, ``on_step(k, positions, alive,
    local_time)`` gets read-only views of the state of all paths, valid
    during the call.

    Returns a dict with terminal positions / alive flags / local times,
    the number of steps and the effective step size.
    """
    cfg = PathConfig(h=h, T=T)
    n_steps, h_eff = cfg.n_steps, cfg.h_eff
    x0 = np.asarray(x0, dtype=float)
    lead = x0.shape[:-1]
    starts = x0.reshape(-1, M.chart_dim)
    n_starts = len(starts)

    spans = list(path_blocks(n_paths, block_size))
    rngs = [stream(master_seed, 0, b) for b, _, _ in spans]
    # a step's uniforms come from streams of their own, so the normals,
    # and so the positions, are those of a step that reads none
    urngs = [stream(master_seed, 1, b) if M.step_uniform else None for b, _, _ in spans]
    # the state of all paths, one contiguous slab per start; each block
    # steps on its own rows of it
    pos = np.repeat(starts[:, None, :], n_paths, axis=1)
    alive = np.ones((n_starts, n_paths), dtype=bool)
    l = np.zeros((n_starts, n_paths))
    views = [_read_only(a.reshape(lead + a.shape[1:])) for a in (pos, alive, l)]

    for k in range(1, n_steps + 1):
        for rng, urng, (_, lo, hi) in zip(rngs, urngs, spans):
            xi = rng.standard_normal((hi - lo, M.noise_width))
            u = None if urng is None else 1.0 - urng.random(hi - lo)  # in (0, 1]
            for s in range(n_starts):
                p, a = pos[s, lo:hi], alive[s, lo:hi]
                new, dl, live = M.step(p, h_eff, xi, a, u)
                p[...], a[...] = new, live
                # without a boundary dl is zero: l stays untouched zero pages
                if M.has_boundary:
                    l[s, lo:hi] += dl
        if on_step is not None:
            on_step(k, *views)

    return {
        "positions": pos.reshape(lead + pos.shape[1:]),
        "alive": alive.reshape(lead + alive.shape[1:]),
        "local_time": l.reshape(lead + l.shape[1:]),
        "h_eff": h_eff,
        "n_steps": n_steps,
    }


def _grid_steps(t_grid, T: float, r: float, n_max: int) -> Optional[int]:
    """The least n <= n_max with T / n <= r^2 / 40 such that every grid
    time is a step time k T / n, or None."""
    # imported here, not by every run at start-up: only this clock reads it
    from fractions import Fraction

    n = 1
    for t in t_grid:
        k = Fraction(t / T).limit_denominator(n_max)
        if abs(k - t / T) > 1e-9:
            return None
        n = math.lcm(n, k.denominator)
    n *= max(1, math.ceil(40.0 * T / r**2 / n - 1e-12))
    return n if n <= n_max else None


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
    Each step first stops the paths that left the ball, and a step that
    reads a grid time then reads the kept local time of the stopped paths
    and the running one of the others.  Returns (estimates, reference),
    reference the unstopped flat-boundary value 2 sqrt(t) / sqrt(pi)
    whatever r is.

    On the half-line, where the step's local time is exact in law, the
    clock has n uniform steps, the least n with T / n <= r^2 / 40 that
    puts every grid time on a step, or h when no such n is at most
    ``PathConfig(h, T).n_steps``.  The exit at the levels c = x + r and
    x - r (only when x - r > 0) is read inside each step from a to y: a
    second uniform reads each crossing with the Brownian-bridge
    probability exp(-(c - a)(c - y) / h), and when x - r >= 0 a step that
    touches the wall reached distance r on the way, so the path exits
    with its local time from before the step.  Only a step that touches
    both the wall and a level is treated approximately (its bridge is
    taken as free), of probability about exp(-r^2 / (4h)) <= e^-10.
    Elsewhere the clock is h, and a path stops at the first step that
    finds it at distance >= r, keeping its local time of that step.
    """
    if not M.has_boundary:
        raise ValueError("local_time_profile needs a boundary variant")
    t_grid = list(t_grid)
    x = np.asarray(x, dtype=float)
    cfg = PathConfig(h=h, T=max(t_grid))
    half_line = isinstance(M, HalfSpace) and M.dim == 1
    n = _grid_steps(t_grid, cfg.T, r, cfg.n_steps) if half_line else None
    if n is not None:
        cfg = PathConfig(h=cfg.T / n, T=cfg.T)
    reads = cfg.mark_steps(t_grid)
    estimates = [None] * len(t_grid)
    stopped = np.zeros(n_paths, dtype=bool)
    l_stop = np.zeros(n_paths)
    # the half-line's in-step exit: each path's position and local time
    # at the last step, and the uniforms that read the crossings; from
    # x >= r the wall is at distance >= r
    wall = half_line and x[0] >= r
    levels = [x[0] + r, x[0] - r] if x[0] > r else [x[0] + r]
    a, l_prev = np.full(n_paths, x[0]), np.zeros(n_paths)
    rng = stream(master_seed, 2)

    def on_step(k, pos, alive, l):
        if half_line:
            # the bridge crossing probabilities, 1 where y is beyond c
            y = pos[:, 0]
            p = sum(np.exp(-np.maximum((c - a) * (c - y), 0.0) / cfg.h_eff) for c in levels)
            newly = rng.random(n_paths) < p
            if wall:
                newly |= l > l_prev  # touched the wall, so reached distance r
            kept = l_prev if wall else l
        else:
            newly, kept = M.distance(x, pos) >= r, l
        newly &= ~stopped
        l_stop[newly] = kept[newly]
        stopped[newly] = True
        if half_line:
            a[...], l_prev[...] = y, l
        for i, ki in enumerate(reads):
            if ki == k:
                estimates[i] = estimate_from_values(np.where(stopped, l_stop, l))

    simulate_ensemble(M, x, cfg.T, cfg.h, n_paths, master_seed, on_step=on_step)
    reference = [2.0 * math.sqrt(t) / math.sqrt(math.pi) for t in t_grid]
    return estimates, reference
