"""Geodesic Euler simulation of the (reflecting) diffusion with generator
Laplace-Beltrami + Z.

One step moves the path to  exp_x( sqrt(2h) * frame * noise + h * Z(x) );
proposals that leave the chart through the boundary are mirrored back and
the overshoot feeds the boundary local time.  The explosive catalogue
variant additionally sub-steps when the drift displacement would exceed a
cap, and paths crossing the explosion threshold flip their ``alive`` flag
(the lifetime indicator of the semigroup).

Paths are independent; path blocks draw from counter-based streams keyed
by (master seed, stream id, block), so ensembles are bitwise reproducible
for any worker count.  ``simulate_ensemble`` is the one stepping loop.
It steps all blocks in lockstep: step k advances block 0, then block 1,
and so on, each block with its own stream on its own rows of the state,
so every path is the same bit for bit as when the blocks ran one after
another.  The start point may carry a leading axis of starts: they share
each block's noise draw (common random numbers), and each start's rows
go through their own step call, so each start's paths are those of a run
from that start alone.  At each mark time the state of all paths
(positions, alive flags, local times) goes to a reducer that the caller
passes, so one run serves every time on a grid and no (marks x paths)
array is stored.  ``simulate_path`` is the one-path read of the same
loop; ``step`` advances one given path by one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import ExplosiveDrift1D, ModelSpace
from .rng import BLOCK_SIZE, path_blocks, stream
from .stats import estimate_from_values

__all__ = [
    "PathConfig",
    "PathState",
    "step",
    "simulate_path",
    "simulate_ensemble",
    "local_time_profile",
]


def _n_steps(T: float, h: float) -> int:
    """Number of steps of size at most about h that end the clock at T."""
    return max(1, math.ceil(T / h - 1e-12))


@dataclass
class PathConfig:
    """Time stepping and noise-stream configuration for one run."""

    h: float
    T: float
    master_seed: int = 0
    path_index: int = 0

    def __post_init__(self):
        if not (0 < self.h <= self.T):
            raise ValueError("need 0 < h <= T")

    @property
    def n_steps(self) -> int:
        return _n_steps(self.T, self.h)

    @property
    def h_eff(self) -> float:
        return self.T / self.n_steps

    def mark_steps(self, marks: Sequence[float]) -> list:
        """The step that reads each mark time: the nearest one in
        1..n_steps; the time reached is that step times h_eff."""
        return [min(self.n_steps, max(1, round(t / self.h_eff))) for t in marks]


@dataclass
class PathState:
    """State of a single path: position, boundary local time, clock and
    the explosion indicator."""

    position: np.ndarray
    local_time: float = 0.0
    t: float = 0.0
    alive: bool = True
    exit_times: dict = field(default_factory=dict)


def _advance(M: ModelSpace, pos, h, xi, alive):
    """One geodesic Euler step for a batch.  Returns (positions,
    local-time increments, alive).  Dead paths are frozen."""
    if isinstance(M, ExplosiveDrift1D):
        return _advance_explosive(M, pos, h, xi, alive)
    v = math.sqrt(2.0 * h) * M.tangent_from_frame(pos, xi) + h * M.drift(pos)
    new = M.exp(pos, v)
    if M.has_boundary:
        new, dl = M.reflect(new)
    else:
        dl = np.zeros(pos.shape[:-1])
    if not np.all(alive):
        keep = alive[..., None]
        new = np.where(keep, new, pos)
        dl = np.where(alive, dl, 0.0)
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


def step(M: ModelSpace, state: PathState, cfg: PathConfig, noise) -> PathState:
    """Advance a single path by one step of size cfg.h_eff with the
    supplied standard Gaussian noise vector.  Explosion is a state, not an
    error."""
    if not state.alive:
        raise ValueError("step requires a live path")
    pos = np.asarray(state.position, dtype=float)[None, :]
    xi = np.asarray(noise, dtype=float)[None, :]
    alive = np.array([True])
    new, dl, alive = _advance(M, pos, cfg.h_eff, xi, alive)
    return PathState(
        position=new[0],
        local_time=state.local_time + float(dl[0]),
        t=state.t + cfg.h_eff,
        alive=bool(alive[0]),
        exit_times=dict(state.exit_times),
    )


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
    stream_id: int = 0,
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
    cfg = PathConfig(h=h, T=T, master_seed=master_seed)
    n_steps, h_eff = cfg.n_steps, cfg.h_eff
    readers = {}
    for mi, ms in enumerate(cfg.mark_steps(marks)):
        readers.setdefault(ms, []).append(mi)
    x0 = np.asarray(x0, dtype=float)
    lead = x0.shape[:-1]
    starts = x0.reshape(-1, M.chart_dim)
    n_starts = len(starts)

    spans = list(path_blocks(n_paths, block_size))
    rngs = [stream(master_seed, stream_id, b) for b, _, _ in spans]
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
            xi = rng.standard_normal((hi - lo, M.dim))
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


def simulate_path(
    M: ModelSpace,
    x,
    cfg: PathConfig,
    observables: Optional[dict] = None,
    trace_file=None,
):
    """Run one path and record the requested observables: the one-path
    ensemble of stream (master_seed, path_index).

    observables: {"f": callable, "domains": [(tag, center, radius), ...]}.
    Returns (terminal PathState, records dict) where the terminal
    f-record is f(X_T) * 1_alive.  ``trace_file`` (a path or file-like)
    dumps the full trajectory as CSV rows "t, coords..., l, alive" for
    debugging, one row per step written by a per-step mark reducer.
    """
    observables = observables or {}
    domains = observables.get("domains", [])
    marks, on_mark, opened = (), None, None
    if trace_file is not None:
        trace = trace_file
        if not hasattr(trace, "write"):
            trace = opened = open(trace_file, "w")
        header = ",".join(["t"] + [f"x{i}" for i in range(M.chart_dim)] + ["l", "alive"])
        trace.write(header + "\n")
        trace.write(",".join(["0"] + [repr(float(v)) for v in np.ravel(x)] + ["0.0", "1"]) + "\n")
        marks = [(k + 1) * cfg.h_eff for k in range(cfg.n_steps)]

        def on_mark(i, pos, alive, l):
            row = [repr((i + 1) * cfg.h_eff)] + [repr(float(v)) for v in pos[0]]
            trace.write(",".join(row + [repr(float(l[0])), str(int(alive[0]))]) + "\n")

    try:
        res = simulate_ensemble(
            M, x, cfg.T, cfg.h, 1, cfg.master_seed,
            stream_id=cfg.path_index,
            marks=marks,
            on_mark=on_mark,
            domains=[(c, r) for _, c, r in domains],
        )
    finally:
        if opened is not None:
            opened.close()

    state = PathState(
        position=res["positions"][0],
        local_time=float(res["local_time"][0]),
        t=cfg.T,
        alive=bool(res["alive"][0]),
        exit_times={tag: float(t) for (tag, _, _), t in zip(domains, res["exit_times"][:, 0])},
    )
    records = {"local_time": state.local_time, "alive": state.alive}
    if "f" in observables:
        records["f"] = float(observables["f"](state.position[None, :])[0]) if state.alive else 0.0
    return state, records


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
