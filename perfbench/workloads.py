"""Seeded experiment configs for the benchmark workloads.

Every workload is a list of ``(name, config)`` pairs; each config is the
mapping that ``logharnack run`` reads from YAML, one model per config.
The cases come from the acceptance-suite case lists.  The seed sets each
config's ``master_seed``, moves the start points (by a translation or a
rotation that maps the model onto itself where it has one; by at most 0.1
on the half-line and the explosive line) and changes each pair's
separation by at most 5%.  Horizons, step sizes and path counts never
depend on the seed, so every seed asks for about the same work.

This module imports nothing from the program: the program sees only the
generated YAML.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

WORKLOADS = ("mc-grid", "coupling", "closed-form")

MC_PATHS = 20_000
MC_H = 1e-2
COUPLING_PAIRS = 20_000
LOCAL_TIME_PATHS = 50_000
GENERATOR_PATHS = 1_000_000
COUPLING_H = 1e-3


def _f(x):
    return [float(v) for v in np.atleast_1d(x)]


def _rng(seed, workload):
    key = WORKLOADS.index(workload)
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(key,)))


def _check(tag, **grid):
    """One check entry whose grid holds a single value per parameter."""
    return {"tag": tag, "grid": {k: [v] for k, v in grid.items()}}


def _config(model, checks, rng):
    return {
        "schema_version": 1,
        "master_seed": int(rng.integers(0, 2**31 - 1)),
        "model": model,
        "checks": checks,
    }


def _bump(center, width, b):
    return {"tag": "one_plus_bump", "center": _f(center), "width": width, "b": b}


def _gauss(center, width):
    return {"tag": "gauss_bump", "center": _f(center), "width": width, "amp": 1.0}


def _rot2(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _rotz(phi):
    out = np.eye(3)
    out[:2, :2] = _rot2(phi)
    return out


def _sphere_pair(rho, rot):
    """(x, y) on the unit 2-sphere at distance rho, y at the pole turned
    by ``rot`` (a rotation about the pole axis)."""
    y = np.array([0.0, 0.0, 1.0])
    x = np.array([0.0, -math.sin(rho), math.cos(rho)])
    return rot @ x, rot @ y


def _jitter(rng):
    """Relative change of a pair separation: within 5%."""
    return 1.0 + rng.uniform(-0.05, 0.05)


# ----------------------------------------------------------------------
# mc-grid: Monte Carlo checks, the stepping kernel does the work
# ----------------------------------------------------------------------


def _mc(**extra):
    return {"n_paths": MC_PATHS, "h": MC_H, **extra}


def _mc_grid(rng):
    out = []

    # euclidean d=2, translated
    u = rng.uniform(-0.5, 0.5, 2)
    checks = [
        _check("log-harnack", x=_f(u), y=_f(u + [0.3 * _jitter(rng), 0.0]), T=1.0,
               f=_bump(u, 1.0, 0.5), **_mc()),
        _check("harnack", x=_f(u), y=_f(u + [0.5 * _jitter(rng), 0.0]), T=0.25,
               f=_gauss(u + [0.3, 0.0], 0.5), **_mc()),
    ]
    out.append(("euclidean2", _config({"variant": "euclidean", "dim": 2}, checks, rng)))

    # sphere d=2, turned about the pole axis
    rot = _rotz(rng.uniform(0.0, 2.0 * math.pi))
    pole = rot @ np.array([0.0, 0.0, 1.0])
    x, y = _sphere_pair(0.3 * _jitter(rng), rot)
    checks = [
        _check("log-harnack", x=_f(x), y=_f(y), T=0.25, f=_bump(pole, 1.0, 0.7), **_mc()),
        _check("gradient", x=_f(pole), T=0.25, f={"tag": "coord", "i": 2}, **_mc()),
    ]
    out.append(("sphere2", _config({"variant": "sphere", "dim": 2, "radius": 1.0}, checks, rng)))

    # hyperbolic plane, translated along the boundary of the chart
    a = rng.uniform(-1.0, 1.0)
    y = [a, 1.0]
    checks = [
        _check("log-harnack", x=[a, math.exp(0.3 * _jitter(rng))], y=y, T=0.5,
               f=_bump(y, 0.8, 0.5), **_mc()),
        _check("gradient", x=y, T=0.25, f=_bump(y, 0.8, 0.5), **_mc()),
    ]
    out.append(("hyperbolic", _config({"variant": "hyperbolic", "dim": 2}, checks, rng)))

    # reflecting ball of radius 2, turned about its center
    R = _rot2(rng.uniform(0.0, 2.0 * math.pi))
    o = [0.0, 0.0]
    checks = [
        _check("log-harnack", x=_f(R @ [0.3 * _jitter(rng), 0.0]), y=o, T=0.25,
               f=_bump(o, 0.8, 0.5), **_mc()),
        _check("harnack", x=_f(R @ [0.3 * _jitter(rng), 0.0]), y=o, T=0.5,
               f=_gauss(o, 0.8), **_mc()),
    ]
    out.append(("euclidean_ball", _config({"variant": "euclidean_ball", "dim": 2, "radius": 2.0},
                                          checks, rng)))

    # reflecting half-line, moved inside x1 > 0; local time starts on the wall
    d = rng.uniform(-0.1, 0.1)
    checks = [
        _check("log-harnack", x=[0.5 + d + 0.3 * _jitter(rng)], y=[0.5 + d], T=1.0,
               f=_bump([0.5 + d], 0.7, 0.5), **_mc()),
        _check("gradient", x=[0.5 + d], T=0.25, f=_bump([1.0 + d], 0.8, 0.5), **_mc()),
        _check("harnack", x=[0.8 + d], y=[0.5 + d], T=0.5, f=_bump([0.5 + d], 0.7, 0.5), **_mc()),
        _check("local-time", x=[0.0], t_grid=[0.0025, 0.005, 0.01, 0.02, 0.04],
               n_paths=LOCAL_TIME_PATHS, h=1e-4),
    ]
    out.append(("half_space", _config({"variant": "half_space", "dim": 1}, checks, rng)))

    # explosive cubic drift: the mass-corrected log-Harnack form, and the
    # generator check by Monte Carlo (no oracle) at the suite's path count
    d = rng.uniform(-0.05, 0.05)
    y = [0.3 * _jitter(rng) + d]
    checks = [
        _check("log-harnack", x=[d], y=y, T=0.3, f=_bump(y, 0.7, 0.5), **_mc()),
        _check("log-harnack", x=[d], y=y, T=1.0, f={"tag": "const", "c": math.e}, **_mc()),
        _check("generator", x=[1.0 + d], g={"tag": "coord", "i": 0},
               n_paths=GENERATOR_PATHS, h=2e-3),
    ]
    out.append(("explosive", _config({"variant": "explosive_drift_1d"}, checks, rng)))

    # the example experiment's check list on the line, translated
    u = rng.uniform(-0.5, 0.5)
    example = [
        {"tag": "log-harnack",
         "grid": {"x": [[u]], "y": [[u + 0.2 * _jitter(rng)], [u + 0.4 * _jitter(rng)]],
                  "T": [0.25, 1.0],
                  "f": [{"tag": "coord_exp", "a": [1.0]}, _bump([u + 0.2], 0.8, 0.5)],
                  "n_paths": [MC_PATHS], "h": [MC_H]}},
        _check("gradient", x=[u], T=0.5, f={"tag": "coord_exp", "a": [1.0]}, **_mc()),
        {"tag": "coupling-diagnostics",
         "grid": {"x": [[u]], "y": [[u + 0.3 * _jitter(rng)]], "T": [0.5, 1.0],
                  "n_paths": [20_000], "h": [COUPLING_H]}},
        _check("sharpness", x=[u],
               f={"tag": "log_bump", "center": [u + 0.5], "width": 1.0, "amp": 1.0},
               n_paths=200_000),
    ]
    out.append(("example", _config({"variant": "euclidean", "dim": 1}, example, rng)))
    return out


# ----------------------------------------------------------------------
# coupling: coupled pairs, pair geometry and the Girsanov step do the work
# ----------------------------------------------------------------------


def _pair(x, y, T):
    return _check("coupling-diagnostics", x=_f(x), y=_f(y), T=T,
                  n_paths=COUPLING_PAIRS, h=COUPLING_H)


def _coupling(rng):
    out = []
    u = rng.uniform(-0.5, 0.5)
    out.append(("euclidean1", _config({"variant": "euclidean", "dim": 1},
                                      [_pair([u], [u + 0.3 * _jitter(rng)], 1.0)], rng)))
    v = rng.uniform(-0.5, 0.5, 2)
    out.append(("euclidean2", _config({"variant": "euclidean", "dim": 2},
                                      [_pair(v + [0.1 * _jitter(rng), 0.0], v, 0.5)], rng)))
    rot = _rotz(rng.uniform(0.0, 2.0 * math.pi))
    checks = []
    for rho, T in ((0.3, 0.5), (0.1, 1.0)):
        x, y = _sphere_pair(rho * _jitter(rng), rot)
        checks.append(_pair(x, y, T))
    out.append(("sphere2", _config({"variant": "sphere", "dim": 2, "radius": 1.0}, checks, rng)))
    a = rng.uniform(-1.0, 1.0)
    checks = [_pair([a, math.exp(rho * _jitter(rng))], [a, 1.0], T)
              for rho, T in ((0.3, 1.0), (0.1, 0.5))]
    out.append(("hyperbolic", _config({"variant": "hyperbolic", "dim": 2}, checks, rng)))
    R = _rot2(rng.uniform(0.0, 2.0 * math.pi))
    out.append(("euclidean_ball", _config(
        {"variant": "euclidean_ball", "dim": 2, "radius": 2.0},
        [_pair(R @ [0.3 * _jitter(rng), 0.0], [0.0, 0.0], 0.5)], rng)))
    return out


# ----------------------------------------------------------------------
# closed-form: oracle quadratures and domain suprema, no simulation
# ----------------------------------------------------------------------


def _closed_form(rng):
    out = []
    rot = _rotz(rng.uniform(0.0, 2.0 * math.pi))
    pole = rot @ np.array([0.0, 0.0, 1.0])
    checks = []
    for radius in (0.5, 1.0, 1.5):
        x, y = _sphere_pair(0.3 * _jitter(rng), rot)
        f = _bump(pole, 1.0, 0.7)
        checks.append(_check("log-harnack", x=_f(x), y=_f(y), T=0.5, f=f,
                             domain_radius=radius, use_oracle=True))
        checks.append(_check("gradient", x=_f(pole), T=0.5, f={"tag": "coord", "i": 2},
                             domain_radius=radius, use_oracle=True))
        checks.append(_check("harnack", x=_f(x), y=_f(y), T=0.5, f=f,
                             domain_radius=radius, use_oracle=True))
    for t in (0.1, 0.5, 1.0):
        x, y = _sphere_pair(0.4 * _jitter(rng), rot)
        checks.append(_check("log-harnack-local", x=_f(x), y=_f(y), t=t,
                             f=_bump(pole, 1.0, 0.7), use_oracle=True))
    for r in (0.3, 1.0):
        x, y = _sphere_pair(r * _jitter(rng), rot)
        for t in (0.05, 0.2, 1.0):
            checks.append(_check("kernel-lower", x=_f(x), y=_f(y), t=t))
    for t in (0.05, 0.2, 1.0):
        checks.append(_check("entropy", y=_f(pole), t=t))
    checks.append(_check("generator", x=_f(pole), g={"tag": "coord", "i": 2}))
    out.append(("sphere2", _config({"variant": "sphere", "dim": 2, "radius": 1.0}, checks, rng)))

    d = rng.uniform(-0.1, 0.1)
    checks = []
    for radius in (0.5, 1.0, 1.5):
        x, y = [0.8 + d], [0.5 + d]
        f = _bump([0.5 + d], 0.7, 0.5)
        checks.append(_check("log-harnack", x=x, y=y, T=0.5, f=f,
                             domain_radius=radius, use_oracle=True))
        checks.append(_check("gradient", x=y, T=0.5, f=_bump([1.0 + d], 0.8, 0.5),
                             domain_radius=radius, use_oracle=True))
        checks.append(_check("harnack", x=x, y=y, T=0.5, f=f,
                             domain_radius=radius, use_oracle=True))
    out.append(("half_space", _config({"variant": "half_space", "dim": 1}, checks, rng)))

    u = rng.uniform(-0.2, 0.2)
    checks = []
    for t in (0.1, 0.5, 1.0):
        checks.append(_check("log-harnack-local", x=[u + 0.3 * _jitter(rng)], y=[u], t=t,
                             f=_bump([u], 0.8, 0.5), use_oracle=True))
    for r in (0.3, 1.0):
        for t in (0.05, 0.2, 1.0):
            checks.append(_check("kernel-lower", x=[u + r * _jitter(rng)], y=[u], t=t))
    for t in (0.05, 0.2, 1.0):
        checks.append(_check("entropy", y=[u], t=t))
        checks.append(_check("entropy-cost", t=t, eps_tilt=0.2))
    checks.append(_check("generator", x=[1.0 + u], g={"tag": "coord", "i": 0}))
    out.append(("ou", _config({"variant": "ornstein_uhlenbeck", "dim": 1, "lam": 1.0},
                              checks, rng)))
    return out


_BUILDERS = {"mc-grid": _mc_grid, "coupling": _coupling, "closed-form": _closed_form}


def generate(workload: str, seed: int):
    """The workload's configs for this seed, as a list of (name, mapping)."""
    return _BUILDERS[workload](_rng(seed, workload))


def write_configs(workload: str, seed: int, directory) -> list:
    """Write the workload's configs as YAML files; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, cfg in generate(workload, seed):
        path = directory / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        paths.append(path)
    return paths
