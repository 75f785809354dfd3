"""Span tracing of the logharnack layers from outside the package.

``Tracer.install`` replaces the public functions of every package module,
the methods of every ``ModelSpace`` subclass and the checker adapters in
``cli.CHECKS`` by wrappers that record one span per call: name, start,
end, parent span, thread and run id (one run id per ``cli.run`` call).
Spans stay in memory; ``dump`` writes them out once at the end and
``layer_metrics`` reduces them to the benchmark's per-layer metrics.

A layer's self time is its span time minus the time its child spans
cover.  Nothing in the package is edited: ``uninstall`` restores every
replaced attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "verify", "estimators", "diffusion", "coupling", "geometry",
          "local_bounds", "rng", "stats")

GEOMETRY_PRIMITIVES = ("exp", "log", "distance", "transport", "grad_distance",
                       "tangent_from_frame", "frame_components", "reflect", "drift")

# per-variant keys, as "<variant>-<dim>", that the workloads exercise
DIFFUSION_VARIANTS = ("euclidean-1", "euclidean-2", "sphere-2", "hyperbolic-2",
                      "euclidean_ball-2", "half_space-1", "explosive_drift_1d-1")
COUPLING_VARIANTS = ("euclidean-1", "euclidean-2", "sphere-2", "hyperbolic-2",
                     "euclidean_ball-2")

_ORACLES = ("estimators.oracle_semigroup", "estimators.heat_kernel", "estimators.kernel_entropy")
_K_FUNCS = ("local_bounds.K_of_domain", "local_bounds.enlarged_K")
_MC_FUNCS = ("estimators.mc_functional_values", "estimators.mc_functional",
             "estimators.grad_semigroup")


def variant_key(M) -> str:
    return f"{M.variant}-{M.dim}"


def _rows(args) -> int:
    """Batch rows of a geometry call: the largest leading size of its
    array arguments (the last axis holds coordinates)."""
    rows = 1
    for a in args:
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) > 1:
            rows = max(rows, math.prod(shape[:-1]))
    return rows


def _point(a):
    return tuple(float(v) for v in np.ravel(a))


def _ensemble_info(bound, result):
    a = bound.arguments
    M = a["M"]
    stop = a.get("stop_domain")
    key = (repr(M.to_config()), _point(a["x0"]), a["T"], a["h"], a["n_paths"],
           a["master_seed"], a.get("stream_id", 0), tuple(a.get("marks", ())),
           None if stop is None else (_point(stop[0]), float(stop[1])))
    return {"variant": variant_key(M), "key": key, "dim": M.dim,
            "path_steps": int(a["n_paths"]) * int(result["n_steps"])}


def _coupling_info(bound, result):
    M = bound.arguments["M"]
    return {"variant": variant_key(M), "dim": M.dim}


def _c_D_info(bound, result):
    M, ref = bound.arguments["M"], bound.arguments["ref"]
    return {"key": (repr(M.to_config()), _point(ref.domain.center), float(ref.domain.radius))}


# function name -> extractor of per-call facts from bound arguments and result
_INFO = {
    "diffusion.simulate_ensemble": _ensemble_info,
    "coupling.run_coupling": _coupling_info,
    "local_bounds.c_D": _c_D_info,
}


class Tracer:
    """Records spans around the package's layer boundaries."""

    def __init__(self):
        self.spans = []  # (id, parent, name, t0_ns, t1_ns, thread, run, rows, info)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []
        self._run_id = 0
        self._run_span = None

    # -- span recording --------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, rows=False, info=None, run=False):
        tracer = self
        sig = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._run_span
            sid = next(tracer._ids)
            if run:
                tracer._run_id += 1
                tracer._run_span = sid
                parent = None
            stack.append(sid)
            ok = False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if run:
                    tracer._run_span = None
                facts = info(sig.bind(*args, **kwargs), result) if ok and info else None
                tracer.spans.append((sid, parent, name, t0, t1, threading.get_ident(),
                                     tracer._run_id, _rows(args) if rows else 0, facts))

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, jobs_only=False):
        """Wrap the layers; with ``jobs_only`` only ``cli.run`` and the
        checker adapters, which is enough for per-job timing."""
        cli = importlib.import_module("logharnack.cli")
        replaced = {cli.run: self._wrap(cli.run, "cli.run", run=True)}
        self._set(cli, "run", replaced[cli.run])
        for tag, spec in cli.CHECKS.items():
            self._set_item(spec, "run", self._wrap(spec["run"], f"cli.job.{tag}"))
        if not jobs_only:
            for layer in LAYERS:
                mod = importlib.import_module(f"logharnack.{layer}")
                for fname in getattr(mod, "__all__", ()):
                    fn = getattr(mod, fname)
                    if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                            and fn not in replaced.values()):
                        full = f"{layer}.{fname}"
                        replaced[fn] = self._wrap(fn, full, info=_INFO.get(full))
                        self._set(mod, fname, replaced[fn])
            geometry = importlib.import_module("logharnack.geometry")
            for cls in vars(geometry).values():
                if inspect.isclass(cls) and issubclass(cls, geometry.ModelSpace):
                    for mname, fn in list(vars(cls).items()):
                        if inspect.isfunction(fn) and not mname.startswith("__"):
                            self._set(cls, mname, self._wrap(
                                fn, f"geometry.{cls.__name__}.{mname}", rows=True))
        # modules that imported a wrapped function by name hold the original
        for modname, mod in list(sys.modules.items()):
            if modname == "logharnack" or modname.startswith("logharnack."):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in replaced:
                        self._set(mod, attr, replaced[val])

    def _set(self, obj, attr, wrapped):
        original = getattr(obj, attr)
        self._restore.append(lambda: setattr(obj, attr, original))
        setattr(obj, attr, wrapped)

    def _set_item(self, obj, key, wrapped):
        original = obj[key]
        self._restore.append(lambda: obj.__setitem__(key, original))
        obj[key] = wrapped

    def uninstall(self):
        """Put every replaced attribute back."""
        while self._restore:
            self._restore.pop()()

    def dump(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, thread, run, rows, facts in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start_ns": t0,
                       "end_ns": t1, "thread": thread, "run": run}
                if rows:
                    rec["rows"] = rows
                if facts:
                    rec.update({k: v for k, v in facts.items() if k != "key"})
                fh.write(json.dumps(rec) + "\n")


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------


def _covered(intervals) -> int:
    """Length of the union of [t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def _quantile(values, q):
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=float), q))


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of one traced workload run."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))

    def dur(s):
        return s[4] - s[3]

    def self_ns(s):
        return dur(s) - _covered(children.get(s[0], ()))

    def ancestors(s):
        p = s[1]
        while p is not None and p in by_id:
            yield by_id[p]
            p = by_id[p][1]

    def outermost(s, family):
        return not any(a[2] in family for a in ancestors(s))

    layer_self = defaultdict(int)
    for s in spans:
        layer_self[s[2].split(".", 1)[0]] += self_ns(s)

    def named(*names):
        return [s for s in spans if s[2] in names]

    m = {}

    # cli
    jobs = [dur(s) / 1e9 for s in spans if s[2].startswith("cli.job.")]
    m["cli.jobs"] = len(jobs)
    m["cli.job_s_p50"] = _quantile(jobs, 0.5)
    m["cli.job_s_p80"] = _quantile(jobs, 0.8)
    m["cli.max_job_share"] = max(jobs) / sum(jobs) if jobs else 0.0
    m["cli.self_s"] = layer_self["cli"] / 1e9
    m["verify.self_s"] = layer_self["verify"] / 1e9

    # diffusion
    ens = named("diffusion.simulate_ensemble")
    steps = sum(s[8]["path_steps"] for s in ens)
    m["diffusion.ensembles"] = len(ens)
    m["diffusion.unique_frac"] = len({s[8]["key"] for s in ens}) / len(ens) if ens else 0.0
    m["diffusion.path_steps"] = steps
    m["diffusion.self_s"] = layer_self["diffusion"] / 1e9
    m["diffusion.ns_per_path_step"] = sum(dur(s) for s in ens) / steps if steps else 0.0
    for v in DIFFUSION_VARIANTS:
        sv = [s for s in ens if s[8]["variant"] == v]
        n = sum(s[8]["path_steps"] for s in sv)
        m[f"diffusion.ns_per_path_step.{v}"] = sum(dur(s) for s in sv) / n if n else 0.0

    # coupling: a coupled step maps the noise of X once, so the calls and
    # rows of tangent_from_frame under run_coupling count steps and pair-steps
    runs = named("coupling.run_coupling")
    geo = [s for s in spans if s[2].startswith("geometry.") and s[2].count(".") == 2]
    geom_under = defaultdict(int)
    frame_calls = defaultdict(int)
    pair_steps = defaultdict(int)
    for s in geo:
        top = next((a for a in ancestors(s) if a[2] == "coupling.run_coupling"), None)
        if top is None:
            continue
        geom_under[top[0]] += 1
        if s[2].endswith(".tangent_from_frame"):
            frame_calls[top[0]] += 1
            pair_steps[top[0]] += s[7]
    total_pairs = sum(pair_steps.values())
    m["coupling.runs"] = len(runs)
    m["coupling.pair_steps"] = total_pairs
    m["coupling.self_s"] = layer_self["coupling"] / 1e9
    m["coupling.ns_per_pair_step"] = (sum(dur(s) for s in runs) / total_pairs
                                      if total_pairs else 0.0)
    n_steps = sum(frame_calls.values())
    m["coupling.geom_calls_per_step"] = sum(geom_under.values()) / n_steps if n_steps else 0.0
    for v in COUPLING_VARIANTS:
        sv = [s for s in runs if s[8]["variant"] == v]
        n = sum(pair_steps[s[0]] for s in sv)
        m[f"coupling.ns_per_pair_step.{v}"] = sum(dur(s) for s in sv) / n if n else 0.0

    # geometry: method spans are named geometry.<class>.<method>
    m["geometry.calls"] = len(geo)
    for p in GEOMETRY_PRIMITIVES:
        sp = [s for s in geo if s[2].rsplit(".", 1)[1] == p]
        rows = sum(s[7] for s in sp)
        m[f"geometry.{p}.rows"] = rows
        m[f"geometry.{p}.ns_per_row"] = sum(dur(s) for s in sp) / rows if rows else 0.0

    # local_bounds
    cd = named("local_bounds.c_D")
    m["local_bounds.c_D_calls"] = len(cd)
    m["local_bounds.c_D_unique_frac"] = len({s[8]["key"] for s in cd}) / len(cd) if cd else 0.0
    m["local_bounds.c_D_s"] = sum(dur(s) for s in cd if outermost(s, ("local_bounds.c_D",))) / 1e9
    m["local_bounds.K_s"] = sum(dur(s) for s in named(*_K_FUNCS) if outermost(s, _K_FUNCS)) / 1e9

    # estimators
    m["estimators.mc_calls"] = len(named("estimators.mc_functional_values"))
    m["estimators.mc_self_s"] = sum(self_ns(s) for s in named(*_MC_FUNCS)) / 1e9
    oracles = named(*_ORACLES)
    m["estimators.oracle_calls"] = len(oracles)
    m["estimators.oracle_s"] = sum(dur(s) for s in oracles if outermost(s, _ORACLES)) / 1e9

    # stats and rng
    est = named("stats.estimate_from_values")
    m["stats.estimates"] = len(est)
    m["stats.s"] = sum(dur(s) for s in spans if s[2].startswith("stats.")) / 1e9
    m["rng.streams"] = len(named("rng.stream"))
    dims = {s[0]: s[8]["dim"] for s in runs}
    m["rng.normals"] = (sum(s[8]["path_steps"] * s[8]["dim"] for s in ens)
                        + sum(n * dims[r] for r, n in pair_steps.items()))
    return m


def pool_utilisation(spans, workers: int) -> float:
    """Sum of job time over (workers x wall time of the cli.run calls)."""
    wall = sum(s[4] - s[3] for s in spans if s[2] == "cli.run")
    busy = sum(s[4] - s[3] for s in spans if s[2].startswith("cli.job."))
    return busy / (workers * wall) if wall else 0.0
