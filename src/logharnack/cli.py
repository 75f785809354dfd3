"""Experiment runner: parse a config file, execute checker grids, write
CSV reports and plot data.

The config is a single YAML file with nested key-value sections and a
schema_version field; every numeric output is serialised with 17
significant digits so reruns diff bit-exactly.  Grid points are expanded
in a fixed order, dispatched to a bounded worker pool, and the rows are
written in grid order, so the report is identical for any worker count.

Each config value is read once, by one reader, when the file is loaded:
the reader checks the value and converts it to what the checker gets,
and a bad value fails there with its field named.  ``_ARGS`` holds the
reader of each grid key.  A tag's grid keys are the keywords of the
function that runs its job, as a model record's keys are its builder's
(``geometry.read_record``): its parameters after M, but master_seed,
which gets the job seed; those without a default are required, and a key
the grid leaves out takes the signature default.  The keywords of that
call are the job's config: each ``report.csv`` row writes them, with the
model variant, master_seed as ``seed`` and the row's own keys, as its
``config`` and hashes them as its ``config_hash``, so a row names every
input behind it.

A Monte Carlo log-harnack, log-harnack-local, gradient or harnack job
of at least 8 x 2,500 paths first makes its call on one eighth of them
with its own seed; when that pilot's margin is more than two bands from
zero its row is the job's, and its config is the pilot's call.
Otherwise the job makes its full call, as without a pilot.

Exit status is nonzero iff some inequality verdict is "violated" or
"invalid".
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import itertools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import coupling as cp
from . import verify as vf
from .diffusion import local_time_profile
from .estimators import generator_check, test_function_from_config
from .geometry import GeometryError, ModelSpace, _is_finite, model_from_config
from .rng import derive_seed

__all__ = [
    "ConfigError",
    "PreconditionError",
    "ExperimentConfig",
    "CHECKS",
    "list_checks",
    "run",
    "main",
]

SCHEMA_VERSION = 1

# libyaml's parser where PyYAML was built with it: the same mappings, read
# several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    def __init__(self, where: str, msg: str):
        super().__init__(f"{where}: {msg}")
        self.where = where


class PreconditionError(ValueError):
    def __init__(self, job: str, msg: str):
        super().__init__(f"{job}: {msg}")
        self.job = job


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


# ----------------------------------------------------------------------
# Checker runners: params dict -> reports / diagnostics / plot series
# ----------------------------------------------------------------------


@dataclass
class JobResult:
    reports: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    series: list = field(default_factory=list)  # (name, xval, yval)
    config: dict = field(default_factory=dict)  # the job's inputs


def _one_report(kw, rep):
    """A checker's one report, its margin plotted against T (or t)."""
    return JobResult(reports=[rep], series=[(rep.tag, kw["T"] if "T" in kw else kw["t"], rep.margin)])


# A Monte Carlo check of n paths first runs a pilot of n // PILOT_SHARE
# paths, when that is at least PILOT_FLOOR (the standard error of log f
# and of Girsanov weights is unreliable on fewer paths), and keeps the
# pilot's row when it is valid and its margin is more than PILOT_FACTOR
# bands (six standard errors) from zero; otherwise it runs all n.
PILOT_SHARE = 8
PILOT_FLOOR = 2_500
PILOT_FACTOR = 2.0


def _check(fn, result=_one_report, pilot=False):
    """CHECKS entry of a tag whose jobs call ``fn``: fn's parameters after
    M, but master_seed, which gets the job seed, are the grid keys, those
    without a default required.  ``result(keywords, out)`` makes the
    JobResult of fn's return; with None fn returns it.  The JobResult's
    config is the keywords of the call, defaults included, master_seed as
    seed.  With ``pilot`` a Monte Carlo job first makes the same call on
    n_paths // PILOT_SHARE paths with master_seed derive_seed(job seed, 1),
    and keeps its result when its one report is settled."""
    sig = inspect.signature(fn).parameters
    keys = [k for k in list(sig)[1:] if k != "master_seed"]
    defaults = {k: sig[k].default for k in keys if sig[k].default is not sig[k].empty}

    def call(M, kw):
        res = result(kw, fn(M, **kw)) if result else fn(M, **kw)
        res.config = vf.report_config(M, **{"seed" if k == "master_seed" else k: v for k, v in kw.items()})
        return res

    def run_job(M, p, seed):
        kw = {**defaults, **p}
        if "master_seed" in sig:
            kw["master_seed"] = seed
        if pilot and not kw["use_oracle"] and kw["n_paths"] // PILOT_SHARE >= PILOT_FLOOR:
            res = call(M, dict(kw, n_paths=kw["n_paths"] // PILOT_SHARE, master_seed=derive_seed(seed, 1)))
            [rep] = res.reports
            if rep.verdict != vf.VERDICT_INVALID and abs(rep.margin) > PILOT_FACTOR * rep.band:
                return res
        return call(M, kw)

    return {"run": run_job,
            "required": [k for k in keys if sig[k].default is sig[k].empty],
            "optional": [k for k in keys if sig[k].default is not sig[k].empty]}


def _coupling(M, x, y, T, *, n_paths=20_000, h=1e-3, domain_radius=1.0, master_seed=0):
    diag = cp.run_coupling(M, cp.standard_coupling_config(M, x, y, T, h, domain_radius=domain_radius),
                           n_paths, master_seed)
    row = {"variant": M.variant, "x": json.dumps(x.tolist()), "y": json.dumps(y.tolist()), "T": T, "h": h}
    row.update(diag.to_row())
    return JobResult(diagnostics=[row], series=[("coupling-entropy", T, diag.entropy_bound - diag.e_rlogr.mean)])


def _local_time(M, x, t_grid, *, n_paths=100_000, h=1e-4, r=1.0, c2_max=5.0, master_seed=0):
    ests, ref = local_time_profile(M, x, t_grid, n_paths, h, master_seed, r=r)
    # lhs: the C2 fitted to |E l - 2 sqrt(t/pi)| <= C2 t + 3 se
    fitted = max(max(0.0, abs(e.mean - rv) - 3.0 * e.stderr) / t for t, e, rv in zip(t_grid, ests, ref))
    series = [("local-time", t, e.mean - rv) for t, e, rv in zip(t_grid, ests, ref)]
    return JobResult(reports=[vf.InequalityReport("local-time", lhs=fitted, rhs=c2_max)], series=series)


def _generator(kw, res):
    rep = vf.InequalityReport(
        "generator",
        lhs=abs(res["slope"] - res["lg"]),
        rhs=0.05 * max(abs(res["lg"]), 1e-12),
        lhs_se=0.0 if res["oracle"] else res["slope_paths"].stderr,
    )
    series = [("generator", float(s), float(v)) for s, v in zip(res["s_grid"], res["values"])]
    return JobResult(reports=[rep], series=series)


def _sharpness(kw, rep):
    series = [("sharpness-cbound", float(r["r"]), float(r["c_bound"])) for r in rep.rows]
    return JobResult(reports=rep.to_reports(), series=series)


CHECKS = {
    "log-harnack": _check(vf.check_log_harnack, pilot=True),
    "log-harnack-local": _check(vf.check_log_harnack_local, pilot=True),
    "gradient": _check(vf.check_gradient, pilot=True),
    "harnack": _check(vf.check_harnack, pilot=True),
    "kernel-lower": _check(vf.check_kernel_lower_bound),
    "entropy": _check(vf.check_entropy_bound),
    "entropy-cost": _check(vf.check_entropy_cost),
    "coupling-diagnostics": _check(_coupling, None),
    "local-time": _check(_local_time, None),
    "generator": _check(generator_check, _generator),
    "sharpness": _check(vf.sharpness_experiment, _sharpness),
}


def list_checks() -> str:
    """Stable machine-readable catalogue of checker tags and parameters."""
    lines = []
    for tag in sorted(CHECKS):
        spec = CHECKS[tag]
        lines.append(f"{tag}\trequired={','.join(spec['required'])}\toptional={','.join(spec['optional'])}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Config reading: each value is read once, by one reader
# ----------------------------------------------------------------------


def _reader(must, ok, convert=float):
    """Reader of a value that ``ok`` judges alone; ``convert`` gives what
    the checker gets."""

    def read(v, M):
        if not ok(v):
            raise ValueError(f"must be {must}, got {v!r}")
        return convert(v)

    return read


def _is_int(v, least) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _point(v, M) -> np.ndarray:
    entries = v if isinstance(v, list) else [v]
    if len(entries) != M.chart_dim or not all(map(_is_finite, entries)):
        raise ValueError(f"must be a point of {M.chart_dim} finite numbers, got {v!r}")
    x = np.asarray(entries, dtype=float)
    if not M.contains(x):
        raise ValueError(f"must lie on the {M.variant} model, got {v!r}")
    x.flags.writeable = False  # the jobs of this grid value share the array
    return x


def _test_function(v, M):
    return test_function_from_config(v, M.chart_dim)


_POSITIVE = _reader("a positive number", lambda v: _is_finite(v) and v > 0)
_FLAG = _reader("true or false", lambda v: isinstance(v, bool), bool)

# grid key -> its reader: (YAML value, model) -> the checker keyword of the
# same name; a reader raises ValueError saying what the value must be
_ARGS = {
    "x": _point,
    "y": _point,
    "f": _test_function,
    "g": _test_function,
    "T": _POSITIVE,
    "t": _POSITIVE,
    "h": _POSITIVE,
    "domain_radius": _POSITIVE,
    "r": _POSITIVE,
    "c2_max": _POSITIVE,
    "eps_tilt": _reader("a finite number", _is_finite),
    "t_grid": _reader("a non-empty list of positive times",
                      lambda v: isinstance(v, list) and v and all(_is_finite(t) and t > 0 for t in v),
                      lambda v: [float(t) for t in v]),
    "n_paths": _reader("an integer >= 1000", lambda v: _is_int(v, 1000), int),
    "use_oracle": _FLAG,
    "correction": _FLAG,
}
_SEED = _reader("an integer >= 0", lambda v: _is_int(v, 0), int)
_WORKERS = _reader("an integer >= 1", lambda v: _is_int(v, 1), int)
_SCHEMA = _reader(f"the integer {SCHEMA_VERSION}", lambda v: _is_int(v, 0) and v == SCHEMA_VERSION, int)
# run(out=...) may also pass a Path
_OUTPUT_DIR = _reader("a non-empty string", lambda v: isinstance(v, (str, Path)) and str(v) != "", str)


def _read(where, reader, v, M=None):
    try:
        return reader(v, M)
    except ValueError as e:
        raise ConfigError(where, str(e)) from None


def _read_check(where, chk, M):
    """(tag, {grid key: [read values]}) of one entry of ``checks``."""
    if not isinstance(chk, dict) or "tag" not in chk:
        raise ConfigError(where + ".tag", "missing tag")
    tag = chk["tag"]
    if not isinstance(tag, str) or tag not in CHECKS:
        raise ConfigError(where + ".tag", f"unknown check {tag!r}")
    grid = chk.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError(where + ".grid", "grid must be a mapping of parameter lists")
    spec = CHECKS[tag]
    for req in spec["required"]:
        if req not in grid:
            raise ConfigError(f"{where}.grid.{req}", "required parameter missing")
    read = {}
    for key, vals in grid.items():
        if key not in spec["required"] + spec["optional"]:
            raise ConfigError(f"{where}.grid.{key}", f"unknown parameter for {tag}")
        if not isinstance(vals, list) or len(vals) == 0:
            raise ConfigError(f"{where}.grid.{key}", "grid values must be a non-empty list")
        read[key] = [_read(f"{where}.grid.{key}", _ARGS[key], v, M) for v in vals]
    return tag, read


@dataclass
class ExperimentConfig:
    """An experiment file as read: ``model`` is the raw model record,
    ``space`` the model it builds, and ``checks`` holds (tag, grid) pairs
    whose grid values are what the readers returned."""

    model: dict
    space: ModelSpace
    checks: list
    master_seed: int = 0
    output_dir: str = "out"
    workers: int = 1

    @classmethod
    def from_file(cls, path, master_seed=None, workers=None, output_dir=None) -> "ExperimentConfig":
        """Read the file; master_seed, workers and output_dir, unless None, replace its values."""
        try:
            raw = yaml.load(Path(path).read_text(), Loader=_YAML_LOADER)
        except FileNotFoundError:
            raise ConfigError(str(path), "config file not found") from None
        except yaml.YAMLError as e:
            raise ConfigError(str(path), f"invalid YAML: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError(str(path), "config must be a mapping")
        _read("schema_version", _SCHEMA, raw.get("schema_version"))
        if "model" not in raw:
            raise ConfigError("model", "missing model record")
        overrides = {"master_seed": master_seed, "workers": workers, "output_dir": output_dir}
        raw.update({k: v for k, v in overrides.items() if v is not None})
        try:
            M = model_from_config(raw["model"])
        except GeometryError as e:
            raise ConfigError("model", str(e)) from None
        checks = raw.get("checks")
        if not isinstance(checks, (list, type(None))):  # null means no checks
            raise ConfigError("checks", f"must be a list of checks, got {checks!r}")
        return cls(
            model=raw["model"],
            space=M,
            checks=[_read_check(f"checks[{i}]", chk, M) for i, chk in enumerate(checks or [])],
            master_seed=_read("master_seed", _SEED, raw.get("master_seed", 0)),
            output_dir=_read("output_dir", _OUTPUT_DIR, raw.get("output_dir", "out")),
            workers=_read("workers", _WORKERS, raw.get("workers", 1)),
        )

    def jobs(self):
        """Expand every check grid into (job_index, tag, params) in a
        fixed deterministic order."""
        out = []
        for tag, grid in self.checks:
            keys = sorted(grid)
            for combo in itertools.product(*(grid[k] for k in keys)):
                out.append((len(out), tag, dict(zip(keys, combo))))
        return out


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

REPORT_COLUMNS = [
    "job_index",
    "tag",
    "config_hash",
    "lhs",
    "rhs",
    "margin",
    "band",
    "verdict",
    "master_seed",
    "constants",
    "config",
]

DIAG_COLUMNS = [
    "job_index",
    "variant",
    "x",
    "y",
    "T",
    "h",
    "e_r",
    "e_r_stderr",
    "e_rlogr",
    "e_rlogr_stderr",
    "entropy_bound",
    "coupling_weighted",
    "coupling_weighted_stderr",
    "coupled_fraction",
    "flagged_fraction",
    "max_rho_excess",
    "n",
    "seed",
    "master_seed",
]


def _write_csv(path, columns, rows):
    """A header of ``columns`` and one line per row mapping, a column the
    row leaves out written empty."""
    with path.open("w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([_fmt(row.get(c, "")) for c in columns] for row in rows)


def run(config_path, *, workers=None, seed=None, out=None) -> int:
    """Execute the experiment file; returns the process exit status."""
    cfg = ExperimentConfig.from_file(config_path, master_seed=seed, workers=workers, output_dir=out)
    M = cfg.space
    jobs = cfg.jobs()

    def exec_job(job):
        idx, tag, params = job
        job_seed = derive_seed(cfg.master_seed, idx)
        try:
            return idx, CHECKS[tag]["run"](M, params, job_seed)
        except (ValueError, GeometryError) as e:
            raise PreconditionError(f"job {idx} ({tag})", str(e)) from e

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = dict(pool.map(exec_job, jobs))
    else:
        results = dict(map(exec_job, jobs))

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "plotdata").mkdir(exist_ok=True)

    violated = invalid = 0
    report_rows, diag_rows = [], []
    series_acc = {}
    summary = {}
    for idx, tag, params in jobs:
        res = results[idx]
        for rep in res.reports:
            config = json.dumps({**res.config, **rep.config}, sort_keys=True)
            report_rows.append(dict(rep.to_row(), job_index=idx, master_seed=cfg.master_seed, config=config,
                                    config_hash=hashlib.sha1(config.encode()).hexdigest()[:12]))
            summary.setdefault(rep.tag, {}).setdefault(rep.verdict, 0)
            summary[rep.tag][rep.verdict] += 1
            violated += rep.verdict == vf.VERDICT_VIOLATED
            invalid += rep.verdict == vf.VERDICT_INVALID
        diag_rows += [dict(drow, job_index=idx, master_seed=cfg.master_seed) for drow in res.diagnostics]
        for name, xv, yv in res.series:
            series_acc.setdefault(name, []).append((xv, yv))

    _write_csv(outdir / "report.csv", REPORT_COLUMNS, report_rows)
    if diag_rows:
        _write_csv(outdir / "diagnostics.csv", DIAG_COLUMNS, diag_rows)
    for name, pairs in series_acc.items():
        lines = [f"{_fmt(a)}\t{_fmt(b)}\n" for a, b in pairs]
        (outdir / "plotdata" / f"{name}.tsv").write_text("".join(lines))

    lines = [f"model: {json.dumps(cfg.model, sort_keys=True)}",
             f"master_seed: {cfg.master_seed}", f"jobs: {len(jobs)}"]
    for tag in sorted(summary):
        counts = ", ".join(f"{k}={v}" for k, v in sorted(summary[tag].items()))
        lines.append(f"{tag}: {counts}")
    lines.append(f"violated: {violated}")
    lines.append(f"invalid: {invalid}")
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")

    return 1 if violated or invalid else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="logharnack",
        description="Run inequality-verification experiments on model manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="YAML experiment file")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)
    sub.add_parser("list-checks", help="print the checker catalogue")

    args = parser.parse_args(argv)
    if args.command == "list-checks":
        print(list_checks())
        return 0
    try:
        return run(args.config, workers=args.workers, seed=args.seed, out=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
