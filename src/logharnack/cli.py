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
reader of each grid key, which is the keyword of the same name on its
checker; the jobs run the values as read.  Runners:

    log-harnack, log-harnack-local,   one runner: check(M, **args) plus the
    gradient, harnack                 job seed; margin plotted against T / t
    kernel-lower, entropy,            the same runner without a seed
    entropy-cost
    coupling-diagnostics              run_coupling; one diagnostics row
    local-time, generator, sharpness  their own report assembly

A key the grid leaves out takes the default of the checker signature
(coupling-diagnostics and local-time set their step and path defaults in
their runners).

Exit status is nonzero iff some inequality verdict is "violated" or
"invalid".
"""

from __future__ import annotations

import argparse
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


def _report_runner(check, seeded=False):
    """Runner of a checker that returns one report: every grid key is the
    checker keyword of the same name; Monte Carlo checkers also get the
    job seed.  The margin is plotted against T (or t) under the tag."""

    def run_job(M, p, seed):
        args = dict(p, master_seed=seed) if seeded else p
        rep = check(M, **args)
        return JobResult(reports=[rep], series=[(rep.tag, p.get("T", p.get("t")), rep.margin)])

    return run_job


def _run_coupling(M, p, seed):
    a = dict(p)
    h, n_pairs = a.pop("h", 1e-3), a.pop("n_paths", 20000)
    diag = cp.run_coupling(M, cp.standard_coupling_config(M, h=h, **a), n_pairs, seed)
    row = {"variant": M.variant, "x": json.dumps(p["x"].tolist()), "y": json.dumps(p["y"].tolist()),
           "T": p["T"], "h": h}
    row.update(diag.to_row())
    return JobResult(diagnostics=[row], series=[("coupling-entropy", p["T"], diag.entropy_bound - diag.e_rlogr.mean)])


def _run_local_time(M, p, seed):
    t_grid, n_paths, h = p["t_grid"], p.get("n_paths", 100000), p.get("h", 1e-4)
    ests, ref = local_time_profile(M, p["x"], t_grid, n_paths, h, seed, r=p.get("r", 1.0))
    # lhs: the C2 fitted to |E l - 2 sqrt(t/pi)| <= C2 t + 3 se
    fitted = max(max(0.0, abs(e.mean - rv) - 3.0 * e.stderr) / t for t, e, rv in zip(t_grid, ests, ref))
    series = [("local-time", t, e.mean - rv) for t, e, rv in zip(t_grid, ests, ref)]
    rep = vf.InequalityReport(
        "local-time",
        {"variant": M.variant, "x": p["x"].tolist(), "t_grid": t_grid, "n_paths": n_paths, "h": h, "seed": seed},
        lhs=fitted,
        rhs=p.get("c2_max", 5.0),
    )
    return JobResult(reports=[rep], series=series)


def _run_generator(M, p, seed):
    res = generator_check(M, master_seed=seed, **p)
    rep = vf.InequalityReport(
        "generator",
        {"variant": M.variant, "x": p["x"].tolist(), "g": p["g"].to_config(), "seed": seed},
        lhs=abs(res["slope"] - res["lg"]),
        rhs=0.05 * max(abs(res["lg"]), 1e-12),
        lhs_se=0.0 if res["oracle"] else res["slope_paths"].stderr,
    )
    series = [("generator", float(s), float(v)) for s, v in zip(res["s_grid"], res["values"])]
    return JobResult(reports=[rep], series=series)


def _run_sharpness(M, p, seed):
    rep = vf.sharpness_experiment(M, master_seed=seed, **p)
    series = [("sharpness-cbound", float(r["r"]), float(r["c_bound"])) for r in rep.rows]
    return JobResult(reports=rep.to_reports(), series=series)


CHECKS = {
    "log-harnack": {"run": _report_runner(vf.check_log_harnack, seeded=True),
                    "required": ["x", "y", "T", "f"],
                    "optional": ["n_paths", "h", "use_oracle", "correction", "domain_radius"]},
    "log-harnack-local": {"run": _report_runner(vf.check_log_harnack_local, seeded=True),
                          "required": ["x", "y", "t", "f"], "optional": ["n_paths", "h", "use_oracle"]},
    "gradient": {"run": _report_runner(vf.check_gradient, seeded=True), "required": ["x", "T", "f"],
                 "optional": ["n_paths", "h", "use_oracle", "domain_radius"]},
    "harnack": {"run": _report_runner(vf.check_harnack, seeded=True), "required": ["x", "y", "T", "f"],
                "optional": ["n_paths", "h", "use_oracle", "domain_radius"]},
    "kernel-lower": {"run": _report_runner(vf.check_kernel_lower_bound),
                     "required": ["x", "y", "t"], "optional": []},
    "entropy": {"run": _report_runner(vf.check_entropy_bound), "required": ["y", "t"], "optional": []},
    "entropy-cost": {"run": _report_runner(vf.check_entropy_cost), "required": ["t"],
                     "optional": ["eps_tilt"]},
    "coupling-diagnostics": {"run": _run_coupling, "required": ["x", "y", "T"],
                             "optional": ["n_paths", "h", "domain_radius"]},
    "local-time": {"run": _run_local_time, "required": ["x", "t_grid"],
                   "optional": ["n_paths", "h", "r", "c2_max"]},
    "generator": {"run": _run_generator, "required": ["x", "g"], "optional": ["n_paths", "h"]},
    "sharpness": {"run": _run_sharpness, "required": ["x", "f"], "optional": ["n_paths"]},
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
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError("schema_version", f"must be {SCHEMA_VERSION}")
        if "model" not in raw:
            raise ConfigError("model", "missing model record")
        overrides = {"master_seed": master_seed, "workers": workers, "output_dir": output_dir}
        raw.update({k: v for k, v in overrides.items() if v is not None})
        try:
            M = model_from_config(raw["model"])
        except GeometryError as e:
            raise ConfigError("model", str(e)) from None
        checks = raw.get("checks") or []
        if not isinstance(checks, list):
            raise ConfigError("checks", "must be a list of checks")
        return cls(
            model=raw["model"],
            space=M,
            checks=[_read_check(f"checks[{i}]", chk, M) for i, chk in enumerate(checks)],
            master_seed=_read("master_seed", _SEED, raw.get("master_seed", 0)),
            output_dir=str(raw.get("output_dir", "out")),
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


def _csv_line(values) -> str:
    def quote(s):
        s = _fmt(s)
        if "," in s or '"' in s:
            s = '"' + s.replace('"', '""') + '"'
        return s

    return ",".join(quote(v) for v in values) + "\n"


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
    report_lines = [",".join(REPORT_COLUMNS) + "\n"]
    diag_lines = [",".join(DIAG_COLUMNS) + "\n"]
    series_acc = {}
    summary = {}
    for idx, tag, params in jobs:
        res = results[idx]
        for rep in res.reports:
            row = rep.to_row()
            row["job_index"] = idx
            row["master_seed"] = cfg.master_seed
            report_lines.append(_csv_line([row[c] for c in REPORT_COLUMNS]))
            summary.setdefault(rep.tag, {}).setdefault(rep.verdict, 0)
            summary[rep.tag][rep.verdict] += 1
            violated += rep.verdict == vf.VERDICT_VIOLATED
            invalid += rep.verdict == vf.VERDICT_INVALID
        for drow in res.diagnostics:
            drow = dict(drow)
            drow["job_index"] = idx
            drow["master_seed"] = cfg.master_seed
            diag_lines.append(_csv_line([drow.get(c, "") for c in DIAG_COLUMNS]))
        for name, xv, yv in res.series:
            series_acc.setdefault(name, []).append((xv, yv))

    (outdir / "report.csv").write_text("".join(report_lines))
    if len(diag_lines) > 1:
        (outdir / "diagnostics.csv").write_text("".join(diag_lines))
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
