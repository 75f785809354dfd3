"""Experiment runner: parse a config file, execute checker grids, write
CSV reports and plot data.

The config is a single YAML file with nested key-value sections and a
schema_version field; every numeric output is serialised with 17
significant digits so reruns diff bit-exactly.  Grid points are expanded
in a fixed order, dispatched to a bounded worker pool, and the rows are
written in grid order, so the report is identical for any worker count.

Every grid key is the keyword of the same name on its checker, and
``_ARGS`` maps each key to the coercion of its grid values.  Runners:

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
from .geometry import GeometryError, model_from_config
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


def _floats(v):
    return np.asarray(v, dtype=float)


# grid key -> coercion of one grid value to the checker keyword of that name
_ARGS = {
    "x": _floats,
    "y": _floats,
    "f": test_function_from_config,
    "g": test_function_from_config,
    "T": float,
    "t": float,
    "h": float,
    "domain_radius": float,
    "eps_tilt": float,
    "r": float,
    "c2_max": float,
    "t_grid": lambda v: [float(t) for t in v],
    "n_paths": int,
    "use_oracle": bool,
    "correction": bool,
}


def _args(p) -> dict:
    return {k: _ARGS[k](v) for k, v in p.items()}


def _report_runner(check, seeded=False):
    """Runner of a checker that returns one report: every grid key is the
    checker keyword of the same name; Monte Carlo checkers also get the
    job seed.  The margin is plotted against T (or t) under the tag."""

    def run_job(M, p, seed):
        args = _args(p)
        if seeded:
            args["master_seed"] = seed
        rep = check(M, **args)
        return JobResult(reports=[rep], series=[(rep.tag, args.get("T", args.get("t")), rep.margin)])

    return run_job


def _run_coupling(M, p, seed):
    a = _args(p)
    h, n_pairs = a.pop("h", 1e-3), a.pop("n_paths", 20000)
    diag = cp.run_coupling(M, cp.standard_coupling_config(M, h=h, **a), n_pairs, seed)
    row = {"variant": M.variant, "x": json.dumps(list(map(float, np.atleast_1d(p["x"])))),
           "y": json.dumps(list(map(float, np.atleast_1d(p["y"])))), "T": a["T"], "h": h}
    row.update(diag.to_row())
    return JobResult(diagnostics=[row], series=[("coupling-entropy", a["T"], diag.entropy_bound - diag.e_rlogr.mean)])


def _run_local_time(M, p, seed):
    a = _args(p)
    t_grid, n_paths, h = a["t_grid"], a.get("n_paths", 100000), a.get("h", 1e-4)
    ests, ref = local_time_profile(M, a["x"], t_grid, n_paths, h, seed, r=a.get("r", 1.0))
    fitted = max(max(0.0, abs(e.mean - rv) - 3.0 * e.stderr) / t for t, e, rv in zip(t_grid, ests, ref))
    series = [("local-time", t, e.mean - rv) for t, e, rv in zip(t_grid, ests, ref)]
    rep = vf.InequalityReport(
        "local-time",
        {"variant": M.variant, "x": list(np.atleast_1d(p["x"])), "t_grid": t_grid,
         "n_paths": n_paths, "h": h, "seed": seed},
        lhs=fitted,
        rhs=a.get("c2_max", 5.0),
        notes="lhs = fitted C2 for |E l - 2 sqrt(t/pi)| <= C2 t + 3 se",
    )
    return JobResult(reports=[rep], series=series)


def _run_generator(M, p, seed):
    res = generator_check(M, master_seed=seed, **_args(p))
    rep = vf.InequalityReport(
        "generator",
        {"variant": M.variant, "x": list(np.atleast_1d(p["x"])), "g": p["g"], "seed": seed},
        lhs=abs(res["slope"] - res["lg"]),
        rhs=0.05 * max(abs(res["lg"]), 1e-12),
        lhs_se=0.0 if res["oracle"] else res["slope_paths"].stderr,
        notes=f"slope={res['slope']:.6g} lg={res['lg']:.6g}",
    )
    series = [("generator", float(s), float(v)) for s, v in zip(res["s_grid"], res["values"])]
    return JobResult(reports=[rep], series=series)


def _run_sharpness(M, p, seed):
    rep = vf.sharpness_experiment(M, master_seed=seed, **_args(p))
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
# Config parsing and validation
# ----------------------------------------------------------------------


def _is_number(v) -> bool:
    # YAML true/false load as bool, a subclass of int
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_positive(v) -> bool:
    return _is_number(v) and v > 0  # "> 0" rejects NaN


def _is_finite(v) -> bool:
    return _is_number(v) and abs(v) <= sys.float_info.max  # NaN fails the compare


@dataclass
class ExperimentConfig:
    model: dict
    checks: list
    master_seed: int = 0
    output_dir: str = "out"
    workers: int = 1

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = yaml.safe_load(Path(path).read_text())
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
        checks = raw.get("checks", [])
        if checks is None:
            checks = []
        cfg = cls(
            model=raw["model"],
            checks=checks,
            master_seed=int(raw.get("master_seed", 0)),
            output_dir=str(raw.get("output_dir", "out")),
            workers=int(raw.get("workers", 1)),
        )
        cfg.validate()
        return cfg

    def validate(self):
        try:
            M = model_from_config(self.model)
        except GeometryError as e:
            raise ConfigError("model", str(e)) from None
        for i, chk in enumerate(self.checks):
            where = f"checks[{i}]"
            if "tag" not in chk:
                raise ConfigError(where + ".tag", "missing tag")
            tag = chk["tag"]
            if tag not in CHECKS:
                raise ConfigError(where + ".tag", f"unknown check {tag!r}")
            grid = chk.get("grid", {})
            if not isinstance(grid, dict):
                raise ConfigError(where + ".grid", "grid must be a mapping of parameter lists")
            for req in CHECKS[tag]["required"]:
                if req not in grid:
                    raise ConfigError(f"{where}.grid.{req}", "required parameter missing")
            known = set(CHECKS[tag]["required"]) | set(CHECKS[tag]["optional"])
            for key, vals in grid.items():
                if key not in known:
                    raise ConfigError(f"{where}.grid.{key}", f"unknown parameter for {tag}")
                if not isinstance(vals, list) or len(vals) == 0:
                    raise ConfigError(f"{where}.grid.{key}", "grid values must be a non-empty list")
                for v in vals:
                    self._check_value(f"{where}.grid.{key}", key, v, M)

    @staticmethod
    def _check_value(where, key, v, M):
        if key in ("use_oracle", "correction") and not isinstance(v, bool):
            raise ConfigError(where, f"{key} must be true or false, got {v!r}")
        if key in ("T", "t", "h", "domain_radius", "r", "c2_max") and not _is_positive(v):
            raise ConfigError(where, f"{key} must be a positive number, got {v!r}")
        if key == "eps_tilt" and not _is_finite(v):
            raise ConfigError(where, f"eps_tilt must be a finite number, got {v!r}")
        if key in ("x", "y"):
            entries = v if isinstance(v, list) else [v]
            if len(entries) != M.chart_dim or not all(map(_is_finite, entries)):
                raise ConfigError(where, f"{key} must be a point of {M.chart_dim} finite numbers, got {v!r}")
            if not M.contains(np.asarray(entries, dtype=float)):
                raise ConfigError(where, f"{key} must lie on the {M.variant} model, got {v!r}")
        if key == "n_paths":
            if not isinstance(v, int) or isinstance(v, bool) or v < 1000:
                raise ConfigError(where, f"n_paths must be an integer >= 1000, got {v!r}")
        if key == "t_grid":
            if not isinstance(v, list) or not v or not all(_is_positive(t) for t in v):
                raise ConfigError(where, f"t_grid must be a non-empty list of positive times, got {v!r}")
        if key in ("f", "g"):
            if not isinstance(v, dict) or "tag" not in v:
                raise ConfigError(where, "test functions are mappings with a 'tag'")

    def jobs(self):
        """Expand every check grid into (job_index, tag, params) in a
        fixed deterministic order."""
        out = []
        idx = 0
        for chk in self.checks:
            tag = chk["tag"]
            grid = chk.get("grid", {})
            keys = sorted(grid.keys())
            for combo in itertools.product(*(grid[k] for k in keys)):
                out.append((idx, tag, dict(zip(keys, combo))))
                idx += 1
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
    cfg = ExperimentConfig.from_file(config_path)
    if seed is not None:
        cfg.master_seed = int(seed)
    if workers is not None:
        cfg.workers = int(workers)
    if out is not None:
        cfg.output_dir = str(out)
    M = model_from_config(cfg.model)
    jobs = cfg.jobs()

    def exec_job(job):
        idx, tag, params = job
        job_seed = derive_seed(cfg.master_seed, idx)
        try:
            return idx, CHECKS[tag]["run"](M, params, job_seed)
        except (ValueError, GeometryError) as e:
            raise PreconditionError(f"job {idx} ({tag})", str(e)) from e

    results = {}
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            for idx, res in pool.map(exec_job, jobs):
                results[idx] = res
    else:
        for job in jobs:
            idx, res = exec_job(job)
            results[idx] = res

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
