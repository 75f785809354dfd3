import csv
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import logharnack
from logharnack import coupling as C
from logharnack import estimators as E
from logharnack import verify as V
from logharnack.cli import CHECKS, ConfigError, ExperimentConfig, _YAML_LOADER, _fmt, list_checks, main, run
from logharnack.geometry import model_from_config
from logharnack.rng import derive_seed

from helpers import workload_configs


def write_config(tmp_path, body) -> Path:
    p = tmp_path / "exp.yaml"
    p.write_text(yaml.safe_dump(body))
    return p


BASE = {
    "schema_version": 1,
    "master_seed": 7,
    "workers": 1,
    "model": {"variant": "euclidean", "dim": 1},
    "checks": [],
}


def test_empty_checks_exit_zero(tmp_path):
    cfg = dict(BASE, output_dir=str(tmp_path / "out"))
    assert run(write_config(tmp_path, cfg)) == 0
    report = (tmp_path / "out" / "report.csv").read_text()
    lines = report.strip().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].startswith("job_index,tag,config_hash,lhs,rhs,margin,band,verdict")


def test_single_grid_point_holds(tmp_path):
    cfg = dict(
        BASE,
        output_dir=str(tmp_path / "out"),
        checks=[
            {
                "tag": "log-harnack",
                "grid": {
                    "x": [[0.0]],
                    "y": [[0.3]],
                    "T": [0.5],
                    "f": [{"tag": "coord_exp", "a": [1.0]}],
                    "n_paths": [2000],
                    "h": [0.01],
                },
            }
        ],
    )
    assert run(write_config(tmp_path, cfg)) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert ",holds," in lines[1]


def test_negative_T_names_the_field(tmp_path):
    cfg = dict(
        BASE,
        checks=[
            {
                "tag": "log-harnack",
                "grid": {
                    "x": [[0.0]],
                    "y": [[0.3]],
                    "T": [-1.0],
                    "f": [{"tag": "coord_exp", "a": [1.0]}],
                },
            }
        ],
    )
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(write_config(tmp_path, cfg))
    assert "checks[0].grid.T" in str(err.value)


@pytest.mark.parametrize("key", ["T", "domain_radius"])
def test_nan_number_names_the_field(tmp_path, key):
    # NaN compares false both ways, so "<= 0" would let it through
    grid = {"x": [[0.0]], "y": [[0.3]], "T": [0.5], "f": [{"tag": "coord_exp", "a": [1.0]}]}
    grid[key] = [float("nan")]
    cfg = dict(BASE, checks=[{"tag": "log-harnack", "grid": grid}])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(write_config(tmp_path, cfg))
    assert f"checks[0].grid.{key}" in str(err.value)


def test_unknown_tag_and_missing_required(tmp_path):
    cfg = dict(BASE, checks=[{"tag": "nonsense", "grid": {}}])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(write_config(tmp_path, cfg))
    assert "checks[0].tag" in str(err.value)

    cfg = dict(BASE, checks=[{"tag": "gradient", "grid": {"x": [[0.0]]}}])
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(write_config(tmp_path, cfg))
    assert "checks[0].grid" in str(err.value)


def test_schema_version_enforced(tmp_path):
    cfg = dict(BASE)
    cfg["schema_version"] = 99
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(write_config(tmp_path, cfg))


def test_list_checks_catalogue_and_stability():
    listing = list_checks()
    for tag in [
        "log-harnack",
        "gradient",
        "harnack",
        "kernel-lower",
        "entropy",
        "entropy-cost",
        "coupling-diagnostics",
        "local-time",
        "generator",
        "sharpness",
    ]:
        assert tag in listing
    assert listing == list_checks()
    # every tag maps to exactly one runner
    assert len({id(spec["run"]) for spec in CHECKS.values()}) == len(CHECKS)


# recorded before the checker runners were folded into one table; the
# catalogue is an interface, so it must not move
LIST_CHECKS = (
    "coupling-diagnostics\trequired=x,y,T\toptional=n_paths,h,domain_radius\n"
    "entropy\trequired=y,t\toptional=\n"
    "entropy-cost\trequired=t\toptional=eps_tilt\n"
    "generator\trequired=x,g\toptional=n_paths,h\n"
    "gradient\trequired=x,T,f\toptional=n_paths,h,use_oracle,domain_radius\n"
    "harnack\trequired=x,y,T,f\toptional=n_paths,h,use_oracle,domain_radius\n"
    "kernel-lower\trequired=x,y,t\toptional=\n"
    "local-time\trequired=x,t_grid\toptional=n_paths,h,r,c2_max\n"
    "log-harnack\trequired=x,y,T,f\toptional=n_paths,h,use_oracle,correction,domain_radius\n"
    "log-harnack-local\trequired=x,y,t,f\toptional=n_paths,h,use_oracle\n"
    "sharpness\trequired=x,f\toptional=n_paths"
)


def test_list_checks_text_is_pinned():
    assert list_checks() == LIST_CHECKS


def test_cli_main_list_checks(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    assert "sharpness" in out


def test_cli_main_config_error(tmp_path, capsys):
    cfg = dict(BASE, checks=[{"tag": "bogus", "grid": {}}])
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 2


def test_violated_verdict_gives_nonzero_exit(tmp_path):
    # the dropped-correction form on the explosive variant must fail
    cfg = dict(
        BASE,
        model={"variant": "explosive_drift_1d"},
        output_dir=str(tmp_path / "out"),
        checks=[
            {
                "tag": "log-harnack",
                "grid": {
                    "x": [[0.0]],
                    "y": [[0.0]],
                    "T": [1.0],
                    "f": [{"tag": "const", "c": 2.718281828459045}],
                    "n_paths": [2000],
                    "h": [0.01],
                    "correction": [False],
                },
            }
        ],
    )
    assert run(write_config(tmp_path, cfg)) == 1
    report = (tmp_path / "out" / "report.csv").read_text()
    assert "violated" in report


def test_invalid_verdict_gives_nonzero_exit(tmp_path, monkeypatch):
    from logharnack.cli import JobResult
    from logharnack.verify import InequalityReport

    def nan_check(M, p, seed):
        return JobResult(reports=[InequalityReport("entropy-cost", {}, lhs=float("nan"), rhs=1.0)])

    monkeypatch.setitem(CHECKS["entropy-cost"], "run", nan_check)
    out = tmp_path / "out"
    cfg = dict(BASE, output_dir=str(out), checks=[{"tag": "entropy-cost", "grid": {"t": [0.5]}}])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert ",invalid," in (out / "report.csv").read_text()
    assert "invalid: 1" in (out / "summary.txt").read_text().splitlines()


def test_determinism_across_worker_counts(tmp_path):
    grid = {
        "x": [[0.0]],
        "y": [[0.2]],
        "T": [0.25, 0.5],
        "f": [{"tag": "one_plus_bump", "center": [0.2], "width": 0.8, "b": 0.5}],
        "n_paths": [2000],
        "h": [0.01],
    }
    cfg = dict(
        BASE,
        checks=[
            {"tag": "log-harnack", "grid": grid},
            {"tag": "gradient", "grid": {k: grid[k] for k in ("x", "T", "f", "n_paths", "h")}},
            {"tag": "coupling-diagnostics",
             "grid": {"x": [[0.0]], "y": [[0.2]], "T": [0.25], "n_paths": [2000], "h": [0.002]}},
        ],
    )
    path = write_config(tmp_path, cfg)
    outs = []
    for workers, name in [(1, "a"), (3, "b"), (2, "c")]:
        out = tmp_path / name
        assert run(path, workers=workers, out=out) == 0
        outs.append((out / "report.csv").read_bytes())
        outs.append((out / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[2] == outs[4]
    assert outs[1] == outs[3] == outs[5]


def test_oracle_jobs_sharing_a_ball_are_deterministic_across_worker_counts(tmp_path):
    # three oracle jobs read c_D on one B(y, r) from the shared memo,
    # whichever pool thread computes it first
    y, x = [0.0, 0.0, 1.0], [0.0, 0.29552020666133955, 0.955336489125606]
    f = {"tag": "one_plus_bump", "center": y, "width": 1.0, "b": 0.7}
    common = {"T": [0.5], "domain_radius": [1.0], "use_oracle": [True]}
    cfg = dict(BASE, model={"variant": "sphere", "dim": 2, "radius": 1.0}, checks=[
        {"tag": "log-harnack", "grid": dict(common, x=[x], y=[y], f=[f])},
        {"tag": "harnack", "grid": dict(common, x=[x], y=[y], f=[f])},
        {"tag": "gradient", "grid": dict(common, x=[y], f=[{"tag": "coord", "i": 2}])},
    ])
    path = write_config(tmp_path, cfg)
    reports = []
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        assert run(path, workers=workers, out=out) == 0
        reports.append((out / "report.csv").read_bytes())
    assert len(reports[0].splitlines()) == 4
    assert reports[0] == reports[1] == reports[2]


def test_seed_override_changes_report(tmp_path):
    cfg = dict(
        BASE,
        checks=[
            {
                "tag": "log-harnack",
                "grid": {
                    "x": [[0.0]],
                    "y": [[0.3]],
                    "T": [0.5],
                    "f": [{"tag": "coord_exp", "a": [1.0]}],
                    "n_paths": [2000],
                    "h": [0.01],
                },
            }
        ],
    )
    path = write_config(tmp_path, cfg)
    run(path, out=tmp_path / "a", seed=1)
    run(path, out=tmp_path / "b", seed=2)
    run(path, out=tmp_path / "c", seed=1)
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    c = (tmp_path / "c" / "report.csv").read_bytes()
    assert a != b
    assert a == c


def test_domain_radius_grid(tmp_path):
    # widening the reference domain shrinks c_D and therefore the bound;
    # both rows must still hold
    cfg = dict(
        BASE,
        output_dir=str(tmp_path / "out"),
        checks=[
            {
                "tag": "log-harnack",
                "grid": {
                    "x": [[0.0]],
                    "y": [[0.3]],
                    "T": [0.5],
                    "f": [{"tag": "coord_exp", "a": [1.0]}],
                    "n_paths": [2000],
                    "h": [0.01],
                    "domain_radius": [1.0, 2.0],
                    "use_oracle": [True],
                },
            }
        ],
    )
    assert run(write_config(tmp_path, cfg)) == 0
    lines = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    rhs = [float(line.split(",")[4]) for line in lines[1:]]
    assert rhs[1] < rhs[0]  # wider domain -> smaller constant


def test_plotdata_written(tmp_path):
    cfg = dict(
        BASE,
        model={"variant": "sphere", "dim": 1, "radius": 1.0},
        output_dir=str(tmp_path / "out"),
        checks=[
            {"tag": "kernel-lower",
             "grid": {"x": [[1.0, 0.0]], "y": [[0.5403023058681398, 0.8414709848078965]],
                      "t": [0.05, 0.2, 1.0]}},
        ],
    )
    assert run(write_config(tmp_path, cfg)) == 0
    tsv = (tmp_path / "out" / "plotdata" / "kernel-lower.tsv").read_text().strip().splitlines()
    assert len(tsv) == 3
    assert all("\t" in line for line in tsv)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "logharnack.cli", "list-checks"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "coupling-diagnostics" in proc.stdout


def test_cli_import_loads_no_scipy():
    # scipy costs about a second of start-up; the runtime needs none of it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, logharnack.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_yaml_loader_reads_configs_like_the_python_loader(tmp_path):
    paths = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))
    for workload in ("mc-grid", "coupling", "closed-form"):
        for seed in (1, 2, 3):
            paths += workload_configs(workload, seed, tmp_path / workload / str(seed))
    for path in paths:
        text = path.read_text()
        assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader), path


def test_invalid_yaml_names_the_file(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text("schema_version: 1\nmodel: {variant: euclidean\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: invalid YAML: ")


def test_cli_import_builds_no_quadrature_rule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import logharnack.cli, logharnack.estimators as E; "
         "print(E._build_rule.cache_info().currsize, E._sphere2_u_rule.cache_info().currsize)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0"


def test_closed_form_run_builds_each_rule_once(tmp_path, monkeypatch):
    built = []
    for module, name in ((np.polynomial.legendre, "leggauss"), (np.polynomial.hermite, "hermgauss")):
        def counted(n, inner=getattr(module, name), name=name):
            built.append((name, n))
            return inner(n)

        monkeypatch.setattr(module, name, counted)
    E._build_rule.cache_clear()
    for path in workload_configs("closed-form", 1, tmp_path / "cfg"):
        assert run(path, workers=2, out=tmp_path / "out" / path.stem) == 0
    assert sorted(built) == sorted(set(built))
    assert {("leggauss", 240), ("hermgauss", 48)} <= set(built)


def test_mc_generator_row_has_a_band(tmp_path):
    # no oracle on the explosive line: the slope's standard error sets the
    # band; the oracle route (OU) keeps band 0
    rows = {}
    for model, x in (({"variant": "explosive_drift_1d"}, [1.0]),
                     ({"variant": "ornstein_uhlenbeck", "dim": 1, "lam": 1.0}, [1.0])):
        out = tmp_path / model["variant"]
        cfg = dict(BASE, model=model, output_dir=str(out),
                   checks=[{"tag": "generator", "grid": {"x": [x], "g": [{"tag": "coord", "i": 0}],
                                                         "n_paths": [20000]}}])
        assert run(write_config(tmp_path, cfg)) == 0
        with open(out / "report.csv") as fh:
            rows[model["variant"]] = next(csv.DictReader(fh))
    assert float(rows["explosive_drift_1d"]["band"]) > 0.0
    assert float(rows["ornstein_uhlenbeck"]["band"]) == 0.0


@pytest.mark.parametrize("g,written", [
    ({"tag": "coord", "i": 0}, {"tag": "coord", "i": 0}),
    # the row writes the function as read: defaults filled in, numbers as floats
    ({"tag": "gauss_bump", "center": [0], "width": 1},
     {"tag": "gauss_bump", "center": [0.0], "width": 1.0, "amp": 1.0}),
    ({"tag": "one_plus_bump", "center": [1], "width": 2},
     {"tag": "one_plus_bump", "center": [1.0], "width": 2.0, "b": 0.5}),
], ids=["coord", "gauss_bump-defaults", "one_plus_bump-defaults"])
def test_generator_row_writes_the_read_function(tmp_path, g, written):
    out = tmp_path / "out"
    cfg = dict(BASE, model={"variant": "ornstein_uhlenbeck", "dim": 1, "lam": 1.0}, output_dir=str(out),
               checks=[{"tag": "generator", "grid": {"x": [[1]], "g": [g]}}])
    run(write_config(tmp_path, cfg))
    [row] = _csv_rows(out / "report.csv")
    config = json.loads(row["config"])
    assert config["g"] == written and config["x"] == [1.0]
    assert row["config"] == json.dumps(config, sort_keys=True)


@pytest.mark.parametrize("name", ["logharnack"] + [f"logharnack.{m.name}" for m in
                                                   pkgutil.iter_modules(logharnack.__path__)])
def test_every_export_resolves(name):
    # tools that wrap each exported name (e.g. span tracers) call getattr
    # on all of them, so a stale export breaks them at install time
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


@pytest.mark.parametrize("key,value", [("correction", "false"), ("use_oracle", "no")])
def test_string_booleans_are_rejected(tmp_path, capsys, key, value):
    # a string is truthy: read as a bool it would run the opposite check
    grid = {"x": [[0.0]], "y": [[0.3]], "T": [0.5], "f": [{"tag": "coord_exp", "a": [1.0]}],
            "n_paths": [2000], key: [value]}
    cfg = dict(BASE, output_dir=str(tmp_path / "out"), checks=[{"tag": "log-harnack", "grid": grid}])
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert f"checks[0].grid.{key}" in str(err.value)
    assert main(["run", str(path)]) == 2
    assert f"checks[0].grid.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ----------------------------------------------------------------------
# CLI round trip: a one-job config that sets every optional key to a
# value other than the checker default writes the row of the direct call
# ----------------------------------------------------------------------

HYP = {"variant": "hyperbolic", "dim": 2}
OU1 = {"variant": "ornstein_uhlenbeck", "dim": 1, "lam": 1.0}
BUMP = {"tag": "one_plus_bump", "center": [0.1, 1.1], "width": 0.8, "b": 0.5}
# no oracle on the hyperbolic plane: use_oracle=True falls back to Monte
# Carlo, so n_paths, h and the seed all reach the numbers
MC = {"n_paths": 1000, "h": 0.05, "use_oracle": True}
XY = {"x": [0.0, 1.0], "y": [0.15, 1.1]}

ROUND_TRIP = [
    ("log-harnack", HYP, V.check_log_harnack,
     dict(XY, T=0.3, f=BUMP, correction=False, domain_radius=0.5, **MC)),
    ("log-harnack-local", HYP, V.check_log_harnack_local, dict(XY, t=0.3, f=BUMP, **MC)),
    ("gradient", HYP, V.check_gradient, dict(x=XY["x"], T=0.3, f=BUMP, domain_radius=0.5, **MC)),
    ("harnack", HYP, V.check_harnack, dict(XY, T=0.3, f=BUMP, domain_radius=0.5, **MC)),
    ("kernel-lower", OU1, V.check_kernel_lower_bound, dict(x=[0.0], y=[0.4], t=0.3)),
    ("entropy", OU1, V.check_entropy_bound, dict(y=[0.4], t=0.3)),
    ("entropy-cost", OU1, V.check_entropy_cost, dict(t=0.3, eps_tilt=0.3)),
]


def _one_job(tmp_path, model, tag, grid, seed=5):
    out = tmp_path / "out"
    cfg = dict(BASE, model=model, master_seed=seed, output_dir=str(out),
               checks=[{"tag": tag, "grid": {k: [v] for k, v in grid.items()}}])
    run(write_config(tmp_path, cfg))
    return out, derive_seed(seed, 0)


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("tag,model,check,grid", ROUND_TRIP, ids=[c[0] for c in ROUND_TRIP])
def test_cli_row_equals_direct_call(tmp_path, tag, model, check, grid):
    assert set(grid) == set(CHECKS[tag]["required"]) | set(CHECKS[tag]["optional"])
    out, job_seed = _one_job(tmp_path, model, tag, grid)
    M = model_from_config(model)
    kwargs = {k: E.test_function_from_config(v, M.chart_dim) if k == "f" else v for k, v in grid.items()}
    if "n_paths" in grid:
        kwargs["master_seed"] = job_seed
    rep = check(M, **kwargs)
    [row] = _csv_rows(out / "report.csv")
    assert {k: row[k] for k in rep.to_row()} == {k: _fmt(v) for k, v in rep.to_row().items()}


def test_cli_coupling_row_equals_direct_call(tmp_path):
    grid = dict(XY, T=0.3, n_paths=1000, h=0.01, domain_radius=0.5)
    out, job_seed = _one_job(tmp_path, HYP, "coupling-diagnostics", grid)
    M = model_from_config(HYP)
    cfg = C.standard_coupling_config(M, XY["x"], XY["y"], T=0.3, h=0.01, domain_radius=0.5)
    diag = C.run_coupling(M, cfg, 1000, job_seed)
    [row] = _csv_rows(out / "diagnostics.csv")
    assert diag.entropy_bound > 0.0
    assert {k: row[k] for k in diag.to_row()} == {k: _fmt(v) for k, v in diag.to_row().items()}
    assert (row["T"], row["h"]) == ("0.29999999999999999", "0.01")


# ----------------------------------------------------------------------
# Numeric grid values: booleans, NaN and empty time grids are refused at
# load time with the field named
# ----------------------------------------------------------------------

LOG_HARNACK_GRID = {"x": [[0.0]], "y": [[0.3]], "T": [0.5], "f": [{"tag": "coord_exp", "a": [1.0]}],
                    "n_paths": [2000]}
HALF1_MODEL = {"variant": "half_space", "dim": 1}


@pytest.mark.parametrize("model,tag,grid,key", [
    # a YAML boolean is an int to isinstance, so it would run at 1.0
    (OU1, "kernel-lower", {"x": [[0.0]], "y": [[0.3]], "t": [True]}, "t"),
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, T=[True]), "T"),
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, h=[True]), "h"),
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, domain_radius=[True]), "domain_radius"),
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, n_paths=[True]), "n_paths"),
    (HALF1_MODEL, "local-time", {"x": [[0.0]], "t_grid": [[True]]}, "t_grid"),
    # an empty or NaN time grid used to fail only at job time
    (HALF1_MODEL, "local-time", {"x": [[0.0]], "t_grid": [[]]}, "t_grid"),
    (HALF1_MODEL, "local-time", {"x": [[0.0]], "t_grid": [[0.1, float("nan")]]}, "t_grid"),
    # eps_tilt, r and c2_max ran at 1.0, read a bad input as a violated
    # inequality, or failed only at job time
    (OU1, "entropy-cost", {"t": [0.5], "eps_tilt": [True]}, "eps_tilt"),
    (OU1, "entropy-cost", {"t": [0.5], "eps_tilt": [float("nan")]}, "eps_tilt"),
    (HALF1_MODEL, "local-time", {"x": [[0.0]], "t_grid": [[0.1]], "r": [True]}, "r"),
    (HALF1_MODEL, "local-time", {"x": [[0.0]], "t_grid": [[0.1]], "r": [-1.0]}, "r"),
    (HALF1_MODEL, "local-time", {"x": [[0.0]], "t_grid": [[0.1]], "c2_max": ["x"]}, "c2_max"),
    # start points of the wrong size or not finite failed at job time,
    # naming a shape or a radius instead of the field
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, x=[[0.0, 1.0]]), "x"),
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, x=[[float("nan")]]), "x"),
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, y=[[True]]), "y"),
    # start points off the model ran and could report holds
    ({"variant": "sphere", "dim": 2, "radius": 1.0}, "kernel-lower",
     {"x": [[0.0, 0.0, 2.0]], "y": [[0.0, 0.3, 0.9539392014169457]], "t": [0.5]}, "x"),
    (HALF1_MODEL, "log-harnack", dict(LOG_HARNACK_GRID, y=[[-0.3]]), "y"),
    ({"variant": "hyperbolic", "dim": 2}, "harnack",
     {"x": [[0.0, 1.0]], "y": [[0.0, 0.0]], "T": [0.5], "f": [{"tag": "coord_exp", "a": [1.0, 0.0]}]}, "y"),
    # test functions were built only at job time: a bad tag or parameter
    # raised there, and a centre of the wrong size ran another function
    (BASE["model"], "log-harnack", dict(LOG_HARNACK_GRID, f=[{"tag": "nonsense"}]), "f"),
    (BASE["model"], "gradient", {"x": [[0.0]], "T": [0.5], "f": [{"tag": "coord", "j": 3}]}, "f"),
    (BASE["model"], "gradient", {"x": [[0.0]], "T": [0.5], "f": [{"tag": "gauss_bump", "center": [0.0]}]}, "f"),
    (BASE["model"], "gradient", {"x": [[0.0]], "T": [0.5], "f": [{"tag": "coord", "i": 4}]}, "f"),
    (BASE["model"], "harnack",
     {"x": [[0.0]], "y": [[0.3]], "T": [0.5], "f": [{"tag": "gauss_bump", "center": [0.0, 0.0], "width": 1.0}]},
     "f"),
    (BASE["model"], "generator", {"x": [[0.0]], "g": [{"tag": "gauss_bump", "center": [0.0, 0.0], "width": 1.0}]},
     "g"),
], ids=["t-true", "T-true", "h-true", "domain_radius-true", "n_paths-true", "t_grid-true",
        "t_grid-empty", "t_grid-nan", "eps_tilt-true", "eps_tilt-nan", "r-true", "r-negative",
        "c2_max-string", "x-size", "x-nan", "y-true", "x-off-sphere", "y-off-half-space",
        "y-off-hyperbolic", "f-unknown-tag", "f-unknown-parameter", "f-missing-parameter",
        "f-index", "f-center-size", "g-center-size"])
def test_bad_numbers_name_the_field(tmp_path, capsys, model, tag, grid, key):
    cfg = dict(BASE, model=model, output_dir=str(tmp_path / "out"), checks=[{"tag": tag, "grid": grid}])
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert f"checks[0].grid.{key}" in str(err.value)
    assert main(["run", str(path)]) == 2
    assert f"checks[0].grid.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model", [
    # a bare name and an unknown key raised tracebacks (exit 1)
    "euclidean",
    {"variant": "euclidean", "dim": 1, "foo": 2},
    # these loaded: a 0-d model, dim read through int(), non-finite
    # parameters that ran to invalid rows
    {"variant": "euclidean", "dim": 0},
    {"variant": "euclidean", "dim": True},
    {"variant": "euclidean", "dim": 1.5},
    {"variant": "ornstein_uhlenbeck", "dim": 1, "lam": float("nan")},
    {"variant": "sphere", "dim": 2, "radius": float("inf")},
    {"variant": "euclidean", "dim": 2, "drift_vec": [1.0, float("nan")]},
], ids=["bare-name", "unknown-key", "dim-0", "dim-true", "dim-float", "lam-nan", "radius-inf", "drift-nan"])
def test_bad_model_record_names_the_model(tmp_path, capsys, model):
    cfg = dict(BASE, model=model, output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert err.value.where == "model"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: model: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("master_seed", "abc"), ("master_seed", -5), ("master_seed", 1.9),
                                       ("workers", "two"), ("workers", True), ("workers", 0)])
def test_bad_top_level_value_names_the_key(tmp_path, capsys, key, value):
    # these raised at run time or ran as another integer
    cfg = dict(BASE, output_dir=str(tmp_path / "out"), checks=[{"tag": "entropy-cost", "grid": {"t": [0.5]}}])
    cfg[key] = value
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert err.value.where == key
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "out").exists()


def test_failed_precondition_exits_two(tmp_path, capsys):
    cfg = dict(BASE, model={"variant": "explosive_drift_1d"}, output_dir=str(tmp_path / "out"),
               checks=[{"tag": "harnack", "grid": {"x": [[0.0]], "y": [[0.3]], "T": [0.5],
                                                   "f": [{"tag": "const", "c": 1.0}]}}])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err == (
        "precondition error: job 0 (harnack): Harnack form requires a conservative variant\n")
    assert not (tmp_path / "out").exists()


def test_unconverged_oracle_exits_two(tmp_path, capsys):
    # a bump of width 0.3 under a kernel of sd 2: Gauss-Hermite orders 96
    # and 180 disagree, and the oracle check may not fall back to paths
    f = {"tag": "one_plus_bump", "center": [0.0], "width": 0.3, "b": 0.5}
    cfg = dict(BASE, output_dir=str(tmp_path / "out"),
               checks=[{"tag": "gradient", "grid": {"x": [[0.0]], "T": [2.0], "f": [f], "use_oracle": [True]}}])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith(
        "precondition error: job 0 (gradient): euclidean oracle quadrature did not converge: ")
    assert not (tmp_path / "out").exists()
