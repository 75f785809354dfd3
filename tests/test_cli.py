import csv
import hashlib
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
from logharnack.cli import (CHECKS, PILOT_SHARE, ConfigError, ExperimentConfig, _YAML_LOADER, _check, _fmt, list_checks,
                            main, run)
from logharnack.diffusion import local_time_profile
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
        return JobResult(reports=[InequalityReport("entropy-cost", lhs=float("nan"), rhs=1.0)])

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
E1 = {"variant": "euclidean", "dim": 1}
BUMP = {"tag": "one_plus_bump", "center": [0.1, 1.1], "width": 0.8, "b": 0.5}
# Monte Carlo on the hyperbolic plane, so n_paths, h and the seed all
# reach the numbers; use_oracle is the one optional key these leave out
MC = {"n_paths": 1000, "h": 0.05}
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
ROUND_TRIP_GRIDS = {tag: grid for tag, _, _, grid in ROUND_TRIP}


def _one_job(tmp_path, model, tag, grid, seed=5):
    out = tmp_path / "out"
    cfg = dict(BASE, model=model, master_seed=seed, output_dir=str(out),
               checks=[{"tag": tag, "grid": {k: [v] for k, v in grid.items()}}])
    run(write_config(tmp_path, cfg))
    return out, derive_seed(seed, 0)


def _csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _assert_row_equals_direct_call(tmp_path, tag, model, check, grid):
    out, job_seed = _one_job(tmp_path, model, tag, grid)
    M = model_from_config(model)
    kwargs = {k: E.test_function_from_config(v, M.chart_dim) if k == "f" else v for k, v in grid.items()}
    if "n_paths" in CHECKS[tag]["optional"]:  # a Monte Carlo checker gets the job seed
        kwargs["master_seed"] = job_seed
    rep = check(M, **kwargs)
    [row] = _csv_rows(out / "report.csv")
    assert {k: row[k] for k in rep.to_row()} == {k: _fmt(v) for k, v in rep.to_row().items()}
    return rep


@pytest.mark.parametrize("tag,model,check,grid", ROUND_TRIP, ids=[c[0] for c in ROUND_TRIP])
def test_cli_row_equals_direct_call(tmp_path, tag, model, check, grid):
    assert set(grid) | {"use_oracle"} >= set(CHECKS[tag]["required"]) | set(CHECKS[tag]["optional"])
    _assert_row_equals_direct_call(tmp_path, tag, model, check, grid)


# use_oracle on a variant with a closed form: the row is the oracle's
ORACLE_ROUND_TRIP = [
    ("log-harnack", E1, V.check_log_harnack,
     {"x": [0.0], "y": [0.3], "T": 0.5, "f": {"tag": "coord_exp", "a": [1.0]}, "use_oracle": True}),
    ("log-harnack-local", E1, V.check_log_harnack_local,
     {"x": [0.0], "y": [0.3], "t": 0.5, "f": {"tag": "coord_exp", "a": [1.0]}, "use_oracle": True}),
    ("gradient", OU1, V.check_gradient, {"x": [0.2], "T": 0.5, "f": {"tag": "coord", "i": 0}, "use_oracle": True}),
    ("harnack", E1, V.check_harnack,
     {"x": [0.0], "y": [0.3], "T": 0.5, "f": {"tag": "gauss_bump", "center": [0.3], "width": 0.5},
      "use_oracle": True}),
]


@pytest.mark.parametrize("tag,model,check,grid", ORACLE_ROUND_TRIP, ids=[c[0] for c in ORACLE_ROUND_TRIP])
def test_cli_oracle_row_equals_direct_call(tmp_path, tag, model, check, grid):
    rep = _assert_row_equals_direct_call(tmp_path, tag, model, check, grid)
    assert rep.band == 0.0  # no Monte Carlo side


@pytest.mark.parametrize("tag", ["log-harnack", "log-harnack-local", "gradient", "harnack"])
def test_oracle_request_without_an_oracle_exits_two(tmp_path, capsys, tag):
    # no closed form on the hyperbolic plane: the job is refused, not run
    # by Monte Carlo in the oracle's place
    grid = {k: [v] for k, v in dict(ROUND_TRIP_GRIDS[tag], use_oracle=True).items()}
    cfg = dict(BASE, model=HYP, output_dir=str(tmp_path / "out"), checks=[{"tag": tag, "grid": grid}])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err == (
        f"precondition error: job 0 ({tag}): no closed-form semigroup oracle for variant 'hyperbolic'\n")
    assert not (tmp_path / "out").exists()


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


def test_left_out_optional_keys_take_the_signature_defaults(tmp_path):
    # coupling-diagnostics: h 1e-3, 20,000 pairs, domain_radius 1
    out, job_seed = _one_job(tmp_path, HYP, "coupling-diagnostics", dict(XY, T=0.005))
    M = model_from_config(HYP)
    cfg = C.standard_coupling_config(M, XY["x"], XY["y"], T=0.005, h=1e-3, domain_radius=1.0)
    diag = C.run_coupling(M, cfg, 20_000, job_seed)
    [row] = _csv_rows(out / "diagnostics.csv")
    assert {k: row[k] for k in diag.to_row()} == {k: _fmt(v) for k, v in diag.to_row().items()}
    assert row["h"] == "0.001"

    # local-time: 100,000 paths, h 1e-4, r 1, c2_max 5
    t_grid = [0.001, 0.002]
    out, job_seed = _one_job(tmp_path, HALF1_MODEL, "local-time", {"x": [0.0], "t_grid": t_grid})
    ests, ref = local_time_profile(model_from_config(HALF1_MODEL), [0.0], t_grid, 100_000, 1e-4, job_seed, r=1.0)
    [row] = _csv_rows(out / "report.csv")
    fitted = max(max(0.0, abs(e.mean - rv) - 3.0 * e.stderr) / t for t, e, rv in zip(t_grid, ests, ref))
    assert (row["lhs"], row["rhs"]) == (_fmt(fitted), _fmt(5.0))
    assert json.loads(row["config"]) == {"variant": "half_space", "x": [0.0], "t_grid": t_grid,
                                         "n_paths": 100_000, "h": 1e-4, "r": 1.0, "c2_max": 5.0, "seed": job_seed}
    assert (out / "plotdata" / "local-time.tsv").read_text() == "".join(
        f"{_fmt(t)}\t{_fmt(e.mean - rv)}\n" for t, e, rv in zip(t_grid, ests, ref))


def test_strongly_negative_K_job_holds(tmp_path):
    # OU at lam T = 400: exp(-2 K T) overflowed in the log-Harnack rate,
    # and the run ended in a traceback with exit 1
    grid = {"x": [[0.0]], "y": [[0.1]], "T": [400.0], "f": [{"tag": "coord_exp", "a": [0.5]}],
            "use_oracle": [True]}
    cfg = dict(BASE, model=OU1, output_dir=str(tmp_path / "out"), checks=[{"tag": "log-harnack", "grid": grid}])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    [row] = _csv_rows(tmp_path / "out" / "report.csv")
    assert row["verdict"] == "holds"
    assert float(row["lhs"]) == pytest.approx(-0.125)  # 0 - log E e^{Z/2}, Z ~ N(0, 1)
    assert float(row["rhs"]) == pytest.approx(0.3805, abs=1e-4)


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
                                       ("workers", "two"), ("workers", True), ("workers", 0),
                                       ("schema_version", True), ("output_dir", None),
                                       pytest.param("checks", {}, id="checks-mapping")])
def test_bad_top_level_value_names_the_key(tmp_path, capsys, monkeypatch, key, value):
    # these raised at run time or ran as another integer; schema_version
    # true equals 1, a null output_dir wrote ./None, and checks {} ran no
    # job and exited 0
    monkeypatch.chdir(tmp_path)
    cfg = dict(BASE, output_dir=str(tmp_path / "out"), checks=[{"tag": "entropy-cost", "grid": {"t": [0.5]}}])
    cfg[key] = value
    path = write_config(tmp_path, cfg)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert err.value.where == key
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # nothing written


def test_null_or_missing_checks_run_no_job(tmp_path):
    for checks in ({"checks": None}, {}):
        cfg = {k: v for k, v in BASE.items() if k != "checks"}
        assert ExperimentConfig.from_file(write_config(tmp_path, dict(cfg, **checks))).jobs() == []


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


# ----------------------------------------------------------------------
# Row configs: a row's config is the call its job made
# ----------------------------------------------------------------------

EXP1 = {"tag": "coord_exp", "a": [1.0]}
COORD0 = {"tag": "coord", "i": 0}
MC_DEFAULTS = {"n_paths": 20_000, "h": 0.01, "use_oracle": False, "domain_radius": 1.0}
# the tags whose Monte Carlo jobs run a pilot first, and their checkers
PILOTED = {"log-harnack": V.check_log_harnack, "log-harnack-local": V.check_log_harnack_local,
           "gradient": V.check_gradient, "harnack": V.check_harnack}

# (tag, model, the required keys as read, every optional key at its
# signature default)
LEFT_OUT = [
    ("log-harnack", OU1, dict(x=[0.0], y=[0.3], T=0.5, f=EXP1), dict(MC_DEFAULTS, correction=True)),
    ("log-harnack-local", OU1, dict(x=[0.0], y=[0.3], t=0.5, f=EXP1),
     {k: MC_DEFAULTS[k] for k in ("n_paths", "h", "use_oracle")}),
    ("gradient", OU1, dict(x=[0.2], T=0.5, f=COORD0), MC_DEFAULTS),
    ("harnack", OU1, dict(x=[0.0], y=[0.3], T=0.5, f={"tag": "gauss_bump", "center": [0.3], "width": 0.5, "amp": 1.0}),
     MC_DEFAULTS),
    ("kernel-lower", OU1, dict(x=[0.0], y=[0.4], t=0.3), {}),
    ("entropy", OU1, dict(y=[0.4], t=0.3), {}),
    ("entropy-cost", OU1, dict(t=0.3), {"eps_tilt": 0.2}),
    ("coupling-diagnostics", E1, dict(x=[0.0], y=[0.2], T=0.005), {"n_paths": 20_000, "h": 1e-3, "domain_radius": 1.0}),
    ("local-time", HALF1_MODEL, dict(x=[0.0], t_grid=[0.001, 0.002]),
     {"n_paths": 100_000, "h": 1e-4, "r": 1.0, "c2_max": 5.0}),
    ("generator", OU1, dict(x=[1.0], g=COORD0), {"n_paths": 200_000, "h": 2e-3}),
    ("sharpness", E1, dict(x=[0.0], f={"tag": "log_bump", "center": [0.5], "width": 1.0, "amp": 1.0}),
     {"n_paths": 1_000_000}),
]


def test_left_out_covers_every_tag():
    assert sorted(c[0] for c in LEFT_OUT) == sorted(CHECKS)


@pytest.mark.parametrize("tag,model,grid,defaults", LEFT_OUT, ids=[c[0] for c in LEFT_OUT])
def test_row_config_is_the_call_of_its_job(tmp_path, tag, model, grid, defaults):
    assert (set(grid), set(defaults)) == (set(CHECKS[tag]["required"]), set(CHECKS[tag]["optional"]))
    out, job_seed = _one_job(tmp_path, model, tag, grid)
    expected = {"variant": model["variant"], **grid, **defaults}
    if "n_paths" in defaults:  # a Monte Carlo job: master_seed is the job seed
        expected["seed"] = job_seed
    if tag in PILOTED:  # each of these settles on its pilot, whose call made the row
        expected.update(n_paths=20_000 // PILOT_SHARE, seed=derive_seed(job_seed, 1))
    rows = _csv_rows(out / "report.csv")
    configs = [json.loads(row["config"]) for row in rows]
    assert [row["config_hash"] for row in rows] == [
        hashlib.sha1(row["config"].encode()).hexdigest()[:12] for row in rows]
    # the sharpness rows add their own r
    assert [c.pop("r") for c, row in zip(configs, rows) if row["tag"] == "sharpness"] == (
        list(V.SHARPNESS_R) if tag == "sharpness" else [])
    if tag == "coupling-diagnostics":  # no report row: the config its job built
        exp = ExperimentConfig.from_file(tmp_path / "exp.yaml")
        [(_, _, params)] = exp.jobs()
        configs = [CHECKS[tag]["run"](exp.space, params, job_seed).config]
    assert configs and all(c == expected for c in configs)


# a row's config names every input behind it: rows that differ in one
# input get two config_hash values
@pytest.mark.parametrize("tag,model,grid,key,values", [
    ("log-harnack", E1, dict(x=[0.0], y=[0.3], T=0.5, f=EXP1, n_paths=2000), "use_oracle", (False, True)),
    ("generator", OU1, dict(x=[1.0], g=COORD0), "n_paths", (1000, 2000)),
    ("local-time", HALF1_MODEL, dict(x=[0.0], t_grid=[0.001, 0.002], n_paths=1000), "r", (1.0, 0.5)),
], ids=["log-harnack-use_oracle", "generator-n_paths", "local-time-r"])
def test_rows_that_differ_in_one_input_differ_in_config_hash(tmp_path, tag, model, grid, key, values):
    rows = []
    for value in values:
        out, _ = _one_job(tmp_path, model, tag, dict(grid, **{key: value}))
        rows += _csv_rows(out / "report.csv")
    configs = [json.loads(row["config"]) for row in rows]
    assert [c.pop(key) for c in configs] == list(values) and configs[0] == configs[1]
    assert rows[0]["config_hash"] != rows[1]["config_hash"]


# ----------------------------------------------------------------------
# Pilot: a Monte Carlo job of n paths first calls its checker with n // 8
# paths on its own seed and keeps that row when it is settled
# ----------------------------------------------------------------------

# the example config's gradient job; its pilot at master seed 4 reads
# margin/band 1.36, so the full call makes the row
GRAD_E1 = dict(x=[0.0], T=0.5, f=EXP1, n_paths=20_000, h=0.01)


def _direct_call(model, tag, grid, **kwargs):
    M = model_from_config(model)
    args = {k: E.test_function_from_config(v, M.chart_dim) if k == "f" else v for k, v in grid.items()}
    return PILOTED[tag](M, **dict(args, **kwargs))


def _assert_row_is(row, rep, n_paths, seed):
    assert {k: row[k] for k in rep.to_row()} == {k: _fmt(v) for k, v in rep.to_row().items()}
    config = json.loads(row["config"])
    assert (config["n_paths"], config["seed"]) == (n_paths, seed)


@pytest.mark.parametrize("tag,model,grid", [c[:3] for c in LEFT_OUT if c[0] in PILOTED],
                         ids=[c[0] for c in LEFT_OUT if c[0] in PILOTED])
def test_settled_pilot_writes_the_pilot_call(tmp_path, tag, model, grid):
    grid = dict(grid, n_paths=20_000)
    out, job_seed = _one_job(tmp_path, model, tag, grid)
    pilot_seed = derive_seed(job_seed, 1)
    rep = _direct_call(model, tag, grid, n_paths=2_500, master_seed=pilot_seed)
    assert abs(rep.margin) > 2 * rep.band
    [row] = _csv_rows(out / "report.csv")
    _assert_row_is(row, rep, 2_500, pilot_seed)
    assert row["config_hash"] == hashlib.sha1(row["config"].encode()).hexdigest()[:12]


def test_unsettled_pilot_writes_the_full_call(tmp_path):
    out, job_seed = _one_job(tmp_path, E1, "gradient", GRAD_E1, seed=4)
    pilot = _direct_call(E1, "gradient", GRAD_E1, n_paths=2_500, master_seed=derive_seed(job_seed, 1))
    assert abs(pilot.margin) <= 2 * pilot.band
    [row] = _csv_rows(out / "report.csv")
    _assert_row_is(row, _direct_call(E1, "gradient", GRAD_E1, master_seed=job_seed), 20_000, job_seed)


def test_invalid_pilot_runs_the_full_call():
    # a pilot row with an infinite side is invalid, however far its margin
    # is from zero
    def check(M, x, T, *, n_paths=20_000, use_oracle=False, master_seed=0):
        return V.InequalityReport("fake", lhs=0.0, rhs=float("inf") if n_paths < 20_000 else 1.0, lhs_se=0.01)

    res = _check(check, pilot=True)["run"](model_from_config(E1), {"x": np.zeros(1), "T": 0.5}, 5)
    assert (res.reports[0].verdict, res.config["n_paths"], res.config["seed"]) == (V.VERDICT_HOLDS, 20_000, 5)


@pytest.mark.parametrize("tag,model,grid", [
    ("log-harnack", OU1, dict(x=[0.0], y=[0.3], T=0.5, f=EXP1, n_paths=20_000, use_oracle=True)),
    ("log-harnack", OU1, dict(x=[0.0], y=[0.3], T=0.5, f=EXP1, n_paths=19_999)),
    ("gradient", E1, dict(GRAD_E1, n_paths=19_999)),
    ("coupling-diagnostics", E1, dict(x=[0.0], y=[0.2], T=0.005, n_paths=20_000)),
    ("local-time", HALF1_MODEL, dict(x=[0.0], t_grid=[0.001, 0.002], n_paths=20_000)),
    ("generator", OU1, dict(x=[1.0], g=COORD0, n_paths=20_000)),
    ("sharpness", E1, dict(x=[0.0], f={"tag": "log_bump", "center": [0.5], "width": 1.0, "amp": 1.0},
                           n_paths=20_000)),
], ids=["use_oracle", "log-harnack-19999", "gradient-19999", "coupling-diagnostics", "local-time",
        "generator", "sharpness"])
def test_jobs_that_never_pilot(tmp_path, monkeypatch, tag, model, grid):
    seeds = []  # a pilot derives its seed from the job seed
    monkeypatch.setattr("logharnack.cli.derive_seed", lambda *key: seeds.append(key) or derive_seed(*key))
    out, job_seed = _one_job(tmp_path, model, tag, grid)
    assert seeds == [(5, 0)]
    for row in _csv_rows(out / "report.csv"):
        assert json.loads(row["config"])["n_paths"] == grid["n_paths"]


def test_piloted_rows_are_the_same_for_any_worker_count(tmp_path):
    # job 0 runs full, the log-harnack jobs keep their pilots, the
    # 2,000-path job runs no pilot
    lh = {"x": [[0.0]], "y": [[0.2], [0.4]], "T": [0.25, 1.0], "f": [EXP1], "n_paths": [20_000, 2_000]}
    cfg = dict(BASE, master_seed=4, checks=[{"tag": "gradient", "grid": {k: [v] for k, v in GRAD_E1.items()}},
                                            {"tag": "log-harnack", "grid": lh}])
    path = write_config(tmp_path, cfg)
    reports = []
    for workers in (1, 2):
        assert run(path, workers=workers, out=tmp_path / f"w{workers}") == 0
        reports.append((tmp_path / f"w{workers}" / "report.csv").read_bytes())
    assert reports[0] == reports[1]
    n_paths = [json.loads(row["config"])["n_paths"] for row in _csv_rows(tmp_path / "w1" / "report.csv")]
    assert n_paths == [20_000] + [2_500, 2_500, 2_000, 2_000] * 2
