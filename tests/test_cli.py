import csv
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import logharnack
from logharnack.cli import CHECKS, ConfigError, ExperimentConfig, list_checks, main, run


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


@pytest.mark.parametrize("name", ["logharnack"] + [f"logharnack.{m.name}" for m in
                                                   pkgutil.iter_modules(logharnack.__path__)])
def test_every_export_resolves(name):
    # tools that wrap each exported name (e.g. span tracers) call getattr
    # on all of them, so a stale export breaks them at install time
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
