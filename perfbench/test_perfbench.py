"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import outputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _work_shape(cfgs):
    """Everything the amount of work depends on: tags, horizons, steps,
    path counts."""
    keep = ("T", "t", "t_grid", "h", "n_paths", "use_oracle", "domain_radius")
    return [(name, cfg["model"], [(c["tag"], {k: v for k, v in c["grid"].items() if k in keep})
                                  for c in cfg["checks"]])
            for name, cfg in cfgs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = workloads.generate(workload, 7)
    assert yaml.safe_dump(a) == yaml.safe_dump(workloads.generate(workload, 7))
    b = workloads.generate(workload, 8)
    assert yaml.safe_dump(a) != yaml.safe_dump(b)
    assert _work_shape(a) == _work_shape(b)


def test_workload_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


def _small_configs(monkeypatch, tmp_path):
    """A few fast configs: two Monte Carlo models, one coupling model and
    the closed-form OU model, at reduced path counts."""
    monkeypatch.setattr(workloads, "MC_PATHS", 2000)
    monkeypatch.setattr(workloads, "LOCAL_TIME_PATHS", 2000)
    monkeypatch.setattr(workloads, "COUPLING_PAIRS", 2000)
    picked = [("mc-grid", "hyperbolic"), ("mc-grid", "half_space"),
              ("coupling", "sphere2"), ("closed-form", "ou")]
    paths = []
    for wl, name in picked:
        cfg = dict(workloads.generate(wl, 3))[name]
        path = tmp_path / f"{wl}-{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        paths.append((path, cfg))
    return paths


def test_traced_and_untraced_runs_write_identical_reports(monkeypatch, tmp_path):
    from logharnack import cli
    from logharnack.geometry import Sphere

    originals = (cli.run, cli.CHECKS["harnack"]["run"], Sphere.exp)
    configs = _small_configs(monkeypatch, tmp_path)
    for path, cfg in configs:
        assert cli.run(path, workers=1, out=tmp_path / "plain" / path.stem) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for path, cfg in configs:
            assert cli.run(path, workers=2, out=tmp_path / "traced" / path.stem) == 0
    finally:
        tracer.uninstall()
    assert (cli.run, cli.CHECKS["harnack"]["run"], Sphere.exp) == originals

    for path, cfg in configs:
        plain = outputs.output_bytes(tmp_path / "plain" / path.stem)
        assert plain and plain == outputs.output_bytes(tmp_path / "traced" / path.stem)
        jobs = cli.ExperimentConfig.from_file(path).jobs()
        res = outputs.check_run(jobs, cfg["model"]["variant"], tmp_path / "plain" / path.stem)
        assert res["invalid"] == []

    m = tracing.layer_metrics(tracer.spans)
    declared = {x["name"] for x in SPEC["per_layer"]}
    assert set(m) <= declared
    assert m["cli.jobs"] == sum(len(cli.ExperimentConfig.from_file(p).jobs()) for p, _ in configs)
    assert m["diffusion.ensembles"] > 0 and m["coupling.runs"] == 2
    assert m["coupling.geom_calls_per_step"] > 1
    assert m["estimators.oracle_calls"] > 0


def test_output_checks(tmp_path):
    jobs = [(0, "log-harnack", {}), (1, "log-harnack", {}), (2, "coupling-diagnostics", {}),
            (3, "generator", {})]
    report = ("job_index,tag,lhs,rhs,margin,band,verdict\n"
              "0,log-harnack,1,2,1,0.5,holds\n"
              "1,log-harnack,nan,2,nan,0.5,holds-within-band\n"
              "3,generator,0.06,0.05,-0.01,0,violated\n")
    diag_cols = ",".join(["job_index"] + list(outputs.DIAG_NUMBERS))
    diag_vals = {"e_r": 1.1, "e_r_stderr": 0.01, "e_rlogr": 0.1, "e_rlogr_stderr": 0.01,
                 "entropy_bound": 1.0}
    diag = diag_cols + "\n2," + ",".join(str(diag_vals.get(k, 0.5)) for k in outputs.DIAG_NUMBERS)
    (tmp_path / "report.csv").write_text(report)
    (tmp_path / "diagnostics.csv").write_text(diag + "\n")
    # the generator has a Monte Carlo route and no band on the explosive model only
    res = outputs.check_run(jobs, "explosive_drift_1d", tmp_path)
    assert res["jobs"] == 4
    assert res["invalid"] == [1]
    assert res["out_of_band"] == [2, 3]
    assert res["bands"] == [0.5, pytest.approx(0.03)]
    assert outputs.check_run(jobs, "sphere", tmp_path)["invalid"] == [1, 3]

    (tmp_path / "report.csv").write_text("job_index,tag,lhs,rhs,margin,band,verdict\n"
                                         "0,log-harnack,3,2,-1,0.5,violated\n")
    assert outputs.check_run(jobs, "explosive_drift_1d", tmp_path)["invalid"] == [0, 1, 3]


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_are_the_declared_ones(trace):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", "closed-form", "--seed", "5", "--seconds", "1",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
