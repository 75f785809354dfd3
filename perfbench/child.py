"""One run of a workload in a fresh interpreter; started by run.py.

    child.py <workdir> <tag> <workers> <off|full|jobs|setup> <config>...

Imports the package, runs every config in turn through
``logharnack.cli.run`` with ``workers`` workers, writing under
``<workdir>/out/<tag>/``, and checks the outputs.  ``full`` traces every
layer (the spans go to ``<workdir>/spans-<tag>.jsonl``), ``jobs`` only
``cli.run`` and the checker adapters.  ``setup`` stops at the first job
dispatch and reports only the set-up times.  Prints one JSON object as its
last line: the monotonic time of the first job dispatch, import and
config times, wall and CPU time of the workload, peak RSS, a hash of
each config's report and diagnostics, and the output checks.

Each run is its own interpreter, so nothing one run leaves in memory
can serve the next: every timed run does the work a user's
``logharnack run`` does.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import outputs


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Dispatched(Exception):
    """Raised at the first job dispatch of a ``setup`` run."""


def _stamp_first_dispatch(cli, stamp, stop):
    """Wrap the checker adapters so the first job records its start."""
    for spec in cli.CHECKS.values():
        def first(*args, _run=spec["run"]):
            stamp.setdefault("dispatch", time.monotonic())
            if stop:
                raise Dispatched
            return _run(*args)
        spec["run"] = first


def run_workload(workdir, tag, workers, trace, configs):
    t0 = time.monotonic()
    from logharnack import cli

    t1 = time.monotonic()
    stamp = {}
    _stamp_first_dispatch(cli, stamp, stop=trace == "setup")
    if trace == "setup":
        try:
            cli.run(configs[0], workers=1, out=Path(workdir) / "out" / tag)
        except Dispatched:
            pass
        return {"dispatch": stamp.get("dispatch"), "import_s": t1 - t0,
                "config_s": stamp["dispatch"] - t1 if stamp else None}
    tracer = None
    if trace != "off":
        import tracing

        tracer = tracing.Tracer()
        tracer.install(jobs_only=trace == "jobs")

    outdirs, errors = [], []
    c0, w0 = _cpu(), time.perf_counter()
    try:
        for path in configs:
            out = Path(workdir) / "out" / tag / Path(path).stem
            shutil.rmtree(out, ignore_errors=True)
            try:
                cli.run(path, workers=workers, out=out)
            except Exception as e:  # a job raised: every job of the config fails
                errors.append(f"{Path(path).stem} ({tag}): {type(e).__name__}: {e}")
                out = None
            outdirs.append(out)
    finally:
        run_s, cpu_s = time.perf_counter() - w0, _cpu() - c0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

    result = {"dispatch": stamp.get("dispatch"), "import_s": t1 - t0,
              "config_s": stamp["dispatch"] - t1 if stamp else None, "run_s": run_s,
              "cpu_s": cpu_s, "rss_mb": rss_mb, "outputs": {}, "attempted": 0, "invalid": 0,
              "out_of_band": 0, "bands": []}
    for path, out in zip(configs, outdirs):
        stem = Path(path).stem
        exp = cli.ExperimentConfig.from_file(path)
        jobs = exp.jobs()
        result["attempted"] += len(jobs)
        if out is None:
            result["invalid"] += len(jobs)
            continue
        res = outputs.check_run(jobs, exp.model["variant"], out)
        result["invalid"] += len(res["invalid"])
        result["out_of_band"] += len(res["out_of_band"])
        result["bands"] += res["bands"]
        if res["invalid"]:
            errors.append(f"{stem} ({tag}): invalid jobs {res['invalid']}")
        if res["out_of_band"]:
            errors.append(f"{stem} ({tag}): jobs outside a statistical tolerance "
                          f"{res['out_of_band']}")
        result["outputs"][stem] = hashlib.sha256(outputs.output_bytes(out)).hexdigest()
    result["errors"] = errors

    if trace == "full":
        result["layer"] = tracing.layer_metrics(tracer.spans)
        result["layer"]["trace.spans"] = len(tracer.spans)
        tracer.dump(Path(workdir) / f"spans-{tag}.jsonl")
    elif trace == "jobs":
        result["pool_util"] = tracing.pool_utilisation(tracer.spans, workers)
        tracer.dump(Path(workdir) / f"spans-{tag}.jsonl")
    return result


def main(argv):
    workdir, tag, workers, trace, *configs = argv
    if trace not in ("off", "full", "jobs", "setup") or not configs:
        raise SystemExit(__doc__)
    print(json.dumps(run_workload(workdir, tag, int(workers), trace, configs)))


if __name__ == "__main__":
    main(sys.argv[1:])
