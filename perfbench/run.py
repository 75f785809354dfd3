"""Benchmark of ``logharnack run`` on seeded experiment workloads.

    python3 perfbench/run.py --workload mc-grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  The script writes the workload's configs
for the seed under ``.bench_work/``, then runs the whole workload through
``logharnack.cli.run`` again and again, each time in a fresh interpreter
(child.py), for ``--seconds``, and checks every output.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170.0
MIN_SETUPS = 5


def _child(work, tag, workers, trace, configs, env, timeout):
    """One run of the workload in a fresh interpreter (child.py); returns
    its parsed last line with ``setup_s`` (spawn to first job dispatch)
    and ``wall_s`` (spawn to exit) added."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(work), tag,
                           str(workers), trace, *configs],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["dispatch"] is None:
        raise RuntimeError(f"child {tag} dispatched no job")
    res["setup_s"] = res["dispatch"] - t_spawn
    res["wall_s"] = time.monotonic() - t_spawn
    return res


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _outcome(runs):
    """correct / attempted / failed over every run of one seed; the
    outputs of every run must be byte-identical."""
    errors = [e for r in runs for e in r["errors"]]
    identical = all(r["outputs"] == runs[0]["outputs"] for r in runs)
    if not identical:
        errors.append("report bytes differ between runs of one seed")
    for err in errors:
        print(err, file=sys.stderr)
    return {"correct": identical and all(r["invalid"] == 0 for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["invalid"] + r["out_of_band"] for r in runs)}


def bench(workload, seed, seconds, traced):
    src = ROOT / "src"
    if not (src / "logharnack" / "cli.py").is_file():
        raise FileNotFoundError(f"no package source at {src}")
    t_begin = time.monotonic()
    window_end = t_begin + seconds
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        configs = [str(p) for p in workloads.write_configs(workload, seed, work / "configs")]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

        def child(tag, workers, trace):
            left = DEADLINE_S - (time.monotonic() - t_begin)
            return _child(work, tag, workers, trace, configs, env, left)

        if traced:
            # rounds of one traced and one untraced 1-worker run, then one
            # 2-worker run that traces jobs only
            full, plain = [], []
            while True:
                full.append(child(f"traced{len(full)}", 1, "full"))
                plain.append(child(f"plain{len(plain)}", 1, "off"))
                left = window_end - time.monotonic()
                if left < full[-1]["wall_s"] + plain[-1]["wall_s"] + plain[-1]["wall_s"]:
                    break
            w2 = child("w2", 2, "jobs")
            keep = ROOT / ".bench_work" / f"spans-{workload}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir(parents=True)
            shutil.move(str(work / "spans-traced0.jsonl"), str(keep / "spans.jsonl"))
            shutil.move(str(work / "spans-w2.jsonl"), str(keep / "spans_w2.jsonl"))
            layer = dict(full[0]["layer"])
            layer["setup.import_s"] = statistics.median(r["import_s"] for r in plain)
            layer["setup.config_s"] = statistics.median(r["config_s"] for r in plain)
            layer["cli.run_s_w2"] = w2["run_s"]
            layer["cli.pool_util_w2"] = w2["pool_util"]
            layer["trace.overhead_s"] = (statistics.median(r["run_s"] for r in full)
                                         - statistics.median(r["run_s"] for r in plain))
            bands = full[0]["bands"]
            layer["verify.band_p50"] = statistics.median(bands) if bands else 0.0
            metrics = {name: _metric(layer[name], unit) for name, unit in layer_units().items()}
            runs = full + plain + [w2]
        else:
            # 1-worker runs while a further one and the 2-worker run fit
            w1 = []
            while True:
                w1.append(child(f"w1-{len(w1)}", 1, "off"))
                if window_end - time.monotonic() < 2 * w1[-1]["wall_s"]:
                    break
            w2 = child("w2", 2, "off")  # outputs must not depend on the worker count
            # set-up alone: at least MIN_SETUPS samples, then while the window lasts
            setups = [r["setup_s"] for r in w1 + [w2]]
            while (len(setups) < MIN_SETUPS
                   or window_end - time.monotonic() > 2 * statistics.median(setups)):
                setups.append(child(f"setup{len(setups)}", 1, "setup")["setup_s"])
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "run_s": _metric(statistics.median(r["run_s"] for r in w1), "s"),
                "cpu_s": _metric(statistics.median(r["cpu_s"] for r in w1), "s"),
                "peak_rss_mb": _metric(statistics.median(r["rss_mb"] for r in w1), "MB"),
            }
            runs = w1 + [w2]
        return {**_outcome(runs), "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_units():
    """Per-layer metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
