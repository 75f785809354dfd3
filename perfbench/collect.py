"""Run the benchmark over several seeds and record the results.

    python3 perfbench/collect.py --seeds 1-10 --sets 2 --out perfbench/BENCH_baseline.json

Each set runs ``run.py --trace 0`` once per seed on every workload; the
sets run one after the other, so they show whether two sets of runs of
the same code agree.  Then ``run.py --trace 1`` runs once per workload
(on the first seed).  The JSON file holds the machine, every run's
metrics and, per set and metric, the median, the quartiles and the
spread (quartile distance over median) that the benchmark's bounds are
compared with, and each later set's median change against the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t0
    return out


def _summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _set_entry(spec, runs):
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "run_wall_s": _summary([r["wall_s"] for r in runs]),
        "end_to_end": {m["name"]: {"unit": m["unit"], "bound": m["bound"],
                                   "values": [r["metrics"][m["name"]]["value"] for r in runs],
                                   **_summary([r["metrics"][m["name"]]["value"] for r in runs])}
                       for m in spec["end_to_end"]},
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--sets", type=int, default=1, help="sets of runs, one after the other")
    p.add_argument("--out", required=True)
    p.add_argument("--commit", default="", help="commit of the program measured")
    p.add_argument("--note", default="", help="free text stored with the results")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    result = {"program_commit": args.commit, "note": args.note, "machine": machine(),
              "seeds": _seeds(args.seeds), "seconds": seconds,
              "workloads": {wl: {"sets": []} for wl in names}}
    for k in range(args.sets):
        for wl in names:
            runs = []
            for seed in result["seeds"]:
                r = _run(wl, seed, seconds, 0)
                runs.append(r)
                print(k, wl, seed, r["correct"], r["attempted"], r["failed"],
                      {m: round(v["value"], 4) for m, v in r["metrics"].items()}, flush=True)
            entry = _set_entry(spec, runs)
            result["workloads"][wl]["sets"].append(entry)
            for name, s in entry["end_to_end"].items():
                print(f"  set {k} {wl:12s} {name:12s} median {s['median']:.4f} "
                      f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
    for wl in names:
        entry = result["workloads"][wl]
        first = entry["sets"][0]["end_to_end"]
        entry["median_change"] = {
            name: [later["end_to_end"][name]["median"] / s["median"] - 1.0
                   for later in entry["sets"][1:]]
            for name, s in first.items()}
        t = _run(wl, result["seeds"][0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in t["metrics"].items()}
        print(f"  {wl:12s} median change of later sets {entry['median_change']}", flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
