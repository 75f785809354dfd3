"""Checks on the files one ``logharnack run`` wrote.

A job fails when it produced no row, a row with a non-finite number, a
``violated`` verdict, or a coupling row outside the acceptance-criteria
2-3 rules:  |E R - 1| <= 3 se  and  E R log R <= bound + 3 se.

Two kinds of failure compare a Monte Carlo estimate with a tolerance
that sampling error alone can exceed, so they count as failed jobs but
do not make the run incorrect: the coupling rules above (three-standard-
error tests of exact identities, about 0.27% of rows by chance) and a
``violated`` verdict of a check in ``NO_BAND_MC``.  A missing row, a
non-finite number or any other ``violated`` verdict makes it incorrect.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

# checkers whose rows carry a Monte Carlo band unless they used an oracle
MC_TAGS = ("log-harnack", "log-harnack-local", "gradient", "harnack", "sharpness")

# (checker, model variant) whose verdict compares a Monte Carlo estimate
# with a fixed tolerance and no standard-error band: the generator check
# takes the Monte Carlo route on a model without a closed-form semigroup
NO_BAND_MC = {("generator", "explosive_drift_1d")}

REPORT_NUMBERS = ("lhs", "rhs", "margin", "band")
DIAG_NUMBERS = ("e_r", "e_r_stderr", "e_rlogr", "e_rlogr_stderr", "entropy_bound",
                "coupling_weighted", "coupling_weighted_stderr", "coupled_fraction",
                "flagged_fraction", "max_rho_excess")


def _rows(path: Path) -> list:
    if not path.is_file():
        return []
    return list(csv.DictReader(io.StringIO(path.read_text())))


def check_run(jobs: list, variant: str, outdir) -> dict:
    """Per-job verdict on one run's output directory.

    ``jobs`` is the config's job list as ``ExperimentConfig.jobs()``
    gives it, ``variant`` its model variant.  Returns ``jobs`` (count),
    ``invalid`` and ``out_of_band`` (sorted job indices) and ``bands``:
    the 3-se band of every Monte Carlo row.
    """
    outdir = Path(outdir)
    mc_jobs = {i for i, tag, p in jobs if tag in MC_TAGS and not p.get("use_oracle", False)}
    no_band = {i for i, tag, _ in jobs if (tag, variant) in NO_BAND_MC}
    seen, invalid, out_of_band, bands = set(), set(), set(), []

    for row in _rows(outdir / "report.csv"):
        i = int(row["job_index"])
        seen.add(i)
        vals = [float(row[k]) for k in REPORT_NUMBERS]
        if not all(math.isfinite(v) for v in vals):
            invalid.add(i)
        elif row["verdict"] == "violated":
            (out_of_band if i in no_band else invalid).add(i)
        elif i in mc_jobs:
            bands.append(vals[3])

    for row in _rows(outdir / "diagnostics.csv"):
        i = int(row["job_index"])
        seen.add(i)
        v = {k: float(row[k]) for k in DIAG_NUMBERS}
        if not all(math.isfinite(x) for x in v.values()):
            invalid.add(i)
            continue
        bands.append(3.0 * v["e_rlogr_stderr"])
        if (abs(v["e_r"] - 1.0) > 3.0 * v["e_r_stderr"]
                or v["e_rlogr"] > v["entropy_bound"] + 3.0 * v["e_rlogr_stderr"]):
            out_of_band.add(i)

    invalid |= {i for i, _, _ in jobs} - seen
    return {"jobs": len(jobs), "invalid": sorted(invalid),
            "out_of_band": sorted(out_of_band - invalid), "bands": bands}


def output_bytes(outdir) -> bytes:
    """report.csv followed by diagnostics.csv, the files that must not
    depend on the worker count."""
    outdir = Path(outdir)
    blob = (outdir / "report.csv").read_bytes() if (outdir / "report.csv").is_file() else b""
    diag = outdir / "diagnostics.csv"
    return blob + (diag.read_bytes() if diag.is_file() else b"")
