"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.

Seeds are fixed, path blocks are worker-independent, and reductions are
deterministic, so a green run stays green.
"""

import math
import time
import numpy as np
import pytest
import yaml

from logharnack import coupling as C
from logharnack import estimators as E
from logharnack import geometry as G
from logharnack import verify as V
from logharnack.cli import run as cli_run
from logharnack.diffusion import local_time_profile

SEED = 20250810


def _line(num, ok, msg):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def sphere_pair(M, rho):
    y = np.zeros(M.chart_dim)
    y[-1] = M.radius
    x = M.exp(y, rho * M.frame(y)[0])
    return x, y


# ----------------------------------------------------------------------
# criterion 1: Monte Carlo vs closed-form oracles, 20 cases
# ----------------------------------------------------------------------


def oracle_cases():
    e1, e2 = G.Euclidean(1), G.Euclidean(2)
    ou1, ou2 = G.OrnsteinUhlenbeck(1, 1.0), G.OrnsteinUhlenbeck(2, 0.5)
    hs1, hs2 = G.HalfSpace(1), G.HalfSpace(2)
    s1, s2 = G.Sphere(1, 1.0), G.Sphere(2, 1.0)
    s2b = G.Sphere(2, 2.0)
    return [
        (e1, [0.0], 0.5, E.coord_exp([1.0])),
        (e1, [0.2], 1.0, E.const(2.0)),
        (e1, [0.3], 0.25, E.gauss_bump([0.0], 0.7)),
        (e1, [0.0], 1.0, E.one_plus_bump([0.0], 1.0, b=0.5)),
        (e2, [0.0, 0.0], 0.5, E.coord_exp([1.0, -0.5])),
        (e2, [0.1, -0.2], 0.25, E.gauss_bump([0.0, 0.0], 0.8)),
        (ou1, [0.0], 1.0, E.coord_sq(0)),
        (ou1, [1.0], 0.5, E.coord(0)),
        (ou1, [0.0], 1.0, E.coord_exp([0.5])),
        (ou2, [0.5, -0.5], 0.5, E.coord_exp([0.4, 0.3])),
        (hs1, [0.5], 0.25, E.one_plus_bump([1.0], 0.8, b=0.5)),
        (hs1, [0.0], 0.5, E.gauss_bump([0.5], 0.6)),
        (hs2, [0.3, 0.0], 0.5, E.coord_exp([-1.0, 0.2])),
        (s1, [1.0, 0.0], 0.2, E.coord(0)),
        (s1, [1.0, 0.0], 1.0, E.coord(0)),
        (s1, [0.0, 1.0], 0.5, E.one_plus_bump([1.0, 0.0], 0.9, b=0.5)),
        (s2, [0.0, 0.0, 1.0], 0.1, E.coord(2)),
        (s2, [0.0, 0.0, 1.0], 0.5, E.coord(2)),
        (s2, [0.0, 0.0, 1.0], 0.25, E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.5)),
        (s2b, [0.0, 0.0, 2.0], 0.5, E.coord(2)),
    ]


def test_criterion_01_oracle_agreement():
    t0 = time.time()
    n = 100_000
    worst = 0.0
    ok = True
    for i, (M, x, T, f) in enumerate(oracle_cases()):
        oracle = E.oracle_semigroup(M, x, T, f)
        e1 = E.mc_functional(M, x, T, f, "f", n, 1e-2, SEED + i)
        e2 = E.mc_functional(M, x, T, f, "f", n, 5e-3, SEED + i)
        Ch = 2.0 * abs(e1.mean - e2.mean)  # (C measured by halving h) * h
        err = abs(e1.mean - oracle)
        allow = 3.0 * e1.stderr + Ch
        if e1.stderr > 0:
            worst = max(worst, err / max(allow, 1e-300))
        ok &= err <= allow or e1.stderr == 0.0
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _line(1, ok, f"20 oracle cases, worst |mc-oracle|/(3se+Ch) = {worst:.2f}, runtime {elapsed:.1f}s < 300s")


# ----------------------------------------------------------------------
# criteria 2-4: coupling diagnostics on 6 configs
# ----------------------------------------------------------------------


def coupling_configs():
    out = []
    e1 = G.Euclidean(1)
    out.append(("euclid1 rho=0.3 T=1", e1, np.array([0.0]), np.array([0.3]), 1.0))
    e2 = G.Euclidean(2)
    out.append(("euclid2 rho=0.1 T=0.5", e2, np.array([0.1, 0.0]), np.array([0.0, 0.0]), 0.5))
    s2 = G.Sphere(2, 1.0)
    x, y = sphere_pair(s2, 0.3)
    out.append(("sphere rho=0.3 T=0.5", s2, x, y, 0.5))
    x, y = sphere_pair(s2, 0.1)
    out.append(("sphere rho=0.1 T=1", s2, x, y, 1.0))
    hyp = G.Hyperbolic()
    out.append(("hyperb rho=0.3 T=1", hyp, np.array([0.0, math.exp(0.3)]), np.array([0.0, 1.0]), 1.0))
    out.append(("hyperb rho=0.1 T=0.5", hyp, np.array([0.0, math.exp(0.1)]), np.array([0.0, 1.0]), 0.5))
    return out


def _coupling_prob(vals):
    """The weighted coupling probability E[R; coupled] read as
    1 - E[R; not coupled], through the exact E R = 1 of criterion 2: its
    Monte Carlo error comes from the few uncoupled pairs only, where the
    direct mean carries the spread of R over all pairs."""
    return 1.0 - float(np.mean(vals["R"] * ~vals["coupled"]))


@pytest.fixture(scope="module")
def coupling_runs():
    runs = []
    for k, (name, M, x, y, T) in enumerate(coupling_configs()):
        cfg = C.standard_coupling_config(M, x, y, T=T, h=1e-3)
        diag, vals = C.run_coupling(M, cfg, 100_000, master_seed=SEED + 100 + k, return_values=True)
        runs.append((name, M, cfg, diag, _coupling_prob(vals)))
    return runs


def test_criterion_02_girsanov_normalisation(coupling_runs):
    ok = True
    worst = 0.0
    for name, _, _, diag, _ in coupling_runs:
        dev = abs(diag.e_r.mean - 1.0) / diag.e_r.stderr
        worst = max(worst, dev)
        ok &= dev <= 3.0
    _line(2, ok, f"E R = 1 within 3 stderr on 6 configs (worst {worst:.2f} se)")


def test_criterion_03_entropy_bound(coupling_runs):
    ok = True
    msgs = []
    for name, _, cfg, diag, _ in coupling_runs:
        bound = diag.entropy_bound
        ok &= diag.e_rlogr.mean <= bound + 3.0 * diag.e_rlogr.stderr
        msgs.append(f"{diag.e_rlogr.mean:.3f}<={bound:.2f}")
    _line(3, ok, "E R log R within the closed-form bound on 6 configs: " + ", ".join(msgs))


def test_criterion_04_coupling_success(coupling_runs):
    # the bounds hold 1 - E[R; not coupled]; the direct mean E[R; coupled]
    # is printed beside it (its standard error at 20k pairs, 0.006, is
    # larger than the 0.005 the fine bound leaves)
    ok = True
    coarse, fine, coarse_direct, fine_direct = [], [], [], []
    for k, (name, M, cfg, diag, p_coarse) in enumerate(coupling_runs):
        coarse.append(p_coarse)
        coarse_direct.append(diag.coupling_weighted.mean)
        ok &= p_coarse >= 0.98
        cfg_fine = C.standard_coupling_config(M, cfg.x, cfg.y, T=cfg.T, h=2.5e-4)
        diag_fine, vals = C.run_coupling(M, cfg_fine, 20_000, master_seed=SEED + 200 + k,
                                         return_values=True)
        fine.append(_coupling_prob(vals))
        fine_direct.append(diag_fine.coupling_weighted.mean)
        ok &= fine[-1] >= 0.995
    ok &= float(np.mean(fine)) > float(np.mean(coarse)) or min(fine) >= 0.999
    _line(
        4,
        ok,
        f"weighted coupling prob 1 - E[R; not coupled] >= 0.98 at h=1e-3 (min {min(coarse):.6f}), "
        f">= 0.995 at h=2.5e-4 (min {min(fine):.6f}), refinement improves "
        f"({np.mean(coarse):.6f} -> {np.mean(fine):.6f}); direct E[R; coupled] "
        f"min {min(coarse_direct):.4f} / {min(fine_direct):.4f}, "
        f"mean {np.mean(coarse_direct):.4f} -> {np.mean(fine_direct):.4f}",
    )


# ----------------------------------------------------------------------
# criterion 5: log-Harnack grid + local version + explosive correction
# ----------------------------------------------------------------------


def log_harnack_grid():
    grid = []
    e1 = G.Euclidean(1)
    for rho in (0.1, 0.3):
        for T in (0.25, 1.0):
            grid.append((e1, [0.0], [rho], T, E.coord_exp([1.0])))
            grid.append((e1, [0.0], [rho], T, E.one_plus_bump([rho], 0.8, b=0.6)))
    e2 = G.Euclidean(2)
    for rho in (0.1, 0.3):
        for T in (0.25, 1.0):
            grid.append((e2, [0.0, 0.0], [rho, 0.0], T, E.one_plus_bump([0.0, 0.0], 1.0, b=0.5)))
    ou = G.OrnsteinUhlenbeck(1, 1.0)
    for rho in (0.1, 0.3):
        for T in (0.25, 1.0):
            grid.append((ou, [0.0], [rho], T, E.coord_exp([0.5])))
    s2 = G.Sphere(2, 1.0)
    for rho in (0.1, 0.3):
        for T in (0.25, 1.0):
            x, y = sphere_pair(s2, rho)
            grid.append((s2, x, y, T, E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.7)))
    s1 = G.Sphere(1, 1.0)
    for rho in (0.1, 0.3):
        for T in (0.25, 1.0):
            grid.append((s1, [math.cos(rho), math.sin(rho)], [1.0, 0.0], T,
                         E.one_plus_bump([1.0, 0.0], 0.9, b=0.5)))
    hyp = G.Hyperbolic()
    for rho in (0.1, 0.3):
        for T in (0.5, 1.0):
            grid.append((hyp, [0.0, math.exp(rho)], [0.0, 1.0], T,
                         E.one_plus_bump([0.0, 1.0], 0.8, b=0.5)))
    hs = G.HalfSpace(1)
    for rho in (0.1, 0.3):
        for T in (0.25, 1.0):
            grid.append((hs, [0.5 + rho], [0.5], T, E.one_plus_bump([0.5], 0.7, b=0.5)))
    ball = G.EuclideanBall(2, 2.0)
    for T in (0.25, 1.0):
        grid.append((ball, [0.3, 0.0], [0.0, 0.0], T, E.one_plus_bump([0.0, 0.0], 0.8, b=0.5)))
    ex = G.ExplosiveDrift1D()
    for T in (0.3, 1.0):
        grid.append((ex, [0.0], [0.3], T, E.one_plus_bump([0.3], 0.7, b=0.5)))
        grid.append((ex, [0.0], [0.3], T, E.const(math.e)))
    return grid


def test_criterion_05_log_harnack_grid():
    grid = log_harnack_grid()
    n_rows = 0
    ok = True
    for i, (M, x, y, T, f) in enumerate(grid):
        rep = V.check_log_harnack(M, x, y, T, f, n_paths=20_000, h=1e-2, master_seed=SEED + 300 + i)
        ok &= rep.verdict != "violated"
        n_rows += 1
    # local-geometry version on three variants, t in {0.1, 0.5, 1}
    lh2_cases = []
    s2 = G.Sphere(2, 1.0)
    x, y = sphere_pair(s2, 0.4)
    lh2_cases.append((s2, x, y, E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.7)))
    lh2_cases.append((G.Euclidean(1), [0.3], [0.0], E.one_plus_bump([0.0], 0.8, b=0.5)))
    lh2_cases.append((G.Hyperbolic(), [0.0, math.exp(0.3)], [0.0, 1.0],
                      E.one_plus_bump([0.0, 1.0], 0.8, b=0.5)))
    for j, (M, x, y, f) in enumerate(lh2_cases):
        for t in (0.1, 0.5, 1.0):
            rep = V.check_log_harnack_local(M, x, y, t, f, n_paths=20_000, h=1e-2,
                                            master_seed=SEED + 400 + j)
            ok &= rep.verdict != "violated"
            n_rows += 1
    # explosive f = const e: corrected form holds, dropped correction is
    # violated (exact scalar arithmetic on the measured mass)
    ex = G.ExplosiveDrift1D()
    f = E.const(math.e)
    good = V.check_log_harnack(ex, [0.0], [0.0], 1.0, f, n_paths=20_000, h=1e-3,
                               master_seed=SEED + 500, correction=True)
    bad = V.check_log_harnack(ex, [0.0], [0.0], 1.0, f, n_paths=20_000, h=1e-3,
                              master_seed=SEED + 500, correction=False)
    u = E.mc_functional(ex, [0.0], 1.0, None, "1", 20_000, 1e-3, SEED + 500).mean
    exact_ok = (
        0.0 < u < 1.0
        and math.isclose(good.lhs, u - math.log(1.0 + u * (math.e - 1.0)), abs_tol=1e-14)
        and math.isclose(bad.lhs, u - 1.0 - math.log(u), abs_tol=1e-14)
        and good.lhs <= 0.0 < bad.lhs
    )
    ok &= good.verdict != "violated"
    ok &= bad.verdict == "violated"
    ok &= exact_ok
    n_rows += 2
    ok &= n_rows >= 40
    _line(5, ok, f"log-Harnack grid of {n_rows} rows (all variants), no violations; "
                 f"explosive mass-correction flip reproduced exactly (u={u:.4f})")


# ----------------------------------------------------------------------
# criterion 6: gradient inequality
# ----------------------------------------------------------------------


def test_criterion_06_gradient():
    # exact-arithmetic fixtures
    e1 = G.Euclidean(1)
    rep_a = V.check_gradient(e1, [0.0], 0.5, E.coord_exp([1.0]), use_oracle=True)
    fix_a = rep_a.margin > 0 and abs(rep_a.lhs - math.exp(1.0)) < 1e-6
    ou = G.OrnsteinUhlenbeck(1, 1.0)
    rep_b = V.check_gradient(ou, [0.0], 1.0, E.coord(0), use_oracle=True)
    fix_b = rep_b.margin > 0 and abs(rep_b.lhs - math.exp(-2.0)) < 1e-6
    ok = fix_a and fix_b

    s2 = G.Sphere(2, 1.0)
    hs = G.HalfSpace(1)
    hyp = G.Hyperbolic()
    ball = G.EuclideanBall(2, 2.0)
    grid = []
    for T in (0.25, 1.0):
        grid.append((e1, [0.0], T, E.coord_exp([1.0])))
        grid.append((e1, [0.0], T, E.gauss_bump([0.3], 0.7)))
        grid.append((G.Euclidean(2), [0.0, 0.0], T, E.coord_exp([0.7, -0.2])))
        grid.append((ou, [0.0], T, E.coord(0)))
        grid.append((ou, [0.5], T, E.coord_sq(0)))
        grid.append((s2, [0.0, 0.0, 1.0], T, E.coord(2)))
        grid.append((s2, [0.0, 0.0, 1.0], T, E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.6)))
        grid.append((hs, [0.5], T, E.one_plus_bump([1.0], 0.8, b=0.5)))
        grid.append((hyp, [0.0, 1.0], T, E.one_plus_bump([0.0, 1.0], 0.8, b=0.5)))
        grid.append((ball, [0.0, 0.0], T, E.gauss_bump([0.3, 0.0], 0.7)))
    assert len(grid) == 20
    for i, (M, x, T, f) in enumerate(grid):
        rep = V.check_gradient(M, x, T, f, n_paths=20_000, h=1e-2, master_seed=SEED + 600 + i)
        ok &= rep.verdict != "violated"
    _line(6, ok, "exact fixtures hold with positive margin "
                 f"(euclid margin {rep_a.margin:.3g}, ou margin {rep_b.margin:.3g}); "
                 "20-config grid free of violations")


# ----------------------------------------------------------------------
# criterion 7: Harnack inequality
# ----------------------------------------------------------------------


def test_criterion_07_harnack():
    e1, e2 = G.Euclidean(1), G.Euclidean(2)
    ou = G.OrnsteinUhlenbeck(1, 1.0)
    s1, s2 = G.Sphere(1, 1.0), G.Sphere(2, 1.0)
    hs = G.HalfSpace(1)
    hyp = G.Hyperbolic()
    ball = G.EuclideanBall(2, 2.0)
    sx2, sy2 = sphere_pair(s2, 0.3)
    cases = [
        (e1, [0.0], [0.3], 0.25, E.gauss_bump([0.3], 0.5), True),
        (e1, [0.0], [0.1], 1.0, E.one_plus_bump([0.0], 0.8, b=0.5), True),
        (e2, [0.0, 0.0], [0.5, 0.0], 0.25, E.gauss_bump([0.3, 0.0], 0.5), True),
        (e2, [0.0, 0.0], [0.1, 0.0], 1.0, E.gauss_bump([0.0, 0.0], 0.8), True),
        (ou, [0.0], [0.3], 0.5, E.one_plus_bump([0.0], 0.8, b=0.5), True),
        (ou, [0.2], [0.4], 1.0, E.gauss_bump([0.0], 0.9), True),
        (s1, [math.cos(0.3), math.sin(0.3)], [1.0, 0.0], 0.5,
         E.one_plus_bump([1.0, 0.0], 0.9, b=0.5), True),
        (s2, sx2, sy2, 0.5, E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.7), True),
        (hs, [0.8], [0.5], 0.5, E.one_plus_bump([0.5], 0.7, b=0.5), True),
        (hyp, [0.0, math.exp(0.3)], [0.0, 1.0], 0.5,
         E.one_plus_bump([0.0, 1.0], 0.8, b=0.5), False),
        (hyp, [0.0, math.exp(0.1)], [0.0, 1.0], 1.0,
         E.gauss_bump([0.0, 1.0], 0.8), False),
        (ball, [0.3, 0.0], [0.0, 0.0], 0.5, E.gauss_bump([0.0, 0.0], 0.8), False),
    ]
    assert len(cases) == 12
    ok = True
    for i, (M, x, y, T, f, oracle) in enumerate(cases):
        rep = V.check_harnack(M, x, y, T, f, n_paths=20_000, h=1e-2,
                              master_seed=SEED + 700 + i, use_oracle=oracle)
        ok &= rep.verdict != "violated"
    _line(7, ok, "Harnack inequality free of violations on 12 conservative configs")


# ----------------------------------------------------------------------
# criterion 8: kernel lower bound and entropy bound
# ----------------------------------------------------------------------


def test_criterion_08_kernel_and_entropy():
    s1, s2 = G.Sphere(1, 1.0), G.Sphere(2, 1.0)
    ou = G.OrnsteinUhlenbeck(1, 1.0)
    ok = True
    n_rows = 0
    for M, pairs in [
        (s1, [([math.cos(r), math.sin(r)], [1.0, 0.0]) for r in (0.3, 1.0)]),
        (s2, [(sphere_pair(s2, r)) for r in (0.3, 1.0)]),
        (ou, [([r], [0.0]) for r in (0.3, 1.0)]),
    ]:
        for x, y in pairs:
            for t in (0.05, 0.2, 1.0):
                rep = V.check_kernel_lower_bound(M, x, y, t)
                ok &= rep.verdict != "violated"
                n_rows += 1
    for M, y in [(s1, [1.0, 0.0]), (s2, [0.0, 0.0, 1.0]), (ou, [0.0])]:
        for t in (0.05, 0.2, 1.0):
            rep = V.check_entropy_bound(M, y, t)
            ok &= rep.verdict != "violated"
            n_rows += 1
    for t in (0.05, 0.2, 1.0):
        rep = V.check_entropy_cost(ou, t, eps_tilt=0.2)
        ok &= rep.verdict != "violated"
        n_rows += 1
    # short-time entropy growth on the 2-sphere: slope vs log(1/t) within
    # 10% of d/2 = 1
    ts = np.array([0.02, 0.03, 0.05, 0.08])
    ent = np.array([E.kernel_entropy(s2, [0.0, 0.0, 1.0], t) for t in ts])
    xlog = np.log(1.0 / ts)
    slope = float(np.polyfit(xlog, ent, 1)[0])
    ok &= abs(slope - 1.0) <= 0.1
    _line(8, ok, f"{n_rows} kernel/entropy/entropy-cost rows free of violations; "
                 f"2-sphere entropy slope vs log(1/t) = {slope:.3f} (within 10% of 1)")


# ----------------------------------------------------------------------
# criterion 9: boundary local time
# ----------------------------------------------------------------------


def test_criterion_09_local_time():
    M = G.HalfSpace(1)
    t_grid = [0.0025, 0.005, 0.01, 0.02, 0.04]
    ests, ref = local_time_profile(M, [0.0], t_grid, 100_000, 1e-4, master_seed=SEED + 800)
    c2 = 0.0
    for t, e, r in zip(t_grid, ests, ref):
        excess = max(0.0, abs(e.mean - r) - 3.0 * e.stderr)
        c2 = max(c2, excess / t)
    ok = c2 <= 5.0
    _line(9, ok, f"|E l - 2 sqrt(t/pi)| <= C2 t + 3 se over the grid with fitted C2 = {c2:.3f} <= 5")


# ----------------------------------------------------------------------
# criterion 10: short-time generator identity
# ----------------------------------------------------------------------


def test_criterion_10_generator():
    cases = [
        (G.Euclidean(1), [0.0], E.coord_sq(0)),            # L g = 2
        (G.Euclidean(2), [0.0, 0.0], E.coord_exp([1.0, 0.0])),  # L g = 1
        (G.OrnsteinUhlenbeck(1, 1.0), [1.0], E.coord(0)),  # L g = -1
        (G.OrnsteinUhlenbeck(1, 1.0), [0.0], E.coord_sq(0)),  # L g = 2
        (G.Sphere(1, 1.0), [1.0, 0.0], E.coord(0)),        # L g = -1
        (G.ExplosiveDrift1D(), [1.0], E.coord(0)),         # L g = 1 (MC route)
    ]
    ok = True
    worst = 0.0
    for i, (M, x, g) in enumerate(cases):
        n = 1_000_000 if isinstance(M, G.ExplosiveDrift1D) else 200_000
        res = E.generator_check(M, x, g, n_paths=n, h=2e-3, master_seed=SEED + 900 + i)
        assert abs(res["lg"]) > 0
        worst = max(worst, res["rel_error"])
        ok &= res["rel_error"] <= 0.05
    _line(10, ok, f"fitted generator slopes within 5% of L g on 6 cases (worst {100*worst:.2f}%)")


# ----------------------------------------------------------------------
# criterion 11: sharpness of the constant 1/2
# ----------------------------------------------------------------------


def test_criterion_11_sharpness():
    M = G.Euclidean(1)
    f = E.log_bump([0.5], 1.0, amp=1.0)
    rep = V.sharpness_experiment(M, [0.0], f, n_paths=1_000_000, master_seed=SEED + 1000)
    row2 = next(r for r in rep.rows if r["r"] == 2.0)
    rel = abs(row2["limit_mc"] - row2["limit_exact"]) / abs(row2["limit_exact"])
    ok = rel <= 0.05 and rep.c_min >= 0.45
    _line(11, ok, f"r=2 slope within {100*rel:.2f}% of the closed form; "
                  f"admissible-c lower bound {rep.c_min:.4f} >= 0.45")


# ----------------------------------------------------------------------
# criterion 12: determinism across worker counts
# ----------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "schema_version": 1,
        "master_seed": SEED,
        "model": {"variant": "euclidean", "dim": 1},
        "checks": [
            {"tag": "log-harnack",
             "grid": {"x": [[0.0]], "y": [[0.2]], "T": [0.25, 0.5],
                      "f": [{"tag": "coord_exp", "a": [1.0]}],
                      "n_paths": [5000], "h": [0.01]}},
            {"tag": "coupling-diagnostics",
             "grid": {"x": [[0.0]], "y": [[0.2]], "T": [0.25], "n_paths": [5000], "h": [0.002]}},
            {"tag": "local-time",
             "grid": {"x": [[0.0]], "t_grid": [[0.01, 0.04]], "n_paths": [5000], "h": [0.0005]}},
            {"tag": "sharpness",
             "grid": {"x": [[0.0]],
                      "f": [{"tag": "log_bump", "center": [0.5], "width": 1.0, "amp": 1.0}],
                      "n_paths": [50000]}},
        ],
    }
    # local-time on the half-space variant requires a boundary; run that
    # check against its own model file
    cfg["checks"] = [c for c in cfg["checks"] if c["tag"] != "local-time"]
    path = tmp_path / "acc.yaml"
    path.write_text(yaml.safe_dump(cfg))
    blobs = []
    for workers, name in [(1, "w1"), (3, "w3"), (2, "w2")]:
        out = tmp_path / name
        code = cli_run(path, workers=workers, out=out)
        assert code == 0
        blobs.append((out / "report.csv").read_bytes() + (out / "diagnostics.csv").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]

    hs_cfg = {
        "schema_version": 1,
        "master_seed": SEED,
        "model": {"variant": "half_space", "dim": 1},
        "checks": [
            {"tag": "local-time",
             "grid": {"x": [[0.0]], "t_grid": [[0.01, 0.04]], "n_paths": [5000], "h": [0.0005]}},
        ],
    }
    hs_path = tmp_path / "hs.yaml"
    hs_path.write_text(yaml.safe_dump(hs_cfg))
    hs_blobs = []
    for workers, name in [(1, "h1"), (4, "h4")]:
        out = tmp_path / name
        assert cli_run(hs_path, workers=workers, out=out) == 0
        hs_blobs.append((out / "report.csv").read_bytes())
    ok &= hs_blobs[0] == hs_blobs[1]
    _line(12, ok, "bit-identical report/diagnostics files for worker counts 1, 2, 3 (and 1 vs 4)")
