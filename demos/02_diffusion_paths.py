"""Simulating the diffusion and checking it against closed-form kernels.

The geodesic Euler scheme drives sqrt(2)-scaled Brownian noise through
the exponential map, reflects at boundaries while accumulating local
time (on the half-line drawn from its exact law given each step's ends),
and kills paths of the explosive variant at their finite lifetime.
Each block of paths draws from its own counter-based stream, so every
number printed here is reproducible bit for bit.
"""

import numpy as np

from logharnack import estimators as E
from logharnack import geometry as G
from logharnack.diffusion import PathConfig, local_time_profile, simulate_ensemble

SEED = 7

print("=" * 70)
print("1. Monte Carlo vs quadrature oracle")
print("=" * 70)
cases = [
    (G.Euclidean(1), [0.0], 0.5, E.coord_exp([1.0]), "E exp(X_T), flat line"),
    (G.OrnsteinUhlenbeck(1, 1.0), [0.0], 1.0, E.coord_sq(0), "E X_T^2, OU"),
    (G.Sphere(1, 1.0), [1.0, 0.0], 0.3, E.coord(0), "E cos(theta_T), circle"),
    (G.HalfSpace(1), [0.5], 0.5, E.one_plus_bump([1.0], 0.8, b=0.5), "reflected, half line"),
]
for M, x, T, f, label in cases:
    est = E.mc_functional(M, x, T, f, "f", 50_000, 1e-2, SEED)
    oracle = E.oracle_semigroup(M, x, T, f)
    z = (est.mean - oracle) / est.stderr
    print(f"{label:28s} mc {est.mean:.5f} +- {est.stderr:.5f}   oracle {oracle:.5f}   ({z:+.2f} se)")

print()
print("=" * 70)
print("2. Boundary local time on the half line")
print("=" * 70)
print("Starting on the boundary, E l_t should track 2 sqrt(t/pi).")
M = G.HalfSpace(1)
t_grid = [0.01, 0.04, 0.09]
ests, ref = local_time_profile(M, [0.0], t_grid, 50_000, 1e-4, master_seed=SEED)
for t, e, r in zip(t_grid, ests, ref):
    print(f"t = {t:<5}  estimate {e.mean:.5f} +- {e.stderr:.5f}   2 sqrt(t/pi) = {r:.5f}")
print("Stopped at the first exit from [0, 0.3), E l_{t ^ sigma} against the")
print("eigen-series sum_n (2/r)(1 - e^{-lam_n t}) / lam_n, lam_n = ((n + 1/2) pi / r)^2;")
print("the step draws its local time exactly and reads the exit inside each step.")
r = 0.3
ests, _ = local_time_profile(M, [0.0], t_grid, 50_000, 1e-4, master_seed=SEED, r=r)
for t, e in zip(t_grid, ests):
    # summed as r - (2/r) sum_n e^{-lam_n t} / lam_n, since sum_n 1 / lam_n = r^2 / 2
    lam = ((np.arange(40) + 0.5) * np.pi / r) ** 2
    series = r - 2.0 / r * float(np.sum(np.exp(-lam * t) / lam))
    z = (e.mean - series) / e.stderr
    print(f"t = {t:<5}  estimate {e.mean:.5f} +- {e.stderr:.5f}   series {series:.5f}   ({z:+.2f} se)")

print()
print("=" * 70)
print("3. Finite lifetime of the explosive variant")
print("=" * 70)
M = G.ExplosiveDrift1D()
for x0 in (0.0, 1.0, 3.0):
    res = simulate_ensemble(M, [x0], 1.0, 1e-3, 20_000, master_seed=SEED)
    print(f"x0 = {x0}:  P(T < lifetime) ~ {res['alive'].mean():.4f}")
print("The semigroup is sub-Markovian here: P_t 1 < 1 feeds the")
print("mass-correction term of the log-Harnack checker (see demo 04).")

print()
print("=" * 70)
print("4. Exit times decay super-polynomially")
print("=" * 70)
print("A per-step hook records who has left the ball; read at the")
print("steps that reach the read times, it gives the exit probabilities.")
M, n, t_read = G.Euclidean(1), 100_000, [0.02, 0.04, 0.06]
cfg = PathConfig(h=1e-4, T=0.06)
reads = dict(zip(cfg.mark_steps(t_read), t_read))
exited = np.zeros(n, dtype=bool)


def on_step(k, pos, alive, l):
    exited[...] |= M.distance([0.0], pos) >= 1.0
    if k in reads:
        print(f"P(exit unit ball by t = {reads[k]}) ~ {exited.mean():.2e}")


simulate_ensemble(M, [0.0], cfg.T, cfg.h, n, master_seed=SEED, on_step=on_step)
