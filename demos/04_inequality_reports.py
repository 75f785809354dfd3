"""Running the inequality checkers and reading their reports.

Each checker assembles both sides of one inequality with Monte Carlo
error bands (or exact kernels where the variant has them) and returns a
verdict: "holds" when the margin beats three combined standard errors,
"holds-within-band" when the margin is inside the noise, and "violated"
only when the margin falls below minus the band.
"""

import math

import numpy as np

from logharnack import estimators as E
from logharnack import geometry as G
from logharnack import verify as V

SEED = 11


def show(rep):
    print(
        f"  {rep.tag:18s} lhs {rep.lhs:+11.4f}  rhs {rep.rhs:11.4f}"
        f"  margin {rep.margin:+10.4f}  band {rep.band:8.4f}  -> {rep.verdict}"
    )


print("=" * 70)
print("1. Log-Harnack on a flat line (exact kernels)")
print("=" * 70)
M = G.Euclidean(1)
rep = V.check_log_harnack(M, [0.0], [0.3], 0.5, E.coord_exp([1.0]), use_oracle=True)
show(rep)
print("  (the left side is y - x - T exactly for this observable)")

print()
print("=" * 70)
print("2. The mass-correction term is essential when paths explode")
print("=" * 70)
M = G.ExplosiveDrift1D()
f = E.const(math.e)
for corr in (True, False):
    rep = V.check_log_harnack(M, [0.0], [0.0], 1.0, f, n_paths=20_000, h=1e-3,
                              master_seed=SEED, correction=corr)
    print(f"  correction {'kept   ' if corr else 'dropped'}:", end="")
    show(rep)

print()
print("=" * 70)
print("3. Gradient and Harnack forms")
print("=" * 70)
rep = V.check_gradient(G.OrnsteinUhlenbeck(1, 1.0), [0.0], 1.0, E.coord(0), use_oracle=True)
show(rep)
print("  (for the linear observable the variance term is exactly |grad P_T f|^2;")
print("   the reference-function term supplies the strictly positive margin)")
rep = V.check_harnack(G.Euclidean(2), [0.0, 0.0], [0.3, 0.0], 0.5,
                      E.gauss_bump([0.3, 0.0], 0.5), use_oracle=True)
show(rep)

print()
print("=" * 70)
print("4. Kernel lower bound and entropy bound on the symmetric variants")
print("=" * 70)
s2 = G.Sphere(2, 1.0)
y = np.array([0.0, 0.0, 1.0])
x = s2.exp(y, 0.5 * s2.frame(y)[0])
for t in (0.05, 0.2, 1.0):
    show(V.check_kernel_lower_bound(s2, x, y, t))
for t in (0.05, 0.2):
    show(V.check_entropy_bound(s2, y, t))
show(V.check_entropy_cost(G.OrnsteinUhlenbeck(1, 1.0), 0.5, eps_tilt=0.2))

print()
print("=" * 70)
print("5. Short-time entropy grows like (d/2) log(1/t)")
print("=" * 70)
ts = np.array([0.02, 0.03, 0.05, 0.08])
ent = np.array([E.kernel_entropy(s2, y, t) for t in ts])
slope = float(np.polyfit(np.log(1 / ts), ent, 1)[0])
for t, e in zip(ts, ent):
    print(f"  t = {t:<5}  entropy = {e:.4f}")
print(f"  fitted slope vs log(1/t): {slope:.3f}   (d/2 = 1 on the 2-sphere)")
