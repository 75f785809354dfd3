"""Why the factor 1/2 in front of rho^2 cannot be improved.

Write the log-Harnack defect Q(s) = P_s log f(y_s) - log P_s f(x) along
y_s = exp_x(s v).  As s -> 0, Q(s)/s converges to
<v, grad log f>(x) - |grad log f|^2(x); any admissible constant c in a
bound of the form c rho^2 / (2 s) must dominate 2 limit / |v|^2.  Running
v = r grad log f(x) and maximising over r pins c >= 2(r-1)/r^2, which
peaks at exactly 1/2 for r = 2.  The Monte Carlo below reproduces the
limits with common random numbers across the whole (r, s) grid.
"""

import numpy as np

from logharnack import estimators as E
from logharnack import geometry as G
from logharnack.verify import sharpness_experiment

M = G.Euclidean(1)
f = E.log_bump([0.5], 1.0, amp=1.0)
x = [0.0]

report = sharpness_experiment(M, x, f, n_paths=400_000, master_seed=3)

g = f.grad_log(np.array([x]))[0]
g2 = float(g @ g)
print(f"|grad log f|^2 at the base point: {g2:.5f}")
print()
print(f"{'r':>4s} {'limit (mc)':>12s} {'limit (exact)':>14s} {'c bound 2L/|v|^2':>17s}")
for row in report.rows:
    print(
        f"{row['r']:>4.1f} {row['limit_mc']:>12.5f} {row['limit_exact']:>14.5f}"
        f" {row['c_bound']:>17.4f}"
    )
print()
print(f"empirical admissible-c lower bound: {report.c_min:.4f} (theory: 1/2)")
print()
print("Q(s)/s along the r = 2 direction:")
row2 = next(r for r in report.rows if r["r"] == 2.0)
for s, q in zip((0.001, 0.002, 0.004, 0.007, 0.01), row2["ratio"]):
    print(f"  s = {s:<6} Q(s)/s = {q:.5f}")
print(f"  extrapolated s -> 0:  {row2['limit_mc']:.5f}  (exact {row2['limit_exact']:.5f})")
