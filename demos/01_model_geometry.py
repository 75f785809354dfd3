"""Tour of the model-manifold catalogue.

Every variant carries exact closed-form geometry, so this script is a
set of identities you can watch hold to machine precision: distances,
the exponential map and the unit gradient of the distance, parallel
transport, and the curvature-with-drift numbers that the inequality
checkers consume.
"""

import numpy as np

from logharnack import geometry as G

rng = np.random.default_rng(0)

print("=" * 70)
print("1. Distances")
print("=" * 70)

euc = G.Euclidean(2)
print("Euclidean 3-4-5 triangle:", euc.distance([0, 0], [3, 4]))

sph = G.Sphere(2, 1.0)
north = np.array([0.0, 0.0, 1.0])
equator = np.array([1.0, 0.0, 0.0])
print("Quarter great circle on the unit sphere:", sph.distance(north, equator), "= pi/2")

hyp = G.Hyperbolic()
print("Hyperbolic distance (0,1) -> (0,e):", hyp.distance([0.0, 1.0], [0.0, np.e]))

print()
print("=" * 70)
print("2. Exponential map, undone by the distance and its gradient")
print("=" * 70)

for M, x in [(sph, north), (hyp, np.array([0.3, 0.8]))]:
    v = 0.4 * M.frame(x)[0] + 0.2 * M.frame(x)[-1]
    y = M.exp(x, v)
    # log_x(y) = rho(x, y) times the unit at x pointing towards y
    back = M.distance(x, y) * -M.grad_distance(y, x)
    print(f"{M.variant:12s} |exp round trip error|       = {np.abs(back - v).max():.2e}")
    print(f"{'':12s} distance(x, exp_x(v)) - |v|  = {float(M.distance(x, y) - M.norm(x, v)):+.2e}")

print()
print("=" * 70)
print("3. Parallel transport is an isometry")
print("=" * 70)

for M, x in [(sph, north), (hyp, np.array([0.0, 1.0]))]:
    y = M.exp(x, 0.7 * M.frame(x)[0])
    w = rng.standard_normal(M.chart_dim)
    if M.variant == "sphere":
        w -= (w @ x) * x / M.radius**2
    tw = M.transport(x, y, w)
    print(f"{M.variant:12s} |w| = {float(M.norm(x, w)):.12f}  |P w| = {float(M.norm(y, tw)):.12f}")

print()
print("=" * 70)
print("4. Curvature with drift: the pointwise bound K")
print("=" * 70)

rows = [
    (G.Euclidean(2), [0.0, 0.0]),
    (G.OrnsteinUhlenbeck(1, 1.0), [0.7]),
    (G.Sphere(2, 1.0), list(north)),
    (G.Hyperbolic(), [0.0, 1.0]),
    (G.ExplosiveDrift1D(), [2.0]),
]
print(f"{'variant':24s} {'Ric_Z(u,u)':>12s} {'pointwise K':>12s}")
for M, x in rows:
    x = np.asarray(x, dtype=float)
    print(f"{M.variant:24s} {float(M.ricci_z(x, None)):>12.3f} {float(M.pointwise_K(x)):>12.3f}")

print()
print("=" * 70)
print("5. Boundary data for the reflecting variants")
print("=" * 70)

hs = G.HalfSpace(2)
n, ii = hs.boundary_data([0.0, 1.5], [0.0, 1.0])
print(f"half space   inward normal {n}, second fundamental form {float(ii)}")
ball = G.EuclideanBall(2, 2.0)
n, ii = ball.boundary_data([2.0, 0.0], [0.0, 1.0])
print(f"ball R=2     inward normal {n}, second fundamental form {float(ii)} (= |u|^2/R)")
