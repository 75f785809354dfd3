import math

import numpy as np
import pytest

from logharnack import estimators as E
from logharnack import geometry as G
from logharnack.rng import BLOCK_SIZE


# ----------------------------------------------------------------------
# test function catalogue
# ----------------------------------------------------------------------


def test_const_and_positivity_flags():
    assert E.const(2.0)(np.zeros((3, 2))).tolist() == [2.0, 2.0, 2.0]
    assert E.const(2.0).strictly_positive
    assert not E.const(-1.0).strictly_positive
    assert E.coord_exp([1.0]).strictly_positive
    assert not E.coord(0).strictly_positive
    assert E.one_plus_bump([0.0], 1.0, b=0.5).strictly_positive


def test_log_bump_compact_support():
    f = E.log_bump([0.0], 1.0, amp=2.0)
    z = np.array([[0.0], [0.9], [1.1], [5.0]])
    vals = f(z)
    assert vals[0] == pytest.approx(math.exp(2.0))
    assert vals[2] == 1.0 and vals[3] == 1.0  # log f vanishes outside
    g = f.grad_log(z)
    assert g[2, 0] == 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((20, 2)) * 0.7
    h = 1e-6
    for f in [
        E.coord_exp([0.7, -0.3]),
        E.gauss_bump([0.2, 0.1], 0.8),
        E.one_plus_bump([0.0, 0.4], 1.1, b=0.6),
        E.coord_sq(1),
    ]:
        g = f.grad(z)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (f(z + e) - f(z - e)) / (2 * h)
            assert np.allclose(g[:, i], fd, atol=1e-6)


def test_laplacians_match_finite_differences():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((10, 2)) * 0.5
    h = 1e-4
    for f in [E.coord_exp([0.5, 0.2]), E.gauss_bump([0.1, -0.2], 0.9), E.coord_sq(0)]:
        lap = f.laplacian(z)
        fd = np.zeros(len(z))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd += (f(z + e) - 2 * f(z) + f(z - e)) / h**2
        assert np.allclose(lap, fd, atol=1e-5)


def test_function_config_round_trip():
    f = E.one_plus_bump([0.1, 0.2], 0.7, b=0.4)
    f2 = E.test_function_from_config(f.to_config())
    z = np.array([[0.3, -0.2]])
    assert f(z) == pytest.approx(f2(z))


# ----------------------------------------------------------------------
# Monte Carlo functional
# ----------------------------------------------------------------------


def test_mc_constant_function_zero_variance():
    M = G.Euclidean(1)
    est = E.mc_functional(M, [0.0], 0.5, E.const(1.0), "f", 2000, 1e-2, 0)
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_mc_euclidean_exponential():
    # flat-space stepping is exact: E e^{X_T} = e^{x + T}
    M = G.Euclidean(1)
    est = E.mc_functional(M, [0.0], 0.5, E.coord_exp([1.0]), "f", 50_000, 1e-2, 12)
    assert abs(est.mean - math.exp(0.5)) < 3 * est.stderr


def test_mc_explosive_mass_defect():
    M = G.ExplosiveDrift1D()
    est = E.mc_functional(M, [3.0], 1.0, None, "1", 2000, 1e-3, 0)
    assert est.mean < 1.0
    est0 = E.mc_functional(M, [0.0], 1.0, None, "1", 10_000, 1e-3, 0)
    assert est0.mean + 3 * est0.stderr < 1.0


def test_mc_log_mode_requires_positive_f():
    M = G.Euclidean(1)
    with pytest.raises(E.NonpositiveF):
        E.mc_functional(M, [0.0], 0.5, E.coord(0), "log f", 2000, 1e-2, 0)


def test_mc_rejects_small_samples():
    with pytest.raises(ValueError):
        E.mc_functional(G.Euclidean(1), [0.0], 0.5, E.const(1.0), "f", 10, 1e-2, 0)


def test_mc_values_at_several_starts_equal_single_start_runs():
    M = G.ExplosiveDrift1D()
    f = E.one_plus_bump([0.2], 0.7)
    starts = [[0.2], [0.0], [0.4]]
    ell, (fx, ax), f2 = E.mc_functional_values(M, starts, 0.3, f, ("log f", ("f", "1"), "f2"),
                                               2000, 1e-2, 5)
    assert np.array_equal(ell, E.mc_functional_values(M, [0.2], 0.3, f, "log f", 2000, 1e-2, 5))
    for got, want in zip((fx, ax), E.mc_functional_values(M, [0.0], 0.3, f, ("f", "1"), 2000, 1e-2, 5)):
        assert np.array_equal(got, want)
    assert np.array_equal(f2, E.mc_functional_values(M, [0.4], 0.3, f, "f2", 2000, 1e-2, 5))
    every = E.mc_functional_values(M, starts, 0.3, f, "f", 2000, 1e-2, 5)
    assert len(every) == 3 and np.array_equal(every[1], fx)
    with pytest.raises(ValueError):
        E.mc_functional_values(M, starts, 0.3, f, ("f", "1"), 2000, 1e-2, 5)
    with pytest.raises(ValueError):
        E.mc_functional(M, starts, 0.3, f, "f", 2000, 1e-2, 5)


def test_jensen_inequality_mc():
    # P_T log f <= log P_T f on conservative variants (CRN pairing)
    M = G.Euclidean(1)
    f = E.one_plus_bump([0.5], 0.8, b=0.8)
    a = E.mc_functional_values(M, [0.0], 0.5, f, "log f", 20_000, 1e-2, 3)
    b = E.mc_functional_values(M, [0.0], 0.5, f, "f", 20_000, 1e-2, 3)
    lhs = float(np.mean(a))
    rhs = math.log(float(np.mean(b)))
    se = np.std(a - b / float(np.mean(b)), ddof=1) / math.sqrt(len(a))
    assert lhs <= rhs + 3 * se


def test_variance_nonnegative_mc():
    M = G.Sphere(2, 1.0)
    f = E.coord(2)
    v2 = E.mc_functional(M, [0.0, 0.0, 1.0], 0.3, f, "f2", 10_000, 1e-2, 4)
    v1 = E.mc_functional(M, [0.0, 0.0, 1.0], 0.3, f, "f", 10_000, 1e-2, 4)
    assert v2.mean - v1.mean**2 >= -3 * (v2.stderr + 2 * abs(v1.mean) * v1.stderr)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def test_oracle_normalisation():
    one = E.const(1.0)
    assert E.oracle_semigroup(G.Euclidean(2), [0.1, 0.2], 0.5, one) == pytest.approx(1.0, abs=1e-12)
    assert E.oracle_semigroup(G.OrnsteinUhlenbeck(1, 1.0), [0.3], 0.5, one) == pytest.approx(1.0, abs=1e-12)
    assert E.oracle_semigroup(G.HalfSpace(1), [0.1], 0.5, one) == pytest.approx(1.0, abs=1e-12)
    assert E.oracle_semigroup(G.Sphere(1, 1.0), [1.0, 0.0], 0.2, one) == pytest.approx(1.0, abs=1e-10)
    assert E.oracle_semigroup(G.Sphere(2, 1.0), [0.0, 0.0, 1.0], 0.2, one) == pytest.approx(1.0, abs=1e-10)


def test_oracle_euclidean_exponential_closed_form():
    val = E.oracle_semigroup(G.Euclidean(1), [0.2], 0.5, E.coord_exp([1.0]))
    assert val == pytest.approx(math.exp(0.2 + 0.5), rel=1e-10)


def test_oracle_ou_stationary_variance():
    M = G.OrnsteinUhlenbeck(1, 1.0)
    val = E.oracle_semigroup(M, [0.0], 50.0, E.coord_sq(0))
    assert val == pytest.approx(1.0, rel=1e-8)


def test_oracle_circle_eigenfunction():
    M = G.Sphere(1, 1.0)
    for T in (0.2, 1.0):
        val = E.oracle_semigroup(M, [1.0, 0.0], T, E.coord(0))
        assert val == pytest.approx(math.exp(-T), rel=1e-9)


def test_oracle_sphere_eigenfunction():
    M = G.Sphere(2, 1.0)
    val = E.oracle_semigroup(M, [0.0, 0.0, 1.0], 0.3, E.coord(2))
    assert val == pytest.approx(math.exp(-2 * 0.3), rel=1e-8)


def test_oracle_half_space_reflection():
    # Neumann kernel via folding: for f(z) = z^2 at x = 0 the reflected
    # and free processes agree in law of |X|, E X_T^2 = x^2 + 2T
    val = E.oracle_semigroup(G.HalfSpace(1), [0.0], 0.5, E.coord_sq(0))
    assert val == pytest.approx(1.0, rel=1e-10)


def test_oracle_missing_variant():
    with pytest.raises(E.NoOracle):
        E.oracle_semigroup(G.Hyperbolic(), [0.0, 1.0], 0.5, E.const(1.0))


def test_mc_matches_oracle_with_bias_allowance():
    # |mc - oracle| <= 3 se + C h with C from halving h
    M = G.OrnsteinUhlenbeck(1, 1.0)
    f = E.coord(0)
    oracle = E.oracle_semigroup(M, [1.0], 0.5, f)
    assert oracle == pytest.approx(math.exp(-0.5), rel=1e-10)
    e1 = E.mc_functional(M, [1.0], 0.5, f, "f", 50_000, 1e-2, 21)
    e2 = E.mc_functional(M, [1.0], 0.5, f, "f", 50_000, 5e-3, 21)
    C = 2.0 * abs(e1.mean - e2.mean) / 1e-2
    assert abs(e1.mean - oracle) <= 3 * e1.stderr + C * 1e-2


# ----------------------------------------------------------------------
# symmetric kernels
# ----------------------------------------------------------------------


def test_heat_kernel_symmetry_and_mass():
    Ms = G.Sphere(1, 1.0)
    x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert E.heat_kernel(Ms, x, y, 0.3) == pytest.approx(E.heat_kernel(Ms, y, x, 0.3))
    pts, w = E.mu_quadrature(Ms, 512)
    mass = sum(wi * E.heat_kernel(Ms, x, p, 0.3) for p, wi in zip(pts, w))
    assert mass == pytest.approx(1.0, abs=1e-9)

    Mou = G.OrnsteinUhlenbeck(1, 1.0)
    assert E.heat_kernel(Mou, [0.3], [0.7], 0.5) == pytest.approx(E.heat_kernel(Mou, [0.7], [0.3], 0.5))
    pts, w = E.mu_quadrature(Mou, 180)
    mass = sum(wi * E.heat_kernel(Mou, [0.3], p, 0.5) for p, wi in zip(pts, w))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_heat_kernel_chapman_kolmogorov():
    # p_{t+s}(x, y) = int p_t(x, z) p_s(z, y) mu(dz): ties the series /
    # Mehler kernels to the invariant-measure quadrature
    cases = [
        (G.Sphere(1, 1.0), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 400),
        (G.OrnsteinUhlenbeck(1, 1.0), np.array([0.4]), np.array([-0.2]), 180),
    ]
    for M, x, y, n in cases:
        t, s = 0.15, 0.35
        pts, w = E.mu_quadrature(M, n)
        conv = sum(
            wi * E.heat_kernel(M, x, z, t) * E.heat_kernel(M, z, y, s)
            for z, wi in zip(pts, w)
        )
        direct = E.heat_kernel(M, x, y, t + s)
        assert conv == pytest.approx(direct, rel=1e-7), M.variant


def test_heat_kernel_on_diagonal_at_least_one():
    # spectral expansion: p_{2t}(x, x) = 1 + sum e^{-2 lam t} phi_k^2 >= 1
    for M, x in [
        (G.Sphere(1, 1.0), [1.0, 0.0]),
        (G.Sphere(2, 1.0), [0.0, 0.0, 1.0]),
        (G.OrnsteinUhlenbeck(1, 1.0), [0.8]),
    ]:
        for t in (0.05, 0.2, 1.0, 5.0):
            assert E.heat_kernel(M, x, x, 2 * t) >= 1.0 - 1e-12


def test_mu_ball_values():
    assert E.mu_ball(G.Sphere(1, 1.0), [1.0, 0.0], math.pi) == pytest.approx(1.0)
    assert E.mu_ball(G.Sphere(2, 1.0), [0.0, 0.0, 1.0], math.pi) == pytest.approx(1.0)
    assert E.mu_ball(G.Sphere(2, 1.0), [0.0, 0.0, 1.0], math.pi / 2) == pytest.approx(0.5)
    assert E.mu_ball(G.OrnsteinUhlenbeck(1, 4.0), [0.0], 1.0) == pytest.approx(0.9545, abs=1e-3)


def test_mu_ball_ou_matches_scipy_normal():
    from scipy.stats import norm

    # upper tails of N(0, 1/lam) keep far-out balls accurate on both sides
    for lam in (0.25, 1.0, 4.0, 10.0):
        sd = 1.0 / math.sqrt(lam)
        for y in (-9.0, -3.0, -1.0, -0.2, 0.0, 0.5, 2.0, 9.0):
            for s in (0.05, 0.5, 1.0, 4.0):
                lo, hi = (abs(y) - s) / sd, (abs(y) + s) / sd
                expected = norm.sf(lo) - norm.sf(hi)
                assert E.mu_ball(G.OrnsteinUhlenbeck(1, lam), [y], s) == pytest.approx(expected, rel=1e-11)


def test_series_tail_bound_is_negligible():
    # the 200-term truncation tail at the smallest horizons in use
    for M in (G.Sphere(1, 1.0), G.Sphere(2, 1.0)):
        for t in (0.02, 0.05, 1.0):
            assert E.series_tail_bound(M, t) < 1e-10
    # and it degrades gracefully toward tiny times
    assert E.series_tail_bound(G.Sphere(2, 1.0), 1e-4) > 1.0


def test_kernel_entropy_nonnegative_and_decreasing():
    M = G.Sphere(1, 1.0)
    vals = [E.kernel_entropy(M, [1.0, 0.0], t) for t in (0.05, 0.2, 3.0)]
    assert all(v >= -1e-12 for v in vals)
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.01  # ergodic limit: kernel -> 1, entropy -> 0


# ----------------------------------------------------------------------
# gradient and generator
# ----------------------------------------------------------------------


def test_grad_semigroup_constant_vanishes():
    M = G.Euclidean(1)
    g = E.grad_semigroup(M, [0.0], 0.3, E.const(2.0), 5000, 1e-2, 0)
    assert g.mean <= 3 * max(g.stderr, 1e-12)


def test_grad_semigroup_euclidean_exponential():
    M = G.Euclidean(1)
    g = E.grad_semigroup(M, [0.0], 0.5, E.coord_exp([1.0]), 50_000, 1e-2, 13)
    assert abs(g.mean - math.exp(0.5)) < 3 * g.stderr + 1e-3


def test_grad_semigroup_ou_contraction():
    # grad P_T z = e^{-lam T}, zero variance through common random numbers
    M = G.OrnsteinUhlenbeck(1, 1.0)
    g = E.grad_semigroup(M, [0.0], 1.0, E.coord(0), 5000, 1e-2, 13)
    assert g.mean == pytest.approx((1 - 1e-2) ** 100, rel=1e-6)
    # Euler carries a lam^2 T h / 2 ~ 0.5% relative drift bias
    assert g.mean == pytest.approx(math.exp(-1.0), rel=7e-3)


def test_generator_check_cases():
    # linear, flat: slope -> 0
    res = E.generator_check(G.Euclidean(1), [0.0], E.coord(0))
    assert res["oracle"]
    assert abs(res["slope"]) < 1e-8
    # quadratic, flat: L g = 2
    res = E.generator_check(G.Euclidean(1), [0.0], E.coord_sq(0))
    assert res["lg"] == 2.0
    assert res["rel_error"] < 0.05
    # OU at x = 1: L z^2 = 2 - 2 lam x^2 = 0
    res = E.generator_check(G.OrnsteinUhlenbeck(1, 1.0), [1.0], E.coord_sq(0))
    assert res["lg"] == pytest.approx(0.0)
    assert abs(res["slope"]) < 0.05
    # circle eigenfunction: L cos = -cos
    res = E.generator_check(G.Sphere(1, 1.0), [1.0, 0.0], E.coord(0))
    assert res["lg"] == pytest.approx(-1.0)
    assert res["rel_error"] < 0.05


DEFAULT_S = tuple(0.002 * k for k in range(1, 11))


def test_generator_mc_is_one_marked_run_equal_to_per_s_runs(ensemble_starts):
    # more paths than one block, so several blocks step in lockstep
    M, g, n = G.ExplosiveDrift1D(), E.coord(0), BLOCK_SIZE + 5_000
    res = E.generator_check(M, [1.0], g, n_paths=n, h=2e-3, master_seed=3)
    assert ensemble_starts == [(1.0, 0.02)] and not res["oracle"]
    per_s = [E.mc_functional(M, [1.0], s, g, "f", n, 2e-3, 3).mean for s in DEFAULT_S]
    assert np.array_equal(res["values"], per_s)
    assert np.array_equal(res["s_grid"], DEFAULT_S)


def test_generator_mc_fits_the_reached_times():
    # h = 3e-3 does not divide the grid: the run to 0.02 takes 7 steps of
    # 0.02/7, each s reads its nearest step, and each step is fitted once
    res = E.generator_check(G.ExplosiveDrift1D(), [1.0], E.coord(0), n_paths=2000, h=3e-3, master_seed=4)
    steps = np.arange(1, 8, dtype=float)
    assert np.array_equal(res["s_grid"], steps * (0.02 / 7))
    A = np.stack([res["s_grid"], res["s_grid"] ** 2], axis=-1)
    coef, *_ = np.linalg.lstsq(A, res["values"] - 1.0, rcond=None)
    assert res["slope"] == float(coef[0])
    with pytest.raises(ValueError):
        E.generator_check(G.ExplosiveDrift1D(), [1.0], E.coord(0), n_paths=999)


def test_generator_slope_band_from_per_path_slopes():
    res = E.generator_check(G.ExplosiveDrift1D(), [1.0], E.coord(0), n_paths=20_000, master_seed=5)
    est = res["slope_paths"]
    assert abs(est.mean - res["slope"]) <= 1e-12
    assert 0.0 < est.stderr < 1.0 and est.n == 20_000
    assert E.generator_check(G.Euclidean(1), [0.0], E.coord_sq(0))["slope_paths"] is None
