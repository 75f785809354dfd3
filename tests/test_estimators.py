import hashlib
import math

import numpy as np
import pytest

from logharnack import estimators as E
from logharnack import geometry as G
from logharnack import verify as V
from logharnack.rng import BLOCK_SIZE
from logharnack.stats import estimate_from_values


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
    f2 = E.test_function_from_config(f.to_config(), 2)
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
    reads = [(0, "log f"), (1, "f"), (1, "1"), (2, "f")]
    ell, fx, ax, f2 = E.mc_functional_values(M, starts, 0.3, f, reads, 2000, 1e-2, 5)

    def alone(start, *modes):
        return E.mc_functional_values(M, [start], 0.3, f, [(0, m) for m in modes], 2000, 1e-2, 5)

    assert np.array_equal(ell, alone([0.2], "log f")[0])
    for got, want in zip((fx, ax), alone([0.0], "f", "1")):
        assert np.array_equal(got, want)
    assert np.array_equal(f2, alone([0.4], "f")[0])
    every = E.mc_functional_values(M, starts, 0.3, f, [(i, "f") for i in range(3)], 2000, 1e-2, 5)
    assert len(every) == 3 and np.array_equal(every[1], fx)
    for bad_starts, reads in (([0.0], [(0, "f")]), (starts, [(3, "f")]), (starts, [(0, "g")]),
                              (starts, [(0, "f2")])):
        with pytest.raises(ValueError):
            E.mc_functional_values(M, bad_starts, 0.3, f, reads, 2000, 1e-2, 5)
    with pytest.raises(ValueError):
        E.mc_functional(M, starts, 0.3, f, "f", 2000, 1e-2, 5)


_EULER_EXACT = [G.Euclidean(1), G.Euclidean(2, drift_vec=[0.5, -1.0]), G.HalfSpace(1), G.HalfSpace(2)]


@pytest.mark.parametrize("M", _EULER_EXACT, ids=["euclidean-1", "euclidean-2-drift", "half_space-1",
                                                 "half_space-2"])
def test_exact_step_variants_read_X_T_after_one_step(M, ensemble_steps):
    # the Euler step is exact in law there, so h does not enter a read of X_T
    assert M.euler_exact
    starts = np.array([[0.05] + [0.1] * (M.chart_dim - 1), [0.3] * M.chart_dim])
    f = E.one_plus_bump([0.2] * M.chart_dim, 0.6)
    reads = [(0, "f"), (0, "log f"), (1, "f")]
    fine = E.mc_functional_values(M, starts, 0.5, f, reads, 3000, 1e-2, 7)
    exact = E.mc_functional_values(M, starts, 0.5, f, reads, 3000, 0.5, 7)
    for a, b in zip(fine, exact):
        assert a.tobytes() == b.tobytes()
    assert ensemble_steps == [(0.5, 1), (0.5, 1)]


def test_one_step_half_line_ensemble_matches_oracle():
    # reflected Brownian motion at T is |x + sqrt(2T) xi|: one step, near
    # the wall, with a non-even f
    M, x, T, f = G.HalfSpace(1), [0.05], 0.5, E.one_plus_bump([0.4], 0.7, b=0.5)
    est = E.mc_functional(M, x, T, f, "f", 100_000, T, 11)
    assert abs(est.mean - E.oracle_semigroup(M, x, T, f)) < 3 * est.stderr


def test_jensen_inequality_mc():
    # P_T log f <= log P_T f on conservative variants (CRN pairing)
    M = G.Euclidean(1)
    f = E.one_plus_bump([0.5], 0.8, b=0.8)
    a, b = E.mc_functional_values(M, [[0.0]], 0.5, f, [(0, "log f"), (0, "f")], 20_000, 1e-2, 3)
    assert np.array_equal(a, E.mc_functional_values(M, [[0.0]], 0.5, f, [(0, "log f")], 20_000, 1e-2, 3)[0])
    lhs = float(np.mean(a))
    rhs = math.log(float(np.mean(b)))
    se = np.std(a - b / float(np.mean(b)), ddof=1) / math.sqrt(len(a))
    assert lhs <= rhs + 3 * se


def test_variance_nonnegative_mc():
    M = G.Sphere(2, 1.0)
    f = E.coord(2)
    [vals] = E.mc_functional_values(M, [[0.0, 0.0, 1.0]], 0.3, f, [(0, "f")], 10_000, 1e-2, 4)
    v2, v1 = estimate_from_values(vals**2), estimate_from_values(vals)
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


def _half_line_reference(x, T, f):
    """P_T f(x) on the reflecting half-line by 4,000 panels of 40-node
    Gauss-Legendre on [max(0, x - 12 s), x + 12 s] against the Neumann
    kernel phi_s(z - x) + phi_s(z + x), s^2 = 2T."""
    s = math.sqrt(2.0 * T)
    u, w = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(max(0.0, x - 12.0 * s), x + 12.0 * s, 4001)
    half = np.diff(edges)[:, None] / 2.0
    z = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * u).ravel()
    kern = (np.exp(-((z - x) ** 2) / (2 * s * s)) + np.exp(-((z + x) ** 2) / (2 * s * s))) / (s * math.sqrt(2 * math.pi))
    return float(np.sum((half * w).ravel() * kern * f(z[:, None])))


@pytest.mark.parametrize("x, T", [(0.1, 0.5), (0.41, 0.5), (0.71, 0.5), (0.0, 5.0), (3.0, 0.05), (30.0, 1e-3)])
def test_oracle_half_space_against_composite_rule(x, T):
    # a non-even f: folding it at the wall leaves a kink there, on which
    # the Gauss-Hermite rule was off by up to 8e-4
    f = E.one_plus_bump([0.4068], 0.7, b=0.5)
    assert abs(E.oracle_semigroup(G.HalfSpace(1), [x], T, f) - _half_line_reference(x, T, f)) < 1e-12


def test_oracle_refuses_an_unconverged_quadrature():
    # |z| has a kink: Gauss-Hermite orders 96 and 180 differ by 1.6e-3
    with pytest.raises(E.OracleNotConverged, match="euclidean oracle quadrature did not converge"):
        E.oracle_semigroup(G.Euclidean(1), [0.1], 0.5, lambda z: np.abs(z[..., 0]))


def test_catalogue_bumps_expose_their_width():
    assert E.gauss_bump([0.0], 0.3).width == 0.3
    assert E.one_plus_bump([0.0, 1.0], 0.02).width == 0.02
    assert E.log_bump([0.5], 1.5).width == 1.5
    assert all(f.width is None for f in (E.const(1.0), E.coord(0), E.coord_sq(0), E.coord_exp([1.0])))


def test_log_f_is_closed_form_for_a_gauss_bump_only():
    # 60 widths out f underflows to 0; log f = log amp - d^2 / (2 w^2)
    z = np.array([[0.0, 6.0], [0.3, 0.4]])
    g = E.gauss_bump([0.0, 0.0], 0.1, amp=2.0)
    assert g(z)[0] == 0.0
    assert g.log(z) == pytest.approx(math.log(2.0) - np.array([1800.0, 12.5]), rel=1e-14)
    assert np.array_equal(E.Derived(g, np.log)(z), g.log(z))
    for f in (E.const(2.0), E.coord_exp([1.0, -0.5]), E.one_plus_bump([0.1, 0.0], 0.3), E.log_bump([0.0, 0.2], 0.8)):
        assert np.array_equal(f.log(z), np.log(f(z)))
        assert np.array_equal(E.Derived(f, np.log)(z), np.log(f(z)))


def test_oracle_refuses_a_bump_narrower_than_its_node_gap():
    # sigma = 10: every Gauss-Hermite order leaves a gap of about 3 around
    # the centre, so all of them read 1.0 to 1e-15 and agree; the true value is
    # 1 + b w / sqrt(w^2 + 2T) exp(-x^2 / (2 (w^2 + 2T))) = 1 + 5.0e-4
    f = E.one_plus_bump([0.0], 0.02, b=0.25)
    true = 1.0 + 0.25 * 0.02 / math.sqrt(0.02**2 + 100.0) * math.exp(-0.01 / (2.0 * (0.02**2 + 100.0)))
    assert true == pytest.approx(1.0 + 5.0e-4, rel=1e-6)
    for n in E._GH_ORDERS:
        assert abs(E._gauss_hermite_expectation(f, np.array([0.1]), 10.0, n) - 1.0) < 1e-15
    with pytest.raises(E.OracleNotConverged, match="node gap .* exceeds its width 0.02"):
        E.oracle_semigroup(G.Euclidean(1), [0.1], 50.0, f)
    # the half-space window rule: orders 128 and 256 agree on 1 + 1e-14,
    # while the bump adds about 1e-5
    with pytest.raises(E.OracleNotConverged, match="node gap .* exceeds its width 0.002"):
        E.oracle_semigroup(G.HalfSpace(1), [0.1], 0.5, E.one_plus_bump([3.0], 0.002, b=0.25))
    # a bump the nodes resolve keeps its value, to 1e-12 of the closed form
    g = E.one_plus_bump([0.0], 0.7, b=0.25)
    s2 = 0.7**2 + 1.0
    assert E.oracle_semigroup(G.Euclidean(1), [0.1], 0.5, g) == pytest.approx(
        1.0 + 0.25 * 0.7 / math.sqrt(s2) * math.exp(-0.01 / (2.0 * s2)), rel=1e-12)


@pytest.mark.parametrize("check", [V.check_log_harnack, V.check_log_harnack_local])
def test_oracle_refuses_the_log_of_a_narrow_bump(check):
    # the log f side of the oracle log-Harnack checks at y = 0: every order
    # reads 0 to 1e-15 between the nodes around the width-0.02 bump, while
    # the true P_T log f(0) is 0.0086; it is refused like f itself
    f = E.one_plus_bump([0.0], 0.02, b=0.5)
    with pytest.raises(E.OracleNotConverged, match="node gap .* exceeds its width 0.02"):
        E.oracle_semigroup(G.Euclidean(1), [0.0], 0.5, f)
    kw = {"domain_radius": 9.0} if check is V.check_log_harnack else {}
    with pytest.raises(E.OracleNotConverged, match="node gap .* exceeds its width 0.02"):
        check(G.Euclidean(1), [8.0], [0.0], 0.5, f, use_oracle=True, **kw)


@pytest.mark.parametrize("op", [np.log, np.square], ids=["log f", "f^2"])
def test_oracle_refuses_a_derived_integrand_exactly_when_it_refuses_f(op):
    M = G.Euclidean(1)
    narrow, wide = E.one_plus_bump([0.0], 0.02, b=0.5), E.one_plus_bump([0.0], 0.7, b=0.5)
    with pytest.raises(E.OracleNotConverged, match="exceeds its width 0.02"):
        E.oracle_semigroup(M, [0.0], 0.5, E.Derived(narrow, op))
    assert E.oracle_semigroup(M, [0.0], 0.5, E.Derived(wide, op)) == E.oracle_semigroup(
        M, [0.0], 0.5, lambda z: op(wide(z)))


def test_oracle_keeps_a_narrow_bump_the_rule_barely_weighs():
    # at sigma = 1 a width-0.3 bump at 8 sits in a node gap of 0.349 at
    # order 96, but the rule weighs the two nodes around it 1.7e-14, below
    # the 1e-10 tolerance, so the agreed value stands: 1 + 2.55e-14
    f = E.one_plus_bump([8.0], 0.3, b=0.5)
    [(nodes, weights)] = E._gh_axes(np.array([0.0]), 1.0, 96)
    k = int(np.searchsorted(nodes, 8.0))
    assert nodes[k] - nodes[k - 1] > 0.3 and weights[k - 1] + weights[k] < 1e-13
    s2 = 0.3**2 + 1.0
    true = 1.0 + 0.5 * 0.3 / math.sqrt(s2) * math.exp(-64.0 / (2.0 * s2))
    assert E.oracle_semigroup(G.Euclidean(1), [0.0], 0.5, f) == pytest.approx(true, rel=1e-12)


# sha256 of the oracle_semigroup values at every (x, T, f) of a case, in
# that nesting order, followed by the kernel_entropy values at every
# (x, T) (the plane has no symmetric kernel), recorded before the
# quadrature rules were built once per process; sphere-2 re-pinned when
# its entropy became the u rule alone, with its oracle values unchanged
PINNED_ORACLES = {
    "sphere-1": (G.Sphere(1, 1.0), [[0.6, 0.8], [1.0, 0.0]], (0.05, 0.5),
                 [E.coord(0), E.one_plus_bump([1.0, 0.0], 0.9, b=0.5)],
                 "b48c197b515835cc5147105c516d0910c4360976b9ccde372a4729f387b6ec0e"),
    "sphere-2": (G.Sphere(2, 2.0), [[0.0, 0.0, 2.0], [1.2, 0.96, 1.28]], (0.1, 0.5),
                 [E.coord(2), E.one_plus_bump([0.0, 0.0, 2.0], 1.0, b=0.5)],
                 "7002ab84c6fcacf98b024590f3cf990fc78055910a4c09c31f76ff242c0ce0cf"),
    "ou": (G.OrnsteinUhlenbeck(1, 1.0), [[0.3], [-0.7]], (0.05, 0.5),
           [E.coord_sq(0), E.coord_exp([0.5])],
           "dcd7b7b2be39c64575a7f6678c906da773defef55cde1ce6c9749fb565b22bb3"),
    "euclidean": (G.Euclidean(2), [[0.0, 0.0], [0.1, -0.2]], (0.25, 1.0),
                  [E.coord_exp([1.0, -0.5]), E.gauss_bump([0.0, 0.0], 0.8)],
                  "d307aacac5af0360c392167c7c6510cb5c174fbff310d174510da5a11caaa84c"),
}


@pytest.mark.parametrize("name", sorted(PINNED_ORACLES))
def test_oracle_values_match_pinned_digest(name):
    M, xs, Ts, fs, digest = PINNED_ORACLES[name]
    vals = [E.oracle_semigroup(M, x, T, f) for x in xs for T in Ts for f in fs]
    if not isinstance(M, G.Euclidean):
        vals += [E.kernel_entropy(M, x, T) for x in xs for T in Ts]
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == digest


def test_cached_quadrature_arrays_are_read_only():
    E.oracle_semigroup(G.Sphere(2, 1.0), [0.0, 0.0, 1.0], 0.3, E.coord(2))
    for arr in (*E._rule("legendre", 240), *E._rule("hermite", 48), *E._sphere2_u_rule(1.0, 0.3)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


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


@pytest.mark.parametrize("M", [G.Sphere(1, 1.0), G.Sphere(2, 2.0), G.OrnsteinUhlenbeck(1, 1.0)], ids=repr)
def test_heat_kernel_on_point_arrays(M):
    # an array of points gets each point's own density, bit for bit
    rng = np.random.default_rng(11)
    if M.variant == "sphere":
        z = rng.standard_normal((41, M.chart_dim))
        z *= M.radius / np.linalg.norm(z, axis=-1, keepdims=True)
    else:
        z = rng.uniform(-3.0, 3.0, (41, 1))
    for t in (0.02, 0.3, 2.0):
        vals = E.heat_kernel(M, z[0], z, t)
        assert vals.shape == (41,)
        assert np.array_equal(vals, [E.heat_kernel(M, z[0], p, t) for p in z])
        assert np.array_equal(E.heat_kernel(M, z[0], z.reshape(41, 1, -1), t), vals[:, None])


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


def _dense_sphere_entropy(M, y, t):
    """int p log p dmu on the circle or the 2-sphere by composite
    Gauss-Legendre in the angle theta from y (400 panels of 32 nodes);
    mu(dtheta) is dtheta / pi on the circle, sin(theta) dtheta / 2 on the
    2-sphere."""
    u, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(0.0, math.pi, 401)
    half = np.diff(edges)[:, None] / 2.0
    theta = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * u).ravel()
    weights = (half * w).ravel() * (np.sin(theta) / 2.0 if M.dim == 2 else 1.0 / math.pi)
    z = np.cos(theta)[:, None] * y + M.radius * np.sin(theta)[:, None] * M.frame(y)[0]
    p = np.maximum(E.heat_kernel(M, y, z, t), 1e-300)
    return float(np.sum(weights * p * np.log(p)))


@pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
def test_sphere2_entropy_is_the_u_rule_at_every_y(t):
    # the u rule alone against P_t(log p_t(y, .))(y) over all 57,600 nodes
    # of the oracle's (u, psi) grid, at the pole and at two rotated y; it
    # is the same float at each
    M = G.Sphere(2, 2.0)
    vals = []
    for y in ([0.0, 0.0, 2.0], [1.2, 0.0, 1.6], [0.96, 1.2, -1.28]):
        full = E.oracle_semigroup(M, y, t, lambda z: np.log(np.maximum(E.heat_kernel(M, y, z, t), 1e-300)))
        vals.append(E.kernel_entropy(M, y, t))
        assert vals[-1] == pytest.approx(full, rel=1e-14)
    assert vals[0] == vals[1] == vals[2]


@pytest.mark.parametrize("t", [0.02, 0.05, 0.2, 1.0])
def test_kernel_entropy_against_independent_values(t):
    # OU: the entropy of p_t(y, .) against mu is KL(N(e^{-lam t} y, v_t) || N(0, 1/lam))
    M = G.OrnsteinUhlenbeck(1, 1.0)
    for y in (0.0, 0.7):
        m, v0 = math.exp(-M.lam * t), 1.0 / M.lam
        v = (1.0 - m**2) / M.lam
        kl = 0.5 * (v / v0 + (m * y) ** 2 / v0 - 1.0 + math.log(v0 / v))
        assert E.kernel_entropy(M, [y], t) == pytest.approx(kl, rel=1e-11)
    for M, y in [(G.Sphere(1, 1.0), [0.6, 0.8]), (G.Sphere(1, 2.0), [0.0, 2.0]),
                 (G.Sphere(2, 1.0), [0.0, 0.0, 1.0]), (G.Sphere(2, 2.0), [1.2, 0.0, 1.6])]:
        y = np.array(y)
        assert E.kernel_entropy(M, y, t) == pytest.approx(_dense_sphere_entropy(M, y, t), rel=1e-11), M


# ----------------------------------------------------------------------
# gradient and generator
# ----------------------------------------------------------------------


def _mc_gradient(M, x, T, f, n_paths, h, seed):
    """|grad P_T f|(x) and its standard error, read off the Monte Carlo
    lhs |grad P_T f|^2 of check_gradient, whose standard error is
    2 |grad P_T f| se."""
    rep = V.check_gradient(M, x, T, f, n_paths=n_paths, h=h, master_seed=seed)
    g = math.sqrt(rep.lhs)
    return g, (rep.lhs_se / (2.0 * g) if g > 0 else 0.0)


def test_grad_semigroup_constant_vanishes():
    M = G.Euclidean(1)
    g, se = _mc_gradient(M, [0.0], 0.3, E.const(2.0), 5000, 1e-2, 0)
    assert g <= 3 * max(se, 1e-12)


def test_grad_semigroup_euclidean_exponential():
    M = G.Euclidean(1)
    g, se = _mc_gradient(M, [0.0], 0.5, E.coord_exp([1.0]), 50_000, 1e-2, 13)
    assert abs(g - math.exp(0.5)) < 3 * se + 1e-3


def test_grad_semigroup_ou_contraction():
    # grad P_T z = e^{-lam T}, zero variance through common random numbers
    M = G.OrnsteinUhlenbeck(1, 1.0)
    g, _ = _mc_gradient(M, [0.0], 1.0, E.coord(0), 5000, 1e-2, 13)
    assert g == pytest.approx((1 - 1e-2) ** 100, rel=1e-6)
    # Euler carries a lam^2 T h / 2 ~ 0.5% relative drift bias
    assert g == pytest.approx(math.exp(-1.0), rel=7e-3)


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


def test_hyperbolic_generator_is_the_conformal_laplacian():
    # Laplace-Beltrami on the half-plane is x_2^2 (d_1^2 + d_2^2): for
    # g = x_1^2, L g = 2 x_2^2
    M = G.Hyperbolic()
    for x2 in (2.0, 0.5):
        assert E.coord_sq(0).generator(M, np.array([[0.0, x2]]))[0] == 2.0 * x2**2
    res = E.generator_check(M, [0.0, 2.0], E.coord_sq(0), n_paths=200_000, h=1e-3, master_seed=3)
    assert not res["oracle"] and res["lg"] == 8.0
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
    # the per-step means and the per-path slope, pinned bit for bit
    digest = hashlib.sha256()
    for a in (res["values"], [res["slope_paths"].mean, res["slope_paths"].stderr]):
        digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == "0ba44c41c53ab76fae1e2958fc157d942e7918e9eda208a3b571bf0036a08b1c"
    with pytest.raises(ValueError):
        E.generator_check(G.ExplosiveDrift1D(), [1.0], E.coord(0), n_paths=999)


def test_generator_slope_band_from_per_path_slopes():
    res = E.generator_check(G.ExplosiveDrift1D(), [1.0], E.coord(0), n_paths=20_000, master_seed=5)
    est = res["slope_paths"]
    assert abs(est.mean - res["slope"]) <= 1e-12
    assert 0.0 < est.stderr < 1.0 and est.n == 20_000
    assert E.generator_check(G.Euclidean(1), [0.0], E.coord_sq(0))["slope_paths"] is None
