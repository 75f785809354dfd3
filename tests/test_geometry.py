import math

import numpy as np
import pytest
import yaml

from logharnack import geometry as G

from helpers import (
    curvature_from_deviation,
    hyperbolic_geodesic_ivp,
    hyperbolic_transport_ivp,
)


def catalogue():
    return [
        G.Euclidean(1),
        G.Euclidean(2),
        G.OrnsteinUhlenbeck(1, 1.0),
        G.OrnsteinUhlenbeck(2, 0.5),
        G.Sphere(1, 1.0),
        G.Sphere(2, 1.0),
        G.Sphere(2, 2.0),
        G.Hyperbolic(),
        G.HalfSpace(1),
        G.HalfSpace(2),
        G.EuclideanBall(2, 2.0),
        G.ExplosiveDrift1D(),
    ]


def random_points(M, n, rng, spread=0.8):
    """Random chart points within a safe region of each variant."""
    if M.variant == "sphere":
        x = rng.standard_normal((n, M.chart_dim))
        return M.radius * x / np.linalg.norm(x, axis=-1, keepdims=True)
    if M.variant == "hyperbolic":
        x = spread * rng.standard_normal((n, 2))
        x[:, 1] = np.abs(x[:, 1]) + 0.5
        return x
    if M.variant == "half_space":
        x = spread * rng.standard_normal((n, M.chart_dim))
        x[:, 0] = np.abs(x[:, 0])
        return x
    if M.variant == "euclidean_ball":
        x = spread * rng.standard_normal((n, M.chart_dim))
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return np.where(r > M.radius, x * (0.9 * M.radius / r), x)
    return spread * rng.standard_normal((n, M.chart_dim))


def random_tangents(M, x, rng, scale=0.3):
    v = scale * rng.standard_normal(x.shape)
    if M.variant == "sphere":
        v = v - (np.sum(v * x, axis=-1, keepdims=True) / M.radius**2) * x
    return v


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------


def test_distance_euclidean_3_4_5():
    M = G.Euclidean(2)
    assert M.distance([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)


def test_distance_sphere_quarter_circle():
    M = G.Sphere(2, 1.0)
    north = [0.0, 0.0, 1.0]
    equator = [1.0, 0.0, 0.0]
    assert M.distance(north, equator) == pytest.approx(math.pi / 2, abs=1e-12)


def test_distance_hyperbolic_vertical():
    # arccosh(1 + |dz|^2 / (2 y1 y2)) at (0,1), (0,e) equals 1; cross-check
    # against integrating the geodesic equation from the same data.
    M = G.Hyperbolic()
    assert M.distance([0.0, 1.0], [0.0, math.e]) == pytest.approx(1.0, abs=1e-12)
    end = hyperbolic_geodesic_ivp([0.0, 1.0], [0.0, 1.0], length=1.0)
    assert np.allclose(end, [0.0, math.e], atol=1e-9)


@pytest.mark.parametrize("M", catalogue(), ids=lambda m: repr(m))
def test_distance_symmetry_and_triangle(M):
    rng = np.random.default_rng(101)
    x = random_points(M, 1000, rng)
    y = random_points(M, 1000, rng)
    z = random_points(M, 1000, rng)
    dxy = M.distance(x, y)
    dyx = M.distance(y, x)
    assert np.max(np.abs(dxy - dyx)) < 1e-10
    assert np.all(dxy >= 0)
    assert np.max(np.abs(M.distance(x, x))) < 1e-10
    viol = dxy - (M.distance(x, z) + M.distance(z, y))
    assert np.max(viol) < 1e-10


# ----------------------------------------------------------------------
# exp / log / transport
# ----------------------------------------------------------------------


def test_exp_euclidean_is_translation():
    M = G.Euclidean(2)
    assert np.allclose(M.exp([1.0, 2.0], [0.5, -1.0]), [1.5, 1.0])


def test_exp_sphere_quarter_turn():
    M = G.Sphere(2, 1.0)
    north = np.array([0.0, 0.0, 1.0])
    v = (math.pi / 2) * np.array([1.0, 0.0, 0.0])
    out = M.exp(north, v)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)


def test_exp_hyperbolic_vertical_against_ode():
    M = G.Hyperbolic()
    out = M.exp([0.0, 1.0], [0.0, 1.0])
    assert np.allclose(out, [0.0, math.e], atol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = np.array([rng.normal(), abs(rng.normal()) + 0.5])
        v = 0.7 * rng.standard_normal(2)
        ode = hyperbolic_geodesic_ivp(x, v, length=1.0)
        assert np.allclose(M.exp(x, v * (1.0 / x[1]) * x[1]), M.exp(x, v))
        assert np.allclose(M.exp(x, v), ode, atol=1e-8)


def test_exp_injectivity_guard():
    M = G.Sphere(2, 1.0)
    with pytest.raises(G.InjectivityRadiusExceeded):
        M.exp([0.0, 0.0, 1.0], [3.1, 0.0, 0.0])


@pytest.mark.parametrize("M", catalogue(), ids=lambda m: repr(m))
def test_exp_log_round_trip(M):
    rng = np.random.default_rng(7)
    x = random_points(M, 100, rng)
    v = random_tangents(M, x, rng)
    y = M.exp(x, v)
    ok = np.ones(len(x), dtype=bool)
    if M.has_boundary:
        ok = M.contains(y)
    lg = M.log(x[ok], y[ok])
    assert np.max(np.abs(M.exp(x[ok], lg) - y[ok])) < 1e-10
    assert np.max(np.abs(M.norm(x[ok], lg) - M.distance(x[ok], y[ok]))) < 1e-10
    # distance(x, exp(x, v)) = |v|
    assert np.max(np.abs(M.distance(x, y) - M.norm(x, v))) < 1e-12


def test_log_at_same_point_is_zero():
    M = G.Sphere(2, 1.0)
    p = np.array([0.0, 1.0, 0.0])
    assert np.allclose(M.log(p, p), 0.0)


def test_sphere_round_trip_wide_angles():
    # angles up to the 0.9 pi injectivity margin
    M = G.Sphere(2, 1.0)
    rng = np.random.default_rng(3)
    x = random_points(M, 100, rng)
    u = random_tangents(M, x, rng, scale=1.0)
    u /= M.norm(x, u)[..., None]
    angles = rng.uniform(0.05, 0.9 * math.pi - 1e-6, size=100)
    y = M.exp(x, angles[:, None] * u)
    lg = M.log(x, y)
    assert np.max(np.abs(M.exp(x, lg) - y)) < 1e-10
    assert np.max(np.abs(M.norm(x, lg) - angles)) < 1e-10


@pytest.mark.parametrize("M", catalogue(), ids=lambda m: repr(m))
def test_parallel_transport_isometry(M):
    rng = np.random.default_rng(13)
    x = random_points(M, 100, rng)
    y = M.exp(x, random_tangents(M, x, rng))
    if M.has_boundary:
        keep = M.contains(y)
        x, y = x[keep], y[keep]
    v = random_tangents(M, x, rng, scale=1.0)
    tv = M.transport(x, y, v)
    assert np.max(np.abs(M.norm(y, tv) - M.norm(x, v))) < 1e-10
    # angle with the geodesic direction is preserved
    rho = M.distance(x, y)
    keep = rho > 1e-6
    a0 = M.inner(x[keep], v[keep], M.log(x[keep], y[keep])) / rho[keep]
    a1 = M.inner(y[keep], tv[keep], -M.log(y[keep], x[keep])) / rho[keep]
    assert np.max(np.abs(a0 - a1)) < 1e-9


def test_transport_sphere_great_circle_tangent_stays_tangent():
    M = G.Sphere(2, 1.0)
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([math.cos(1.0), math.sin(1.0), 0.0])
    v = M.log(x, y) / M.distance(x, y)  # unit tangent of the great circle
    tv = M.transport(x, y, v)
    expected = -M.log(y, x) / M.distance(x, y)
    assert np.allclose(tv, expected, atol=1e-12)


def test_transport_hyperbolic_against_ode():
    M = G.Hyperbolic()
    rng = np.random.default_rng(23)
    for _ in range(8):
        x = np.array([rng.normal(), abs(rng.normal()) + 0.6])
        v = 0.6 * rng.standard_normal(2)
        w = rng.standard_normal(2)
        length = float(M.norm(x, v))
        y_ode, w_ode = hyperbolic_transport_ivp(x, v / length, w, length=length)
        y = M.exp(x, v)
        assert np.allclose(y, y_ode, atol=1e-8)
        assert np.allclose(M.transport(x, y, w), w_ode, atol=1e-7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transport_hyperbolic_at_coincident_points_is_the_identity_without_overflow():
    # log(x, x) comes back with rounding residue: divided by a 1e-300
    # floor it overflowed in the branch that coincident rows discard
    M = G.Hyperbolic()
    x = np.array([[2.625, 2.725], [0.3, 2.0]])
    y = np.array([[2.625, 2.725], [0.1, 1.5]])
    v = np.array([[2.625, 2.625], [0.5, 0.2]])
    tv = M.transport(x, y, v)
    assert np.array_equal(tv[0], v[0])
    assert np.array_equal(tv[1], M.transport(x[1], y[1], v[1]))


# ----------------------------------------------------------------------
# grad_distance
# ----------------------------------------------------------------------


def test_grad_distance_euclidean_radial():
    M = G.Euclidean(2)
    g = M.grad_distance([0.0, 0.0], [1.0, 0.0])
    assert np.allclose(g, [1.0, 0.0])


@pytest.mark.parametrize("M", catalogue(), ids=lambda m: repr(m))
def test_grad_distance_unit_norm(M):
    rng = np.random.default_rng(31)
    x = random_points(M, 50, rng)
    y = M.exp(x, random_tangents(M, x, rng))
    keep = M.distance(x, y) > 1e-8
    if M.has_boundary:
        keep &= M.contains(y)
    g = M.grad_distance(x[keep], y[keep])
    assert np.max(np.abs(M.norm(y[keep], g) - 1.0)) < 1e-10


def test_grad_distance_directional_derivative():
    h = 1e-5
    for M in (G.Euclidean(2), G.Sphere(2, 1.0), G.Hyperbolic()):
        rng = np.random.default_rng(37)
        x = random_points(M, 20, rng)
        y = M.exp(x, random_tangents(M, x, rng, scale=0.4))
        keep = M.distance(x, y) > 0.1
        x, y = x[keep], y[keep]
        u = random_tangents(M, y, rng, scale=1.0)
        u = u / M.norm(y, u)[..., None]
        inner = M.inner(y, M.grad_distance(x, y), u)
        # forward difference carries an O(h / rho) error
        fd = (M.distance(x, M.exp(y, h * u)) - M.distance(x, y)) / h
        assert np.max(np.abs(fd - inner)) < 20 * h
        cd = (M.distance(x, M.exp(y, h * u)) - M.distance(x, M.exp(y, -h * u))) / (2 * h)
        assert np.max(np.abs(cd - inner)) < 1e-6


def test_grad_distance_coincident_points_raises():
    M = G.Euclidean(2)
    with pytest.raises(G.CoincidentPoints):
        M.grad_distance([1.0, 1.0], [1.0, 1.0])


# ----------------------------------------------------------------------
# curvature with drift
# ----------------------------------------------------------------------


def test_ricci_z_euclidean_zero():
    M = G.Euclidean(2)
    assert M.ricci_z([0.3, 0.4], None) == pytest.approx(0.0)


def test_ricci_z_ou_equals_lambda():
    # grad Z = -lam Id makes Ric_Z = lam for every unit direction
    M = G.OrnsteinUhlenbeck(2, 1.0)
    assert float(M.ricci_z([1.0, -2.0], None)) == pytest.approx(1.0)


def test_ricci_z_explosive():
    M = G.ExplosiveDrift1D()
    assert float(M.ricci_z([2.0], None)) == pytest.approx(-12.0)


def test_ricci_matches_geodesic_deviation():
    # independent Jacobi-field oracle on the curved surfaces
    cases = [
        (G.Sphere(2, 1.0), 1.0),
        (G.Sphere(2, 2.0), 0.25),
        (G.Hyperbolic(), -1.0),
    ]
    rng = np.random.default_rng(41)
    for M, expected in cases:
        x = random_points(M, 1, rng)[0]
        u = random_tangents(M, x[None, :], rng, scale=1.0)[0]
        u = u / float(M.norm(x, u))
        # orthonormal partner
        w = random_tangents(M, x[None, :], rng, scale=1.0)[0]
        w = w - float(M.inner(x, w, u)) * u
        w = w / float(M.norm(x, w))
        k_est = curvature_from_deviation(M, x, u, w)
        assert k_est == pytest.approx(expected, abs=1e-4)
        assert float(M.ricci_z(x, u)) == pytest.approx(expected, abs=1e-12)


# ----------------------------------------------------------------------
# boundary data
# ----------------------------------------------------------------------


def test_boundary_half_space():
    M = G.HalfSpace(2)
    n, ii = M.boundary_data([0.0, 3.0], [0.0, 1.0])
    assert np.allclose(n, [1.0, 0.0])
    assert ii == pytest.approx(0.0)


def test_boundary_ball_second_fundamental_form():
    M = G.EuclideanBall(2, 2.0)
    x = np.array([2.0, 0.0])
    u = np.array([0.0, 1.0])
    n, ii = M.boundary_data(x, u)
    assert np.allclose(n, [-1.0, 0.0])
    assert ii == pytest.approx(0.5)  # |u|^2 / R


def test_boundary_convexity():
    # both boundary variants have II >= 0
    rng = np.random.default_rng(3)
    M = G.HalfSpace(2)
    for _ in range(20):
        u = np.array([0.0, rng.normal()])
        _, ii = M.boundary_data([0.0, rng.normal()], u)
        assert ii >= 0
    M = G.EuclideanBall(2, 1.5)
    for _ in range(20):
        theta = rng.uniform(0, 2 * math.pi)
        x = 1.5 * np.array([math.cos(theta), math.sin(theta)])
        u = rng.normal() * np.array([-math.sin(theta), math.cos(theta)])
        _, ii = M.boundary_data(x, u)
        assert ii >= 0


def test_boundary_errors():
    with pytest.raises(G.NoBoundary):
        G.Euclidean(2).boundary_data([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(G.NotOnBoundary):
        G.HalfSpace(2).boundary_data([0.5, 0.0], [0.0, 1.0])


# ----------------------------------------------------------------------
# config round trip
# ----------------------------------------------------------------------


@pytest.mark.parametrize("M", catalogue() + [G.Euclidean(2, drift_vec=[1.0, -0.5])], ids=lambda m: repr(m))
def test_model_config_round_trip(M):
    # through YAML, as a config file carries the record
    M2 = G.model_from_config(yaml.safe_load(yaml.safe_dump(M.to_config())))
    assert M2.to_config() == M.to_config()
    assert M2.variant == M.variant
    assert M2.dim == M.dim


def test_model_from_config_unknown_variant():
    with pytest.raises(G.GeometryError):
        G.model_from_config({"variant": "torus"})


# ----------------------------------------------------------------------
# chart-axis reductions: explicit component sums, bit for bit numpy's
# ----------------------------------------------------------------------


def _reduction_operands(width, layout, rng):
    """Two (4, 500, width) operands with a leading start axis, ±0, ±inf,
    NaN and magnitudes up to 1e±200, in the given memory layout."""
    shape = (4, 500, width)
    u, v = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-200, 200, shape) for _ in range(2))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e-200])
    for a in (u, v):
        a.reshape(-1)[rng.choice(a.size, 300, replace=False)] = rng.choice(special, 300)
    # rows whose products are all -0.0 (numpy's sum is +0.0) or all +0.0
    u[0, 0], v[0, 0], u[0, 1], v[0, 1] = -0.0, 1.0, -0.0, -0.0
    if layout == "F":
        return np.asfortranarray(u), np.asfortranarray(v)
    if layout == "strided":
        return np.repeat(u, 2, axis=-1)[..., ::2], np.repeat(v, 2, axis=-1)[..., ::2]
    return u, v


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("width", [1, 2, 3])
def test_chart_axis_sums_equal_numpy_reduce_bitwise(width, layout):
    # the sha256 pins of paths rest on this: if numpy ever adds a short
    # axis in another order, this names the cause
    u, v = _reduction_operands(width, layout, np.random.default_rng(width))
    assert u.flags.c_contiguous == (layout == "C")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for a, b in ((u, v), (u[0], v[0]), (u[0, 0], v[0, 0])):
            assert np.array_equal(G._dot(a, b), np.sum(a * b, axis=-1), equal_nan=True)
            assert np.array_equal(G._norm(a), np.linalg.norm(a, axis=-1), equal_nan=True)
            assert np.array_equal(np.signbit(G._dot(a, b)), np.signbit(np.sum(a * b, axis=-1)))


def test_path_and_pair_steps_take_no_linalg_norm(monkeypatch):
    # the per-step kernels use the explicit sums; np.linalg.norm costs a
    # strided reduce per call
    from logharnack import coupling as C

    S = G.Sphere(2)
    y = np.array([0.0, 0.0, 1.0])
    x = S.exp(y, 0.3 * S.frame(y)[0])
    cfg = C.standard_coupling_config(S, x, y, T=0.5, h=1e-3)
    n = 20
    X, Y = np.tile(x, (n, 1)), np.tile(y, (n, 1))  # phi(Y) = phi(y) = 1
    pairs = C._Pairs(X, Y, S.distance(X, Y), np.ones(n), np.zeros(n), np.zeros(n, dtype=bool))
    rng = np.random.default_rng(0)
    models = [G.Euclidean(2), G.EuclideanBall(2, 1.0), S]
    starts = [np.zeros((n, 2)), np.full((n, 2), 0.5), np.tile(y, (n, 1))]

    def boom(*a, **k):
        raise AssertionError("np.linalg.norm on a per-step path")

    monkeypatch.setattr(G.np.linalg, "norm", boom)
    C._coupled_step(S, cfg, cfg.h_eff, 0.0, pairs, rng.standard_normal((n, S.noise_width)))
    for M, x0 in zip(models, starts):
        M.step(x0, 0.01, rng.standard_normal((n, M.noise_width)), np.ones(n, dtype=bool))
