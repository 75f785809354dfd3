import math

import numpy as np
import pytest

from logharnack import geometry as G
from logharnack import local_bounds as LB

from helpers import dense_scan_sup_1d


# ----------------------------------------------------------------------
# rate expressions
# ----------------------------------------------------------------------


def test_harnack_rate_zero_limit():
    assert LB.harnack_rate(0.0, 2.0) == pytest.approx(0.25)
    # continuity through the K = 0 switch
    assert LB.harnack_rate(1e-9, 2.0) == pytest.approx(0.25, rel=1e-6)
    assert LB.harnack_rate(-1e-9, 2.0) == pytest.approx(0.25, rel=1e-6)


def test_harnack_rate_positive_for_negative_K():
    for K in (-3.0, -0.5, 0.5, 3.0):
        assert LB.harnack_rate(K, 1.0) > 0


def test_entropy_gain_limit():
    assert LB.entropy_gain(0.0, 0.7) == pytest.approx(0.7)
    assert LB.entropy_gain(1.0, 1.0) == pytest.approx((math.e**2 - 1) / 2)
    assert LB.entropy_gain(-1.0, 1.0) == pytest.approx((1 - math.e**-2) / 2)


# ----------------------------------------------------------------------
# pointwise K and domain suprema
# ----------------------------------------------------------------------


def test_pointwise_K_values():
    def K(M, x):
        return float(M.pointwise_K(np.array(x)))

    assert K(G.Euclidean(2), [0.0, 0.0]) == 0.0
    assert K(G.Hyperbolic(), [0.0, 1.0]) == 1.0
    assert K(G.OrnsteinUhlenbeck(1, 1.0), [2.0]) == -1.0
    assert K(G.Sphere(2, 1.0), [0.0, 0.0, 1.0]) == -1.0
    assert K(G.ExplosiveDrift1D(), [2.0]) == pytest.approx(12.0)


def test_K_of_domain_constant_curvature():
    M = G.Sphere(2, 1.0)
    D = LB.DomainSpec(np.array([0.0, 0.0, 1.0]), 0.7)
    assert LB.K_of_domain(M, D) == pytest.approx(-1.0)


def test_K_of_domain_explosive():
    M = G.ExplosiveDrift1D()
    D = LB.DomainSpec(np.array([0.0]), 2.0)
    assert LB.K_of_domain(M, D) == pytest.approx(12.0)
    # sampled route agrees with the closed form
    sampled = LB.domain_supremum(M, D, M.pointwise_K)
    assert sampled.value == pytest.approx(12.0, abs=1e-2)


def test_K_of_domain_euclidean_zero():
    assert LB.K_of_domain(G.Euclidean(1), LB.DomainSpec(np.array([0.0]), 1.0)) == 0.0


def test_enlarged_K_monotone_and_value():
    M = G.ExplosiveDrift1D()
    D = LB.DomainSpec(np.array([0.0]), 1.0)
    base = LB.K_of_domain(M, D)
    val = LB.enlarged_K(M, [0.0], [1.0], D)
    assert val == pytest.approx(12.0)  # sup of 3 x^2 over (-2, 2)
    assert val >= base
    # constant-curvature model: enlargement changes nothing
    Ms = G.Sphere(2, 1.0)
    Ds = LB.DomainSpec(np.array([0.0, 0.0, 1.0]), 0.5)
    y = Ms.exp(np.array([0.0, 0.0, 1.0]), 0.3 * Ms.frame(np.array([0.0, 0.0, 1.0]))[0])
    assert LB.enlarged_K(Ms, [0.0, 0.0, 1.0], y, Ds) == pytest.approx(-1.0)


def test_domain_spec_validation():
    with pytest.raises(ValueError):
        LB.DomainSpec(np.array([0.0]), -1.0)
    with pytest.raises(ValueError):
        LB.DomainSpec(np.array([0.0]), float("nan"))
    with pytest.raises(ValueError):
        LB.DomainSpec(np.array([0.0]), 1.0, sample_resolution=10)
    with pytest.raises(G.GeometryError):
        LB.DomainSpec(np.array([0.0, 0.0, 1.0]), 4.0).validate(G.Sphere(2, 1.0))


# ----------------------------------------------------------------------
# c_D
# ----------------------------------------------------------------------


def parabola_reference():
    D = LB.DomainSpec(np.array([0.0]), 1.0)
    return LB.ReferenceFunction(
        domain=D,
        phi=lambda z: 1.0 - np.asarray(z)[..., 0] ** 2,
        grad_norm_sq=lambda z: 4.0 * np.asarray(z)[..., 0] ** 2,
        l_phi=lambda z: np.full(np.asarray(z).shape[:-1], -2.0),
        label="1-z^2",
    )


def test_c_D_parabola_against_dense_scan():
    # oracle first: dense 1-d scan of 5 |phi'|^2 - phi L phi on [-1, 1]
    def objective(z):
        x = np.asarray(z)[..., 0]
        return 5.0 * 4.0 * x**2 - (1.0 - x**2) * (-2.0)

    oracle = dense_scan_sup_1d(objective, -1.0, 1.0)
    assert oracle == pytest.approx(20.0, abs=1e-10)
    M = G.Euclidean(1)
    val = LB.c_D(M, parabola_reference())
    assert val == pytest.approx(oracle, abs=1e-4)


def test_c_D_scaling_quadratic():
    M = G.Euclidean(1)
    base = LB.c_D(M, parabola_reference())
    scaled = LB.c_D(M, parabola_reference().scaled(2.0))
    assert scaled == pytest.approx(4.0 * base, rel=1e-9)


def test_c_D_nonnegative_on_cosine_references():
    rng = np.random.default_rng(11)
    cases = [
        (G.Euclidean(1), np.array([rng.normal()])),
        (G.Euclidean(2), rng.normal(size=2)),
        (G.OrnsteinUhlenbeck(1, 1.0), np.array([0.5])),
        (G.Sphere(2, 1.0), np.array([0.0, 0.0, 1.0])),
        (G.Hyperbolic(), np.array([0.2, 1.1])),
        (G.ExplosiveDrift1D(), np.array([0.3])),
    ]
    for M, y in cases:
        ref = LB.cosine_reference(M, y)
        assert LB.c_D(M, ref) >= 0.0


def test_c_D_nonnegative_on_randomized_domains():
    # radial bump references phi = (1 - (rho/r)^2)^2 on random balls pass
    # the class check and keep c_D >= 0 on every variant
    rng = np.random.default_rng(17)
    variants = [G.Euclidean(1), G.Euclidean(2), G.OrnsteinUhlenbeck(2, 0.7),
                G.Hyperbolic(), G.ExplosiveDrift1D()]
    for M in variants:
        for _ in range(3):
            center = 0.3 * rng.standard_normal(M.chart_dim)
            if M.variant == "hyperbolic":
                center[1] = abs(center[1]) + 0.8
            radius = rng.uniform(0.4, 1.2)
            D = LB.DomainSpec(center, radius, sample_resolution=1024)

            def phi(z, c=center, r=radius):
                q = np.clip(M.distance(c, z) / r, 0.0, 1.0)
                return (1.0 - q**2) ** 2

            def grad_norm_sq(z, c=center, r=radius):
                q = np.clip(M.distance(c, z) / r, 0.0, 1.0)
                return (4.0 * q * (1.0 - q**2) / r) ** 2

            def l_phi(z, c=center, r=radius):
                # finite-difference generator along the radial profile
                h = 1e-5
                rho = M.distance(c, z)
                d2 = (phi_of_rho(rho + h, r) - 2 * phi_of_rho(rho, r) + phi_of_rho(rho - h, r)) / h**2
                d1 = (phi_of_rho(rho + h, r) - phi_of_rho(rho - h, r)) / (2 * h)
                with np.errstate(divide="ignore", invalid="ignore"):
                    lap_rho = np.where(rho > 1e-8, M.radial_laplacian(c, z), 0.0)
                drift_rad = np.zeros_like(rho)
                drv = M.drift(np.asarray(z, dtype=float))
                ok = rho > 1e-8
                if np.any(drv) and np.any(ok):
                    zz = np.asarray(z, dtype=float)[ok]
                    gd = M.grad_distance(np.broadcast_to(c, zz.shape), zz)
                    drift_rad[ok] = M.inner(zz, M.drift(zz), gd)
                return d2 + d1 * (lap_rho + drift_rad)

            def phi_of_rho(rho, r):
                q = np.clip(np.abs(rho) / r, 0.0, 1.0)
                return (1.0 - q**2) ** 2

            ref = LB.ReferenceFunction(domain=D, phi=phi, grad_norm_sq=grad_norm_sq,
                                       l_phi=l_phi, label="radial-bump")
            assert LB.c_D(M, ref) >= 0.0, (M.variant, center, radius)


def test_c_D_class_violation():
    M = G.Euclidean(1)
    D = LB.DomainSpec(np.array([0.0]), 1.0)
    bad = LB.ReferenceFunction(
        domain=D,
        phi=lambda z: np.cos(np.pi * np.asarray(z)[..., 0]),  # negative inside
        grad_norm_sq=lambda z: np.full(np.asarray(z).shape[:-1], 1.0),
        l_phi=lambda z: np.zeros(np.asarray(z).shape[:-1]),
    )
    with pytest.raises(LB.ClassViolation):
        LB.c_D(M, bad)
    nonzero_boundary = LB.ReferenceFunction(
        domain=D,
        phi=lambda z: np.ones(np.asarray(z).shape[:-1]),
        grad_norm_sq=lambda z: np.zeros(np.asarray(z).shape[:-1]),
        l_phi=lambda z: np.zeros(np.asarray(z).shape[:-1]),
    )
    with pytest.raises(LB.ClassViolation):
        LB.c_D(M, nonzero_boundary)


# ----------------------------------------------------------------------
# cosine reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "M,y",
    [
        (G.Euclidean(1), np.array([0.0])),
        (G.Euclidean(2), np.array([0.3, -0.2])),
        (G.Sphere(2, 1.0), np.array([0.0, 0.0, 1.0])),
        (G.Hyperbolic(), np.array([0.0, 1.0])),
        (G.OrnsteinUhlenbeck(2, 0.5), np.array([0.4, 0.1])),
    ],
    ids=["euc1", "euc2", "sphere2", "hyp", "ou2"],
)
def test_cosine_reference_values(M, y):
    ref = LB.cosine_reference(M, y)
    assert float(ref.phi(y[None, :])[0]) == pytest.approx(1.0)
    edge = M.exp(y, 1.0 * M.frame(y)[0])
    assert float(ref.phi(edge[None, :])[0]) == pytest.approx(0.0, abs=1e-12)
    mid = M.exp(y, 0.5 * M.frame(y)[0])
    rho = float(M.distance(y, mid))
    expect = (np.pi / 2) ** 2 * math.sin(np.pi * rho / 2) ** 2
    assert float(ref.grad_norm_sq(mid[None, :])[0]) == pytest.approx(expect, rel=1e-10)


def test_cosine_reference_generator_finite_difference():
    # L phi = Delta phi + <Z, grad phi> against a centred FD Laplacian
    M = G.OrnsteinUhlenbeck(2, 1.0)
    y = np.array([0.2, -0.1])
    ref = LB.cosine_reference(M, y)
    z = np.array([0.5, 0.3])
    h = 1e-5
    lap = 0.0
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        lap += (
            float(ref.phi((z + e)[None, :])[0])
            - 2 * float(ref.phi(z[None, :])[0])
            + float(ref.phi((z - e)[None, :])[0])
        ) / h**2
    gd = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        gd[i] = (float(ref.phi((z + e)[None, :])[0]) - float(ref.phi((z - e)[None, :])[0])) / (2 * h)
    expected = lap + float(np.dot(M.drift(z), gd))
    assert float(ref.l_phi(z[None, :])[0]) == pytest.approx(expected, abs=1e-4)


def test_cosine_reference_center_laplacian():
    # at the centre L phi = -pi^2 d / 4 (drift term vanishes with sin)
    for M, y, d in [
        (G.Euclidean(2), np.array([0.0, 0.0]), 2),
        (G.Sphere(2, 1.0), np.array([0.0, 0.0, 1.0]), 2),
        (G.Euclidean(1), np.array([0.0]), 1),
    ]:
        ref = LB.cosine_reference(M, y)
        assert float(ref.l_phi(y[None, :])[0]) == pytest.approx(-np.pi**2 * d / 4, rel=1e-9)


def test_cosine_reference_needs_injectivity():
    with pytest.raises(G.GeometryError):
        LB.cosine_reference(G.Sphere(1, 0.3), np.array([0.3, 0.0]))


def test_cosine_reference_scaled_radius():
    # flat 1-d closed form: c_D = 5 (pi / 2r)^2, attained at the rim
    M = G.Euclidean(1)
    for r in (0.5, 2.0):
        ref = LB.cosine_reference(M, [0.0], radius=r)
        assert ref.domain.radius == r
        assert float(ref.phi(np.array([[0.0]]))[0]) == 1.0
        assert abs(float(ref.phi(np.array([[r]]))[0])) < 1e-12
        c = LB.c_D(M, ref)
        assert c == pytest.approx(5 * (math.pi / (2 * r)) ** 2, abs=1e-3)


# ----------------------------------------------------------------------
# kappa
# ----------------------------------------------------------------------


def test_kappa_euclidean():
    out = LB.kappa(G.Euclidean(2), np.array([0.0, 0.0]))
    assert out.K_y == 0.0
    assert out.K_y0 == 0.0
    assert out.b_y == 0.0
    assert out.kappa_y == pytest.approx(np.pi**2 * 5 / 4)


def test_kappa_sphere_matches_euclidean_value():
    out = LB.kappa(G.Sphere(2, 1.0), np.array([0.0, 0.0, 1.0]))
    assert out.K_y == 0.0  # 0 v (-1)
    assert out.K_y0 == 0.0
    assert out.kappa_y == pytest.approx(np.pi**2 * 5 / 4)


def test_kappa_hyperbolic_components():
    out = LB.kappa(G.Hyperbolic(), np.array([0.0, 1.0]))
    assert out.K_y == pytest.approx(1.0)
    assert out.K_y0 == pytest.approx(1.0)
    assert out.b_y == 0.0
    expect = 1.0 + np.pi**2 * 5 / 4 + np.pi * 0.5 * math.sqrt(1.0)
    assert out.kappa_y == pytest.approx(expect)


def test_kappa_ou_drift_sup():
    out = LB.kappa(G.OrnsteinUhlenbeck(1, 2.0), np.array([0.5]))
    assert out.b_y == pytest.approx(2.0 * 1.5)
    assert out.K_y == 0.0
    assert out.kappa_y == pytest.approx(np.pi**2 + np.pi * 3.0)


BOUNDARYLESS = [
    (G.Euclidean(1), np.array([0.0])),
    (G.Euclidean(2), np.array([0.1, 0.2])),
    (G.OrnsteinUhlenbeck(1, 1.0), np.array([0.3])),
    (G.Sphere(2, 1.0), np.array([0.0, 0.0, 1.0])),
    (G.Sphere(1, 1.0), np.array([1.0, 0.0])),
    (G.Hyperbolic(), np.array([0.0, 1.2])),
    (G.ExplosiveDrift1D(), np.array([0.2])),
]


def _four_coefficient_form(ref):
    # sup_D {4 |grad phi|^2 - phi L phi}: the supremum the kappa constant
    # actually dominates (measured equality pi^2 on flat 1-d)
    return LB.ReferenceFunction(
        domain=ref.domain,
        phi=ref.phi,
        grad_norm_sq=lambda z, r=ref: 0.8 * r.grad_norm_sq(z),
        l_phi=ref.l_phi,
        normal_derivative=ref.normal_derivative,
    )


def test_kappa_dominates_four_coefficient_supremum():
    for M, y in BOUNDARYLESS:
        consts = LB.kappa(M, y)
        c4 = LB.c_D(M, _four_coefficient_form(LB.cosine_reference(M, y)))
        assert consts.kappa_y >= c4 - 1e-6, (M.variant, consts.kappa_y, c4)


def test_kappa_vs_c_D_measured_relationship():
    # The printed claim kappa(y) >= c_D(cosine) fails on the driftless
    # flat/spherical variants (e.g. flat 1-d: 5 pi^2/4 > pi^2); the extra
    # gradient-square term is bounded by (pi/2)^2, so kappa + pi^2/4
    # dominates everywhere.  Where drift or negative curvature inflate
    # kappa the plain claim does hold; assert exactly that split.
    plain_holds = {"ornstein_uhlenbeck", "hyperbolic", "explosive_drift_1d"}
    for M, y in BOUNDARYLESS:
        consts = LB.kappa(M, y)
        c5 = LB.c_D(M, LB.cosine_reference(M, y))
        assert consts.kappa_y + np.pi**2 / 4 >= c5 - 1e-6, (M.variant, consts.kappa_y, c5)
        if M.variant in plain_holds:
            assert consts.kappa_y >= c5 - 1e-6, (M.variant, consts.kappa_y, c5)
        else:
            assert c5 > consts.kappa_y  # the documented defect of the claim


def test_kappa_fills_K_xy():
    M = G.ExplosiveDrift1D()
    out = LB.kappa(M, np.array([0.0]), x=np.array([0.5]))
    assert out.K_xy == pytest.approx(3.0 * 1.5**2)


def test_local_constants_serialization():
    out = LB.kappa(G.Euclidean(2), np.array([0.0, 0.0]))
    d = out.to_dict()
    assert "kappa_y" in d and "K_xy" not in d


# ----------------------------------------------------------------------
# supremum machinery
# ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sobol_kernel_is_scipy_bit_for_bit(d):
    from scipy.stats import qmc

    for m in range(4, 15):
        assert np.array_equal(LB._sobol(d, m), qmc.Sobol(d=d, scramble=False).random_base2(m))
        for seed in (1, 2, 3, 7):
            expected = qmc.Sobol(d=d, scramble=True, seed=seed).random_base2(m)
            assert np.array_equal(LB._sobol(d, m, seed), expected), (m, seed)


def test_ball_samples_fill_three_dimensions():
    # the 3-d ball used to be sampled in the plane of the first two frame
    # vectors, so c_D depended on the drift direction
    pts = LB.ball_samples(G.Euclidean(3), np.zeros(3), 1.0, 4096)
    assert np.all(np.abs(pts).max(axis=0) > 0.95)
    assert np.all(np.linalg.norm(pts, axis=-1) < 1.0)
    values = [LB.c_D(M, LB.cosine_reference(M, np.zeros(3)))
              for M in (G.Euclidean(3, drift_vec=[1.0, 0.0, 0.0]), G.Euclidean(3, drift_vec=[0.0, 0.0, 1.0]))]
    assert values[1] == pytest.approx(values[0], rel=1e-4)
    with pytest.raises(G.GeometryError, match="d = 4"):
        LB.ball_samples(G.Euclidean(4), np.zeros(4), 1.0, 1024)


def test_domain_supremum_reports_recheck():
    M = G.Euclidean(2)
    D = LB.DomainSpec(np.array([0.0, 0.0]), 1.0, sample_resolution=1024)

    def fn(z):
        z = np.asarray(z)
        return -((z[..., 0] - 0.3) ** 2) - (z[..., 1] + 0.2) ** 2

    res = LB.domain_supremum(M, D, fn)
    assert res.value == pytest.approx(0.0, abs=1e-4)
    assert np.allclose(res.argmax, [0.3, -0.2], atol=2e-2)
    assert res.resolution == 1024
    assert abs(res.recheck_delta) < 1e-3


def test_K_of_domain_monotone_under_inclusion():
    M = G.ExplosiveDrift1D()
    vals = [LB.K_of_domain(M, LB.DomainSpec(np.array([0.5]), r)) for r in (0.5, 1.0, 2.0)]
    assert vals[0] <= vals[1] <= vals[2]
