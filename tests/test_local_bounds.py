import math

import numpy as np
import pytest

from logharnack import geometry as G
from logharnack import local_bounds as LB

from helpers import polar_grid_sup, workload_configs


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


def test_harnack_rate_finite_for_strongly_negative_K():
    # exp(-2 K T) overflows beyond -2 K T ~ 709.8; at 708 both forms
    # evaluate, and beyond 709.8 the rate underflows instead of raising
    assert LB.harnack_rate(-1.0, 354.0) == pytest.approx(-1.0 / (1.0 - math.exp(708.0)), rel=1e-15)
    assert LB.harnack_rate(-1.0, 400.0) == 0.0
    assert LB.log_harnack_rate(-1.0, 400.0, 2.0) == 2.0  # c^2 (1 - e^{2KT}) / (-2K)


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
    with pytest.raises(G.GeometryError):
        LB.DomainSpec(np.array([0.0, 0.0, 1.0]), 4.0).validate(G.Sphere(2, 1.0))


# ----------------------------------------------------------------------
# c_D
# ----------------------------------------------------------------------


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


def _random_cosine_balls():
    rng = np.random.default_rng(17)
    variants = [G.Euclidean(1), G.Euclidean(2), G.OrnsteinUhlenbeck(2, 0.7),
                G.Hyperbolic(), G.ExplosiveDrift1D()]
    for M in variants:
        for _ in range(3):
            center = 0.3 * rng.standard_normal(M.chart_dim)
            if M.variant == "hyperbolic":
                center[1] = abs(center[1]) + 0.8
            yield M, center, rng.uniform(0.4, 1.2)


ORACLE_CASES = [
    (G.Euclidean(2, drift_vec=[0.5, -0.3]), [0.1, 0.1], 1.0),
    (G.Euclidean(3, drift_vec=[0.3, -0.5, 0.8]), [0.0, 0.2, 0.0], 0.8),
    (G.OrnsteinUhlenbeck(1, 1.0), [0.5], 1.0),  # supremum at the rim
    (G.OrnsteinUhlenbeck(2, 0.7), [0.4, 0.1], 1.0),
    (G.ExplosiveDrift1D(), [-0.3], 1.0),
    (G.Sphere(2, 1.0), [0.0, 0.0, 1.0], 2.0),
    (G.Sphere(1, 1.0), [1.0, 0.0], 1.0),
    (G.Hyperbolic(), [0.2, 1.1], 1.5),
    (G.HalfSpace(2), [0.0, 0.3], 1.0),  # start on the wall
    (G.HalfSpace(1), [0.2], 0.7),
    (G.EuclideanBall(2, 0.5), [0.0, 0.1], 1.0),  # R + |y| < r: M ends inside D
    (G.EuclideanBall(2, 1.0), [0.6, 0.2], 1.0),
    (G.EuclideanBall(3, 1.0), [0.0, 0.0, 0.6], 0.5),
]


def test_c_D_matches_polar_grid_oracle():
    # c_D is the exact supremum, so it bounds every grid value from above
    # (up to rounding) and exceeds the grid maximum by no more than the
    # grid's resolution: measured <= 2e-5 relative on these cases
    cases = [(M, np.asarray(y, dtype=float), r) for M, y, r in ORACLE_CASES]
    for M, y, r in cases + list(_random_cosine_balls()):
        ref = LB.cosine_reference(M, y, r)
        c, grid = LB.c_D(M, ref), polar_grid_sup(M, ref)
        assert grid - 1e-12 * abs(grid) <= c <= grid + 1e-4 * abs(grid), (M, y, r, c, grid)
        assert c >= 0.0


def test_c_D_on_3d_ball_meeting_the_wall():
    # the wall check used to build 2-column circle points in any dimension
    M = G.EuclideanBall(3, 1.0)
    c = LB.c_D(M, LB.cosine_reference(M, np.array([0.0, 0.0, 0.6]), radius=0.5))
    assert math.isfinite(c) and c > 0


def test_c_D_beyond_three_dimensions():
    # flat, driftless: the maximum of a^2 (5 sin^2 + cos^2) + a sin cos (d-1)/rho
    # over rho, which grows with d
    values = [LB.c_D(M, LB.cosine_reference(M, np.zeros(M.dim)))
              for M in (G.Euclidean(2), G.Euclidean(3), G.Euclidean(4))]
    assert values[0] < values[1] < values[2]
    M = G.OrnsteinUhlenbeck(4, 1.0)
    ref = LB.cosine_reference(M, np.array([0.1, 0.0, 0.0, 0.0]))
    c, grid = LB.c_D(M, ref), polar_grid_sup(M, ref, n_rho=201, k=3)
    assert grid - 1e-12 * abs(grid) <= c <= grid + 1e-4 * abs(grid)


def test_c_D_independent_of_drift_direction():
    # c_D depends on the drift only through |b| for a constant drift b
    values = [LB.c_D(M, LB.cosine_reference(M, np.zeros(3)))
              for M in (G.Euclidean(3, drift_vec=[1.0, 0.0, 0.0]), G.Euclidean(3, drift_vec=[0.0, 0.0, 1.0]))]
    assert values[0] == values[1]


def test_c_D_needs_its_reference_model():
    ref = LB.cosine_reference(G.Euclidean(1), [0.0])
    with pytest.raises(ValueError):
        LB.c_D(G.Euclidean(1), ref)


class _BallExterior(G.EuclideanBall):
    """A boundary variant c_D has no ray for (a concave wall)."""

    variant = "ball_exterior"


class _Slab(G.HalfSpace):
    variant = "slab"


@pytest.mark.parametrize("M, y", [(_BallExterior(2, 1.0), [1.5, 0.0]), (_Slab(1), [0.5])])
def test_c_D_refuses_a_boundary_it_has_no_ray_for(M, y):
    # a subclass of a catalogue boundary variant used to get its parent's ray
    with pytest.raises(ValueError, match=f"c_D has no ray for the boundary of variant '{M.variant}'"):
        LB.c_D(M, LB.cosine_reference(M, np.asarray(y)))


def _bits(v):
    return np.float64(v).tobytes()


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_c_D_memo_returns_the_uncached_value_bitwise(case, monkeypatch):
    # the first call computes, the second reads the memo, and a model
    # rebuilt from the same record shares the entry
    monkeypatch.setattr(LB, "_C_D_MEMO", {})
    M, y, r = ORACLE_CASES[case]
    ref = LB.cosine_reference(M, np.asarray(y, dtype=float), r)
    fresh = LB._c_D_sup(M, ref)
    twin = G.model_from_config(M.to_config())
    for model in (M, M, twin):
        assert _bits(LB.c_D(model, LB.cosine_reference(model, np.asarray(y, dtype=float), r))) == _bits(fresh)
    assert len(LB._C_D_MEMO) == 1


@pytest.mark.parametrize("a, b, y", [
    (G.Sphere(2, 1.0), G.Sphere(2, 2.0), None),  # y is each sphere's pole
    (G.EuclideanBall(2, 0.5), G.EuclideanBall(2, 1.0), [0.3, 0.1]),
    (G.OrnsteinUhlenbeck(1, 1.0), G.OrnsteinUhlenbeck(1, 2.0), [1.5]),
])
def test_c_D_memo_keeps_models_that_differ_in_a_parameter_apart(a, b, y, monkeypatch):
    monkeypatch.setattr(LB, "_C_D_MEMO", {})
    refs = [LB.cosine_reference(M, np.asarray([0.0, 0.0, M.radius] if y is None else y, dtype=float), 1.0)
            for M in (a, b)]
    fresh = [LB._c_D_sup(M, ref) for M, ref in zip((a, b), refs)]
    assert fresh[0] != fresh[1]
    for order in ((0, 1), (1, 0)):
        LB._C_D_MEMO.clear()
        for i in order:
            assert _bits(LB.c_D((a, b)[i], refs[i])) == _bits(fresh[i])
    assert len(LB._C_D_MEMO) == 2


def test_closed_form_run_computes_each_c_D_once(tmp_path, monkeypatch):
    # one worker pool over every seed-1 closed-form config: each distinct
    # (model record, y, r) reaches the uncached supremum once
    from logharnack.cli import run

    computed = []

    def counted(M, ref, inner=LB._c_D_sup):
        computed.append((repr(M.to_config()), ref.domain.center.tobytes(), ref.domain.radius))
        return inner(M, ref)

    monkeypatch.setattr(LB, "_C_D_MEMO", {})
    monkeypatch.setattr(LB, "_c_D_sup", counted)
    for path in workload_configs("closed-form", 1, tmp_path / "cfg"):
        assert run(path, workers=2, out=tmp_path / "out" / path.stem) == 0
    assert computed and sorted(computed) == sorted(set(computed))


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


def test_kappa_dominates_four_coefficient_supremum():
    # sup_D {4 |grad phi|^2 - phi L phi}: the supremum the kappa constant
    # actually dominates (measured equality pi^2 on flat 1-d)
    for M, y in BOUNDARYLESS:
        consts = LB.kappa(M, y)
        c4 = polar_grid_sup(M, LB.cosine_reference(M, y), coef=4.0)
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


def test_K_of_domain_monotone_under_inclusion():
    M = G.ExplosiveDrift1D()
    vals = [LB.K_of_domain(M, LB.DomainSpec(np.array([0.5]), r)) for r in (0.5, 1.0, 2.0)]
    assert vals[0] <= vals[1] <= vals[2]
