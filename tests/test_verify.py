import math

import numpy as np
import pytest

from logharnack import estimators as E
from logharnack import geometry as G
from logharnack import local_bounds as LB
from logharnack import verify as V


# ----------------------------------------------------------------------
# report mechanics
# ----------------------------------------------------------------------


def test_verdict_logic():
    rep = V.InequalityReport("t", lhs=0.0, rhs=1.0)
    assert rep.verdict == "holds"
    rep = V.InequalityReport("t", lhs=1.0, rhs=0.0, lhs_se=0.5)
    assert rep.verdict == "holds-within-band"
    rep = V.InequalityReport("t", lhs=1.0, rhs=0.0, lhs_se=0.01)
    assert rep.verdict == "violated"
    # violated only when margin < -band
    rep = V.InequalityReport("t", lhs=1.0, rhs=0.98, lhs_se=0.01)
    assert rep.verdict != "violated"


@pytest.mark.parametrize("lhs, rhs, lhs_se", [
    (math.nan, 1.0, 0.0),          # NaN margin
    (0.0, 1.0, math.nan),          # NaN band
    (math.inf, math.inf, 0.0),     # inf - inf
    (0.0, 1.0, math.inf),          # infinite band
])
def test_non_finite_report_is_invalid(lhs, rhs, lhs_se):
    rep = V.InequalityReport("t", lhs=lhs, rhs=rhs, lhs_se=lhs_se)
    assert rep.verdict == V.VERDICT_INVALID == "invalid"
    assert rep.to_row()["verdict"] == "invalid"


def test_report_row_serialisation():
    # config and config_hash are runner columns (cli.run): it writes the
    # job's inputs merged with the report's own keys
    rep = V.InequalityReport("t", lhs=0.0, rhs=1.0, config={"r": 1.5})
    assert set(rep.to_row()) == {"tag", "lhs", "rhs", "margin", "band", "verdict", "constants"}


# ----------------------------------------------------------------------
# RHS structure
# ----------------------------------------------------------------------


def test_log_harnack_rhs_monotone_in_rho_and_c():
    # increasing in rho both directly and through K(D_rho)
    M = G.ExplosiveDrift1D()
    vals = []
    for rho in (0.1, 0.3, 0.6):
        K = LB.K_of_domain(M, np.array([0.0]), 1.0 + rho)
        vals.append(LB.log_harnack_rhs(rho, K, 0.5, 3.0))
    assert vals[0] < vals[1] < vals[2]
    cs = [LB.log_harnack_rhs(0.3, 1.0, 0.5, c) for c in (0.0, 1.0, 2.0)]
    assert cs[0] < cs[1] < cs[2]
    ks = [LB.log_harnack_rhs(0.3, k, 0.5, 1.0) for k in (-1.0, 0.0, 1.0)]
    assert ks[0] < ks[1] < ks[2]


def test_local_rhs_dominates_domain_rhs_when_kappa_dominates():
    # consistency: whenever kappa(y) >= c_D(cosine), the local form's RHS
    # is the larger one (same K since D_rho of B(y,1) is B(y, 1+rho))
    cases = [
        (G.Hyperbolic(), np.array([0.0, 1.0])),
        (G.OrnsteinUhlenbeck(1, 1.0), np.array([0.3])),
        (G.ExplosiveDrift1D(), np.array([0.1])),
        (G.Euclidean(2), np.array([0.0, 0.0])),
    ]
    t, rho = 0.5, 0.25
    for M, y in cases:
        x = M.exp(y, rho * M.frame(y)[0])
        consts = LB.kappa(M, y, x=x)
        c_phi = LB.c_D(M, LB.cosine_reference(M, y))
        rhs_local = LB.log_harnack_rhs(rho, consts["K_xy"], t, consts["kappa_y"])
        rhs_domain = LB.log_harnack_rhs(rho, consts["K_xy"], t, c_phi)
        if consts["kappa_y"] >= c_phi:
            assert rhs_local >= rhs_domain - 1e-12, M.variant


# ----------------------------------------------------------------------
# log-Harnack
# ----------------------------------------------------------------------


def test_log_harnack_exact_fixture_euclidean():
    # closed forms: P_T log e^z (y) = y, log P_T e^z (x) = x + T
    M = G.Euclidean(1)
    rep = V.check_log_harnack(M, [0.0], [0.3], 0.5, E.coord_exp([1.0]), use_oracle=True)
    assert rep.lhs == pytest.approx(0.3 - 0.0 - 0.5, abs=1e-9)
    assert rep.rhs == pytest.approx(
        0.5 * 0.3**2 * (1.0 / (2 * 0.5) + LB.c_D(M, LB.cosine_reference(M, np.array([0.3]))) ** 2 * 0.5),
        rel=1e-12,
    )
    assert rep.verdict == "holds"
    assert rep.margin > 3.0


def test_log_harnack_same_point_jensen():
    M = G.Euclidean(1)
    f = E.one_plus_bump([0.3], 0.7, b=0.8)
    rep = V.check_log_harnack(M, [0.1], [0.1], 0.5, f, n_paths=20000, master_seed=5)
    # rho = 0 so the cost side vanishes and Jensen keeps the lhs <= 0
    assert rep.rhs == 0.0
    assert rep.verdict != "violated"
    assert rep.lhs <= 3 * rep.lhs_se


def test_log_harnack_mc_matches_oracle_fixture():
    M = G.Euclidean(1)
    rep = V.check_log_harnack(M, [0.0], [0.3], 0.5, E.coord_exp([1.0]), n_paths=50_000, master_seed=7)
    assert rep.lhs == pytest.approx(-0.2, abs=4 * rep.lhs_se)
    assert rep.verdict == "holds"


def test_log_harnack_reads_log_f_of_a_gauss_bump_where_f_underflows():
    # width 0.1: f(z) = exp(-50 z^2) is 0 in double precision beyond 3.86,
    # about 2.6 sd of X_T from y, while log f = -50 z^2 stays finite.  Exact
    # lhs: -50 E (y + sqrt(2T) N)^2 - log(w / sqrt(w^2 + 2T)) = -99.35
    f = E.gauss_bump([0.0], 0.1)
    exact = -50.0 * (0.2**2 + 2.0) - math.log(0.1 / math.sqrt(0.1**2 + 2.0))
    assert exact == pytest.approx(-99.35, abs=5e-3)
    rep = V.check_log_harnack(G.Euclidean(1), [0.0], [0.2], 1.0, f, n_paths=20_000, master_seed=7)
    assert rep.verdict == "holds"
    assert abs(rep.lhs - exact) <= rep.band
    # the oracle integrates the same closed-form log f, and refuses the
    # width-0.1 bump as f itself: it falls between its nodes
    with pytest.raises(E.OracleNotConverged, match="node gap .* exceeds its width 0.1"):
        V.check_log_harnack(G.Euclidean(1), [0.0], [0.2], 1.0, f, use_oracle=True)


def test_log_harnack_explosive_correction_is_essential():
    # f = const e on the explosive variant: with the mass correction the
    # inequality holds with margin 0 at x = y; dropping it must flip the
    # verdict to violated (scalar calculus on u = P_T 1 in (0, 1))
    M = G.ExplosiveDrift1D()
    f = E.const(math.e)
    kw = dict(n_paths=20_000, h=1e-3, master_seed=5)
    good = V.check_log_harnack(M, [0.0], [0.0], 1.0, f, correction=True, **kw)
    bad = V.check_log_harnack(M, [0.0], [0.0], 1.0, f, correction=False, **kw)
    assert good.verdict != "violated"
    assert bad.verdict == "violated"
    # exact scalar reproduction from the measured mass u
    u = E.mc_functional(M, [0.0], 1.0, None, "1", 20_000, 1e-3, 5).mean
    assert 0.0 < u < 1.0
    assert u - math.log(1.0 + u * (math.e - 1.0)) <= 0.0
    assert u - 1.0 - math.log(u) > 0.0
    assert good.lhs == pytest.approx(u - math.log(1.0 + u * (math.e - 1.0)), abs=1e-12)
    assert bad.lhs == pytest.approx(u - 1.0 - math.log(u), abs=1e-12)


def test_log_harnack_local_sphere():
    M = G.Sphere(2, 1.0)
    y = np.array([0.0, 0.0, 1.0])
    x = M.exp(y, 0.3 * M.frame(y)[0])
    f = E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.7)
    rep = V.check_log_harnack_local(M, x, y, 0.5, f, n_paths=10_000, master_seed=3)
    assert rep.verdict != "violated"
    assert not math.isnan(rep.constants["kappa_y"])
    assert rep.constants["K_xy"] == pytest.approx(-1.0)


def test_log_harnack_local_shrinking_distance():
    # rho -> 0: RHS -> 0 while the lhs stays a Jensen gap <= 0
    M = G.Euclidean(1)
    f = E.one_plus_bump([0.0], 0.8, b=0.5)
    rep = V.check_log_harnack_local(M, [0.01], [0.0], 0.5, f, n_paths=10_000, master_seed=4)
    assert rep.rhs < 0.01
    assert rep.verdict != "violated"


def test_log_harnack_requires_positive_f():
    with pytest.raises(ValueError):
        V.check_log_harnack(G.Euclidean(1), [0.0], [0.3], 0.5, E.coord(0))


# ----------------------------------------------------------------------
# gradient inequality
# ----------------------------------------------------------------------


def test_gradient_exact_fixture_euclidean():
    # lhs = e^{2(x+T)}; variance = e^{2x+2T}(e^{2T}-1); constant >= 1/(2T)
    M = G.Euclidean(1)
    rep = V.check_gradient(M, [0.0], 0.5, E.coord_exp([1.0]), use_oracle=True)
    assert rep.lhs == pytest.approx(math.exp(2 * 0.5), rel=1e-6)
    var_exact = math.exp(2 * 0.5) * (math.exp(2 * 0.5) - 1.0)
    assert rep.rhs >= var_exact / (2 * 0.5)
    assert rep.verdict == "holds"
    assert rep.margin > 0


def test_gradient_exact_fixture_ou_linear():
    # the commutation case: lhs = e^{-2 lam T}, variance * rate term is
    # exactly e^{-2 lam T}; the reference-function term provides the
    # strictly positive margin
    M = G.OrnsteinUhlenbeck(1, 1.0)
    rep = V.check_gradient(M, [0.0], 1.0, E.coord(0), use_oracle=True)
    assert rep.lhs == pytest.approx(math.exp(-2.0), rel=1e-6)
    var_exact = 1.0 - math.exp(-2.0)
    rate = LB.harnack_rate(-1.0, 1.0)
    assert var_exact * rate == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert rep.margin > 0
    assert rep.verdict == "holds"


def test_gradient_constant_function():
    M = G.Euclidean(1)
    rep = V.check_gradient(M, [0.0], 0.5, E.const(3.0), n_paths=5000, master_seed=1)
    assert rep.verdict != "violated"
    assert rep.lhs <= 1e-6 + 3 * rep.lhs_se


def test_gradient_mc_sphere():
    M = G.Sphere(2, 1.0)
    rep = V.check_gradient(M, [0.0, 0.0, 1.0], 0.3, E.coord(2), n_paths=10_000, master_seed=8)
    assert rep.verdict != "violated"


# ----------------------------------------------------------------------
# Harnack inequality
# ----------------------------------------------------------------------


def test_harnack_constant_function_slack():
    M = G.Euclidean(1)
    rep = V.check_harnack(M, [0.0], [0.3], 0.5, E.const(1.0), use_oracle=True)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs > 1.0
    assert rep.verdict == "holds"


def test_harnack_same_point():
    # x = y collapses the slack term (rho = 0): exact equality
    M = G.Euclidean(1)
    f = E.gauss_bump([0.0], 0.6)
    rep = V.check_harnack(M, [0.2], [0.2], 0.5, f, use_oracle=True)
    assert rep.verdict != "violated"
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_harnack_oracle_grid():
    M = G.Euclidean(2)
    f = E.gauss_bump([0.3, 0.0], 0.5)
    for T in (0.25, 1.0):
        for rho in (0.1, 0.5):
            rep = V.check_harnack(M, [0.0, 0.0], [rho, 0.0], T, f, use_oracle=True)
            assert rep.verdict != "violated", (T, rho)


@pytest.mark.parametrize("f", [E.gauss_bump([5.0], 0.05), E.const(0.0)], ids=["far bump", "zero"])
def test_harnack_mc_where_f_is_zero_on_every_path_from_y(f):
    # P_T f^2(y) reads 0, so the sqrt(m2) term of the linearised margin is
    # 0 (not 0 / 0) and the band is that of fx - fy
    rep = V.check_harnack(G.Euclidean(1), [0.0], [0.2], 0.05, f, n_paths=2_000, master_seed=7)
    assert rep.lhs == 0.0 and rep.band == 0.0
    assert rep.verdict != "invalid"


def test_harnack_requires_conservative():
    with pytest.raises(ValueError):
        V.check_harnack(G.ExplosiveDrift1D(), [0.0], [0.1], 0.5, E.const(1.0))


def test_harnack_geodesic_must_stay_inside():
    M = G.Euclidean(1)
    with pytest.raises(V.GeodesicLeavesDomain):
        V.check_harnack(M, [2.5], [0.0], 0.5, E.const(1.0))


# ----------------------------------------------------------------------
# corollary checks
# ----------------------------------------------------------------------


def test_kernel_lower_bound_on_diagonal():
    M = G.Sphere(1, 1.0)
    rep = V.check_kernel_lower_bound(M, [1.0, 0.0], [1.0, 0.0], 0.2)
    assert rep.lhs == pytest.approx(1.0)  # bound = exp(0)
    assert rep.rhs >= 1.0
    assert rep.verdict != "violated"


def test_kernel_lower_bound_circle_case():
    M = G.Sphere(1, 1.0)
    x = np.array([math.cos(0.5), math.sin(0.5)])
    rep = V.check_kernel_lower_bound(M, x, [1.0, 0.0], 0.2)
    assert rep.verdict != "violated"


def test_kernel_lower_bound_ergodic_limit():
    M = G.Sphere(1, 1.0)
    x = np.array([math.cos(0.5), math.sin(0.5)])
    rep = V.check_kernel_lower_bound(M, x, [1.0, 0.0], 50.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-8)
    assert rep.verdict != "violated"


def test_entropy_bound_circle_large_time():
    M = G.Sphere(1, 1.0)
    rep = V.check_entropy_bound(M, [1.0, 0.0], 5.0)
    assert rep.lhs < 1e-3
    assert rep.verdict != "violated"


def test_entropy_bound_grids():
    for M, y in [
        (G.Sphere(1, 1.0), [1.0, 0.0]),
        (G.Sphere(2, 1.0), [0.0, 0.0, 1.0]),
        (G.OrnsteinUhlenbeck(1, 1.0), [0.0]),
    ]:
        for t in (0.05, 0.2, 1.0):
            rep = V.check_entropy_bound(M, y, t)
            assert rep.verdict != "violated", (M.variant, t)


def test_entropy_cost_trivial_density():
    M = G.OrnsteinUhlenbeck(1, 1.0)
    rep = V.check_entropy_cost(M, 0.5, eps_tilt=0.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.verdict != "violated"


def test_entropy_cost_tilt():
    M = G.OrnsteinUhlenbeck(1, 1.0)
    rep = V.check_entropy_cost(M, 0.5, eps_tilt=0.2)
    assert rep.lhs > 0
    assert rep.verdict != "violated"
    # t -> infinity: lhs -> 0, rhs stays positive
    rep_inf = V.check_entropy_cost(M, 50.0, eps_tilt=0.2)
    assert rep_inf.lhs < 1e-8
    assert rep_inf.rhs > 0


def test_entropy_cost_other_variant_raises():
    with pytest.raises(E.NoOracle):
        V.check_entropy_cost(G.Euclidean(1), 0.5)


# ----------------------------------------------------------------------
# sharpness
# ----------------------------------------------------------------------


def test_sharpness_r_values():
    M = G.Euclidean(1)
    f = E.log_bump([0.5], 1.0, amp=1.0)
    rep = V.sharpness_experiment(M, [0.0], f, n_paths=200_000, master_seed=11)
    by_r = {row["r"]: row for row in rep.rows}
    # r = 1: limit 0, so the admissible-c constraint is vacuous
    assert abs(by_r[1.0]["limit_mc"]) < 5 * by_r[1.0]["limit_se"] + 1e-3
    # r = 2 drives the bound to 1/2
    row2 = by_r[2.0]
    assert abs(row2["limit_mc"] - row2["limit_exact"]) <= 0.05 * abs(row2["limit_exact"])
    assert rep.c_min >= 0.45
    assert rep.c_min == pytest.approx(0.5, abs=0.02)


def test_sharpness_zero_gradient_rejected():
    M = G.Euclidean(1)
    f = E.log_bump([0.0], 1.0, amp=1.0)  # gradient vanishes at the bump centre
    with pytest.raises(V.ZeroGradient):
        V.sharpness_experiment(M, [0.0], f, n_paths=1000, master_seed=0)


def test_sharpness_report_rows():
    M = G.Euclidean(1)
    f = E.log_bump([0.5], 1.0, amp=1.0)
    rep = V.sharpness_experiment(M, [0.0], f, n_paths=50_000, master_seed=2)
    reports = rep.to_reports()
    assert [r.config["r"] for r in reports[:-1]] == list(V.SHARPNESS_R)
    assert reports[-1].tag == "sharpness-cmin"
    assert reports[-1].rhs == rep.c_min


# ----------------------------------------------------------------------
# ensembles per checker: each check runs one ensemble whose start points
# share the noise (the test names predate the start axis); the fixture
# records each ensemble's start coordinates, flattened, and its horizon
# ----------------------------------------------------------------------


@pytest.mark.parametrize("correction", [True, False])
def test_log_harnack_mc_runs_two_ensembles(ensemble_starts, correction):
    M = G.ExplosiveDrift1D()
    V.check_log_harnack(M, [0.0], [0.2], 0.3, E.one_plus_bump([0.2], 0.7), n_paths=2000,
                        master_seed=1, correction=correction)
    assert ensemble_starts == [(0.2, 0.0, 0.3)]  # starts y, x


def test_harnack_mc_runs_two_ensembles(ensemble_starts):
    V.check_harnack(G.Euclidean(2), [0.0, 0.0], [0.3, 0.0], 0.25, E.gauss_bump([0.3, 0.0], 0.5),
                    n_paths=2000, master_seed=1)
    assert ensemble_starts == [(0.3, 0.0, 0.0, 0.0, 0.25)]  # starts y, x


def test_gradient_mc_runs_two_per_dimension_plus_one(ensemble_starts):
    M = G.Euclidean(2)
    eps = 1e-3  # the checker's central-difference step
    V.check_gradient(M, [0.0, 0.0], 0.25, E.gauss_bump([0.3, 0.0], 0.5), n_paths=2000, master_seed=1)
    # one ensemble: the 2 dim finite-difference starts x +- eps e_i, and x
    # for the variance (the name predates x joining the ensemble)
    fd = (eps, 0.0, -eps, 0.0, 0.0, eps, 0.0, -eps)
    assert ensemble_starts == [fd + (0.0, 0.0, 0.25)]


@pytest.mark.parametrize("M, x, T, f, pinned", [
    (G.Sphere(2, 1.0), [0.6, 0.48, 0.64], 0.3, E.coord_exp([1.0, 0.0, 0.0]),
     (0.2974438189276585, 0.014394487437138807, 14.51809175033497, 0.2486084579232516)),
    (G.HalfSpace(1), [0.1], 0.2, E.gauss_bump([0.2], 0.5),
     (0.008466365340749156, 0.002596486217459656, 2.944881451761612, 0.07044444540812217)),
    (G.ExplosiveDrift1D(), [0.5], 0.2, E.one_plus_bump([0.3], 0.7),
     (0.025239451993018806, 0.002263940819237894, 4.424563033542114, 0.19815768932444058)),
], ids=["sphere-2", "half_space-1", "explosive"])
def test_gradient_mc_sides_match_separate_ensembles(M, x, T, f, pinned):
    # lhs and lhs_se recorded while x ran as its own ensemble after the
    # finite-difference one: adding x as a start changes no bit; rhs and
    # rhs_se are var * const with the exact c_D in const.  The half-space
    # tuple is that of the one exact step to T (``euler_exact``), checked
    # the same way against x's own ensemble
    rep = V.check_gradient(M, x, T, f, n_paths=3000, h=1e-2, master_seed=5)
    assert (rep.lhs, rep.lhs_se, rep.rhs, rep.rhs_se) == pinned


def test_sharpness_runs_one_x_ensemble_per_s(ensemble_starts):
    V.sharpness_experiment(G.Euclidean(1), [0.0], E.log_bump([0.5], 1.0), n_paths=2000, master_seed=1)
    # one ensemble per s, starting at x and at every y_s
    assert [c[-1] for c in ensemble_starts] == list(V.SHARPNESS_S)
    assert all(len(c) == len(V.SHARPNESS_R) + 2 and c[0] == 0.0 for c in ensemble_starts)
