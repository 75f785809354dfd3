import hashlib
import math

import numpy as np
import pytest

from logharnack import coupling as C
from logharnack import geometry as G
from logharnack import local_bounds as LB


def euclid_config(rho0=0.3, T=1.0, h=1e-3):
    M = G.Euclidean(1)
    return M, C.standard_coupling_config(M, [0.0], [rho0], T=T, h=h)


def _pair(M, cfg, x, y):
    """The batch state of one running pair (x, y)."""
    X, Y = np.array([x], dtype=float), np.array([y], dtype=float)
    phi_y = LB.cosine_reference(M, cfg.y, cfg.domain_radius).phi(Y)
    return C._Pairs(X, Y, M.distance(X, Y), phi_y, np.zeros(1), np.zeros(1, dtype=bool))


def _step_one(M, cfg, x, y, xi):
    """One coupled step of size h_eff of the pair (x, y) at t = 0."""
    p, theta = C._coupled_step(M, cfg, cfg.h_eff, 0.0, _pair(M, cfg, x, y), np.array([xi], dtype=float))
    return p, int(theta[0])


# ----------------------------------------------------------------------
# drifts
# ----------------------------------------------------------------------


def test_xi1_zero_curvature_limit():
    M, cfg = euclid_config(rho0=1.0, T=2.0)
    # flat space: K = 0, so the schedule is rho0 / T at every time
    assert cfg.K_D_rho == 0.0
    assert list(C._xi1_rate(np.array([0.0, 1.3]), cfg) * cfg.rho0) == pytest.approx([0.5, 0.5])


def test_xi1_positive_curvature_value():
    M, cfg = euclid_config(rho0=1.0, T=1.0)
    cfg.K_D_rho = 1.0
    # independent evaluation of 2 K e^{-K t} / (1 - e^{-2 K T}) rho at t=0
    expected = 2.0 / (1.0 - math.exp(-2.0))
    assert expected == pytest.approx(2.3130352854993312)
    assert float(C._xi1_rate(0.0, cfg) * cfg.rho0) == pytest.approx(expected)


def test_xi1_negative_curvature_positive_and_backloaded():
    M, cfg = euclid_config(rho0=1.0, T=1.0)
    cfg.K_D_rho = -1.0
    vals = C._xi1_rate(np.array([0.0, 0.5, 1.0]), cfg) * cfg.rho0
    assert all(v > 0 for v in vals)
    assert vals[0] < vals[1] < vals[2]


def test_xi1_strongly_negative_curvature_stays_finite():
    # OU has K = -lam; at lam T = 400, exp(-2 K T) overflowed
    cfg = C.standard_coupling_config(G.OrnsteinUhlenbeck(1, 1.0), [0.0], [0.1], 400.0, 0.01)
    assert cfg.K_D_rho == -1.0
    t = np.array([0.0, 399.0, 400.0])
    assert list(C._xi1_rate(t, cfg)) == pytest.approx(list(2.0 * np.exp(t - 800.0)), rel=1e-14)
    # at -2 K T = 708 the plain form still evaluates, and agrees
    cfg.T = 354.0
    t = np.array([0.0, 354.0])
    assert list(C._xi1_rate(t, cfg)) == pytest.approx(list(-2.0 * np.exp(t) / (1.0 - math.exp(708.0))), rel=1e-14)


def test_xi2_values_and_errors():
    # with xi_1 = 0 the step moves Y toward X by xi_2 h, xi_2 = 2 c rho / phi(Y)^2
    M, cfg = euclid_config()
    cfg2 = C.CouplingConfig(
        x=cfg.x, y=cfg.y, T=cfg.T, domain_radius=cfg.domain_radius,
        K_D_rho=0.0, c_D_phi=1.0, eps_couple=cfg.eps_couple, h=cfg.h, rho0=0.0,
    )

    def step(x, y, phi_y):
        pair = _pair(M, cfg2, x, y)._replace(phi_y=np.array([phi_y]))
        p, theta = C._coupled_step(M, cfg2, cfg2.h_eff, 0.0, pair, np.zeros((1, 1)))
        return p, int(theta[0])

    p, theta = step([0.0], [0.5], 0.5)
    assert (0.5 - p.Y[0, 0]) / cfg2.h_eff == pytest.approx(4.0)
    assert theta == C.THETA_NONE and not p.flagged[0]
    # phi(Y) <= 0: Y is beyond the boundary of D = B(0.3, 1); the step
    # caps phi at PHI_CAP (the drift then stops at X, also outside D)
    # and flags the pair, no error
    p, theta = step([-0.8], [-0.75], -0.1)
    assert p.Y[0, 0] == pytest.approx(-0.8, abs=1e-12)
    assert p.flagged[0] and theta == C.THETA_BOUNDARY_Y
    assert np.isfinite(p.log_R[0])


def test_c_d_zero_makes_xi2_vanish():
    # flat, c_D = 0: the drift is xi_1 = rho0 / T alone
    M, cfg = euclid_config()
    cfg.c_D_phi = 0.0
    p, _ = _step_one(M, cfg, [0.0], [0.2], [0.0])
    assert p.Y[0, 0] == pytest.approx(0.2 - cfg.rho0 / cfg.T * cfg.h_eff, abs=1e-15)


# ----------------------------------------------------------------------
# stepping
# ----------------------------------------------------------------------


def test_step_coupled_parallel_noise_preserves_distance():
    # with a negligible attracting drift the pair moves in parallel and
    # the flat-space distance is constant
    M = G.Euclidean(2)
    cfg = C.standard_coupling_config(M, [0.0, 0.0], [0.3, 0.0], T=1e9, h=1e-3)
    cfg.c_D_phi = 0.0
    p, _ = _step_one(M, cfg, [0.0, 0.0], [0.3, 0.0], [0.7, -1.1])
    assert p.rho[0] == pytest.approx(0.3, abs=1e-9)
    assert not np.allclose(p.X[0], [0.0, 0.0])


def test_step_coupled_one_dim_formula():
    # 1-d: the transported noise is the same scalar and the drift moves Y
    # toward X by a h
    M = G.Euclidean(1)
    cfg = C.standard_coupling_config(M, [0.0], [0.3], T=1.0, h=1e-3)
    p, _ = _step_one(M, cfg, [0.0], [0.3], [0.9])
    h = cfg.h_eff
    move = math.sqrt(2 * h) * 0.9
    assert cfg.K_D_rho == 0.0
    x1 = cfg.rho0 / cfg.T  # the flat deadline drift
    x2 = 2 * cfg.c_D_phi * 0.3  # Y is at the domain centre y, where phi = 1
    a = min(math.hypot(x1, x2), 0.3 / h)
    assert p.X[0, 0] == pytest.approx(move)
    assert p.Y[0, 0] == pytest.approx(0.3 + move - a * h)
    # Girsanov increment: eta = a/sqrt(2) * sign(X - Y) at X
    eta = a / math.sqrt(2.0) * (-1.0)
    expected_logR = -math.sqrt(h) * eta * 0.9 - 0.5 * h * eta**2
    assert p.log_R[0] == pytest.approx(expected_logR)


def _random_pairs(M, rng, n=200):
    """n random pairs (x, y) inside M's chart domain, apart and well
    inside the injectivity radius."""
    if M.variant == "sphere":
        x = rng.standard_normal((n, M.chart_dim))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        v = rng.standard_normal((n, M.noise_width)) * 0.5
        return x, M.exp(x, M.tangent_from_frame(x, v))
    if M.variant == "hyperbolic":
        return (np.column_stack([rng.normal(size=n), rng.uniform(0.3, 3.0, n)]),
                np.column_stack([rng.normal(size=n), rng.uniform(0.3, 3.0, n)]))
    x = rng.uniform(0.0, 0.9, (2, n, M.chart_dim))
    return x[0], x[1]


@pytest.mark.parametrize("M", [
    G.Euclidean(1), G.Euclidean(2), G.EuclideanBall(2, 2.0), G.HalfSpace(2),
    G.Sphere(1), G.Sphere(2), G.Sphere(2, 1.7), G.Hyperbolic(),
], ids=lambda M: f"{M.variant}-{M.dim}")
def test_pair_geometry_is_bit_identical_to_public_calls(M):
    rng = np.random.default_rng(11)
    X, Y = _random_pairs(M, rng)
    xi = rng.standard_normal((X.shape[0], M.noise_width))
    G_, GY, toward, away_c = M._pair_geometry(X, Y, M.distance(X, Y), xi)
    assert np.array_equal(G_, M.tangent_from_frame(X, xi))
    assert np.array_equal(GY, M.transport(X, Y, G_))
    assert np.array_equal(toward, M.grad_distance(X, Y))
    assert np.array_equal(away_c, M.frame_components(X, M.grad_distance(Y, X)))


def test_sphere_coupled_step_geometry_budget(monkeypatch):
    # three angles, all for the stopping checks (phi(Y') and Y' in D
    # share the distance of Y' to y): the pair geometry takes its units
    # from y - x in closed form; and no frame: the noise is projected and
    # the Girsanov term dots with it
    M = G.Sphere(2)
    y = np.array([0.0, 0.0, 1.0])
    x = M.exp(y, 0.3 * M.frame(y)[0])
    cfg = C.standard_coupling_config(M, x, y, T=0.5, h=1e-3)
    n = 50
    X, Y = np.tile(x, (n, 1)), np.tile(y, (n, 1))  # phi(Y) = phi(y) = 1
    pairs = C._Pairs(X, Y, M.distance(X, Y), np.ones(n), np.zeros(n), np.zeros(n, dtype=bool))
    calls = {"_angle": 0, "frame": 0}
    for name in calls:
        orig = getattr(G.Sphere, name)

        def counted(self, *a, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *a)

        monkeypatch.setattr(G.Sphere, name, counted)
    xi = np.random.default_rng(0).standard_normal((n, M.noise_width))
    C._coupled_step(M, cfg, cfg.h_eff, 0.0, pairs, xi)
    assert calls == {"_angle": 3, "frame": 0}


def test_hyperbolic_coupled_step_takes_no_log(monkeypatch):
    # the pair's units and the transport are closed forms of the chart
    # points
    M = G.Hyperbolic()
    x, y = [0.0, math.exp(0.3)], [0.0, 1.0]
    cfg = C.standard_coupling_config(M, x, y, T=0.5, h=1e-3)
    n = 50
    X, Y = np.tile(x, (n, 1)), np.tile(y, (n, 1))  # phi(Y) = phi(y) = 1
    pairs = C._Pairs(X, Y, M.distance(X, Y), np.ones(n), np.zeros(n), np.zeros(n, dtype=bool))
    calls = []
    orig = G.Hyperbolic.log
    monkeypatch.setattr(G.Hyperbolic, "log", lambda self, *a: calls.append(a) or orig(self, *a))
    xi = np.random.default_rng(0).standard_normal((n, M.noise_width))
    C._coupled_step(M, cfg, cfg.h_eff, 0.0, pairs, xi)
    assert calls == []


@pytest.mark.parametrize("M,y", [
    (G.Sphere(2), [0.0, 0.0, 1.0]), (G.Hyperbolic(), [0.0, 1.0]), (G.EuclideanBall(2, 2.0), [0.3, 0.0]),
], ids=["sphere-2", "hyperbolic-2", "euclidean_ball-2"])
def test_coupled_step_phi_and_stops_equal_reference_and_domain(M, y):
    # phi(Y') and Y' in D come from one distance in the step; they must
    # be the cosine reference's phi and rho(y, Y') < r bit for bit
    y, r, n = np.asarray(y), 0.5, 400
    rng = np.random.default_rng(5)

    def around(z, lo, hi):
        v = M.tangent_from_frame(z, rng.standard_normal((n, M.noise_width)))
        v *= (rng.uniform(lo, hi, n) / M.norm(z, v))[:, None]
        return M.exp(z, v)

    Y = around(np.tile(y, (n, 1)), 0.0, r)
    X = around(Y, 0.05, 0.3)
    # no xi_2 and a slow xi_1: no pair couples, so every Y' is the
    # stepped point the checks saw
    cfg = C.CouplingConfig(h=1e-3, T=1.0, x=X[0], y=y, domain_radius=r, K_D_rho=0.0,
                           c_D_phi=0.0, eps_couple=0.01, rho0=0.1)
    ref = LB.cosine_reference(M, y, r)
    pairs = C._Pairs(X, Y, M.distance(X, Y), ref.phi(Y), np.zeros(n), np.zeros(n, dtype=bool))
    p, theta = C._coupled_step(M, cfg, cfg.h_eff, 0.0, pairs, rng.standard_normal((n, M.noise_width)))
    phi = ref.phi(p.Y)
    expected = np.select(
        [(phi <= cfg.phi_floor) | ~(M.distance(y, p.Y) < r), ~(M.distance(y, p.X) < r + cfg.rho0),
         p.rho <= cfg.eps_couple],
        [C.THETA_BOUNDARY_Y, C.THETA_EXIT_X, C.THETA_COUPLED], C.THETA_NONE,
    )
    assert np.array_equal(p.phi_y, phi)
    assert np.array_equal(theta, expected)
    assert set(theta) == {C.THETA_NONE, C.THETA_BOUNDARY_Y, C.THETA_EXIT_X}


def test_step_coupled_clock_ends_exactly_at_horizon():
    # T / h = 10/3 is not an integer: four steps of T / 4, not of h
    M = G.Euclidean(1)
    cfg = C.standard_coupling_config(M, [0.0], [0.3], T=1.0, h=0.3)
    cfg.c_D_phi = cfg.rho0 = 0.0  # no attracting drift: the pair never couples
    p, theta, steps = _pair(M, cfg, [0.0], [0.3]), C.THETA_NONE, 0
    while theta == C.THETA_NONE:
        p, th = C._coupled_step(M, cfg, cfg.h_eff, steps * cfg.h_eff, p, np.zeros((1, 1)))
        theta, steps = int(th[0]), steps + 1
    assert (steps, theta, cfg.h_eff) == (4, C.THETA_HORIZON, 0.25)


def test_run_coupling_clock_ends_exactly_at_horizon():
    # pairs born coupled evolve as one plain diffusion to the horizon, so
    # Var X_T = 2 T exactly; stepping h = 0.3 four times would give 2.4
    M = G.Euclidean(1)
    cfg = C.standard_coupling_config(M, [0.0], [0.0], T=1.0, h=0.3)
    diag = C.run_coupling(M, cfg, 20_000, master_seed=4, terminal_fn=lambda z: z[:, 0])
    assert diag.coupled_fraction == 1.0
    assert float(np.var(diag.values["terminal"])) == pytest.approx(2.0, abs=0.1)


def test_eps_couple_invariant():
    with pytest.raises(ValueError):
        C.CouplingConfig(
            x=np.array([0.0]), y=np.array([0.3]), T=1.0,
            domain_radius=1.0, K_D_rho=0.0, c_D_phi=1.0,
            eps_couple=1.0, h=1e-3, rho0=0.3,
        )


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_domain_radius_must_be_positive(radius):
    # a NaN radius would put every Y outside D and stop each pair at once
    with pytest.raises(ValueError, match="domain_radius"):
        C.CouplingConfig(x=np.array([0.0]), y=np.array([0.3]), T=1.0, domain_radius=radius,
                         K_D_rho=0.0, c_D_phi=1.0, eps_couple=0.01, h=1e-3, rho0=0.3)


# ----------------------------------------------------------------------
# ensemble diagnostics
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def euclid_diag():
    M, cfg = euclid_config(rho0=0.3, T=1.0, h=1e-3)
    diag = C.run_coupling(M, cfg, 20_000, master_seed=42)
    return M, cfg, diag, diag.values


def test_run_coupling_girsanov_normalisation(euclid_diag):
    _, _, diag, values = euclid_diag
    assert abs(diag.e_r.mean - 1.0) <= 3 * diag.e_r.stderr
    # E log R <= 0 while E R = 1 (Jensen on the exponential martingale)
    assert float(np.mean(values["log_R"])) < 0


def test_run_coupling_entropy_within_closed_form_bound(euclid_diag):
    _, cfg, diag, _ = euclid_diag
    # flat: K = 0, so the bound is rho^2/2 (1/(2T) + c_D^2 T)
    assert cfg.K_D_rho == 0.0
    assert diag.entropy_bound == pytest.approx(0.5 * cfg.rho0**2 * (0.5 / cfg.T + cfg.c_D_phi**2 * cfg.T))
    assert diag.e_rlogr.mean <= diag.entropy_bound + 3 * diag.e_rlogr.stderr
    assert diag.e_rlogr.mean > 0


def test_run_coupling_success_probability(euclid_diag):
    _, _, diag, _ = euclid_diag
    # weighted coupling probability ~ 1 with delta(h = 1e-3) <= 0.02
    assert diag.coupling_weighted.mean >= 0.98
    assert diag.coupled_fraction > 0.99


def test_run_coupling_pathwise_contraction(euclid_diag):
    _, cfg, diag, _ = euclid_diag
    # discrete surrogate of the distance contraction: never above
    # rho(x, y) + 5 sqrt(h)
    assert diag.max_rho_excess <= 5.0 * math.sqrt(cfg.h)


def test_run_coupling_theta_accounting(euclid_diag):
    _, _, diag, values = euclid_diag
    counts = diag.theta_counts
    assert counts["running"] == 0
    assert sum(counts.values()) == diag.n
    assert counts["coupled"] == int(np.sum(values["coupled"]))


def test_coupled_pairs_at_zero_distance_from_start():
    # x = y: R = 1 identically, entropy 0, coupled at t = 0
    M = G.Euclidean(1)
    cfg = C.standard_coupling_config(M, [0.2], [0.2], T=0.5, h=1e-3)
    diag = C.run_coupling(M, cfg, 2000, master_seed=1)
    assert np.all(diag.values["R"] == 1.0)
    assert diag.e_rlogr.mean == 0.0
    assert diag.coupled_fraction == 1.0


def test_run_coupling_deterministic():
    M, cfg = euclid_config(rho0=0.2, T=0.5, h=2e-3)
    a = C.run_coupling(M, cfg, 3000, master_seed=9)
    b = C.run_coupling(M, cfg, 3000, master_seed=9)
    assert np.array_equal(a.values["R"], b.values["R"])
    assert a.to_row() == b.to_row()


def test_run_coupling_sphere_and_hyperbolic_small():
    Ms = G.Sphere(2, 1.0)
    y = np.array([0.0, 0.0, 1.0])
    x = Ms.exp(y, 0.2 * Ms.frame(y)[0])
    cfg = C.standard_coupling_config(Ms, x, y, T=0.5, h=2e-3)
    diag = C.run_coupling(Ms, cfg, 5000, master_seed=3)
    assert abs(diag.e_r.mean - 1.0) <= 3 * diag.e_r.stderr
    assert diag.e_rlogr.mean <= diag.entropy_bound + 3 * diag.e_rlogr.stderr
    assert diag.max_rho_excess <= 5.0 * math.sqrt(cfg.h)

    Mh = G.Hyperbolic()
    cfg = C.standard_coupling_config(Mh, [0.0, math.exp(0.2)], [0.0, 1.0], T=0.5, h=2e-3)
    diag = C.run_coupling(Mh, cfg, 5000, master_seed=3)
    assert abs(diag.e_r.mean - 1.0) <= 3 * diag.e_r.stderr
    assert diag.coupling_weighted.mean >= 0.97


def test_run_coupling_pinned_diagnostics():
    # pinned floats of two seeded runs: any change to the arithmetic of
    # the coupled step shows here; a deliberate path change re-pins them
    Ms = G.Sphere(2, 1.0)
    x = np.array([0.0, -0.19866933079506122, 0.9800665778412416])
    cfg = C.standard_coupling_config(Ms, x, [0.0, 0.0, 1.0], T=0.5, h=2e-3)
    d = C.run_coupling(Ms, cfg, 300, master_seed=3)
    assert (d.e_r.mean, d.e_r.stderr) == (1.0334934942462073, 0.03666267561569859)
    assert (d.e_rlogr.mean, d.e_rlogr.stderr) == (0.18366616388593224, 0.059747659099782205)
    assert d.max_rho_excess == -0.009904621589657714
    assert d.theta_counts["coupled"] == 300

    Mh = G.Hyperbolic()
    cfg = C.standard_coupling_config(Mh, [0.0, math.exp(0.2)], [0.0, 1.0], T=0.5, h=2e-3)
    d = C.run_coupling(Mh, cfg, 300, master_seed=3)
    assert (d.e_r.mean, d.e_r.stderr) == (0.9523358973471033, 0.029668678263785102)
    assert (d.e_rlogr.mean, d.e_rlogr.stderr) == (0.07970540525099074, 0.036261802686072125)
    assert (d.coupling_weighted.mean, d.coupled_fraction) == (0.9522515769682612, 299 / 300)
    assert d.max_rho_excess == -0.005067080974475446
    assert (d.theta_counts["coupled"], d.theta_counts["tau_D_y"]) == (299, 1)


# sha256 of (log_R, theta) of one pair at rho = 0.3 under the standard
# config (T = 0.5, h = 1e-2, 2000 pairs, seed 11); a deliberate change
# of the coupled paths re-pins them
PINNED_PAIRS = {
    "euclidean-2": (G.Euclidean(2), [0.3, 0.0], [0.0, 0.0],
                    "9b18320c6cb85f16ce6072d703128d9d5a8108f94da6f7e207b32e4b7417cd19",
                    "df8d998a715241dfff5794af97ddf6755e31b6158bee582b3e788cedb57b2812"),
    "euclidean_ball-2": (G.EuclideanBall(2, 2.0), [1.5, 0.0], [1.2, 0.0],
                         "e56207e2d7d78688676cf534bde4d2fdef1633b2377673d501d246c8b0335e10",
                         "68730b6bd6333ba7a1dec9f6d129b270022c93403f65d9c4fb2d44eef5ef5b32"),
    "sphere-2": (G.Sphere(2, 1.0), [0.0, math.sin(0.3), math.cos(0.3)], [0.0, 0.0, 1.0],
                 "b46d9b3852b475723eff350ac2be3072572b54202f9bbe3822b499fb54a1709a",
                 "2ae5edf639b13952dcfbc04e92f6818f2b5cba70a916bec74bcf6ae17bc71417"),
    "hyperbolic": (G.Hyperbolic(), [0.0, math.exp(0.3)], [0.0, 1.0],
                   "ca27713ebd73b8ed51aa76501ca5622f9f50368f841d173d012a6705e31e6d7c",
                   "1ecfdae3fdbe8f6ce8209476766bb1cffd163aad8a3a6e24ea557a1c6329ad0b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_PAIRS))
def test_run_coupling_pinned_pair_values(name):
    # per-pair bits of the coupled step: any change to its arithmetic,
    # its noise or its stopping order shows here
    M, x, y, log_r_digest, theta_digest = PINNED_PAIRS[name]
    cfg = C.standard_coupling_config(M, x, y, T=0.5, h=1e-2)
    values = C.run_coupling(M, cfg, 2000, master_seed=11).values
    assert hashlib.sha256(values["log_R"].tobytes()).hexdigest() == log_r_digest
    assert hashlib.sha256(values["theta"].tobytes()).hexdigest() == theta_digest


def test_measure_change_reproduces_semigroup_flat():
    # the identity the construction exists for: under the reweighting,
    # the merged point at the horizon has the law of the diffusion
    # started at y, so E[R f(X_T); coupled] ~ P_T f(y)
    from logharnack import estimators as E

    M = G.Euclidean(1)
    f = E.one_plus_bump([0.3], 0.8, b=0.6)
    cfg = C.standard_coupling_config(M, [0.0], [0.3], T=0.5, h=1e-3)
    diag = C.run_coupling(M, cfg, 50_000, master_seed=77, terminal_fn=f)
    vals = diag.values
    w = np.where(vals["coupled"], vals["R"] * np.nan_to_num(vals["terminal"]), 0.0)
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(len(w)))
    oracle = E.oracle_semigroup(M, [0.3], 0.5, f)
    defect = abs(1.0 - diag.coupling_weighted.mean)
    assert abs(est - oracle) <= 3 * se + 1.6 * defect + 1e-3


def test_measure_change_reproduces_semigroup_sphere():
    # no closed form here: compare against the direct estimate from y
    from logharnack import estimators as E

    M = G.Sphere(2, 1.0)
    y = np.array([0.0, 0.0, 1.0])
    x = M.exp(y, 0.3 * M.frame(y)[0])
    f = E.one_plus_bump([0.0, 0.0, 1.0], 1.0, b=0.7)
    cfg = C.standard_coupling_config(M, x, y, T=0.5, h=1e-3)
    diag = C.run_coupling(M, cfg, 30_000, master_seed=78, terminal_fn=f)
    vals = diag.values
    w = np.where(vals["coupled"], vals["R"] * np.nan_to_num(vals["terminal"]), 0.0)
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(len(w)))
    direct = E.mc_functional(M, y, 0.5, f, "f", 30_000, 1e-3, 123)
    defect = abs(1.0 - diag.coupling_weighted.mean)
    assert abs(est - direct.mean) <= 3 * math.hypot(se, direct.stderr) + 1.7 * defect + 1e-3


def test_run_coupling_boundary_variants():
    # both processes reflect at the convex boundary while the Girsanov
    # accounting stays exact
    Mh = G.HalfSpace(1)
    cfg = C.standard_coupling_config(Mh, [0.9], [0.6], T=0.5, h=1e-3)
    d = C.run_coupling(Mh, cfg, 10_000, master_seed=6)
    assert abs(d.e_r.mean - 1.0) <= 3 * d.e_r.stderr
    assert d.e_rlogr.mean <= d.entropy_bound + 3 * d.e_rlogr.stderr
    assert d.coupling_weighted.mean >= 0.97

    Mb = G.EuclideanBall(2, 2.0)
    cfg = C.standard_coupling_config(Mb, [0.3, 0.0], [0.0, 0.0], T=0.5, h=1e-3)
    d = C.run_coupling(Mb, cfg, 10_000, master_seed=7)
    assert abs(d.e_r.mean - 1.0) <= 3 * d.e_r.stderr
    assert d.e_rlogr.mean <= d.entropy_bound + 3 * d.e_rlogr.stderr


def test_run_coupling_circle():
    M = G.Sphere(1, 1.0)
    x = np.array([math.cos(0.3), math.sin(0.3)])
    cfg = C.standard_coupling_config(M, x, [1.0, 0.0], T=0.5, h=1e-3)
    d = C.run_coupling(M, cfg, 10_000, master_seed=5)
    assert abs(d.e_r.mean - 1.0) <= 3 * d.e_r.stderr
    assert d.coupling_weighted.mean >= 0.97
    assert d.max_rho_excess <= 5 * math.sqrt(1e-3)


def test_diagnostics_row_keys():
    M, cfg = euclid_config(rho0=0.2, T=0.5, h=2e-3)
    diag = C.run_coupling(M, cfg, 2000, master_seed=2)
    row = diag.to_row()
    for key in ("e_r", "e_rlogr", "entropy_bound", "coupling_weighted",
                "coupled_fraction", "flagged_fraction", "n", "seed"):
        assert key in row
