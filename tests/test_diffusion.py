import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from logharnack import geometry as G
from logharnack.diffusion import PathConfig, local_time_profile, simulate_ensemble
from logharnack.rng import BLOCK_SIZE, stream

from helpers import bm_two_sided_exit_prob, reflected_stopped_local_time, simulate_with_exits


# ----------------------------------------------------------------------
# single step
# ----------------------------------------------------------------------


def _one_step(M, x, h, xi, u=None):
    """(position, local-time increment, alive) after one step of a live path."""
    new, dl, alive = M.step(np.array([x], dtype=float), h, np.array([xi], dtype=float),
                            np.array([True]), None if u is None else np.array([u]))
    return new[0], None if dl is None else float(dl[0]), bool(alive[0])


def test_step_euclidean_is_exact_gaussian_increment():
    M = G.Euclidean(2)
    h, x, noise = 1e-2, np.array([0.5, -1.0]), np.array([1.3, -0.7])
    pos, _, alive = _one_step(M, x, h, noise)
    assert np.allclose(pos, x + math.sqrt(2 * h) * noise, atol=0, rtol=0)
    assert alive


def test_step_ou_mean_contraction():
    # drift-only step contracts by exactly (1 - lam h)
    M = G.OrnsteinUhlenbeck(1, 1.0)
    pos, _, _ = _one_step(M, [2.0], 1e-2, [0.0])
    assert pos[0] == pytest.approx(2.0 * (1 - 1.0 * 1e-2), abs=1e-15)


def test_step_reflection_keeps_half_space():
    M = G.HalfSpace(1)
    h = 1e-2
    q = 0.01 + math.sqrt(2 * h) * (-5.0)  # large inward-crossing noise
    # touched the wall with probability p = 2 e^{-ay/h} / (1 + e^{-ay/h})
    e = math.exp(-0.01 * -q / h)
    p, s = 2 * e / (1 + e), 0.01 - q
    for u, dl_exact in [(0.01, math.sqrt(s * s - 4 * h * math.log(0.01 / p)) - s),
                        (0.3, math.sqrt(s * s - 4 * h * math.log(0.3 / p)) - s), (0.9, 0.0)]:
        pos, dl, _ = _one_step(M, [0.01], h, [-5.0], u)
        # the mirrored position |x + dx|, and the local time drawn given
        # both ends
        assert pos[0] == -q
        assert dl == pytest.approx(dl_exact, rel=1e-12, abs=0.0)
    assert 0.3 < p < 0.9
    # far from the wall at both ends, no local time
    assert _one_step(M, [0.5], h, [0.1], 1e-3)[1] == 0.0
    # without uniforms only the position is stepped
    assert _one_step(M, [0.01], h, [-5.0])[1] is None


@pytest.mark.parametrize("a", [0.0, 0.05, 0.2])
def test_half_space_step_local_time_completes_a_gaussian_increment(a):
    # y = a + W + dl (the Skorokhod map of the step), so W = y - a - dl is
    # the driving N(0, 2h) increment when dl has its exact law given (a, y)
    M, h, n = G.HalfSpace(1), 0.01, 400_000
    rng = np.random.default_rng(1)
    x = np.full((n, 1), a)
    y, dl, _ = M.step(x, h, rng.standard_normal((n, 1)), np.ones(n, dtype=bool),
                      1.0 - rng.random(n))
    w = (y[:, 0] - a - dl) / math.sqrt(2 * h)
    assert abs(w.mean()) < 4 / math.sqrt(n)
    assert abs(w.var() - 1.0) < 4 * math.sqrt(2 / n)
    assert abs(np.mean(w**4) / 3.0 - 1.0) < 4 * math.sqrt(96 / n) / 3.0
    se = dl.std() / math.sqrt(n)
    assert abs(dl.mean() - (y[:, 0].mean() - a)) < 4 * math.sqrt(se**2 + y.var() / n)
    # the Euler overshoot 2 max(0, -(a + W)) passes the checks above; its
    # second moment does not (4h against 2h from the wall): P(l_h > z) =
    # P(min of a + W over the step < -z) = erfc((a + z) / (2 sqrt h))
    m2 = quad(lambda z: 2 * z * math.erfc((a + z) / (2 * math.sqrt(h))), 0, np.inf)[0]
    assert abs(np.mean(dl**2) - m2) < 4 * np.std(dl**2) / math.sqrt(n)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(h=0.0, T=1.0)
    with pytest.raises(ValueError):
        PathConfig(h=2.0, T=1.0)


# ----------------------------------------------------------------------
# ensembles
# ----------------------------------------------------------------------


def test_euclidean_marginal_law():
    # X_T ~ N(x, 2T Id) componentwise within 3 stderr
    M = G.Euclidean(2)
    n = 40_000
    res = simulate_ensemble(M, [0.3, -0.2], 0.5, 1e-2, n, master_seed=2024)
    pos = res["positions"]
    se_mean = math.sqrt(1.0 / n)
    for j, c in enumerate([0.3, -0.2]):
        assert abs(pos[:, j].mean() - c) < 3 * se_mean
        v = pos[:, j].var()
        se_var = 1.0 * math.sqrt(2.0 / n)
        assert abs(v - 1.0) < 3 * se_var


def test_conservative_variants_never_die():
    for M, x in [
        (G.Euclidean(1), [0.0]),
        (G.Sphere(2, 1.0), [0.0, 0.0, 1.0]),
        (G.Hyperbolic(), [0.0, 1.0]),
        (G.HalfSpace(1), [0.2]),
    ]:
        res = simulate_ensemble(M, x, 0.3, 1e-2, 2000, master_seed=1)
        assert res["alive"].all()


def test_reflection_positivity_half_space():
    M = G.HalfSpace(2)
    res = simulate_ensemble(M, [0.05, 0.0], 0.5, 1e-2, 5000, master_seed=3)
    assert np.all(res["positions"][:, 0] >= 0)
    assert np.any(res["local_time"] > 0)


def test_ball_paths_stay_inside():
    M = G.EuclideanBall(2, 1.5)
    res = simulate_ensemble(M, [0.0, 0.0], 1.0, 1e-2, 3000, master_seed=9)
    assert np.all(np.linalg.norm(res["positions"], axis=-1) <= 1.5 + 1e-9)


def test_exit_time_monotone_in_domain():
    # same noise: enlarging the domain never shortens the exit time
    M = G.Euclidean(1)
    x = np.array([0.0])
    res = simulate_with_exits(M, x, 1.0, 1e-2, 4000, master_seed=11, domains=[(x, 0.5), (x, 1.0)])
    t_small, t_big = res["exit_times"]
    assert np.all(t_small <= t_big + 1e-12)


def test_explosive_paths_record_death():
    M = G.ExplosiveDrift1D()
    res = simulate_ensemble(M, [3.0], 1.0, 1e-3, 2000, master_seed=5)
    # from x = 3 the drift overwhelms the noise: every path explodes
    assert (~res["alive"]).mean() > 0
    assert (~res["alive"]).all()
    # diffusion-dominated start: a nondegenerate fraction survives
    res0 = simulate_ensemble(M, [0.0], 1.0, 1e-3, 20_000, master_seed=5)
    frac = res0["alive"].mean()
    assert 0.3 < frac < 0.7
    # pinned regression value for the fixed seed / block layout
    assert frac == pytest.approx(0.46505, abs=1e-12)


def test_explosive_threshold_doubling_is_immaterial():
    M = G.ExplosiveDrift1D()
    res = simulate_ensemble(M, [0.0], 0.5, 1e-3, 10_000, master_seed=8)
    M2 = G.ExplosiveDrift1D()
    M2.explosion_threshold = 2e6
    res2 = simulate_ensemble(M2, [0.0], 0.5, 1e-3, 10_000, master_seed=8)
    assert abs(res["alive"].mean() - res2["alive"].mean()) < 2e-3


def test_exit_probability_against_reflection_series():
    # P(sigma_r <= t) for the flat 1-d variant against the eigen-series;
    # the discrete-monitoring bias only under-counts
    M = G.Euclidean(1)
    n = 100_000
    res = simulate_with_exits(M, [0.0], 0.05, 1e-4, n, master_seed=17, domains=[([0.0], 1.0)])
    p_mc = float(np.mean(res["exit_times"][0] <= 0.05))
    p_exact = bm_two_sided_exit_prob(0.05, 1.0)
    assert p_exact == pytest.approx(3.1e-3, rel=0.05)
    se = math.sqrt(p_exact * (1 - p_exact) / n)
    assert p_mc <= p_exact + 3 * se
    assert p_mc >= 0.5 * p_exact - 3 * se


def test_exit_probability_superpolynomial_decay():
    # the spec's 1e-3 budget is met at t = 0.02 (series value 4.2e-5)
    assert bm_two_sided_exit_prob(0.02, 1.0) < 1e-4
    M = G.Euclidean(1)
    res = simulate_with_exits(M, [0.0], 0.02, 1e-4, 50_000, master_seed=19,
                              domains=[([0.0], 1.0)])
    p_mc = float(np.mean(res["exit_times"][0] <= 0.02))
    assert p_mc < 1e-3


# ----------------------------------------------------------------------
# local time
# ----------------------------------------------------------------------


def test_local_time_profile_short_time_vanishes():
    M = G.HalfSpace(1)
    ests, _ = local_time_profile(M, [0.0], [1e-4], 5000, 1e-5, master_seed=6)
    assert ests[0].mean < 0.02


def test_local_time_profile_matches_flat_boundary_value():
    # E l_{t ^ sigma_1} ~ 2 sqrt(t/pi): the regulator estimator is
    # unbiased at grid times for the driftless half-space
    M = G.HalfSpace(1)
    t_grid = [0.01, 0.04]
    ests, ref = local_time_profile(M, [0.0], t_grid, 50_000, 1e-4, master_seed=7)
    for t, e, r in zip(t_grid, ests, ref):
        assert abs(e.mean - r) <= 3 * e.stderr + 0.5 * t, (t, e.mean, r)


# sha256 of (means, standard errors) of local_time_profile at r = 0.1,
# where most paths stop before the last grid time, per variant: the
# ball's recorded while the stop was an option of simulate_ensemble, the
# half-space's when their local time was drawn from the exact law (the
# half-line also reading its exit inside each step, on 160 steps)
LOCAL_TIME_STOP_DIGESTS = {
    "half_space-1": (G.HalfSpace(1), [0.0],
                     "18774d7091922a593df54299cd4f428a89a430d588eef72eb0af10d9cdd4855b"),
    "half_space-2": (G.HalfSpace(2), [0.02, 0.1],
                     "08f3a6722304d29dd344a1442987b6283924f9b8ec3f525f442fa32dc745b0fc"),
    "euclidean_ball-2": (G.EuclideanBall(2, 1.0), [0.97, 0.0],
                         "e5026032b40aebc0e0317337d1c7fe497cc615e792d88d14e41c0445cd41e462"),
}


def test_local_time_profile_stopped_at_small_radius_matches_pinned_digest():
    got = {}
    for name, (M, x, _) in LOCAL_TIME_STOP_DIGESTS.items():
        ests, _ = local_time_profile(M, x, [0.0025, 0.01, 0.04], 20_000, 1e-4, master_seed=5, r=0.1)
        got[name] = _sha256([e.mean for e in ests], [e.stderr for e in ests])
    assert got == {name: digest for name, (_, _, digest) in LOCAL_TIME_STOP_DIGESTS.items()}


def test_local_time_profile_on_the_half_space_steps_at_h(ensemble_steps):
    # on the half-line the clock is the least number of uniform steps of
    # at most r^2 / 40 that puts every grid time on a step: 4 of 0.01,
    # not 40 of h; HalfSpace(2) reads its exit at step times, so steps at h
    local_time_profile(G.HalfSpace(1), [0.0], [0.01, 0.04], 2000, 1e-3, master_seed=5)
    local_time_profile(G.HalfSpace(2), [0.0, 0.0], [0.01, 0.04], 2000, 1e-3, master_seed=5)
    assert ensemble_steps == [(0.04, 4), (0.04, 40)]
    # with no such clock at most T / h steps (r^2 / 40 = 1e-3 needs 40
    # steps at r = 0.2), the clock is h
    local_time_profile(G.HalfSpace(1), [0.0], [0.01, 0.04], 2000, 2e-3, master_seed=5, r=0.2)
    assert ensemble_steps[-1] == (0.04, 20)
    # however large r, the grid needs its 4 steps
    local_time_profile(G.HalfSpace(1), [0.0], [0.01, 0.04], 2000, 1e-3, master_seed=5, r=1e7)
    assert ensemble_steps[-1] == (0.04, 4)


def test_half_space_positions_are_the_euler_ones():
    # the exact local time draws its uniforms from a stream of its own, so
    # every position is bitwise the Euler one on the block's normals,
    # |a + sqrt(2h) xi| on the first coordinate
    h = 0.01
    res = simulate_ensemble(G.HalfSpace(2), [0.05, 0.2], 0.05, h, 300, master_seed=4, block_size=200)
    for b, lo, hi in [(0, 0, 200), (1, 200, 300)]:
        rng = stream(4, 0, b)
        pos = np.tile([0.05, 0.2], (hi - lo, 1))
        for _ in range(5):
            pos = pos + (math.sqrt(2 * h) * rng.standard_normal((hi - lo, 2)) + 0.0)
            pos[:, 0] = np.abs(pos[:, 0])
        assert np.array_equal(pos, res["positions"][lo:hi])
    assert np.any(res["local_time"] > 0)


def test_stopped_local_time_series_values():
    assert reflected_stopped_local_time(0.04, 0.3)[0] == pytest.approx(0.21878, abs=1e-5)
    assert reflected_stopped_local_time(0.04, 0.1)[0] == pytest.approx(0.099996, abs=1e-6)
    # long before the exit it is the unstopped 2 sqrt(t / pi); at length r
    assert reflected_stopped_local_time(0.0025, 1.0)[0] == pytest.approx(
        2 * math.sqrt(0.0025 / math.pi), rel=1e-12)
    assert reflected_stopped_local_time(50.0, 0.3)[0] == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.3])
def test_local_time_profile_stopped_on_the_half_line_matches_the_eigen_series(r):
    # the exact step and the in-step exit; with exits read at step times
    # alone, the same clock and paths read +10 se (r = 0.3) and +52 se
    # (r = 0.1) at t = 0.04
    t_grid = [0.0025, 0.01, 0.04]
    ests, _ = local_time_profile(G.HalfSpace(1), [0.0], t_grid, 200_000, 1e-4, master_seed=11, r=r)
    for t, e in zip(t_grid, ests):
        exact, tail = reflected_stopped_local_time(t, r)
        assert abs(e.mean - exact) <= 3 * e.stderr + tail, (t, e.mean, exact, e.stderr)


def test_local_time_profile_above_the_wall_stops_before_any_local_time():
    # from x = 0.15 at r = 0.1 a path must cross 0.05 before it touches
    # the wall, so every stopped local time is 0; on this clock of h (the
    # grid clock would need 160 steps of r^2 / 40) many steps go from
    # inside the ball to the wall
    ests, _ = local_time_profile(G.HalfSpace(1), [0.15], [0.01, 0.04], 20_000, 1e-3, master_seed=3,
                                 r=0.1)
    assert [e.mean for e in ests] == [0.0, 0.0]


def test_local_time_profile_from_distance_r_stops_at_the_wall():
    # from x = r the wall is at distance r, so a path that touches it
    # exits with no local time; a rule that read wall touches only from
    # x > r gave 0.0423 +- 0.0007 at t = 0.04 here, and 0 from 0.3 + 1e-12
    ests, _ = local_time_profile(G.HalfSpace(1), [0.3], [0.01, 0.04], 20_000, 1e-4, master_seed=5,
                                 r=0.3)
    assert [e.mean for e in ests] == [0.0, 0.0]


def test_local_time_needs_boundary():
    with pytest.raises(ValueError):
        local_time_profile(G.Euclidean(1), [0.0], [0.1], 5000, 1e-3, 0)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


def test_ensemble_bitwise_reproducible():
    M = G.Sphere(2, 1.0)
    a = simulate_ensemble(M, [0.0, 0.0, 1.0], 0.3, 1e-2, 3000, master_seed=42)
    b = simulate_ensemble(M, [0.0, 0.0, 1.0], 0.3, 1e-2, 3000, master_seed=42)
    assert np.array_equal(a["positions"], b["positions"])
    c = simulate_ensemble(M, [0.0, 0.0, 1.0], 0.3, 1e-2, 3000, master_seed=43)
    assert not np.array_equal(a["positions"], c["positions"])


# sha256 of simulate_ensemble outputs recorded before the block loop
# stepped all blocks in lockstep (sphere-2: re-recorded when its noise
# became the tangent projection of three normals; half_space: when its
# local time was drawn from the exact law, positions, alive flags and
# exit times keeping their bytes), and before the stop
# and the exit times moved from the stepping loop into a reducer that
# marks every step: three blocks (2500 paths, block size 1000), a stop
# ball, two exit balls and three marks; the mark digest covers (local
# time, alive) at each mark, stacked in mark order
PINNED_ENSEMBLES = {
    "half_space": (G.HalfSpace(1), [0.05], 0.05, 1e-3,
                   "d7df1242446269fa57deb8ac329c10be2ced97eef83168eb3dfb8c90db1ab6b0",
                   "e868e0a3c3f8acd7d1521612edc8cc341473f8cc1c2db80d6492fa52962ba9fd"),
    "sphere-2": (G.Sphere(2, 1.0), [0.0, 0.0, 1.0], 0.2, 1e-2,
                 "b9f2ea8bd39dbc33ca719d38a601531be4e42a935e1934b8bc3bb76cf66d5e47",
                 "496a0f9111dc9cc4bb2574a6ab85d4cd90b59ff838663518b47623dbc256f4be"),
}


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_ENSEMBLES))
def test_multi_block_ensemble_matches_pinned_digest(name):
    M, x0, T, h, terminal, marks = PINNED_ENSEMBLES[name]
    c = np.asarray(x0)
    res = simulate_with_exits(
        M, x0, T, h, 2500, 11,
        marks=[T / 4, T / 2, T],
        on_mark=lambda i, pos, alive, l: (l.copy(), alive.copy()),
        stop=(c, 0.15),
        domains=[(c, 0.1), (c, 0.2)],
        block_size=1000,
    )
    assert _sha256(res["positions"], res["alive"], res["local_time"], res["exit_times"]) == terminal
    stacked = [np.stack([m[k] for m in res["marks"]]) for k in (0, 1)]
    assert _sha256(*stacked) == marks


_C3, _S3 = math.cos(0.3), math.sin(0.3)
# (model, start points, T, h) of the multi-start runs
MULTI_START = {
    "euclidean-1": (G.Euclidean(1), [[0.0], [0.3], [-0.2]], 0.05, 1e-2),
    "euclidean-2": (G.Euclidean(2), [[0.0, 0.0], [0.3, -0.1]], 0.05, 1e-2),
    "ornstein_uhlenbeck-1": (G.OrnsteinUhlenbeck(1, 1.0), [[0.5], [-0.4]], 0.05, 1e-2),
    "sphere-1": (G.Sphere(1, 1.0), [[1.0, 0.0], [_C3, _S3]], 0.05, 1e-2),
    "sphere-2": (G.Sphere(2, 1.0), [[0.0, 0.0, 1.0], [_S3, 0.0, _C3]], 0.05, 1e-2),
    "hyperbolic-2": (G.Hyperbolic(), [[0.0, 1.0], [0.2, 1.1]], 0.05, 1e-2),
    "euclidean_ball-2": (G.EuclideanBall(2, 1.0), [[0.95, 0.0], [0.0, 0.0]], 0.05, 1e-2),
    "half_space-1": (G.HalfSpace(1), [[0.05], [0.02]], 0.05, 1e-2),
    "half_space-2": (G.HalfSpace(2), [[0.05, 0.0], [0.01, 0.3]], 0.05, 1e-2),
    "explosive_drift_1d-1": (G.ExplosiveDrift1D(), [[0.0], [1.0], [2.0]], 0.5, 0.1),
}

# sha256 of (terminal state, mark states) of each start run on its own,
# recorded before starts could share an ensemble (sphere-2: re-recorded,
# each start on its own, for the projected noise; half_space: for the
# exact local time, all else keeping its bytes): BLOCK_SIZE + 100 paths
# (two blocks), seed 29, a stop ball and two exit balls about the first
# start (read at every step), marks at T/4, T/2 and T; the digest covers
# (positions, alive, local time) at each mark, stacked in mark order
PER_START_DIGESTS = {
    "euclidean-1": [
        ("f91b5f317bf8c7b0fd49f29d8a264d45ce36cfd569fa3a51d035339a70545025",
         "8d392224747792992696c620b662b1dc14d9c70caa2b799cd644884e6930c845"),
        ("6c9317a2e86fb291111822fc30499b5f91f9b5711be0ab5452bd5d028ecf7a08",
         "666970b6aa63dc3ddabd9f66f7903db0814648b65bf7afc713fbf6bcd5761cf6"),
        ("f4a5764e7e6c2b2b24f36705b52aafa982fc61dfb0a211085cdca8df7d88cfe4",
         "c00337f306675e67e2a32ae9a75f32cf71b59ea708f14f5f2c75ced72eb0611f"),
    ],
    "euclidean-2": [
        ("f2df9e59d1b14c589b2bf9def53d833a48af4e3bab863635a588e556828058b2",
         "68c0d8388c51ac0bfc5233f4618567d64f077a6e0b605b50580dfa8570219786"),
        ("46a09d422ed6b3df023e167c44ec691bf80bfb020787a12c9174326c028162c2",
         "c50aa5716411ce124d923231759347529ab71a7df5316f25741a51db246c76e8"),
    ],
    "ornstein_uhlenbeck-1": [
        ("53add540b4380c15b5bcaade6841f162c62abb1d76a0b6709b49676119f1077e",
         "91b6f9b4461e6e1c7a1d9f1cce4c2eea429e439f9ad2cdbc082256b86840ddd2"),
        ("f7eb875aff19bbb21fc04407d4c3f7cab907b885243acc68c5029b065e251844",
         "2eb990b89c275d66b6ce502d77227d64fd956d7f91e5c4f842aaf1785e674a01"),
    ],
    "sphere-1": [
        ("8457da9450e0bdb5e229a024d6a01bf9f9c86bb51339cc5c512dc448ef285244",
         "d4af054fc04b22b394721b65429283b957116d86d06db32004f0a47af17e0c0f"),
        ("48e4c148d4cae5b7b769ebb2118ccda749fd95b7a75d896042013f26d4bacfee",
         "5a862640545919803b37b73b9a110ecd685d534dcfa4dd22cb06071d27f44faa"),
    ],
    "sphere-2": [
        ("8cc1d974a1b0252f995cef49a62b8bce788b2b8af3fca889b553777bf5104795",
         "37d8c5e528c22407f8e04519bbedc8fd8181d5729eaac7d0dfd84e503cb219f6"),
        ("4a83d072febb0ab6bacc2d0b84fcb6ed7b9689c58318ee166ea05d7806ccef8e",
         "d357b32877716aaea680a6029b8657f756dbfcf19d4aaa47edd7d30952c9de14"),
    ],
    "hyperbolic-2": [
        ("62f5403e153a1c8f39b56efed710d8479855737d0ff9134ea7826f43d38bd393",
         "116e276072a4fa0d6157cc3e75b50442b03553839d16195dcc1f5d17cede617f"),
        ("276c76081c75c32cdabc8e06b189c0e7a1067abc3448787bc60d2173e562c07f",
         "b4d1b2a38fb0a327be154a3bae3a8da1af29249cd68e13dd58498d04352ca772"),
    ],
    "euclidean_ball-2": [
        ("718d7f7d8f10f9eaca077d0edfacd88edca7e4bfec86c058ddbe40aa044023bd",
         "362cc92b8b6bf1348b517e0ab9ec95521dc8157e4f40bd9b1cbc66bd96afc74d"),
        ("3e65fa1764249d05279488e82c8c107f6ca4061c909f2ece5917b624ddb427d9",
         "72c989bf9990a586d1fd40930680ffd376999db9fa86ac5b296c0b9b67c0116a"),
    ],
    "half_space-1": [
        ("48f2a6fb07976ca5e7234b1c8c2f38a885f2bf3084a8e0d20d0dacfe57c30206",
         "c6ebcb727ce53d28830662fde262b18bee2bfb7c79a83c7f2e6813eec4e027d2"),
        ("3e7565c567c60f911c5898093fbbfb26ce40bb2af7ddb8f738cefb389dde6a69",
         "a28daec31686c59ff9c74453771b8b684c8a007c34e6b5665d187f28c374b857"),
    ],
    "half_space-2": [
        ("e96ddad868b49c8d17b8ff1495c1014cbaff5001be4c146cb4ed4b588e34e7ef",
         "0243ff6e0be283463e6ba325f31bd32efdf3d94f16f6e0c39a6e877e8a8cb1d3"),
        ("3c94b8a551704183a40b311ebdd3a0b6308bf72a90010643ecfe0cd950dda190",
         "0fe1fa8a3a1e8a15977a5488554ac66de9ef55f13baeebde242b548d11b2ba34"),
    ],
    "explosive_drift_1d-1": [
        ("813a83a7d6c9048a287de20ce7a5e0ba714879d00972719e0080ac46d691c073",
         "b348d7a112ccfafbef61083993e1e5ec258dee3f51402632ab281016a4b36abb"),
        ("35bf71fead867f853e8838e39e57fe0a442455b87642ca32849a6f2ad3d00fc5",
         "9915e2c80f203f065ec62ea249d09c62f559ff99de22f6f788c0bd8818b734ec"),
        ("c94c6e410aae3b12b26fff7f3b7662a3f9f0ce2c24d06818c03956c3689dee65",
         "515864a6678b9e74bb68bb7ee829a863804ea9721fe78df1d65c6f68eaa7c7f9"),
    ],
}


@pytest.mark.parametrize("name", sorted(MULTI_START))
def test_multi_start_ensemble_matches_per_start_runs(name):
    M, starts, T, h = MULTI_START[name]
    c = np.asarray(starts[0])
    n = BLOCK_SIZE + 100
    res = simulate_with_exits(
        M, starts, T, h, n, 29,
        marks=[T / 4, T / 2, T],
        on_mark=lambda i, pos, alive, l: (pos.copy(), alive.copy(), l.copy()),
        stop=(c, 0.15),
        domains=[(c, 0.1), (c, 0.25)],
    )
    k = len(starts)
    assert res["positions"].shape == (k, n, M.chart_dim) and res["exit_times"].shape == (2, k, n)
    for s, (terminal, marks) in enumerate(PER_START_DIGESTS[name]):
        assert _sha256(res["positions"][s], res["alive"][s], res["local_time"][s],
                       res["exit_times"][:, s]) == terminal
        assert _sha256(*[np.stack([m[j][s] for m in res["marks"]]) for j in (0, 1, 2)]) == marks


@pytest.mark.parametrize("x0", [[1.0, 0.0, 0.0], [0.6, 0.48, 0.64]], ids=["on-axis", "off-axis"])
def test_sphere_starts_that_share_noise_stay_together(x0):
    # starts x0 +- 1e-3 along one tangent share every normal; with a frame
    # that jumps where its reference axis switches, 10.7% (from (1, 0, 0))
    # and 3.6% of the pairs ended more than 10x further apart by t = 0.01
    M, x0 = G.Sphere(2), np.asarray(x0)
    starts = np.stack([M.exp(x0, s * M.frame(x0)[0]) for s in (1e-3, -1e-3)])
    res = simulate_ensemble(M, starts, 0.01, 1e-3, 20_000, master_seed=3)
    apart = M.distance(res["positions"][0], res["positions"][1])
    assert np.count_nonzero(apart > 10.0 * M.distance(*starts)) == 0


def test_simulate_ensemble_ends_exactly_at_the_horizon():
    # T / h = 10/3: four steps of 0.25 on the block's stream, not of 0.3
    M = G.Euclidean(1)
    n = 5
    res = simulate_ensemble(M, [0.0], 1.0, 0.3, n, master_seed=2)
    assert (res["n_steps"], res["h_eff"]) == (4, 0.25)
    rng = stream(2, 0, 0)
    pos, alive = np.zeros((n, 1)), np.ones(n, dtype=bool)
    for _ in range(4):
        pos, _, alive = M.step(pos, 0.25, rng.standard_normal((n, M.noise_width)), alive)
    assert np.array_equal(pos, res["positions"])


def test_step_hook_sees_read_only_state_after_each_step():
    M = G.ExplosiveDrift1D()
    seen, at_two = [], []

    def on_step(k, pos, alive, l):
        assert not (pos.flags.writeable or alive.flags.writeable or l.flags.writeable)
        seen.append((k, alive.sum()))
        if k == 2:
            at_two.append(pos.copy())

    res = simulate_ensemble(M, [1.0], 0.05, 1e-2, 300, 3, on_step=on_step, block_size=100)
    assert [k for k, _ in seen] == list(range(1, res["n_steps"] + 1))  # in step order
    alive = [a for _, a in seen]
    assert alive == sorted(alive, reverse=True) and alive[-1] == res["alive"].sum()  # lifetimes only end
    # the state after step 2 is the end of a two-step run on the same streams
    short = simulate_ensemble(M, [1.0], 0.02, 1e-2, 300, 3, block_size=100)
    assert np.array_equal(at_two[0], short["positions"])
    assert "marks" not in res
