import hashlib
import math

import numpy as np
import pytest

from logharnack import geometry as G
from logharnack.diffusion import (
    PathConfig,
    PathState,
    local_time_profile,
    simulate_ensemble,
    simulate_path,
    step,
)

from helpers import bm_two_sided_exit_prob


# ----------------------------------------------------------------------
# single step
# ----------------------------------------------------------------------


def test_step_euclidean_is_exact_gaussian_increment():
    M = G.Euclidean(2)
    cfg = PathConfig(h=1e-2, T=1.0)
    st = PathState(position=np.array([0.5, -1.0]))
    noise = np.array([1.3, -0.7])
    out = step(M, st, cfg, noise)
    expected = st.position + math.sqrt(2 * cfg.h) * noise
    assert np.allclose(out.position, expected, atol=0, rtol=0)
    assert out.t == pytest.approx(cfg.h)
    assert out.alive


def test_step_ou_mean_contraction():
    # drift-only step contracts by exactly (1 - lam h)
    M = G.OrnsteinUhlenbeck(1, 1.0)
    cfg = PathConfig(h=1e-2, T=1.0)
    st = PathState(position=np.array([2.0]))
    out = step(M, st, cfg, np.array([0.0]))
    assert out.position[0] == pytest.approx(2.0 * (1 - 1.0 * cfg.h), abs=1e-15)


def test_step_reflection_keeps_half_space():
    M = G.HalfSpace(1)
    cfg = PathConfig(h=1e-2, T=1.0)
    st = PathState(position=np.array([0.01]))
    out = step(M, st, cfg, np.array([-5.0]))  # large inward-crossing noise
    assert out.position[0] >= 0
    assert out.local_time > 0
    # mirrored position |x + dx| and regulator 2 * overshoot
    q = 0.01 + math.sqrt(2 * cfg.h) * (-5.0)
    assert out.position[0] == pytest.approx(-q)
    assert out.local_time == pytest.approx(2.0 * (-q))


def test_step_requires_live_path():
    M = G.Euclidean(1)
    st = PathState(position=np.array([0.0]), alive=False)
    with pytest.raises(ValueError):
        step(M, st, PathConfig(h=1e-2, T=1.0), np.array([0.0]))


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
    res = simulate_ensemble(
        M, x, 1.0, 1e-2, 4000, master_seed=11, domains=[(x, 0.5), (x, 1.0)]
    )
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
    res = simulate_ensemble(M, [0.0], 0.05, 1e-4, n, master_seed=17, domains=[([0.0], 1.0)])
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
    res = simulate_ensemble(M, [0.0], 0.02, 1e-4, 50_000, master_seed=19, domains=[([0.0], 1.0)])
    p_mc = float(np.mean(res["exit_times"][0] <= 0.02))
    assert p_mc < 1e-3


# ----------------------------------------------------------------------
# simulate_path wrapper
# ----------------------------------------------------------------------


def test_simulate_path_constant_observable():
    M = G.Sphere(2, 1.0)
    cfg = PathConfig(h=1e-2, T=0.5, master_seed=4, path_index=7)
    state, rec = simulate_path(M, [0.0, 0.0, 1.0], cfg, {"f": lambda z: np.ones(z.shape[:-1])})
    assert rec["f"] == 1.0
    assert state.alive
    assert state.t == pytest.approx(0.5)


def test_simulate_path_records_exit_times():
    M = G.Euclidean(1)
    cfg = PathConfig(h=1e-2, T=2.0, master_seed=4, path_index=0)
    state, _ = simulate_path(
        M, [0.0], cfg, {"domains": [("small", [0.0], 0.3), ("big", [0.0], 1.5)]}
    )
    assert state.exit_times["small"] <= state.exit_times["big"]


def test_simulate_path_is_one_path_of_the_ensemble():
    M = G.Euclidean(2)
    cfg = PathConfig(h=1e-2, T=0.3, master_seed=123, path_index=5)
    state, _ = simulate_path(M, [0.0, 0.0], cfg)
    res = simulate_ensemble(M, [0.0, 0.0], 0.3, 1e-2, 1, 123, stream_id=5)
    assert np.allclose(state.position, res["positions"][0], atol=0)


def test_simulate_path_trace_dump(tmp_path):
    M = G.HalfSpace(1)
    cfg = PathConfig(h=1e-2, T=0.1, master_seed=3, path_index=1)
    out = tmp_path / "trace.csv"
    state, _ = simulate_path(M, [0.1], cfg, trace_file=str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x0,l,alive"
    assert len(lines) == cfg.n_steps + 2  # header + initial row + steps
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(state.position[0])
    assert float(last[2]) == pytest.approx(state.local_time)


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
# stepped all blocks in lockstep: three blocks (2500 paths, block size
# 1000), a stop domain, two exit domains and three marks; the mark digest
# covers (local time, alive) at each mark, stacked in mark order
PINNED_ENSEMBLES = {
    "half_space": (G.HalfSpace(1), [0.05], 0.05, 1e-3,
                   "80b2758d20e9a094d6690bdfc0daa6cec2ffb290d25801cc337b89067701cdc2",
                   "20aa6cfb58358327b9b8f2074f2cb57a697a54f4e8423269c64f2da7c6d06040"),
    "sphere-2": (G.Sphere(2, 1.0), [0.0, 0.0, 1.0], 0.2, 1e-2,
                 "567557f33170a0e7b4ccc7409eff0195447d89024000ca40b29d03dd69525b9f",
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
    res = simulate_ensemble(
        M, x0, T, h, 2500, 11,
        marks=[T / 4, T / 2, T],
        on_mark=lambda i, pos, alive, l: (l.copy(), alive.copy()),
        stop_domain=(c, 0.15),
        domains=[(c, 0.1), (c, 0.2)],
        block_size=1000,
    )
    assert _sha256(res["positions"], res["alive"], res["local_time"], res["exit_times"]) == terminal
    stacked = [np.stack([m[k] for m in res["marks"]]) for k in (0, 1)]
    assert _sha256(*stacked) == marks


def test_mark_reducer_sees_read_only_state():
    M = G.ExplosiveDrift1D()
    seen = []

    def on_mark(i, pos, alive, l):
        assert not (pos.flags.writeable or alive.flags.writeable or l.flags.writeable)
        seen.append((i, alive.sum()))
        return i

    res = simulate_ensemble(M, [1.0], 0.05, 1e-2, 300, 3, marks=[0.05, 0.02], on_mark=on_mark,
                            block_size=100)
    assert res["marks"] == [0, 1]
    assert [i for i, _ in seen] == [1, 0]  # called in step order
    assert seen[0][1] >= seen[1][1] == res["alive"].sum()  # lifetimes only end
    with pytest.raises(ValueError):
        simulate_ensemble(M, [1.0], 0.05, 1e-2, 300, 3, marks=[0.05])
