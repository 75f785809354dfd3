"""Property tests: the column kernels against numpy's broadcast forms,
the projected noise map of the 2-sphere, the isotropic Ric_Z that the
curvature bound K is derived from, the identity frame of the flat
charts, and over the catalogue: exp of log, transport as an isometry,
symmetric distance and reflect landing inside; on the curved variants,
the closed-form units and transport against the log and at x = y."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from logharnack import geometry as G

from helpers import log_map

_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _factor_and_vectors(draw):
    """A per-row factor of shape lead and vectors of shape lead + (w,),
    or one of them with fewer leading axes, with ±0, ±inf and NaN."""
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=5))
    w = draw(st.integers(1, 3))
    a_shape, v_shape = lead, lead + (w,)
    if lead and draw(st.booleans()):  # one operand broadcast across rows
        if draw(st.booleans()):
            a_shape = lead[1:]
        else:
            v_shape = lead[1:] + (w,)
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e308])
    elements = st.one_of(_ANY_FLOAT, special)
    a = draw(hnp.arrays(np.float64, a_shape, elements=elements))
    v = draw(hnp.arrays(np.float64, v_shape, elements=elements))
    return a, v


def _same_bits(got, want):
    # NaN where numpy has NaN, every other entry with the same bits (so
    # the sign of zero too); NaN payloads are not compared
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(_factor_and_vectors())
def test_scale_and_divide_equal_broadcast_forms_bitwise(av):
    a, v = av
    with np.errstate(all="ignore"):
        _same_bits(G._scale(a, v), a[..., None] * v)
        _same_bits(G._divide(v, a), v / a[..., None])


@st.composite
def _sphere_points(draw, n=1):
    """Points on a 2-sphere of radius r, shape (n, 3), and r."""
    r = draw(st.floats(0.25, 4.0))
    raw = draw(hnp.arrays(np.float64, (n, 3), elements=_FINITE))
    raw[np.linalg.norm(raw, axis=-1) <= 1e-3] = [0.0, 0.0, 1.0]
    return r * raw / np.linalg.norm(raw, axis=-1, keepdims=True), r


@settings(max_examples=200, deadline=None)
@given(_sphere_points(n=6), hnp.arrays(np.float64, (6, 3), elements=_FINITE))
def test_sphere_noise_is_tangent(xr, xi):
    x, r = xr
    M = G.Sphere(2, r)
    g = M.tangent_from_frame(x, xi)
    assert M.noise_width == 3
    assert np.all(np.abs(np.sum(g * x, axis=-1)) <= 1e-13 * r * (1.0 + np.linalg.norm(xi, axis=-1)))


@settings(max_examples=200, deadline=None)
@given(_sphere_points())
def test_sphere_noise_has_unit_covariance_on_the_tangent_plane(xr):
    # the map is linear in xi; its matrix A gives Cov = A A^T for
    # standard normals, which is the identity on T_x M and kills the normal
    x, r = xr
    M = G.Sphere(2, r)
    A = M.tangent_from_frame(np.repeat(x, 3, axis=0), np.eye(3)).T
    cov = A @ A.T
    frame = M.frame(x[0])
    assert np.allclose(frame @ cov @ frame.T, np.eye(2), rtol=0.0, atol=1e-13)
    assert np.allclose(cov @ (x[0] / r), 0.0, rtol=0.0, atol=1e-13)


@settings(max_examples=300, deadline=None)
@given(_sphere_points(), hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
       st.floats(1e-9, 1e-2), hnp.arrays(np.float64, 3, elements=_FINITE))
def test_sphere_noise_is_continuous_in_x(xr, direction, step, xi):
    # |P_x - P_x'| <= 2 |x - x'| / r in operator norm, at every x: no
    # point where the map jumps, which a frame field built from the
    # least-aligned axis has
    x, r = xr
    M = G.Sphere(2, r)
    y = x[0] + step * r * direction
    y = r * y / np.linalg.norm(y)
    gap = np.linalg.norm(M.tangent_from_frame(x[0], xi) - M.tangent_from_frame(y, xi))
    bound = 2.0 * np.linalg.norm(xi) * np.linalg.norm(x[0] - y) / r
    assert gap <= bound + 1e-13 * (1.0 + np.linalg.norm(xi))


_CATALOGUE = [
    G.Euclidean(1),
    G.Euclidean(3, drift_vec=[0.5, -1.0, 2.0]),
    G.OrnsteinUhlenbeck(2, 0.5),
    G.Sphere(1, 1.0),
    G.Sphere(2, 2.0),
    G.Hyperbolic(),
    G.HalfSpace(2),
    G.EuclideanBall(2, 2.0),
    G.ExplosiveDrift1D(),
]
_FLAT = [M for M in _CATALOGUE if isinstance(M, G._FlatChart)]


def _onto(M, x):
    """A chart point x of [-3, 3]^chart_dim moved onto M: scaled to the
    sphere, folded into the upper half-plane or the half-space, pulled
    inside the ball."""
    x = np.array(x)
    if M.variant == "sphere":
        return M.radius * x / np.linalg.norm(x) if np.linalg.norm(x) > 1e-3 else M.radius * np.eye(M.chart_dim)[-1]
    if M.variant == "hyperbolic":
        x[1] = abs(x[1]) + 0.1
    elif M.variant == "half_space":
        x[0] = abs(x[0])
    elif M.variant == "euclidean_ball":
        x *= min(1.0, 0.9 * M.radius / max(np.linalg.norm(x), 1e-300))
    return x


def _tangent(M, x, u):
    """Rows of u made tangent at x (projected on the sphere)."""
    return u - np.outer(u @ x, x) / M.radius**2 if M.variant == "sphere" else u


@st.composite
def _point_and_units(draw):
    """A catalogue variant, a point x of its chart and three unit tangent
    vectors at x, shape (3, chart_dim)."""
    M = draw(st.sampled_from(_CATALOGUE))
    x, *u = draw(hnp.arrays(np.float64, (4, M.chart_dim), elements=st.floats(-3.0, 3.0)))
    x = _onto(M, x)
    u = _tangent(M, x, np.array(u))
    xs = np.broadcast_to(x, u.shape)
    norm = M.norm(xs, u)
    assume(np.all(norm > 1e-3))
    return M, x, u / norm[:, None]


@settings(max_examples=300, deadline=None)
@given(_point_and_units())
def test_ricci_z_is_isotropic_and_gives_pointwise_K(mxu):
    # pointwise_K and max_neg_ricci are derived from ricci_z(x, None),
    # which is right only where Ric_Z(u, u) is the same for every unit u
    M, x, u = mxu
    ric = M.ricci_z(x, None)
    assert np.array_equal(M.ricci_z(np.broadcast_to(x, u.shape), u), np.full(len(u), ric))
    assert M.pointwise_K(x) == -ric
    assert M.sup_pointwise_K_ball(x, 0.0) >= M.pointwise_K(x)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FLAT), st.data())
def test_flat_frame_components_equal_the_base_form_bitwise(M, data):
    # the identity frame's components, without the einsum over it
    x, v = data.draw(hnp.arrays(np.float64, (2, 5, M.chart_dim), elements=_FINITE))
    _same_bits(M.frame_components(x, v), np.einsum("...ik,...k->...i", M.frame(x), v))


@st.composite
def _pair_and_vectors(draw):
    """A catalogue variant, two points x, y of it closer than the margin
    of its injectivity radius, and two tangent vectors at x."""
    M = draw(st.sampled_from(_CATALOGUE))
    x, y, *u = draw(hnp.arrays(np.float64, (4, M.chart_dim), elements=st.floats(-3.0, 3.0)))
    x, y = _onto(M, x), _onto(M, y)
    assume(M.distance(x, y) < G.INJ_MARGIN * M.injectivity_radius)
    return M, x, y, _tangent(M, x, np.array(u))


def _close(got, want, scale):
    assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + scale)), (got, want)


@settings(max_examples=300, deadline=None)
@given(_pair_and_vectors())
def test_exp_of_log_returns_the_point(mxyu):
    M, x, y, _ = mxyu
    _close(M.exp(x, log_map(M, x, y)), y, np.linalg.norm(y))


@settings(max_examples=300, deadline=None)
@given(_pair_and_vectors())
def test_transport_is_an_isometry(mxyu):
    # inner products of two vectors at x equal those of their transports
    # at y, and a transported vector is tangent at y
    M, x, y, u = mxyu
    ys = np.broadcast_to(y, u.shape)
    tu = M.transport(np.broadcast_to(x, u.shape), ys, u)
    scale = float(M.inner(np.broadcast_to(x, u.shape), u, u).sum())
    for i, j in ((0, 0), (0, 1), (1, 1)):
        _close(M.inner(y, tu[i], tu[j]), M.inner(x, u[i], u[j]), scale)
    if M.variant == "sphere":
        _close(tu @ y, 0.0, float(np.linalg.norm(u)) * M.radius)


@settings(max_examples=300, deadline=None)
@given(_pair_and_vectors())
def test_distance_is_symmetric(mxyu):
    M, x, y, _ = mxyu
    d = float(M.distance(x, y))
    assert d >= 0.0
    _close(M.distance(y, x), d, d)


# the curved variants, whose pair units and transport are closed forms of
# the two points
_CURVED = [G.Sphere(1, 1.0), G.Sphere(2, 1.0), G.Sphere(2, 1.7), G.Hyperbolic()]


@st.composite
def _curved_pair(draw):
    """A curved variant and two of its points at least 0.05 apart (where
    a unit from the log is good to 1e-12) and inside the margin of its
    injectivity radius."""
    M = draw(st.sampled_from(_CURVED))
    x, y = draw(hnp.arrays(np.float64, (2, M.chart_dim), elements=st.floats(-3.0, 3.0)))
    x, y = _onto(M, x), _onto(M, y)
    rho = float(M.distance(x, y))
    assume(0.05 <= rho < G.INJ_MARGIN * M.injectivity_radius)
    return M, x, y, rho


def _relative(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want)), (got, want)


@settings(max_examples=300, deadline=None)
@given(_curved_pair())
def test_grad_distance_is_the_log_over_rho(mxy):
    M, x, y, rho = mxy
    _relative(M.grad_distance(x, y), -log_map(M, y, x) / rho)


@settings(max_examples=300, deadline=None)
@given(_curved_pair())
def test_transport_carries_the_unit_away_from_y_to_the_unit_away_from_x(mxy):
    # along the geodesic from x to y the tangent goes from
    # -grad_distance(y, x) at x to grad_distance(x, y) at y
    M, x, y, _ = mxy
    _relative(M.transport(x, y, -M.grad_distance(y, x)), M.grad_distance(x, y))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CURVED), st.data())
def test_transport_at_one_point_returns_v_without_warning(M, data):
    x, v = data.draw(hnp.arrays(np.float64, (2, M.chart_dim), elements=st.floats(-3.0, 3.0)))
    x = _onto(M, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(M.transport(x, x, v), v)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CATALOGUE), st.data())
def test_reflect_lands_inside(M, data):
    # a boundary variant maps any proposal inside with a nonnegative local
    # time; the others leave their points where they are
    q = data.draw(hnp.arrays(np.float64, (5, M.chart_dim), elements=st.floats(-10.0, 10.0)))
    if not M.has_boundary:
        q = np.array([_onto(M, row) for row in q])
    pos, dl = M.reflect(q)
    assert pos.shape == q.shape and dl.shape == q.shape[:-1]
    assert np.all(M.contains(pos)) and np.all(dl >= 0.0)
    if not M.has_boundary:
        assert np.array_equal(pos, q) and not np.any(dl)
    else:
        inside = M.contains(q)
        assert np.array_equal(pos[inside], q[inside]) and not np.any(dl[inside])
