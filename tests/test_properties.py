"""Property tests: the column kernels against numpy's broadcast forms,
and the projected noise map of the 2-sphere."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from logharnack import geometry as G

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
