"""Domain geometry: signed distance, measures, boundary rules, ray spans."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fraclab.core import DomainError
from fraclab import geometry as geo


def test_ball_delta_sign_and_value():
    ball = geo.Ball(center=(0.5, -1.0), radius=2.0)
    assert geo.delta(ball, (0.5, -1.0)) == pytest.approx(2.0)
    assert geo.delta(ball, (2.5, -1.0)) == pytest.approx(0.0, abs=1e-15)
    assert geo.delta(ball, (4.5, -1.0)) == pytest.approx(-2.0)
    pts = np.array([[0.5, -1.0], [0.5, 1.0], [0.5, -4.0]])
    np.testing.assert_allclose(geo.delta(ball, pts), [2.0, 0.0, -1.0], atol=1e-14)


def test_ellipsoid_delta_matches_projection_example():
    # Semi-axes 1 and 1/2; from (0, 0.25) the nearest boundary point is
    # (0, 0.5), at distance 0.25, inside.
    dom = geo.Ellipsoid(a=(1.0, 0.0, 0.0, 4.0))
    assert geo.delta(dom, (0.0, 0.25)) == pytest.approx(0.25, rel=1e-12)
    # Outside along the same axis.
    assert geo.delta(dom, (0.0, 0.75)) == pytest.approx(-0.25, rel=1e-12)
    # Center: distance along the stiffest axis.
    assert geo.delta(dom, (0.0, 0.0)) == pytest.approx(0.5, rel=1e-14)


def test_ellipsoid_delta_against_dense_boundary_search():
    rng = np.random.default_rng(7)
    dom = geo.Ellipsoid(a=(2.0, 0.3, 0.3, 1.0))
    t = np.linspace(0.0, 2.0 * math.pi, 200001)[:-1]
    omega = np.stack([np.cos(t), np.sin(t)], axis=1)
    _, _, B, _ = geo._spectral(dom)
    boundary = omega @ B.T
    for _ in range(12):
        x = rng.uniform(-1.5, 1.5, size=2)
        brute = np.linalg.norm(boundary - x, axis=1).min()
        signed = geo.delta(dom, x)
        assert abs(signed) == pytest.approx(brute, abs=5e-9)
        inside = float(x @ dom.matrix @ x) < 1.0
        assert (signed > 0) == inside


def _nearest_on_boundary_3d(dom, x):
    # Dense search over (polar, azimuth) of the unit sphere mapped onto the
    # boundary, zoomed three times around the best node.
    _, _, B, _ = geo._spectral(dom)
    th0, th1, ph0, ph1 = 0.0, math.pi, 0.0, 2.0 * math.pi
    for _ in range(4):
        th = np.linspace(th0, th1, 401)
        ph = np.linspace(ph0, ph1, 801)
        T, P = np.meshgrid(th, ph, indexing="ij")
        omega = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P),
                          np.cos(T)], axis=-1).reshape(-1, 3)
        dist = np.linalg.norm(omega @ B.T - x, axis=1)
        i, j = np.unravel_index(np.argmin(dist), T.shape)
        dth, dph = 4.0 * (th[1] - th[0]), 4.0 * (ph[1] - ph[0])
        th0, th1 = th[i] - dth, th[i] + dth
        ph0, ph1 = ph[j] - dph, ph[j] + dph
    return dist.min()


_TURN = np.array([[math.cos(0.3), -math.sin(0.3)],
                  [math.sin(0.3), math.cos(0.3)]])


@pytest.mark.parametrize("a,x", [
    ((1.0, 0.0, 0.0, 4.0), (0.1, 0.0)),
    ((1.0, 0.0, 0.0, 4.0), (-0.6, 0.0)),
    ((1.0, 0.0, 0.0, 25.0), (0.2, 0.0)),
    ((25.0, 0.0, 0.0, 1.0), (0.0, -0.7)),
    ((1.0, 0.0, 0.0, 4.0), (0.9, 0.0)),       # near the vertex: on the axis
    # stiff components too small for the secular root to be resolved in
    # lam, and the long axis of a turned ellipse, where the stiff
    # component of x in the eigenbasis is rounding, not zero
    ((1.0, 0.0, 0.0, 25.0), (0.2, 1e-9)),
    ((1.0, 0.0, 0.0, 25.0), (0.2, -1e-12)),
    ((1.0, 0.0, 0.0, 25.0), (0.2, 1e-15)),
    (tuple((_TURN @ np.diag([1.0, 25.0]) @ _TURN.T).ravel()),
     tuple(0.2 * _TURN[:, 0])),
])
def test_ellipsoid_delta_on_the_stiff_axis_plane_2d(a, x):
    # Inside points with no component on the stiffest axis: the nearest
    # boundary point leaves the axis unless x is close to the vertex.
    dom = geo.Ellipsoid(a=a)
    t = np.linspace(0.0, 2.0 * math.pi, 400001)[:-1]
    _, _, B, _ = geo._spectral(dom)
    boundary = np.stack([np.cos(t), np.sin(t)], axis=1) @ B.T
    brute = np.linalg.norm(boundary - np.array(x), axis=1).min()
    assert geo.delta(dom, x) == pytest.approx(brute, abs=1e-8)


@pytest.mark.parametrize("x", [(0.2, 0.0, 0.0), (0.2, 0.1, 0.0),
                               (0.0, 0.0, 0.3), (0.7, 0.0, 0.0)])
def test_ellipsoid_delta_on_the_stiff_axis_plane_3d(x):
    dom = geo.Ellipsoid(a=(1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0))
    brute = _nearest_on_boundary_3d(dom, np.array(x))
    assert geo.delta(dom, x) == pytest.approx(brute, abs=1e-6)


def test_ellipsoid_delta_3d_ball_consistency():
    # A = I/R^2 is a ball of radius R; the projection solver must agree
    # with the closed form.
    R = 1.7
    dom = geo.Ellipsoid(a=(1 / R**2, 0, 0, 0, 1 / R**2, 0, 0, 0, 1 / R**2))
    for x in [(0.3, -0.2, 0.9), (1.4, 1.1, -0.3), (0.0, 0.0, 0.0)]:
        expected = R - np.linalg.norm(x)
        assert geo.delta(dom, x) == pytest.approx(expected, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# The batched nearest-point solve on ellipsoids, against the per-point
# brentq solver it replaced.
# ---------------------------------------------------------------------------

def _ellipsoid_delta_one(domain, x):
    """The per-point brentq solver that ``geo.delta`` used before its
    batched solve; kept here as a reference."""
    d, Q, _, _ = geo._spectral(domain)
    xt = Q.T @ x
    active = np.abs(xt) > 0.0
    if not active.any():
        return float(d.max() ** -0.5)
    inside = float(np.sum(d * xt ** 2)) < 1.0
    r = d / d.max()
    stiff = r == 1.0
    s2 = float(np.sum(xt[stiff] ** 2))
    rest = 1.0 - float(np.sum(d[~stiff] * (xt[~stiff] / (1.0 - r[~stiff]))
                              ** 2))
    if inside and rest >= 0.0 and s2 * d.max() <= 1e-6 * rest:
        if s2 == 0.0:
            yo = xt[~stiff] / (1.0 - r[~stiff])
            return math.sqrt(float(np.sum((xt[~stiff] - yo) ** 2))
                             + rest / d.max())

        def g_eps(eps):
            return float(np.sum(d * xt ** 2 / ((1.0 - r) + eps * r) ** 2)
                         - 1.0)

        b = math.sqrt(s2 * d.max())
        eps = brentq(g_eps, 0.5 * b, 2.0 * b / math.sqrt(rest),
                     xtol=1e-300, rtol=8.9e-16, maxiter=200)
        return float(np.linalg.norm(xt - xt / ((1.0 - r) + eps * r)))
    da = d[active]
    xa = xt[active]

    def g(lam):
        return float(np.sum(da * xa ** 2 / (1.0 + lam * da) ** 2) - 1.0)

    pole = -1.0 / da.max()
    span = abs(pole)
    lo = pole + 1e-14 * span
    while g(lo) < 0.0:
        lo = pole + (lo - pole) * 1e-3
        if lo - pole < 1e-300:
            lo = pole + 1e-300
            break
    hi = span
    while g(hi) > 0.0:
        hi *= 4.0
    lam = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    yt = xt / (1.0 + lam * d)
    dist = float(np.linalg.norm(xt - yt))
    return dist if inside else -dist


def _random_ellipsoid(N, rng):
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    a = q @ np.diag(np.exp(rng.uniform(-2.0, 2.0, N))) @ q.T
    return geo.Ellipsoid(a=tuple((0.5 * (a + a.T)).ravel()))


def _on_boundary(dom, n, rng):
    """``n`` random points of the boundary, to rounding."""
    om = rng.standard_normal((n, dom.dim))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    return om @ geo._spectral(dom)[2].T


def _around_boundary(dom, n, rng):
    """Points inside, outside and within 1e-6 of the boundary."""
    bd = _on_boundary(dom, n, rng)
    return np.concatenate([bd * rng.uniform(0.0, 1.0, (n, 1)),
                           bd * rng.uniform(1.0, 3.0, (n, 1)),
                           bd + rng.uniform(-1e-6, 1e-6, bd.shape)])


def test_ellipsoid_delta_matches_brentq_reference():
    # 1,200 points of 40 random rotated ellipsoids.  Near the boundary the
    # two part by up to about 1.3e-15 |x|, because brentq stops within
    # xtol = 1e-15 of lam: where they part most, a 40-digit solve puts the
    # reference up to 1.24e-15 |x| off and the batched solve within
    # 3.5e-16 |x|.
    rng = np.random.default_rng(2024)
    checked = 0
    for k in range(40):
        dom = _random_ellipsoid(2 + k % 2, rng)
        pts = _around_boundary(dom, 10, rng)
        got = geo.delta(dom, pts)
        ref = np.array([_ellipsoid_delta_one(dom, p) for p in pts])
        bound = 1e-12 * np.abs(ref) + 2e-15 * np.linalg.norm(pts, axis=1)
        assert (np.abs(got - ref) <= bound).all()
        checked += len(pts)
    assert checked >= 1000


def test_ellipsoid_delta_repeated_stiff_eigenvalue():
    # diag(1, 4, 4) turned: the two stiffest eigenvalues come out of eigh
    # a rounding apart.  From 1e-3 along a stiff axis the nearest boundary
    # point is that axis' vertex, at exactly 0.5 - 1e-3.
    c, s = math.cos(0.7), math.sin(0.7)
    turn = (np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            @ np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]]))
    dom = geo.Ellipsoid(a=tuple((turn @ np.diag([1.0, 4.0, 4.0])
                                 @ turn.T).ravel()))
    for axis in (1, 2):
        got = geo.delta(dom, 1e-3 * turn[:, axis])
        assert abs(got - 0.499) <= 4.0 * math.ulp(0.499)


@pytest.mark.parametrize("N", [2, 3])
def test_ellipsoid_delta_sign_follows_contains(N):
    # Points within 3 ulps of the boundary of rotated ellipsoids: none
    # outside has delta > 0 and none inside has delta < 0.
    rng = np.random.default_rng(17 + N)
    inside_seen = outside_seen = 0
    for _ in range(10):
        dom = _random_ellipsoid(N, rng)
        pts = _on_boundary(dom, 100, rng)
        pts *= 1.0 + rng.integers(-3, 4, (100, 1)) * 2.0 ** -53
        inside = geo.contains(dom, pts)
        got = geo.delta(dom, pts)
        assert not (got[~inside] > 0.0).any()
        assert not (got[inside] < 0.0).any()
        inside_seen += inside.sum()
        outside_seen += (~inside).sum()
    assert inside_seen and outside_seen


@pytest.mark.parametrize("a", [
    (1.0, 0.0, 0.0, 25.0),
    (2.0, 0.3, 0.3, 1.0),
    (1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0),
    (1.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 4.0),
])
def test_ellipsoid_delta_batch_matches_its_points_bitwise(a):
    # Closed-form points (the centre, the plane off the stiffest axis)
    # and Newton points share one batch.
    dom = geo.Ellipsoid(a=a)
    N = dom.dim
    rng = np.random.default_rng(9)
    flat = rng.uniform(-0.3, 0.3, (20, N))
    flat[:, -1] = 0.0
    pts = np.concatenate([np.zeros((1, N)), flat,
                          _around_boundary(dom, 20, rng)])
    one_by_one = np.array([geo.delta(dom, p) for p in pts])
    np.testing.assert_array_equal(geo.delta(dom, pts), one_by_one)


@pytest.mark.parametrize("dom", [geo.Ellipsoid(a=(1.0, 0.2, 0.2, 3.0)),
                                 geo.unit_ball(3)])
def test_delta_of_an_empty_batch(dom):
    out = geo.delta(dom, np.empty((0, dom.dim)))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_measures():
    vol, diam = geo.measures(geo.Ball(center=(0.0, 0.0), radius=1.5))
    assert vol == pytest.approx(math.pi * 2.25, rel=1e-14)
    assert diam == pytest.approx(3.0)
    vol3, diam3 = geo.measures(geo.unit_ball(3))
    assert vol3 == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)
    assert diam3 == pytest.approx(2.0)
    # Semi-axes 1 and 1/2.
    vol_e, diam_e = geo.measures(geo.Ellipsoid(a=(1.0, 0.0, 0.0, 4.0)))
    assert vol_e == pytest.approx(math.pi / 2.0, rel=1e-13)
    assert diam_e == pytest.approx(2.0, rel=1e-13)


def test_ray_spans_ball():
    ball = geo.unit_ball(2)
    t0, t1, hit = geo.ray_spans(ball, np.zeros(2), np.array([[1.0, 0.0]]))
    assert hit[0] and (t0[0], t1[0]) == pytest.approx((-1.0, 1.0))
    # From outside, along a ray that misses.
    _, _, hit = geo.ray_spans(ball, np.array([2.0, 0.0]), np.array([[0.0, 1.0]]))
    assert not hit[0]
    # Tangency counts as a miss (open domain).
    _, _, hit = geo.ray_spans(ball, np.array([2.0, 1.0]), np.array([[-1.0, 0.0]]))
    assert not hit[0]


def test_ray_spans_consistency_with_membership():
    rng = np.random.default_rng(3)
    for dom in (geo.Ball(center=(0.2, -0.1), radius=0.8),
                geo.Ellipsoid(a=(1.0, 0.4, 0.4, 3.0))):
        x = np.array([0.1, 0.1])
        t = rng.uniform(0.0, 2.0 * math.pi, size=40)
        thetas = np.stack([np.cos(t), np.sin(t)], axis=1)
        t_lo, t_hi, hit = geo.ray_spans(dom, x, thetas)
        assert hit.all()            # x is interior, every ray crosses
        assert (t_lo < 0).all() and (t_hi > 0).all()
        mid = x + thetas * ((t_lo + t_hi) / 2.0)[:, None]
        assert geo.contains(dom, mid).all()
        beyond = x + thetas * (t_hi + 1e-9)[:, None]
        assert not geo.contains(dom, beyond).any()
        on_boundary = x + thetas * t_hi[:, None]
        np.testing.assert_allclose(geo.delta(dom, on_boundary), 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Squared distances of point batches: the column-wise sums reproduce the
# row norms they replace bit for bit.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(257, 2), (257, 3), (5, 41, 2), (5, 41, 3)])
def test_sq_dist_matches_row_norm_bitwise(shape):
    rng = np.random.default_rng(11)
    pts = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3, size=shape)
    c = rng.standard_normal(shape[-1])
    np.testing.assert_array_equal(np.sqrt(geo.sq_dist(pts, c)),
                                  np.linalg.norm(pts - c, axis=-1))
    np.testing.assert_array_equal(np.sqrt(geo.sq_dist(pts)),
                                  np.linalg.norm(pts, axis=-1))


def _sphere_points(ball, n, rng):
    """Points on rays from the centre at radii within 4 ulps of the sphere,
    plus deep interior and exterior points."""
    N = ball.dim
    dirs = rng.standard_normal((n, N))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    R = ball.radius
    radii = [R * rng.uniform(0.0, 0.99, n), R * rng.uniform(1.01, 2.0, n)]
    for k in range(-4, 5):
        radii.append(np.full(n, R + k * math.ulp(R)))
    r = np.concatenate(radii)
    return ball.center_array + np.tile(dirs, (len(radii), 1)) * r[:, None]


@pytest.mark.parametrize("ball", [
    geo.Ball(center=(0.0, 0.0), radius=1.0),
    geo.Ball(center=(0.3, -1.7), radius=0.55),
    geo.Ball(center=(0.0, 0.0, 0.0), radius=1.0),
    geo.Ball(center=(-2.1, 0.4, 0.9), radius=1.3),
])
def test_ball_contains_and_delta_match_row_norm_bitwise(ball):
    pts = _sphere_points(ball, 200, np.random.default_rng(5))
    norm = np.linalg.norm(pts - ball.center_array, axis=1)
    near = np.abs(norm - ball.radius) <= 8.0 * math.ulp(ball.radius)
    # The points straddle the sphere at rounding level on both sides.
    assert (norm[near] < ball.radius).any() and \
        (norm[near] >= ball.radius).any()
    np.testing.assert_array_equal(geo.contains(ball, pts), norm < ball.radius)
    np.testing.assert_array_equal(geo.delta(ball, pts), ball.radius - norm)


def test_parse_domain():
    dom = geo.parse_domain("ball:1.5", 3)
    assert isinstance(dom, geo.Ball) and dom.radius == 1.5 and dom.dim == 3
    ell = geo.parse_domain("ellipsoid:1,0,0,4")
    assert isinstance(ell, geo.Ellipsoid) and ell.dim == 2
    with pytest.raises(DomainError):
        geo.parse_domain("square:1")
    with pytest.raises(DomainError):
        geo.parse_domain("ball:abc")
    with pytest.raises(DomainError):
        geo.parse_domain("ellipsoid:1,0,0,-4")
    with pytest.raises(DomainError):
        geo.parse_domain("ellipsoid:1,0.5,0,4")   # asymmetric


def test_invalid_domains():
    with pytest.raises(DomainError):
        geo.Ball(center=(0.0, 0.0), radius=0.0)
    with pytest.raises(DomainError):
        geo.Ball(center=(0.0,), radius=1.0)
    with pytest.raises(DomainError):
        geo.Ellipsoid(a=(1.0, 0.0, 0.0))
