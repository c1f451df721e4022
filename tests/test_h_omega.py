"""Exact circle-quadric arcs behind the ellipsoid geometry weight h_Omega.

The arc measure ``A(t)`` of ``h_omega`` on an ellipsoid comes from the
crossings of the circle ``|y - x| = t`` (in 3D: of each latitude circle)
with the boundary quadric.  The references here are closed forms on
round sections and, on anisotropic ones, the root-refined sign scan that
the batched roots replaced, kept below as the reference.  On a ball
``h_omega`` returns the closed form, checked here next to the boundary.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from fraclab import quadrature as quad
from fraclab.geometry import Ball, Ellipsoid
from fraclab.operators import (_arc_inside_ellipsoid, _circle_quadric_measure,
                               h_omega)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
CIRCLE = Ellipsoid(a=(1.0, 0.0, 0.0, 1.0))
ELLIPSE = Ellipsoid(a=(1.0, 0.0, 0.0, 4.0))
ROTATED = Ellipsoid(a=(2.0, 0.3, 0.3, 1.0))
ELLIPSOID3 = Ellipsoid(a=(1.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 2.25))
N_GRID = 720


def scan_arc(g):
    """Measure of ``{g < 0}`` on ``[0, 2 pi]``: sign changes on a 720-step
    grid, each refined by ``brentq``.  Also returns the shortest arc
    between crossings (cyclically), since an arc shorter than two grid
    steps can slip between grid points unseen."""
    phi = np.linspace(0.0, 2.0 * math.pi, N_GRID + 1)
    inside = np.array([g(p) < 0.0 for p in phi])
    measure, roots = 0.0, []
    for i in range(N_GRID):
        if inside[i] and inside[i + 1]:
            measure += phi[i + 1] - phi[i]
        elif inside[i] != inside[i + 1]:
            root = brentq(g, phi[i], phi[i + 1], xtol=1e-14)
            roots.append(root)
            measure += (root - phi[i]) if inside[i] else (phi[i + 1] - root)
    gaps = np.diff(roots + [roots[0] + 2.0 * math.pi]) if roots else [7.0]
    return measure, float(np.min(gaps))


def arc_inside_ball(ball, x, t):
    """Angular measure of directions with ``x + t theta`` inside the
    ball, from the cosine rule."""
    N = ball.dim
    R = ball.radius
    xc = x - ball.center_array
    r = float(np.linalg.norm(xc))
    t = np.asarray(t, dtype=float)
    full = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    if r == 0.0:
        return np.where(t < R, full, 0.0)
    cstar = np.clip((R * R - r * r - t * t) / (2.0 * r * t), -1.0, 1.0)
    if N == 2:
        return 2.0 * math.pi - 2.0 * np.arccos(cstar)
    return 2.0 * math.pi * (1.0 + cstar)


def quadric_on_circle(A, c, e1, e2, rho):
    def g(p):
        y = c + rho * (math.cos(p) * e1 + math.sin(p) * e2)
        return float(y @ A @ y) - 1.0
    return g


@pytest.mark.parametrize("x", [(0.0, 0.0), (0.25, 0.3), (0.6, -0.5),
                               (-0.05, 0.01)])
def test_circle_arcs_match_the_ball(x):
    x = np.array(x)
    r = float(np.linalg.norm(x))
    if r > 0.0:
        t = np.linspace(1.0 - r, 1.0 + r, 201)
    else:
        t = np.linspace(0.01, 2.0, 200)
    got = _arc_inside_ellipsoid(CIRCLE, x, t)
    want = arc_inside_ball(DISC, x, t)
    if r > 0.0:
        # At the tangency radii delta(x) and 1 + |x| the arc is exactly
        # 2 pi and 0.  The ball's arccos turns the last-place rounding of
        # its cosine into a sqrt(eps) error there, so the exact values
        # are the reference at the two ends.
        assert got[0] == 2.0 * math.pi and got[-1] == 0.0
        got, want = got[1:-1], want[1:-1]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


def test_centred_circle_is_all_in_or_all_out():
    t = np.array([0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0])
    got = _arc_inside_ellipsoid(CIRCLE, np.zeros(2), t)
    np.testing.assert_array_equal(got, arc_inside_ball(DISC, np.zeros(2), t))


def test_sphere_sections_match_the_ball():
    # Each circle lies in the plane of (e1, e2), where the unit sphere cuts
    # a disc centred at -(c.e1, c.e2) of radius^2 1 - |c|^2 + (c.e1)^2 +
    # (c.e2)^2; the circle's arc in that disc is the ball arc.
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    e1, e2 = q.T
    c = rng.uniform(-0.6, 0.6, (300, 3))
    rho = rng.uniform(0.02, 1.6, 300)
    got = _circle_quadric_measure(np.eye(3), c, e1, e2, rho)
    b = np.column_stack([c @ e1, c @ e2])
    r2 = 1.0 - np.sum(c * c, axis=1) + np.sum(b * b, axis=1)
    for i in range(len(rho)):
        want = 0.0
        if r2[i] > 0.0:
            section = Ball(center=tuple(-b[i]), radius=math.sqrt(r2[i]))
            want = float(arc_inside_ball(section, np.zeros(2), rho[i]))
        assert got[i] == pytest.approx(want, abs=1e-13)


def test_centred_ellipse_closed_form():
    # x = 0 on semi-axes 1 and 1/2: the circle of radius t in (1/2, 1) is
    # inside where sin^2 phi < (1/t^2 - 1) / 3.
    t = np.linspace(0.5, 1.0, 52)[1:-1]
    want = 4.0 * np.arcsin(np.sqrt((1.0 / t ** 2 - 1.0) / 3.0))
    got = _arc_inside_ellipsoid(ELLIPSE, np.zeros(2), t)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("ell, x, t", [
    (ELLIPSE, (0.3, 0.2), (0.3, 0.45, 0.6, 0.75, 0.95, 1.15)),
    (ELLIPSE, (-0.5, 0.1), (0.2, 0.4, 0.9, 1.3)),
    (ROTATED, (0.2, -0.3), (0.25, 0.5, 0.7, 0.9, 1.1)),
    (ROTATED, (-0.1, 0.6), (0.2, 0.45, 0.8, 1.2)),
])
def test_anisotropic_arcs_match_the_scan(ell, x, t):
    x = np.array(x)
    got = _arc_inside_ellipsoid(ell, x, np.array(t))
    e1, e2 = np.eye(2)
    for ti, gi in zip(t, got):
        want, shortest = scan_arc(quadric_on_circle(ell.matrix, x, e1, e2,
                                                    ti))
        assert shortest > 2.0 * (2.0 * math.pi / N_GRID)
        assert gi == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("t", [0.35, 0.8])
def test_ellipsoid_latitudes_match_the_scan(t):
    # The same latitude frame and Gauss rule as the arc: the polar axis
    # along x, cut one latitude circle at a time.
    x = np.array([0.3, 0.2, 0.1])
    e3 = x / np.linalg.norm(x)
    e1 = np.cross(e3, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    mu, w = quad.map_rule(quad._gauss_unit(48), -1.0, 1.0)
    want = 0.0
    for m, wm in zip(mu, w):
        g = quadric_on_circle(ELLIPSOID3.matrix, x + t * m * e3, e1, e2,
                              t * math.sqrt(1.0 - m * m))
        arc, shortest = scan_arc(g)
        assert shortest > 2.0 * (2.0 * math.pi / N_GRID)
        want += wm * arc
    got = _arc_inside_ellipsoid(ELLIPSOID3, x, np.array([t]))[0]
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("x", [(0.25, 0.3), (0.6, -0.5)])
def test_h_omega_circle_as_ellipsoid_is_accurate(x):
    res = h_omega(CIRCLE, np.array(x))
    error = abs(res.value + math.log(1.0 - float(np.dot(x, x))))
    assert error <= 1e-9
    assert res.error_estimate >= error
    assert res.tolerance_ok


# Values frozen from the per-radius root scan on benchmark-style ellipse
# points (x = (r cos th, r sin th / 2) and the ellipse scaled by 1.5).  The
# node sets are unchanged, so the counts are exact; the values moved only
# by the scan's missed short arcs.
PINNED = [
    ((1.0, 0.0, 0.0, 4.0), (0.3, 0.2), 1.0986430772849427),
    ((1.0, 0.0, 0.0, 4.0), (0.15, 0.1), 0.8754348416568466),
    ((1.0 / 2.25, 0.0, 0.0, 4.0 / 2.25), (0.45, 0.3), 0.2876783778188162),
]


@pytest.mark.parametrize("a, x, value", PINNED)
def test_h_omega_ellipse_keeps_its_nodes(a, x, value):
    res = h_omega(Ellipsoid(a=a), np.array(x))
    assert res.evaluations == 2352
    assert res.value == pytest.approx(value, abs=1e-8)


@pytest.mark.parametrize("delta", [1e-6, 1e-5, 3.2e-5])
def test_h_omega_ball_is_closed_near_the_boundary(delta):
    # -ln(1 - |x|^2) with |x|^2 taken exactly.  The quadrature this
    # replaced flagged all three points (estimates 2.0e-3, 5.8e-5 and
    # 1.0e-5 for errors of 4.4e-7, 1.4e-8 and 2.4e-9).
    x = np.array([1.0 - delta, 0.0])
    want = -math.log(float(1 - Fraction(x[0]) ** 2))
    res = h_omega(DISC, x)
    assert res.tolerance_ok
    assert (res.error_estimate, res.evaluations) == (0.0, 0)
    assert res.value == pytest.approx(want, rel=0.0, abs=1e-12)
