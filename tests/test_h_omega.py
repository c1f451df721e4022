"""The geometry weight h_Omega in closed form.

On the ellipsoid ``{y . A y < 1}`` the chord through ``x`` along ``theta``
has roots multiplying to ``(1 - x.Ax) / theta.A theta``, which gives
``h(x) = -ln(1 - x.Ax) + mean_theta ln(theta . A theta)``.  The oracle
here never uses that identity: it takes ``rho(theta)`` as the positive
root of the chord quadratic and integrates ``-c_N int ln rho(theta)
dtheta`` with ``mpmath.quad`` over the circle or the sphere.  A second
route, the full-space logarithmic Laplacian, never touches h_Omega at
all.  On a ball ``h_omega`` returns the closed form, checked here next to
the boundary.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fraclab.geometry import Ball, Ellipsoid
from fraclab.operators import (CompactField, h_omega, log_laplacian,
                               log_laplacian_compact)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
CIRCLE = Ellipsoid(a=(1.0, 0.0, 0.0, 1.0))
ELLIPSE = Ellipsoid(a=(1.0, 0.0, 0.0, 4.0))
ROTATED = Ellipsoid(a=(1.0, 0.3, 0.3, 4.0))
SPHEROID = Ellipsoid(a=(4.0, 0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 1.0))


def diag3(a, b, c):
    return Ellipsoid(a=(a, 0.0, 0.0, 0.0, b, 0.0, 0.0, 0.0, c))


def chord_oracle(ell, x):
    """``-c_N int ln rho(theta) dtheta`` with ``rho(theta)`` the positive
    root of ``(x + t theta) . A (x + t theta) = 1``.

    The circle is integrated with 20 digits on eight panels.  The sphere
    uses mpmath's double-precision context (the 20-digit one agrees to
    1e-15 but takes 15 to 40 s a point), in the eigenframe of ``A`` with
    the polar axis along the largest eigenvalue, on panels split at the
    equator and at the quarter azimuths: the chord length varies fastest
    across the thinnest axis, and there the tanh-sinh nodes cluster.
    """
    ctx = mpmath.fp if ell.dim == 3 else mpmath.mp
    N = ell.dim
    _, Q = np.linalg.eigh(ell.matrix)
    with mpmath.workdps(20):
        A = [[ctx.mpf(v) for v in row] for row in ell.matrix]
        Ax = [sum(A[i][j] * ctx.mpf(x[j]) for j in range(N))
              for i in range(N)]
        c = sum(ctx.mpf(x[i]) * Ax[i] for i in range(N)) - 1

        def ln_rho(theta):
            a = sum(theta[i] * A[i][j] * theta[j]
                    for i in range(N) for j in range(N))
            b = sum(Ax[i] * theta[i] for i in range(N))
            return ctx.log((-b + ctx.sqrt(b * b - a * c)) / a)

        if N == 2:
            total = ctx.quad(lambda p: ln_rho((ctx.cos(p), ctx.sin(p))),
                             ctx.linspace(0, 2 * ctx.pi, 9))
            return float(-total / ctx.pi)
        frame = [[ctx.mpf(v) for v in row] for row in Q[:, ::-1]]

        def integrand(mu, phi):
            r = ctx.sqrt(1 - mu * mu)
            local = (mu, r * ctx.cos(phi), r * ctx.sin(phi))
            return ln_rho([sum(frame[i][k] * local[k] for k in range(3))
                           for i in range(3)])

        total = ctx.quad(integrand, [-1, 0, 1],
                         ctx.linspace(0, 2 * ctx.pi, 5))
        return float(-total / (2 * ctx.pi))


def random_case(rng, N):
    # A rotated ellipsoid with eigenvalues in [1, 100], ratio 100 included,
    # and a point at level x.Ax in (0, 0.8).
    Q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    lam = np.array([1.0, *rng.uniform(1.0, 100.0, N - 2), 100.0])
    A = (Q * lam) @ Q.T
    d = rng.normal(size=N)
    x = math.sqrt(rng.uniform(0.0, 0.8)) * d / math.sqrt(d @ A @ d)
    return Ellipsoid(a=tuple((0.5 * (A + A.T)).ravel())), tuple(x)


RNG = np.random.default_rng(16)
ORACLE_CASES = {
    "sphere": (diag3(1.0, 1.0, 1.0), (0.2, -0.1, 0.3)),
    "spheroid-axis": (SPHEROID, (0.0, 0.0, 0.4)),
    "spheroid-off-axis": (SPHEROID, (0.001, 0.0, 0.4)),
    "triaxial-centre": (diag3(1.0, 4.0, 2.25), (0.0, 0.0, 0.0)),
    "ratio-100": (diag3(100.0, 1.0, 3.0), (0.05, 0.3, -0.2)),
    "rotated-ellipse": (ROTATED, (0.3, 0.2)),
    "ellipse": (ELLIPSE, (0.3, 0.2)),
    "ellipse-near-centre": (ELLIPSE, (0.1, 0.1)),
    **{f"random-2d-{i}": random_case(RNG, 2) for i in range(3)},
    **{f"random-3d-{i}": random_case(RNG, 3) for i in range(2)},
}


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_h_omega_matches_the_chord_oracle(name):
    ell, x = ORACLE_CASES[name]
    res = h_omega(ell, np.array(x))
    assert res.value == pytest.approx(chord_oracle(ell, x), rel=0.0,
                                      abs=1e-13)
    assert res.tolerance_ok
    assert res.evaluations == 0


@pytest.mark.parametrize("x", [(0.25, 0.3), (0.6, -0.5)])
def test_h_omega_circle_as_ellipsoid_is_accurate(x):
    res = h_omega(CIRCLE, np.array(x))
    error = abs(res.value + math.log(1.0 - float(np.dot(x, x))))
    assert error <= 1e-15
    assert res.error_estimate >= error
    assert res.tolerance_ok


# Benchmark-style ellipse points, x = (r cos th, r sin th / 2), and the
# ellipse scaled by 1.5: 1 - x.Ax is 3/4, 15/16 and 3/4, and the circle
# mean of ln(theta.A theta) is 2 ln(3/2) on diag(1, 4), 2 ln(1) scaled.
CLOSED = [
    pytest.param((1.0, 0.0, 0.0, 4.0), (0.3, 0.2), math.log(3.0),
                 id="ln3"),
    pytest.param((1.0, 0.0, 0.0, 4.0), (0.15, 0.1), math.log(2.4),
                 id="ln2.4"),
    pytest.param((1.0 / 2.25, 0.0, 0.0, 4.0 / 2.25), (0.45, 0.3),
                 math.log(4.0 / 3.0), id="ln4_over_3"),
]


@pytest.mark.parametrize("a, x, value", CLOSED)
def test_h_omega_ellipse_closed_values(a, x, value):
    res = h_omega(Ellipsoid(a=a), np.array(x))
    assert res.evaluations == 0
    assert res.value == pytest.approx(value, rel=0.0, abs=4e-16)


@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("delta", [1e-6, 1e-8])
def test_h_omega_ellipse_near_the_boundary(delta, theta):
    # x at level (1 - delta)^2 on diag(1, 4), with x.Ax taken exactly:
    # the rounding of x.Ax, magnified by 1 / (1 - x.Ax), is the whole
    # error, and the estimate covers it.
    x = (1.0 - delta) * np.array([math.cos(theta), 0.5 * math.sin(theta)])
    level = Fraction(x[0]) ** 2 + 4 * Fraction(x[1]) ** 2
    want = -math.log(float(1 - level)) + 2.0 * math.log(1.5)
    res = h_omega(ELLIPSE, x)
    assert abs(res.value - want) <= res.error_estimate
    assert res.error_estimate <= 1e-6
    assert res.tolerance_ok


@pytest.mark.parametrize("ell, x", [
    (ROTATED, (0.3, 0.2)), (ELLIPSE, (-0.5, 0.1)),
    (SPHEROID, (0.0, 0.0, 0.4)), (diag3(100.0, 1.0, 3.0), (0.05, 0.3, -0.2))])
@pytest.mark.parametrize("lam", [0.3, 1.4])
def test_h_omega_scaling(ell, x, lam):
    # h_{lam E}(lam x) = h_E(x) - 2 ln lam.
    x = np.array(x)
    scaled = Ellipsoid(a=tuple(v / lam ** 2 for v in ell.a))
    gap = (h_omega(scaled, lam * x).value - h_omega(ell, x).value
           + 2.0 * math.log(lam))
    assert abs(gap) <= 1e-12


def level_squared(ell):
    A = ell.matrix

    def fn(p):
        return np.maximum(1.0 - np.einsum("ij,jk,ik->i", p, A, p), 0.0) ** 2

    return CompactField(fn, ell, smooth_scale=1.0)


@pytest.mark.parametrize("ell, x", [(SPHEROID, (0.0, 0.0, 0.4)),
                                    (ROTATED, (0.3, 0.2))])
def test_domain_form_matches_full_space_form(ell, x):
    # The full-space form never reads h_Omega, so the two forms agree
    # only if h_Omega is right, on the axis of revolution too.
    u = level_squared(ell)
    full = log_laplacian(u, np.array(x))
    domain_form = log_laplacian_compact(u, np.array(x))
    assert abs(domain_form.value - full.value) <= (
        domain_form.error_estimate + full.error_estimate)


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
