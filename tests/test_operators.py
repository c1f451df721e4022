"""Operator tests: fractional and logarithmic Laplacians, the geometry
weight, the nonlocal normal derivative, the tabulated solution field, and
the interchange residual, against closed forms and frozen oracles."""

import math

import numpy as np
import pytest

from fraclab.core import CapabilityError, DomainError
from fraclab.geometry import Ball, Ellipsoid
from fraclab.quadrature import QuadConfig
from fraclab.specfun import ball_torsion_constant, log_constants
from fraclab import operators
from fraclab.operators import (CompactField, ScalarField, frac_laplacian,
                               h_omega, interchange_residual, log_laplacian,
                               log_laplacian_compact,
                               nonlocal_normal_derivative, restriction_ws)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
BALL3 = Ball(center=(0.0, 0.0, 0.0), radius=1.0)


def unit_ball(N):
    return DISC if N == 2 else BALL3


def ones_field(N):
    return ScalarField(fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=N,
                       radial=True, smooth_scale=1.0,
                       cache_token=("ones", N))


def gauss_field(N):
    return ScalarField(
        fn=lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=1)),
        dim=N, radial=True, smooth_scale=1.0, cache_token=("gauss", N))


def axis_point(N, r):
    x = np.zeros(N)
    x[0] = r
    return x


# ---------------------------------------------------------------------------
# Field plumbing.
# ---------------------------------------------------------------------------

def test_field_dimension_check():
    with pytest.raises(DomainError):
        ones_field(2)(np.zeros((1, 3)))


def test_compact_field_vanishes_outside():
    u = CompactField(lambda p: np.ones(len(p)), DISC)
    vals = u(np.array([[0.2, 0.1], [1.4, 0.0]]))
    assert vals[0] == 1.0 and vals[1] == 0.0


def test_compact_field_needs_domain():
    with pytest.raises(DomainError):
        ScalarField(fn=lambda p: np.ones(len(p)), dim=2, is_compact=True)


def test_smooth_scale_capped_by_boundary_distance():
    u = ScalarField(fn=lambda p: np.ones(len(p)), dim=2, domain=DISC,
                    smooth_scale=1.0)
    assert u.smooth_scale(np.array([0.9, 0.0])) == pytest.approx(0.1)
    assert u.smooth_scale(np.zeros(2)) == pytest.approx(1.0)


def test_plain_callable_rejected():
    with pytest.raises(DomainError):
        frac_laplacian(lambda p: np.ones(len(p)), 0.5, np.zeros(2))


# ---------------------------------------------------------------------------
# Fractional Laplacian on Gaussians.
# Closed values at the origin: 4^s Gamma(1+s) in dimension 2 and
# 4^s * 2 Gamma(s+3/2)/sqrt(pi) in dimension 3.
# ---------------------------------------------------------------------------

GAUSS_FRAC = [
    (2, 0.3, 1.360311202349047),
    (2, 0.75, 2.599501380277154),
    (3, 0.3, 1.592948454745335),
    (3, 0.75, 3.616022711580193),
]


@pytest.mark.parametrize("N,s,expected", GAUSS_FRAC)
def test_frac_laplacian_gaussian(N, s, expected):
    got = frac_laplacian(gauss_field(N), s, np.zeros(N))
    assert got.value == pytest.approx(expected, rel=1e-10)
    assert got.tolerance_ok


@pytest.mark.parametrize("N", [2, 3])
def test_frac_laplacian_classical_endpoint(N):
    # -lap e^{-r^2} = (2N - 4 r^2) e^{-r^2}
    x = axis_point(N, 0.6)
    expected = (2.0 * N - 4.0 * 0.36) * math.exp(-0.36)
    got = frac_laplacian(gauss_field(N), 1.0, x)
    assert got.value == pytest.approx(expected, rel=1e-6)


def test_frac_laplacian_order_range():
    with pytest.raises(DomainError):
        frac_laplacian(gauss_field(2), 1.2, np.zeros(2))
    with pytest.raises(DomainError):
        frac_laplacian(gauss_field(2), 0.0, np.zeros(2))


# ---------------------------------------------------------------------------
# Logarithmic Laplacian on Gaussians.
# Closed values at the origin: 2 ln 2 - gamma_E (dimension 2) and
# 2 - gamma_E (dimension 3).
# ---------------------------------------------------------------------------

GAUSS_LOG = [(2, 0.8090786962183577), (3, 1.4227843350984671)]


@pytest.mark.parametrize("N,expected", GAUSS_LOG)
def test_log_laplacian_gaussian(N, expected):
    got = log_laplacian(gauss_field(N), np.zeros(N))
    assert got.value == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("N,s,r", [(2, 0.75, 0.0), (2, 0.75, 0.45),
                                   (3, 0.6, 0.3)])
def test_log_laplacian_matches_domain_form(N, s, r):
    u = restriction_ws(unit_ball(N), ones_field(N), s)
    x = axis_point(N, r)
    full = log_laplacian(u, x)
    comp = log_laplacian_compact(u, x)
    assert comp.value == pytest.approx(full.value, rel=1e-10, abs=1e-12)


def test_log_laplacian_compact_contract():
    with pytest.raises(DomainError):
        log_laplacian_compact(gauss_field(2), np.zeros(2))
    u = restriction_ws(DISC, ones_field(2), 0.5)
    with pytest.raises(DomainError):
        log_laplacian_compact(u, np.array([1.5, 0.0]))


# ---------------------------------------------------------------------------
# Geometry weight h_Omega.
# On the unit ball h(x) = -ln(1 - |x|^2); on a ball of radius R the value
# at the center is -2 ln R.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 0.95])
def test_h_omega_unit_ball(N, r):
    got = h_omega(unit_ball(N), axis_point(N, r))
    expected = -math.log(1.0 - r * r)
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("R", [0.5, 2.0])
def test_h_omega_scaled_ball_center(R):
    got = h_omega(Ball(center=(0.0, 0.0), radius=R), np.zeros(2))
    assert got.value == pytest.approx(-2.0 * math.log(R), abs=1e-12)


def test_h_omega_translation_invariance():
    moved = Ball(center=(3.0, -1.0), radius=1.0)
    got = h_omega(moved, np.array([3.3, -1.0]))
    assert got.value == pytest.approx(-math.log(1.0 - 0.09), rel=1e-12)


def test_h_omega_ellipse_matches_disc():
    ell = Ellipsoid(a=(1.0, 0.0, 0.0, 1.0))
    x = np.array([0.4, 0.1])
    a = h_omega(ell, x).value
    b = h_omega(DISC, x).value
    assert a == pytest.approx(b, abs=1e-9)


def test_h_omega_sphere_matches_ball():
    ell = Ellipsoid(a=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
    x = np.array([0.2, -0.1, 0.3])
    a = h_omega(ell, x).value
    b = h_omega(BALL3, x).value
    assert a == pytest.approx(b, abs=5e-4)


def test_h_omega_outside_raises():
    with pytest.raises(DomainError):
        h_omega(DISC, np.array([1.2, 0.0]))


# ---------------------------------------------------------------------------
# Tabulated solution field u_s = G_s f.
# For f = 1 the closed solution is d(N,s) (R^2 - |x|^2)^s.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N,s,R", [(2, 0.75, 1.0), (3, 0.4, 1.0),
                                   (2, 0.5, 2.0), (2, 1.0, 1.0)])
def test_restriction_ws_torsion(N, s, R):
    ball = Ball(center=(0.0,) * N, radius=R)
    u = restriction_ws(ball, ones_field(N), s)
    d = ball_torsion_constant(N, s)[0]
    for frac in (0.0, 0.4, 0.8, 0.99):
        r = frac * R
        expected = d * (R * R - r * r) ** s
        got = float(u(axis_point(N, r)[None, :])[0])
        assert got == pytest.approx(expected, rel=1e-10)


def test_restriction_ws_vanishes_outside():
    u = restriction_ws(DISC, ones_field(2), 0.6)
    assert float(u(np.array([[1.5, 0.2]]))[0]) == 0.0
    assert u.is_compact and u.boundary_power == pytest.approx(0.6)


def test_restriction_ws_needs_radial_data():
    skew = ScalarField(fn=lambda p: 1.0 + p[:, 0], dim=2, smooth_scale=1.0)
    with pytest.raises(CapabilityError):
        restriction_ws(DISC, skew, 0.5)


def counting_green(monkeypatch):
    calls = []
    green = operators.kernels.green_apply

    def counting(*args, **kwargs):
        calls.append(args[3])
        return green(*args, **kwargs)

    monkeypatch.setattr(operators.kernels, "green_apply", counting)
    return calls


def test_restriction_ws_constant_data_takes_nine_solves(monkeypatch):
    # For f = 1 the quotient u_s / (R^2 - |x|^2)^s is the constant
    # d(N, s), so the first level of the Chebyshev profile chops.
    calls = counting_green(monkeypatch)
    restriction_ws(DISC, ones_field(2), 0.5)
    assert len(calls) == 9


def test_restriction_ws_polynomial_data_chops(monkeypatch):
    # For 1 + 2|x|^4 the quotient is a quadratic in |x|^2.
    lengths = []
    profile = operators.quad._chebyshev_profile

    def recording(sample):
        coef = profile(sample)
        lengths.append(len(coef))
        return coef

    monkeypatch.setattr(operators.quad, "_chebyshev_profile", recording)
    calls = counting_green(monkeypatch)
    quartic = ScalarField(fn=lambda p: 1.0 + 2.0 * np.sum(p * p, axis=1) ** 2,
                          dim=2, radial=True, smooth_scale=1.0)
    restriction_ws(DISC, quartic, 0.5)
    assert lengths == [3]
    assert len(calls) == 9


def test_restriction_ws_gaussian_data_takes_at_most_27_solves(monkeypatch):
    calls = counting_green(monkeypatch)
    gauss3 = ScalarField(fn=lambda p: np.exp(-3.0 * np.sum(p * p, axis=1)),
                         dim=2, radial=True, smooth_scale=1.0)
    restriction_ws(DISC, gauss3, 0.5)
    assert len(calls) <= 27
    # First-kind points: the profile never samples the centre or the
    # boundary.
    r = np.linalg.norm(np.array(calls), axis=1)
    assert ((r > 0.0) & (r < 1.0)).all()


def test_restriction_ws_zero_data_is_zero():
    zero = ScalarField(fn=lambda p: np.zeros(len(np.atleast_2d(p))), dim=2,
                       radial=True, smooth_scale=1.0)
    u = restriction_ws(DISC, zero, 0.5)
    pts = np.array([[0.0, 0.0], [0.3, 0.4], [0.9, -0.1]])
    np.testing.assert_array_equal(u(pts), np.zeros(3))


@pytest.mark.parametrize("N,s,r", [(2, 0.75, 0.0), (2, 0.75, 0.5),
                                   (3, 0.6, 0.0), (3, 0.6, 0.5),
                                   (2, 1.0, 0.5)])
def test_frac_laplacian_inverts_solution_operator(N, s, r):
    u = restriction_ws(unit_ball(N), ones_field(N), s)
    got = frac_laplacian(u, s, axis_point(N, r))
    assert got.value == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# Nonlocal normal derivative at exterior points.
# Frozen oracle: N_s u_s(z) for torsion data on the unit ball reduces to a
# single radial integral with a closed angular factor (hypergeometric in
# dimension 2, a power difference in dimension 3), evaluated to 13 digits.
# ---------------------------------------------------------------------------

NU_TABLE = [
    (2, 0.75, 0.25, -0.1739276909391227),
    (2, 0.75, 0.001, -30.91073368096404),
    (2, 0.4, 0.1, -0.5968694876148629),
    (3, 0.6, 0.25, -0.1210690209389628),
    (3, 0.6, 0.001, -14.95952910054076),
]


@pytest.mark.parametrize("N,s,delta,expected", NU_TABLE)
def test_nonlocal_normal_derivative_frozen(N, s, delta, expected):
    u = restriction_ws(unit_ball(N), ones_field(N), s)
    z = axis_point(N, 1.0 + delta)
    got = nonlocal_normal_derivative(u, s, z)
    assert got.value == pytest.approx(expected, rel=1e-11)
    assert got.value < 0.0


# Flat-boundary limit: delta^s N_s u_s -> -c(N,s) d(N,s) 2^s K(N,s) as the
# evaluation point approaches the boundary, with
# K(2,s) = sqrt(pi) Gamma(s+1/2) Gamma(s) / Gamma(2s+1) and
# K(3,s) = 2 pi Gamma(s+1) Gamma(s) / ((1+2s) Gamma(1+2s)).
FLAT_TABLE = [(2, 0.75, -0.1784437614878449, 2e-3),
              (3, 0.6, -0.2518841291389838, 8e-3)]


@pytest.mark.parametrize("N,s,limit,tol", FLAT_TABLE)
def test_nonlocal_normal_derivative_flat_limit(N, s, limit, tol):
    u = restriction_ws(unit_ball(N), ones_field(N), s)
    delta = 1e-5
    z = axis_point(N, 1.0 + delta)
    got = nonlocal_normal_derivative(u, s, z).value * delta ** s
    assert got == pytest.approx(limit, rel=tol)


def test_nonlocal_normal_derivative_matches_exterior_pv():
    # at exterior points the principal-value form is proper and must agree
    u = restriction_ws(DISC, ones_field(2), 0.75)
    z = np.array([1.25, 0.0])
    pv = frac_laplacian(u, 0.75, z)
    nu = nonlocal_normal_derivative(u, 0.75, z)
    assert pv.value == pytest.approx(nu.value, rel=1e-2)


def test_nonlocal_normal_derivative_off_axis():
    # rotation invariance of the radial solution
    u = restriction_ws(DISC, ones_field(2), 0.75)
    a = nonlocal_normal_derivative(u, 0.75, np.array([1.25, 0.0]))
    b = nonlocal_normal_derivative(u, 0.75,
                                   1.25 * np.array([0.6, 0.8]))
    assert b.value == pytest.approx(a.value, rel=1e-9)


def test_nonlocal_normal_derivative_contract():
    u = restriction_ws(DISC, ones_field(2), 0.75)
    with pytest.raises(DomainError):
        nonlocal_normal_derivative(u, 0.75, np.array([0.5, 0.0]))
    with pytest.raises(DomainError):
        nonlocal_normal_derivative(u, 1.0, np.array([1.5, 0.0]))
    with pytest.raises(DomainError):
        nonlocal_normal_derivative(gauss_field(2), 0.5, np.array([1.5, 0.0]))


# ---------------------------------------------------------------------------
# Interchange of the fractional and logarithmic Laplacians.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.0, 0.3])
def test_interchange_local_endpoint(r):
    rep = interchange_residual(DISC, ones_field(2), 1.0, axis_point(2, r))
    assert rep.relative < 2e-3
    assert rep.boundary_term > 0.0


@pytest.mark.parametrize("r", [0.0, 0.3])
def test_interchange_fractional(r):
    rep = interchange_residual(DISC, ones_field(2), 0.75, axis_point(2, r))
    assert rep.relative < 1e-2
    assert rep.boundary_term < 0.0


@pytest.mark.parametrize("s", [0.75, 1.0])
def test_interchange_needs_boundary_term(s):
    rep = interchange_residual(DISC, ones_field(2), s, axis_point(2, 0.3),
                               drop_boundary_term=True)
    assert rep.relative > 0.3


def test_interchange_needs_radial_data():
    skew = ScalarField(fn=lambda p: 1.0 + p[:, 0], dim=2, smooth_scale=1.0)
    with pytest.raises(CapabilityError):
        interchange_residual(DISC, skew, 0.75, np.zeros(2))
