"""Operator tests: fractional and logarithmic Laplacians, the geometry
weight, the nonlocal normal derivative, the tabulated solution field, and
the interchange residual, against closed forms and frozen oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from fraclab.core import CapabilityError, DomainError
from fraclab.geometry import Ball, Ellipsoid
from fraclab.kernels import green_apply
from fraclab.quadrature import QuadConfig
from fraclab.specfun import (ball_torsion_constant, frac_normalization,
                             log_constants)
from fraclab import derivative, kernels, operators
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


def _masked(u, pts):
    """A compact field's values by the general path: zero, then the
    field's ``fn`` on the inside points only."""
    out = np.zeros(len(pts))
    inside = operators.geometry.contains(u.domain, pts)
    if inside.any():
        out[inside] = u.fn(pts[inside])
    return out


@pytest.mark.parametrize("domain", [DISC,
                                    Ellipsoid(a=(1.0, 0.3, 0.3, 4.0))],
                         ids=["disc", "ellipse"])
@pytest.mark.parametrize("batch", ["inside", "mixed", "outside"])
def test_compact_field_fast_path_matches_masked_path(domain, batch):
    rng = np.random.default_rng(7)
    scale = {"inside": 0.3, "mixed": 1.5, "outside": 0.1}[batch]
    pts = rng.uniform(-scale, scale, size=(400, 2))
    if batch == "outside":
        pts += 3.0
    inside = operators.geometry.contains(domain, pts)
    assert {"inside": inside.all(), "mixed": 0 < inside.sum() < len(pts),
            "outside": not inside.any()}[batch]
    u = CompactField(lambda p: np.exp(-np.einsum("ij,ij->i", p, p))
                     * (1.0 + p[:, 0]) - np.linalg.norm(p, axis=1), domain)
    vals = u(pts)
    assert vals.dtype == float and vals.shape == (len(pts),)
    assert np.array_equal(vals, _masked(u, pts))


def test_compact_field_broadcasts_a_scalar_inside():
    u = CompactField(lambda p: 2.0, DISC)
    vals = u(np.array([[0.1, 0.2], [0.3, 0.0]]))
    assert vals.tolist() == [2.0, 2.0]
    vals[0] = 5.0                      # a writable array of its own
    assert u(np.array([[0.1, 0.2]])).tolist() == [2.0]


def test_compact_field_skips_fn_on_an_empty_batch():
    def never(p):
        raise AssertionError("fn called on no points")

    assert CompactField(never, DISC)(np.zeros((0, 2))).shape == (0,)


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


class DuckGaussian:
    """A field that is no ScalarField: ``dim`` and a numeric scale only."""

    dim = 2
    smooth_scale = 0.5

    def __call__(self, pts):
        return np.exp(-np.sum(np.asarray(pts) ** 2, axis=1))


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_frac_laplacian_reads_a_numeric_scale_of_any_field(s):
    # Both orders read the scale the same way, and match the ScalarField
    # carrying it.
    x = np.array([0.1, 0.0])
    duck = frac_laplacian(DuckGaussian(), s, x)
    wrapped = frac_laplacian(ScalarField(fn=DuckGaussian(), dim=2,
                                         smooth_scale=0.5), s, x)
    assert duck == wrapped
    if s == 0.5:
        # 4^s Gamma(1 + s) at the origin: 2 Gamma(3/2) = sqrt(pi).
        assert frac_laplacian(DuckGaussian(), s, np.zeros(2)).value == \
            pytest.approx(math.sqrt(math.pi), rel=1e-10)


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


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("p", [0.5, 2.0])
def test_log_laplacian_compact_radial_matches_polar(N, p):
    # Declared radial on the centred ball, the domain form is one integral
    # in |y| with closed sphere means; undeclared, it runs the polar pass.
    # The two agree within their summed estimates on data that kinks like
    # delta^p at the boundary and is no polynomial.
    def fn(q):
        r2 = np.sum(q * q, axis=1)
        return np.maximum(1.0 - r2, 0.0) ** p * np.exp(-2.0 * r2)

    for r in (0.0, 0.3, 0.9):
        x = axis_point(N, 0.6 * r)
        x[1] = 0.8 * r
        radial = log_laplacian_compact(
            CompactField(fn, unit_ball(N), radial=True, smooth_scale=1.0), x)
        polar = log_laplacian_compact(
            CompactField(fn, unit_ball(N), smooth_scale=1.0), x)
        assert abs(radial.value - polar.value) <= (radial.error_estimate
                                                   + polar.error_estimate)
        assert radial.tolerance_ok and radial.evaluations <= 4000


def test_log_laplacian_spans_rays_once_per_pass(monkeypatch):
    calls = []
    real = operators.geometry.ray_spans

    def counting(domain, x, thetas):
        calls.append(len(thetas))
        return real(domain, x, thetas)

    monkeypatch.setattr(operators.geometry, "ray_spans", counting)
    u = CompactField(lambda p: 1.0 - np.sum(p * p, axis=1), DISC,
                     smooth_scale=1.0)
    log_laplacian(u, np.array([0.3, 0.1]))
    # One fine and one coarse pass, each over its own direction set.
    assert len(calls) == 2 and calls[0] != calls[1]


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
    assert a == pytest.approx(b, abs=1e-13)


def test_h_omega_sphere_matches_ball():
    ell = Ellipsoid(a=(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
    x = np.array([0.2, -0.1, 0.3])
    a = h_omega(ell, x).value
    b = h_omega(BALL3, x).value
    assert a == pytest.approx(b, abs=1e-13)


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


def torsion_flux(N, s, q):
    """``N_s u_s`` at ``|z| = q > 1`` for the torsion ``u_s = d(N,s) (1 -
    |y|^2)_+^s`` of the unit ball: ``-c(N,s) d(N,s) int_0^1 (1 - rho^2)^s
    rho^(N-1) M(q, rho) drho`` by scipy's ``quad`` in ``v = ln(1 - rho)``,
    with the sphere mean ``M`` of ``|z - rho w|^(-N-2s)`` taken as ``2 pi
    q^(-2 nu) 2F1(nu, nu; 1; rho^2/q^2)``, ``nu = 1 + s`` (scipy's
    ``hyp2f1``) in the plane and as the elementary ``2 pi ((q - rho)^k -
    (q + rho)^k) / (-k q rho)``, ``k = -1 - 2s``, in space."""
    k = -1.0 - 2.0 * s

    def mean(rho):
        if N == 2:
            return 2.0 * math.pi * q ** (-2.0 - 2.0 * s) * hyp2f1(
                1.0 + s, 1.0 + s, 1.0, (rho / q) ** 2)
        return 2.0 * math.pi * ((q - rho) ** k - (q + rho) ** k) \
            / (-k * q * rho)

    def integrand(v):
        rho = 1.0 - math.exp(v)
        return (2.0 - math.exp(v)) ** s * rho ** (N - 1) * mean(rho) \
            * math.exp((1.0 + s) * v)

    val, _ = quad(integrand, -80.0, 0.0, points=[math.log(q - 1.0)],
                  epsabs=0.0, epsrel=2e-14, limit=400)
    return -frac_normalization(N, s) * ball_torsion_constant(N, s)[0] * val


@pytest.mark.parametrize("q", [1.001, 1.01, 1.1, 1.5, 3.0])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_radial_normal_derivative_matches_exterior_flux(s, q):
    # One integral in |y| with the closed sphere mean (8e-15 or closer on
    # every row), about 700 to 900 points per call.
    u = restriction_ws(DISC, ones_field(2), s)
    got = nonlocal_normal_derivative(u, s, axis_point(2, q))
    assert got.value == pytest.approx(torsion_flux(2, s, q), rel=1e-12)
    assert got.evaluations < 1000 and got.tolerance_ok


@pytest.mark.parametrize("q", [1.01, 1.25, 2.0])
@pytest.mark.parametrize("s", [0.25, 0.75])
def test_radial_normal_derivative_matches_3d_mean_quadrature(s, q):
    u = restriction_ws(BALL3, ones_field(3), s)
    got = nonlocal_normal_derivative(u, s, np.array([0.6, -0.48, 0.64]) * q)
    assert got.value == pytest.approx(torsion_flux(3, s, q), rel=1e-12)


def dome_gauss(domain, radial):
    # (1 - |y|^2)_+^(1/2) e^{-|y|^2}, declared or not declared radial.
    def fn(p):
        r2 = np.sum(p * p, axis=1)
        return np.sqrt(np.maximum(1.0 - r2, 0.0)) * np.exp(-r2)

    return CompactField(fn, domain, radial=radial, smooth_scale=1.0,
                        boundary_power=0.5)


@pytest.mark.parametrize("N,z,cfg", [
    (2, (1.1, -0.3), QuadConfig()),
    (3, (0.2, -0.1, 1.25), QuadConfig(angular_order=48, radial_order=10,
                                      max_subdiv=12)),
], ids=["2", "3"])
def test_radial_normal_derivative_matches_polar_route(N, z, cfg):
    radial, polar = (nonlocal_normal_derivative(
        dome_gauss(unit_ball(N), flag), 0.5, np.array(z), cfg)
        for flag in (True, False))
    assert radial.evaluations < 1000 < polar.evaluations
    assert abs(radial.value - polar.value) <= (radial.error_estimate
                                               + polar.error_estimate)
    assert radial.tolerance_ok


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


# ---------------------------------------------------------------------------
# Symmetry folds of the ray operators.
# Data declared radial about the centre of its ball folds the 2D direction
# rules by the mirror across the line through the centre and the point,
# and the principal value always pairs theta with -theta.
# ---------------------------------------------------------------------------

OFF_DISC = Ball(center=(0.2, -0.1), radius=1.0)
ELLIPSE = Ellipsoid(a=(1.0, 0.0, 0.0, 4.0))

FOLD_OPS = {
    "green_apply": lambda u, c: green_apply(u.domain, u, 0.5, c + (0.3, 0.2)),
    "log_laplacian": lambda u, c: log_laplacian(u, c + (0.3, 0.2)),
    "log_laplacian_compact": lambda u, c: log_laplacian_compact(
        u, c + (0.3, 0.2)),
    "frac_laplacian": lambda u, c: frac_laplacian(u, 0.5, c + (0.3, 0.2)),
    "nonlocal_normal_derivative": lambda u, c: nonlocal_normal_derivative(
        u, 0.5, c + (1.2, 0.3)),
}


def bump(domain, radial):
    # A function of the distance to the centre of the domain.
    c = domain.center_array

    def fn(p):
        r2 = np.sum((p - c) ** 2, axis=1)
        return (1.0 - r2) * (1.0 + 0.5 * r2)

    return CompactField(fn, domain, radial=radial, smooth_scale=1.0)


# These take one integral in |y - centre| for data radial about the centre
# of its ball instead of a folded polar pass.
RADIAL_ROUTES = ("green_apply", "log_laplacian_compact",
                 "nonlocal_normal_derivative")


@pytest.mark.parametrize("name,domain", [
    *[pytest.param(name, DISC, id=name) for name in FOLD_OPS],
    *[pytest.param(name, OFF_DISC, id=name + "-off_centre")
      for name in FOLD_OPS]])
def test_radial_data_on_the_centred_disc_reads_half(name, domain):
    run = FOLD_OPS[name]
    c = domain.center_array
    folded, plain = run(bump(domain, True), c), run(bump(domain, False), c)
    if name in RADIAL_ROUTES:
        assert folded.evaluations <= 4000
    else:
        assert 2 * folded.evaluations == plain.evaluations
    assert abs(folded.value - plain.value) <= (folded.error_estimate
                                               + plain.error_estimate)
    assert folded.tolerance_ok


@pytest.mark.parametrize("name,domain", [
    # Data with no domain is radial about the origin, not about the centre
    # of OFF_DISC: neither the Green operator nor its cut-off to OFF_DISC
    # (the data the ray operators then read) folds it.
    *[(name, OFF_DISC) for name in FOLD_OPS],
    # The Green operator is closed for balls only.
    *[(name, ELLIPSE) for name in FOLD_OPS if name != "green_apply"]])
def test_no_fold_off_the_centred_ball(name, domain):
    c = domain.center_array
    if isinstance(domain, Ball):
        fn = bump(DISC, False).fn
        origin = ScalarField(fn=fn, dim=2, radial=True)
        if name == "green_apply":
            declared, plain = (green_apply(domain, u, 0.5, c + (0.3, 0.2))
                               for u in (origin, fn))
        else:
            declared, plain = (
                FOLD_OPS[name](operators._compact_on(u, domain), c)
                for u in (origin, fn))
    else:
        declared, plain = (FOLD_OPS[name](bump(domain, radial), c)
                           for radial in (True, False))
    assert declared == plain


# e^{-|y|^2} declared radial with no domain, on a ball not centred at the
# origin: the radial shortcuts do not hold for it.
SHIFTED = Ball(center=(0.5, 0.0), radius=1.0)


def test_origin_radial_data_off_centre_takes_the_generic_route():
    res = kernels.comp_poisson_apply(SHIFTED, gauss_field(2), 0.5,
                                     np.array([0.6, 0.2]))
    # The value of the same data as a plain callable.
    assert abs(res.value - 0.3249575005) <= res.error_estimate


@pytest.mark.parametrize("tabulate", [
    lambda f: restriction_ws(SHIFTED, f, 0.5),
    lambda f: derivative.ell_field(f, SHIFTED, 0.5),
    lambda f: interchange_residual(SHIFTED, f, 0.5, np.array([0.6, 0.2]))],
    ids=["restriction_ws", "ell_field", "interchange_residual"])
def test_origin_radial_data_off_centre_is_not_tabulated(tabulate):
    with pytest.raises(CapabilityError):
        tabulate(gauss_field(2))


def centred_gauss(domain):
    # e^{-|y - centre|^2} on ``domain``, declared radial about its centre.
    c = domain.center_array
    return CompactField(lambda p: np.exp(-np.sum((p - c) ** 2, axis=1)),
                        domain, radial=True, smooth_scale=1.0)


SHIFT_OPS = {
    "green_apply": lambda f, x: green_apply(f.domain, f, 0.5, x),
    "log_laplacian_compact": log_laplacian_compact,
    "comp_poisson_apply-0.5": lambda f, x: kernels.comp_poisson_apply(
        f.domain, f, 0.5, x),
    "comp_poisson_apply-1": lambda f, x: kernels.comp_poisson_apply(
        f.domain, f, 1.0, x),
}


@pytest.mark.parametrize("name", list(SHIFT_OPS))
def test_shifted_ball_matches_the_centred_disc(name):
    # Data declared on the shifted ball takes every route it takes on the
    # centred disc, at the translated point.
    run, x = SHIFT_OPS[name], np.array([0.3, 0.2])
    shifted = run(centred_gauss(OFF_DISC), OFF_DISC.center_array + x)
    centred = run(centred_gauss(DISC), x)
    assert abs(shifted.value - centred.value) <= (shifted.error_estimate
                                                  + centred.error_estimate)
    assert shifted.evaluations == centred.evaluations
    assert shifted.tolerance_ok


def test_shifted_ball_solution_field_matches_the_centred_disc():
    x = np.array([[0.3, 0.2], [0.0, 0.0], [-0.7, 0.5]])
    shifted = restriction_ws(OFF_DISC, centred_gauss(OFF_DISC), 0.5)
    centred = restriction_ws(DISC, centred_gauss(DISC), 0.5)
    assert np.allclose(shifted(OFF_DISC.center_array + x), centred(x),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("radial", [False, True])
@pytest.mark.parametrize("name", ["log_laplacian_compact", "frac_laplacian",
                                  "nonlocal_normal_derivative"])
def test_ray_operators_read_each_node_once(name, radial, node_log):
    # Rays along theta and -theta of the principal value are one line, and
    # a folded rule keeps one node per orbit; the centre value is one more
    # read.
    u = node_log(bump(DISC, radial))
    res = FOLD_OPS[name](u, np.zeros(2))
    u.assert_each_node_once(res.evaluations + 1)


@pytest.mark.parametrize("s", [0.3, 0.75])
def test_frac_laplacian_of_3d_torsion_is_one(s, node_log):
    # The 3D principal value on the closed torsion u_s = d (1 - |x|^2)_+^s
    # at a point off the axes; each +-theta pair is one ray.
    d, _ = ball_torsion_constant(3, s)
    u = node_log(CompactField(
        lambda p: d * np.maximum(1.0 - np.sum(p * p, axis=1), 0.0) ** s,
        BALL3, boundary_power=s, smooth_scale=1.0))
    res = frac_laplacian(u, s, np.array([0.3, -0.2, 0.4]))
    assert res.value == pytest.approx(1.0, rel=1e-10)
    u.assert_each_node_once(res.evaluations + 1)


def test_frac_laplacian_of_ellipse_torsion_is_flat_on_the_long_axis():
    # (-Delta)^{1/2} (1 - x.Ax)_+^{1/2} is constant inside the ellipse.
    # On the long axis the principal-value inner radius is capped by the
    # distance to the boundary, whose nearest point leaves the axis.
    A = np.diag([1.0, 25.0])
    u = CompactField(
        lambda p: np.maximum(1.0 - np.einsum("ij,jk,ik->i", p, A, p),
                             0.0) ** 0.5,
        Ellipsoid(a=A.ravel()), boundary_power=0.5, smooth_scale=1.0)
    ref = frac_laplacian(u, 0.5, np.array([0.5, 0.05])).value
    for x in ([0.2, 0.0], [-0.3, 0.0], [0.0, 0.1]):
        assert frac_laplacian(u, 0.5, np.array(x)).value == pytest.approx(
            ref, rel=1e-10)
