"""Quadrature engine against closed-form integrals.

Every expected value here is an exact formula evaluated by hand; the
rules must hit them well inside the default tolerances.
"""

import math

import numpy as np
import pytest

from fraclab.core import DivergenceError, DomainError
from fraclab import geometry as geo
from fraclab import quadrature as quad
from fraclab.specfun import frac_normalization, gamma


DISC = geo.unit_ball(2)
BALL3 = geo.unit_ball(3)
CFG = quad.QuadConfig()


def test_config_validation():
    with pytest.raises(DomainError):
        quad.QuadConfig(pv_inner_radius=0.75)
    with pytest.raises(DomainError):
        quad.QuadConfig(rel_tol=0.0)


def test_unit_power_rule_exactness():
    # Integrates x^a (1-x)^b from raw integrand values.  At the lower
    # endpoint the node coordinate *is* the distance to the singularity,
    # so the rule is exact to rounding; at the upper endpoint evaluating
    # (1 - x) near 1 costs half the mantissa, hence the looser tolerance.
    for a, b, exact, rel in [
        (-0.5, None, 2.0, 1e-13),                # int x^(-1/2) = 2
        (-0.9, None, 10.0, 1e-13),               # int x^(-9/10) = 10
        (None, -0.5, 2.0, 5e-9),
        (-0.9, 0.7, gamma(0.1) * gamma(1.7) / gamma(1.8), 5e-9),
    ]:
        x, w = quad.unit_power_rule(a, b, 16, 40)
        f = np.ones_like(x)
        if a is not None:
            f = f * x ** a
        if b is not None:
            f = f * (1.0 - x) ** b
        assert float(w @ f) == pytest.approx(exact, rel=rel), (a, b)


def test_interior_area_and_moments():
    res = quad.integrate_interior(DISC, lambda y: np.ones(len(y)), CFG)
    assert res.value == pytest.approx(math.pi, rel=1e-12)
    assert res.tolerance_ok and res.evaluations > 0
    # int_{B_1^2} |y|^2 dy = pi/2
    res2 = quad.integrate_interior(DISC, lambda y: (y ** 2).sum(axis=1), CFG)
    assert res2.value == pytest.approx(math.pi / 2.0, rel=1e-12)
    # Volume of the 3-ball.
    res3 = quad.integrate_interior(BALL3, lambda y: np.ones(len(y)), CFG)
    assert res3.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_interior_point_singularity():
    # int_{B_1^3} |y|^{-1} dy = 2 pi.
    res = quad.integrate_interior(
        BALL3, lambda y: 1.0 / np.linalg.norm(y, axis=1), CFG,
        radial_power=-1.0)
    assert res.value == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_interior_boundary_singularity():
    # int_{B_1^2} (1-|y|^2)^(-1/2) dy = 2 pi.
    res = quad.integrate_interior(
        DISC, lambda y: 1.0 / np.sqrt(np.abs(1.0 - (y ** 2).sum(axis=1))),
        CFG, boundary_power=-0.5)
    assert res.value == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert abs(res.value - 2.0 * math.pi) <= 10.0 * max(res.error_estimate,
                                                        CFG.abs_tol)


def test_interior_strong_boundary_power():
    # int_{B_1^2} (1-|y|)^(-0.9) dy: radialize to 2 pi int_0^1 r (1-r)^(-0.9) dr
    # = 2 pi Beta(2, 0.1) = 2 pi / (0.1 * 1.1).
    exact = 2.0 * math.pi / (0.1 * 1.1)
    res = quad.integrate_interior(
        DISC, lambda y: (1.0 - np.linalg.norm(y, axis=1)) ** -0.9,
        CFG, boundary_power=-0.9)
    # Near-boundary nodes evaluate 1 - |y| with catastrophic cancellation,
    # which bounds what any black-box rule can do for exponents this close
    # to -1; the configured 1e-6 relative target still holds comfortably.
    assert res.value == pytest.approx(exact, rel=1e-6)


def test_interior_offcenter_polar_center():
    # The split point is arbitrary: integrating from an off-center pole
    # must give the same area.
    res = quad.integrate_interior(DISC, lambda y: np.ones(len(y)), CFG,
                                  center=np.array([0.3, -0.2]))
    assert res.value == pytest.approx(math.pi, rel=1e-10)
    with pytest.raises(DomainError):
        quad.integrate_interior(DISC, lambda y: np.ones(len(y)), CFG,
                                center=np.array([2.0, 0.0]))


def test_interior_ellipsoid():
    dom = geo.Ellipsoid(a=(1.0, 0.0, 0.0, 4.0))
    res = quad.integrate_interior(dom, lambda y: np.ones(len(y)), CFG)
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_exterior_power_decay():
    # int_{|y|>1, N=2} |y|^{-3} dy = 2 pi.
    res = quad.integrate_exterior(
        DISC, lambda y: np.linalg.norm(y, axis=1) ** -3.0, CFG)
    assert res.value == pytest.approx(2.0 * math.pi, rel=1e-10)
    # N=3: int_{|y|>1} |y|^{-4} dy = 4 pi.
    res3 = quad.integrate_exterior(
        BALL3, lambda y: np.linalg.norm(y, axis=1) ** -4.0, CFG)
    assert res3.value == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_exterior_boundary_layer():
    # f = (|y|-1)^(-1/2) |y|^(-4) on the plane: radialize to
    # 2 pi int_1^inf (q-1)^(-1/2) q^{-3} dq; with q = 1/(1-v^2) the value is
    # 2 pi * (3 pi / 8) ... easier frozen via series: use exact
    # int_1^inf (q-1)^{-1/2} q^{-3} dq = Beta(1/2, 5/2) = pi * 3/8.
    exact = 2.0 * math.pi * math.pi * 3.0 / 8.0
    res = quad.integrate_exterior(
        DISC,
        lambda y: (np.linalg.norm(y, axis=1) - 1.0) ** -0.5
        * np.linalg.norm(y, axis=1) ** -4.0,
        CFG, boundary_power=-0.5)
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_exterior_divergence_probe():
    # |y|^{-2} in the plane is not integrable at infinity.
    with pytest.raises(DivergenceError):
        quad.integrate_exterior(
            DISC, lambda y: np.linalg.norm(y, axis=1) ** -2.0, CFG)


def test_pv_second_difference_gaussian():
    # (-Delta)^s exp(-|x|^2) at x = 0 in the plane equals 4^s Gamma(1+s).
    u = lambda y: np.exp(-(np.asarray(y) ** 2).sum(axis=-1))
    for s in (0.25, 0.5, 0.75):
        res = quad.integrate_pv_second_difference(
            u, np.zeros(2), s, CFG, inner_scale=1.0, compact_support=False)
        value = frac_normalization(2, s) * res.value
        exact = 4.0 ** s * gamma(1.0 + s)
        assert value == pytest.approx(exact, rel=2e-8), s


def test_pv_second_difference_shifted_point():
    # Same Gaussian, off the symmetry point: compare against the
    # closed-form multiplier evaluated by a dense Hankel-type series?  No:
    # use instead the exact scaling u_a(x) = exp(-a|x|^2):
    # (-Delta)^s u_a (0) = a^s 4^s Gamma(1+s)  (dilation covariance).
    a = 2.3
    u = lambda y: np.exp(-a * (np.asarray(y) ** 2).sum(axis=-1))
    s = 0.6
    res = quad.integrate_pv_second_difference(
        u, np.zeros(2), s, CFG, inner_scale=1.0 / math.sqrt(a),
        compact_support=False)
    value = frac_normalization(2, s) * res.value
    exact = a ** s * 4.0 ** s * gamma(1.0 + s)
    assert value == pytest.approx(exact, rel=2e-8)


# ---------------------------------------------------------------------------
# Layered direction rules on the 2-sphere.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("layout", ["cap", "equator"])
@pytest.mark.parametrize("n_phi", [None, 32])
def test_layered_directions_measure(layout, n_phi):
    dirs, w = quad.layered_directions([0.0, 0.0, 1.0], layout, 16, 12, n_phi)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    assert w.sum() == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_layered_directions_cone_measure():
    mu_lo = 0.5
    dirs, w = quad.layered_directions([1.0, 2.0, -1.0], "cone", 16, 12, 24,
                                      mu_lo=mu_lo)
    assert w.sum() == pytest.approx(2.0 * math.pi * (1.0 - mu_lo), rel=1e-12)
    axis = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
    assert (dirs @ axis).min() >= mu_lo - 1e-12


def test_layered_directions_axisymmetric_moment():
    # int_{S^2} (axis . theta)^2 dS = 4 pi / 3; integrand is axisymmetric,
    # so the single-azimuth rule must match the full product rule.
    axis = np.array([0.3, -1.2, 0.5])
    a_hat = axis / np.linalg.norm(axis)
    for n_phi in (None, 48):
        dirs, w = quad.layered_directions(axis, "equator", 20, 14, n_phi)
        got = float(w @ (dirs @ a_hat) ** 2)
        assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_layered_directions_nonsymmetric_needs_azimuth():
    # a harmonic with azimuthal dependence integrates to zero only when
    # the azimuth is actually sampled
    axis = np.array([0.0, 0.0, 1.0])
    dirs, w = quad.layered_directions(axis, "cap", 20, 14, 64)
    got = float(w @ (dirs[:, 0] * dirs[:, 1]))
    assert abs(got) < 1e-13


def test_layered_directions_unknown_layout():
    with pytest.raises(DomainError):
        quad.layered_directions([0.0, 0.0, 1.0], "belt", 8, 8)


def test_direction_chunks_cover_range():
    for n, row in [(1, 10), (100, 10), (5000, 900), (17, 10 ** 8)]:
        idx = []
        for sl in quad.direction_chunks(n, row):
            assert isinstance(sl, slice)
            idx.extend(range(*sl.indices(n)))
        assert idx == list(range(n))


def test_direction_chunks_budget():
    budget = 10_000
    for sl in quad.direction_chunks(4000, 100, budget=budget):
        n = len(range(*sl.indices(4000)))
        assert n * 100 <= budget or n == 8


def test_chebyshev_profile_chops_nests_and_caps():
    seen = []

    def sampled(g):
        def fn(xi):
            seen.extend(xi)
            return g(xi)
        return fn

    # 1 + 2 x^4 = 1.75 T_0 + T_2 + 0.25 T_4: nine samples chop to five.
    coef = quad._chebyshev_profile(sampled(lambda x: 1.0 + 2.0 * x ** 4))
    np.testing.assert_allclose(coef, [1.75, 0.0, 1.0, 0.0, 0.25],
                               rtol=0.0, atol=1e-15)
    assert len(seen) == 9
    # The Runge function needs more than 81 points: the cap keeps every
    # coefficient, and the nested levels sample each point once.
    seen.clear()
    runge = quad._chebyshev_profile(
        sampled(lambda x: 1.0 / (1.0 + 25.0 * x * x)))
    assert len(runge) == len(seen) == len(set(seen)) == quad.CHEB_MAX_POINTS
    x = np.linspace(-1.0, 1.0, 201)
    err = np.polynomial.chebyshev.chebval(x, runge) - 1.0 / (1.0 + 25.0 * x * x)
    assert np.max(np.abs(err)) < 1e-6
    np.testing.assert_array_equal(quad._chebyshev_profile(np.zeros_like),
                                  [0.0])
