"""Quadrature engine against closed-form integrals.

Every expected value here is an exact formula evaluated by hand; the
rules must hit them well inside the default tolerances.
"""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from fraclab.core import DomainError
from fraclab import geometry as geo
from fraclab import quadrature as quad
from fraclab.operators import ScalarField
from fraclab.specfun import frac_normalization


DISC = geo.unit_ball(2)
CFG = quad.QuadConfig()


def test_config_validation():
    with pytest.raises(DomainError):
        quad.QuadConfig(rel_tol=0.0)


_JACOBI_EXPONENTS = [-0.999, -0.958, -0.75, -0.5, -0.1, 0.0, 0.3, 0.5, 1.0]


@pytest.mark.parametrize("n", [8, 12, 20, 24, 32, 40])
@pytest.mark.parametrize("beta", _JACOBI_EXPONENTS)
def test_jacobi_unit_integrates_moments_exactly(n, beta):
    # The Gauss rule of t^beta on [0, 1] integrates t^k exactly for k <
    # 2n: int_0^1 t^(beta + k) dt = 1 / (beta + k + 1).  Measured worst:
    # 1.4e-13 relative, at beta = -0.999.
    t, w = quad._jacobi_unit(n, beta)
    assert np.all(w > 0.0)
    assert 0.0 < t[0] and np.all(np.diff(t) > 0.0) and t[-1] < 1.0
    k = np.arange(2 * n)
    moments = (w[:, None] * t[:, None] ** k).sum(axis=0)
    np.testing.assert_allclose(moments, 1.0 / (beta + k + 1.0), rtol=2e-13,
                               atol=0.0)


@pytest.mark.parametrize("n", [8, 20, 40])
@pytest.mark.parametrize("beta", _JACOBI_EXPONENTS)
def test_jacobi_unit_nodes_match_scipy(n, beta):
    # scipy's Gauss-Jacobi rule on [-1, 1], mapped to [0, 1]: the nodes
    # agree within 3 eps absolute (measured 4.4e-16).  Its weights are
    # not a reference: they are up to 7e-11 off at beta = -0.958, n = 40.
    x, _ = roots_jacobi(n, 0.0, beta)
    t, _ = quad._jacobi_unit(n, beta)
    np.testing.assert_allclose(t, 0.5 * (x + 1.0), rtol=0.0,
                               atol=3.0 * np.finfo(float).eps)


def test_jacobi_unit_rejects_non_integrable_exponent():
    with pytest.raises(DomainError):
        quad._jacobi_unit(8, -1.0)


@pytest.mark.parametrize("alpha", [-0.999, -0.98, -0.5, 0.0, 0.5, 0.98, 0.998,
                                   1.0 - 2e-6])
def test_end_rule_integrates_both_families(alpha):
    # The 6-node end rule integrates x^k and x^(alpha+k), k < 6 (x^k ln x
    # at alpha = 0), within 1e-14 relative (measured worst 1.2e-15, at the
    # closed rules alpha = -1/2 and 1/2), with positive weights and nodes
    # inside (0, 1), also where the two families merge at -1, 0 and 1.
    x, w = quad._end_rule(alpha)
    assert len(x) == quad.END_NODES and np.all(w > 0.0)
    assert np.all(x > 0.0) and np.all(x < 1.0)
    k = np.arange(6.0)
    np.testing.assert_allclose(w @ x[:, None] ** k, 1.0 / (k + 1.0),
                               rtol=1e-14, atol=0.0)
    if alpha == 0.0:
        second = w @ (x[:, None] ** k * np.log(x)[:, None])
        exact = -1.0 / (k + 1.0) ** 2
    else:
        second = w @ x[:, None] ** (alpha + k)
        exact = 1.0 / (alpha + k + 1.0)
    np.testing.assert_allclose(second, exact, rtol=1e-14, atol=0.0)


def test_end_rule_rejects_exponents_outside_its_range():
    for alpha in (-1.0, 1.5):
        with pytest.raises(DomainError):
            quad._end_rule(alpha)


def _power_exp_integral(a, sign, alpha):
    # int_0^a t^alpha e^(sign t) dt by its power series.
    return sum(sign ** k * a ** (alpha + k + 1.0)
               / (math.factorial(k) * (alpha + k + 1.0)) for k in range(40))


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.25, 0.5, 0.98])
def test_offset_rule_near_end_is_exact_on_both_parts(alpha):
    # |rho - r|^alpha e^rho + cos(3 rho) on [0, 1] with r = 0.3: the end
    # rule at rho = r takes the singular and the regular part together, so
    # four levels of grading reach rounding (measured 3.4e-16).  A
    # Gauss-Jacobi end is exact on the first part only: 1.1e-6 off at
    # alpha = -1/2, 3.2e-5 at 0.98.
    r, R = 0.3, 1.0
    rho, off, _, w = quad.offset_rule(r, R, 10, (alpha, 4), None)
    got = float(w @ (np.abs(off) ** alpha * np.exp(rho) + np.cos(3.0 * rho)))
    exact = math.exp(r) * (_power_exp_integral(R - r, 1.0, alpha)
                           + _power_exp_integral(r, -1.0, alpha)) \
        + math.sin(3.0 * R) / 3.0
    assert got == pytest.approx(exact, rel=2e-15)


def test_unit_power_rule_exactness():
    # Integrates x^a (1-x)^b from raw integrand values.  At the lower
    # endpoint the node coordinate *is* the distance to the singularity,
    # so the rule is exact to rounding; at the upper endpoint evaluating
    # (1 - x) near 1 costs half the mantissa, hence the looser tolerance.
    for a, b, exact, rel in [
        (-0.5, None, 2.0, 1e-13),                # int x^(-1/2) = 2
        (-0.9, None, 10.0, 1e-13),               # int x^(-9/10) = 10
        (None, -0.5, 2.0, 5e-9),
        (-0.9, 0.7, math.gamma(0.1) * math.gamma(1.7) / math.gamma(1.8),
         5e-9),
    ]:
        x, w = quad.unit_power_rule(a, b, 16, 40)
        f = np.ones_like(x)
        if a is not None:
            f = f * x ** a
        if b is not None:
            f = f * (1.0 - x) ** b
        assert float(w @ f) == pytest.approx(exact, rel=rel), (a, b)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.9999])
def test_offset_rule_offsets_are_exact(r):
    # int_0^r (r - rho)^(-1/2) + int_r^R (rho - r)^(-1/2) (R - rho)^(1/2)
    # = 2 sqrt(r) + (R - r) pi / 2, integrated from the offsets themselves
    # with no representation loss 60 levels deep, where rho rounds to r.
    # The side of a node is the sign of its offset.
    R = 1.0
    rho, off, sigma, w = quad.offset_rule(r, R, 10, (-0.5, 60), (0.5, 26))
    f = np.abs(off) ** -0.5 * np.where(off > 0.0, sigma ** 0.5, 1.0)
    exact = 2.0 * math.sqrt(r) + 0.5 * math.pi * (R - r)
    assert float(w @ f) == pytest.approx(exact, rel=1e-13)
    assert (off[rho < r] < 0.0).all() and (off[rho > r] > 0.0).all()
    assert np.abs(rho - r - off).max() <= 2e-16
    assert np.abs(R - rho - sigma).max() <= 2e-16


def test_unit_power_rule_rejects_negative_depth():
    # Depth -1 would make the micro-segment [0, 1]: weights summing to 2.
    with pytest.raises(DomainError):
        quad.unit_power_rule(0.0, 0.0, 8, -1)
    x, w = quad.unit_power_rule(0.0, 0.0, 8, 0)
    assert float(w.sum()) == pytest.approx(1.0, rel=1e-14)


def test_coarse_pass_is_coarser_than_the_fine_one():
    # The one coarse policy of _two_pass: at every fine depth the coarse
    # pass grades to a valid depth below the capped fine one, and no
    # coarse order exceeds its fine order.
    for levels in range(1, 49):
        capped = min(levels, quad.MAX_LEVELS)
        for angular, radial in [(1, 1), (6, 6), (8, 8), (9, 14), (10, 16),
                                (64, 16), (304, 30), (4096, 12)]:
            passes = []
            quad._two_pass(lambda *res: passes.append(res) or (0.0, 0),
                           (angular, radial, levels), CFG)
            (m, n, lv), (mc, nc, lvc) = passes
            assert (m, n, lv) == (angular, radial, capped)
            assert 0 <= lvc < capped, levels
            assert min(angular, 8) <= mc <= angular
            assert min(radial, 8) <= nc <= radial


def test_pv_second_difference_gaussian():
    # (-Delta)^s exp(-|x|^2) at x = 0 in the plane equals 4^s Gamma(1+s).
    u = ScalarField(fn=lambda y: np.exp(-(np.asarray(y) ** 2).sum(axis=-1)),
                    dim=2, smooth_scale=1.0)
    for s in (0.25, 0.5, 0.75):
        res = quad.integrate_pv_second_difference(u, np.zeros(2), s, CFG)
        value = frac_normalization(2, s) * res.value
        exact = 4.0 ** s * math.gamma(1.0 + s)
        assert value == pytest.approx(exact, rel=2e-8), s


def test_pv_second_difference_shifted_point():
    # Same Gaussian, off the symmetry point: compare against the
    # closed-form multiplier evaluated by a dense Hankel-type series?  No:
    # use instead the exact scaling u_a(x) = exp(-a|x|^2):
    # (-Delta)^s u_a (0) = a^s 4^s Gamma(1+s)  (dilation covariance).
    a = 2.3
    u = ScalarField(fn=lambda y: np.exp(-a * (np.asarray(y) ** 2).sum(axis=-1)),
                    dim=2, smooth_scale=1.0 / math.sqrt(a))
    s = 0.6
    res = quad.integrate_pv_second_difference(u, np.zeros(2), s, CFG)
    value = frac_normalization(2, s) * res.value
    exact = a ** s * 4.0 ** s * math.gamma(1.0 + s)
    assert value == pytest.approx(exact, rel=2e-8)


# ---------------------------------------------------------------------------
# Symmetry folds of the polar direction rules.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [7, 8, 10, 12, 33, 64])
@pytest.mark.parametrize("antipodal", [False, True])
def test_polar_fold_keeps_one_node_per_orbit(m, antipodal):
    # Every node of the midpoint rule rotated onto the axis lies in the
    # orbit of exactly one kept node, which carries the orbit's weight.
    # The antipodal map is a symmetry of the rule for even m only.
    axis = np.array([-1.5, 2.0])
    phi = math.atan2(axis[1], axis[0])
    dirs, w = quad.polar_directions(2, m, axis, antipodal)
    assert w.sum() == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert np.allclose(np.hypot(dirs[:, 0], dirs[:, 1]), 1.0, atol=1e-15)
    # Node j of the rotated rule lies at phi + 2 pi (j + 1/2) / m.
    pos = (np.arctan2(dirs[:, 1], dirs[:, 0]) - phi) * m / (2.0 * math.pi)
    j = np.round(pos - 0.5).astype(int) % m
    assert np.allclose((pos - 0.5 - j + m / 2.0) % m - m / 2.0, 0.0,
                       atol=1e-12)
    hits = np.zeros(m, dtype=int)
    for jk, wk in zip(j, w):
        orbit = {jk, m - 1 - jk}
        if antipodal and m % 2 == 0:
            orbit |= {(i + m // 2) % m for i in orbit}
        hits[list(orbit)] += 1
        assert wk == pytest.approx(len(orbit) * 2.0 * math.pi / m,
                                   rel=1e-14)
    assert (hits == 1).all()


@pytest.mark.parametrize("m", [7, 64])
def test_polar_fold_absent_or_impossible_leaves_the_rule(m):
    t = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    plain = np.stack([np.cos(t), np.sin(t)], axis=1)
    dirs, w = quad.polar_directions(2, m)
    assert np.array_equal(dirs, plain)
    assert np.array_equal(w, np.full(m, 2.0 * math.pi / m))
    if m % 2:
        odd = quad.polar_directions(2, m, antipodal=True)
        assert np.array_equal(odd[0], plain) and np.array_equal(odd[1], w)
    else:
        # Without an axis the antipodal fold keeps the first half as is.
        half, w_half = quad.polar_directions(2, m, antipodal=True)
        assert np.array_equal(half, plain[:m // 2])
        assert np.array_equal(w_half, 2.0 * w[:m // 2])


def test_polar_fold_3d_pairs_each_direction_with_its_negation():
    dirs, w = quad.polar_directions(3, 64)
    half, w_half = quad.polar_directions(3, 64, antipodal=True)
    assert 2 * len(half) == len(dirs)
    assert w_half.sum() == pytest.approx(4.0 * math.pi, rel=1e-14)
    both = np.concatenate([half, -half])
    match = np.abs(dirs[:, None, :] - both[None, :, :]).max(axis=2) < 1e-15
    assert (match.sum(axis=1) == 1).all() and (match.sum(axis=0) == 1).all()
    w_both = np.concatenate([w_half, w_half])
    np.testing.assert_allclose(w, 0.5 * w_both[match.argmax(axis=1)],
                               rtol=1e-15)


def test_polar_fold_integrates_symmetric_data():
    # A trigonometric polynomial even about the axis and in theta: each
    # fold integrates it exactly, like the plain rule.
    axis = np.array([0.4, 0.7])
    a = axis / np.linalg.norm(axis)
    exact = 2.0 * math.pi * (1.0 + 0.5 * 0.3)
    for antipodal in (False, True):
        dirs, w = quad.polar_directions(2, 16, axis, antipodal)
        c = dirs @ a
        assert float(w @ (1.0 + 0.3 * c * c)) == pytest.approx(exact,
                                                               rel=1e-14)


def test_centred_radial_needs_radial_data_on_a_centred_ball():
    def radial(p):
        return p

    radial.radial = True
    off = geo.Ball(center=(0.2, 0.0), radius=1.0)
    assert quad.centred_radial(radial, DISC)
    assert not quad.centred_radial(lambda p: p, DISC)
    assert not quad.centred_radial(radial, off)
    assert not quad.centred_radial(radial, geo.Ellipsoid(a=(1.0, 0.0, 0.0,
                                                           4.0)))
    radial.domain = off
    assert not quad.centred_radial(radial, DISC)
    # Radial about the centre of its own (shifted) domain.
    assert quad.centred_radial(radial, off)
    radial.domain = geo.unit_ball(3)
    assert not quad.centred_radial(radial, DISC)


# ---------------------------------------------------------------------------
# Layered direction rules on the 2-sphere.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_phi", [32])
def test_layered_directions_measure(n_phi):
    # mu_lo = -1: the cone is the whole sphere, graded toward both poles.
    dirs, w = quad.layered_directions([0.0, 0.0, 1.0], 16, 12, n_phi)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)
    assert w.sum() == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_layered_directions_cone_measure():
    mu_lo = 0.5
    dirs, w = quad.layered_directions([1.0, 2.0, -1.0], 16, 12, 24,
                                      mu_lo=mu_lo)
    assert w.sum() == pytest.approx(2.0 * math.pi * (1.0 - mu_lo), rel=1e-12)
    axis = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
    assert (dirs @ axis).min() >= mu_lo - 1e-12


def test_layered_directions_axisymmetric_moment():
    # int_{S^2} (axis . theta)^2 dS = 4 pi / 3: the graded rule in mu
    # integrates the axisymmetric moment with any azimuth count.
    axis = np.array([0.3, -1.2, 0.5])
    a_hat = axis / np.linalg.norm(axis)
    for n_phi in (8, 48):
        dirs, w = quad.layered_directions(axis, 20, 14, n_phi)
        got = float(w @ (dirs @ a_hat) ** 2)
        assert got == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


def test_layered_directions_nonsymmetric_needs_azimuth():
    # a harmonic with azimuthal dependence integrates to zero only when
    # the azimuth is actually sampled
    axis = np.array([0.0, 0.0, 1.0])
    dirs, w = quad.layered_directions(axis, 20, 14, 64)
    got = float(w @ (dirs[:, 0] * dirs[:, 1]))
    assert abs(got) < 1e-13


def test_direction_chunks_cover_range():
    for n, row in [(1, 10), (100, 10), (5000, 900), (17, 10 ** 8)]:
        idx = []
        for sl in quad.direction_chunks(n, row):
            assert isinstance(sl, slice)
            idx.extend(range(*sl.indices(n)))
        assert idx == list(range(n))


def test_direction_chunks_budget():
    # Rows under the budget; a row longer than the budget goes alone.
    budget = 10_000
    for row, most in ((100, 100), (3 * budget, 1)):
        sizes = [len(range(*sl.indices(4000)))
                 for sl in quad.direction_chunks(4000, row, budget=budget)]
        assert max(sizes) == most and sum(sizes) == 4000


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


@pytest.mark.parametrize("prev,gap,expected", [
    (0.0, 1e-3, 1e-3),            # one difference: the raw one
    (1e-3, 2e-3, 2e-3),           # growing: no convergence shown
    (1e-3, 1e-3, 1e-3),
    (1e-2, 1e-4, 1e-4 * 1e-2 / (1.0 - 1e-2)),
    (4e-2, 2e-2, 2e-2),           # ratio 1/2: the geometric tail is gap
])
def test_doubling_error(prev, gap, expected):
    assert quad.doubling_error(prev, gap) == pytest.approx(expected,
                                                           rel=1e-14)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("L", [0, 1, 3, 7])
def test_harmonic_rule_moments(N, L):
    # Addition theorem: the degree-l moment about a of Z_k(theta . b) is
    # Z_k(a . b) if l = k and 0 otherwise, for Z_k = P_k (sphere) or
    # T_k, cos(k psi) (circle); a constant has moments (1, 0, ..., 0).
    a = np.array([0.3, -1.2, 0.5][:N])
    b = np.array([-0.7, 0.1, 0.4][:N])
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    dirs, Y = quad.harmonic_rule(N, a, L)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-15)
    vander = (np.polynomial.legendre.legvander if N == 3
              else np.polynomial.chebyshev.chebvander)
    Z = vander(np.clip(dirs @ b, -1.0, 1.0), L)
    at = vander(np.array([a @ b]), L)[0]
    np.testing.assert_allclose(Z.T @ Y, np.diag(at), atol=1e-14)
