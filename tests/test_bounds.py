"""Green-operator norm bounds: the constant q_{N,s} (dual-rule
cross-check and frozen goldens), the complementary-mass infimum and its
closed lower bound, the decay rate m_s, and the full bound chain
``norm <= integral form <= new bound <= old bound`` on balls."""

import dataclasses
import math

import numpy as np
import pytest

from fraclab.core import CapabilityError, DomainError
from fraclab.geometry import Ball, Ellipsoid
from fraclab.specfun import ball_torsion_constant, log_constants
from fraclab import bounds, derivative, kernels, operators, quadrature
from fraclab.quadrature import QuadConfig
from fraclab.bounds import (BoundReport, green_norm_bound, m_s,
                            min_h_omega, p_s_lower, p_s_numeric,
                            q_constant)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
BALL3 = Ball(center=(0.0, 0.0, 0.0), radius=1.0)

RHO2 = log_constants(2)[1]


# -------------------------------------------------------- q constant

# Frozen goldens; each value reproduced by the in-house graded Gauss
# panels and scipy's adaptive quadrature to ~1e-17 before freezing.
Q_TABLE = [
    (2, 0.25, 0.001947181826247),
    (2, 0.5, 0.006901875771235),
    (2, 0.75, 0.013126898623795),
    (2, 1.0, 0.015445305162905),
    (3, 0.25, 0.000369257752589),
    (3, 0.5, 0.001442294888238),
    (3, 0.75, 0.003169836059567),
    (3, 1.0, 0.005287391812126),
]


@pytest.mark.parametrize("N,s,expected", Q_TABLE)
def test_q_frozen_goldens(N, s, expected):
    assert q_constant(N, s) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("N,s", [(2, 0.25), (2, 1.0), (3, 0.25), (3, 1.0)])
def test_q_dual_rule_agreement(N, s):
    # independent reference: scipy's adaptive quadrature of the same
    # integrand against the in-house graded Gauss panels
    from scipy.integrate import quad as sp_quad

    ref, _ = sp_quad(bounds._q_integrand, 0.0, s, args=(N,), limit=200,
                     epsabs=1e-13, epsrel=1e-12)
    assert abs(q_constant(N, s) - log_constants(N)[0] * ref) < 1e-10


def test_q_strictly_increasing_in_s():
    for N in (2, 3):
        vals = [q_constant(N, s) for s in (0.25, 0.5, 0.75, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_q_integrand_vanishes_at_endpoints():
    assert bounds._q_integrand(1e-6, 2) < 1e-5
    assert bounds._q_integrand(1e-6, 2) > bounds._q_integrand(1e-9, 2)
    # for N = 2 the exponent blows up at tau = 1 with base < 1
    assert bounds._q_integrand(1.0, 2) == 0.0
    assert bounds._q_integrand(1.0 - 1e-9, 2) == 0.0


def test_q_continuity_in_s():
    for s in (0.25, 0.5, 0.75, 0.99):
        assert abs(q_constant(2, s + 1e-4) - q_constant(2, s)) <= 1e-3


def test_q_validation():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            q_constant(2, bad)
    with pytest.raises(DomainError):
        q_constant(4, 0.5)


# ------------------------------------------------- closed lower bound


def test_p_lower_unit_disc_endpoint():
    # c_2 |B| diam^{-2} = (1/pi) * pi * 2^{-2}
    assert p_s_lower(2, 1.0, DISC) == pytest.approx(0.25, rel=1e-12)


def test_p_lower_unit_disc_half_golden():
    assert p_s_lower(2, 0.5, DISC) == pytest.approx(0.018997721932938,
                                                    rel=1e-10)


def test_p_lower_vanishes_at_small_order():
    assert 0.0 < p_s_lower(2, 1e-6, DISC) < 1e-6


def test_p_lower_on_equivalent_ellipsoid():
    round_disc = Ellipsoid(a=(1.0, 0.0, 0.0, 1.0))
    assert p_s_lower(2, 0.5, round_disc) == pytest.approx(
        p_s_lower(2, 0.5, DISC), rel=1e-12)


def test_p_lower_dimension_mismatch():
    with pytest.raises(DomainError):
        p_s_lower(3, 0.5, DISC)


# --------------------------------------------------- numeric infimum


def test_p_numeric_endpoint_center_value():
    p1 = p_s_numeric(DISC, 1.0)
    assert p1 == pytest.approx(1.0, rel=1e-8)
    assert p1 >= 0.25


def test_p_numeric_half_is_two_minus_ln4():
    # the complementary mass at the center for s = 1/2 on the unit disc
    assert p_s_numeric(DISC, 0.5) == pytest.approx(2.0 - math.log(4.0),
                                                   rel=1e-7)


def test_p_numeric_translation_invariance():
    shifted = Ball(center=(0.3, -0.2), radius=1.0)
    assert p_s_numeric(shifted, 0.75) == p_s_numeric(DISC, 0.75)


@pytest.mark.parametrize("s", [0.5, 0.75, 0.9])
def test_p_numeric_dominates_lower_bound(s):
    assert p_s_numeric(DISC, s) >= p_s_lower(2, s, DISC)
    assert p_s_lower(2, s, DISC) >= 0.0


# ------------------------------------------------------- decay rate


def test_m_endpoint_anchor():
    assert m_s(DISC, 1.0) == pytest.approx(RHO2 + 1.0, rel=1e-9)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_m_equals_negated_derivative_data_at_center(s):
    # On a ball the joint infimum sits at the center, where
    # rho + h + P^c 1 is exactly the negated source term of the
    # order-derivative problem for constant data.
    ones = operators.ScalarField(
        fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2, radial=True,
        smooth_scale=1.0, cache_token=("ones", 2))
    assert m_s(DISC, s) == pytest.approx(
        -derivative.ell_s(ones, DISC, s, np.zeros(2)), rel=1e-9)


def test_m_dominates_its_own_lower_pieces():
    for s in (0.5, 0.75):
        assert (m_s(DISC, s)
                >= min_h_omega(DISC) + RHO2 + p_s_numeric(DISC, s) - 1e-12)


def test_m_grows_as_ball_shrinks():
    small = Ball(center=(0.0, 0.0), radius=0.5)
    assert m_s(small, 0.75) > m_s(DISC, 0.75)


def test_m_requires_ball():
    with pytest.raises(CapabilityError):
        m_s(Ellipsoid(a=(2.0, 0.0, 0.0, 1.0)), 0.5)


# -------------------------------------------------- geometry minimum


def test_min_h_unit_ball_is_zero_at_center():
    assert abs(min_h_omega(DISC)) <= 1e-4
    assert abs(min_h_omega(BALL3)) <= 1e-4


def test_min_h_scaled_ball():
    half = Ball(center=(0.0, 0.0), radius=0.5)
    assert min_h_omega(half) == pytest.approx(2.0 * math.log(2.0),
                                              rel=1e-7)


def test_min_h_translation_invariance():
    shifted = Ball(center=(-0.4, 1.1), radius=1.0)
    assert min_h_omega(shifted) == pytest.approx(min_h_omega(DISC),
                                                 abs=1e-10)


# ----------------------------------------------------- full reports


@pytest.mark.parametrize("domain,s", [
    (DISC, 0.25), (DISC, 0.5), (DISC, 0.75), (DISC, 1.0),
    (BALL3, 0.5), (BALL3, 1.0),
])
def test_bound_chain(domain, s):
    r = green_norm_bound(domain, s)
    assert r.norm_numeric < r.bound_integral < r.bound_new < r.bound_old
    assert r.p_s_numeric >= r.p_s_lower >= 0.0
    assert r.q_Ns > 0.0


def test_report_endpoint_anchors():
    r = green_norm_bound(DISC, 1.0)
    assert r.norm_numeric == pytest.approx(0.25, rel=1e-12)
    assert r.bound_old == pytest.approx(math.exp(-RHO2), rel=1e-9)
    assert r.bound_old == pytest.approx(0.7930547, abs=1e-6)
    assert r.bound_new == pytest.approx(
        math.exp(-RHO2 - r.q_Ns * math.pi / 4.0), rel=1e-12)
    assert r.m_s == pytest.approx(RHO2 + 1.0, rel=1e-9)


def test_report_half_order_anchors():
    r = green_norm_bound(DISC, 0.5)
    assert r.norm_numeric == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert r.bound_old == pytest.approx(math.exp(-0.5 * RHO2), rel=1e-9)


def test_report_scans_h_omega_once(monkeypatch):
    # h_Omega does not depend on the order: its centre value serves every
    # m_tau of the integral bound; the minimum -2 ln R is closed.
    calls = []
    h_omega = operators.h_omega

    def counting(*args, **kwargs):
        calls.append(args[1])
        return h_omega(*args, **kwargs)

    monkeypatch.setattr(operators, "h_omega", counting)
    green_norm_bound(DISC, 0.5)
    assert len(calls) == 1
    assert np.array_equal(calls[0], DISC.center_array)


def test_report_scans_each_order_once(monkeypatch):
    # one centre value of P^c_tau 1 per tau node serves m_tau and, at
    # tau = s, p_s_numeric: N_TAU complementary applications in all
    calls = []
    apply = kernels.comp_poisson_apply

    def counting(*args, **kwargs):
        calls.append(args[2])
        return apply(*args, **kwargs)

    monkeypatch.setattr(kernels, "comp_poisson_apply", counting)
    green_norm_bound(DISC, 0.5)
    assert bounds.N_TAU == 12
    assert len(calls) == 12
    assert calls.count(0.5) == 1


def test_report_reads_its_data_through_the_benchmark_seam(monkeypatch):
    # The benchmark counts the bound chain's data points by wrapping the
    # field that bounds._ones builds (perfbench/child.py); a chain that
    # built its data another way would report no work at all.
    points = [0]
    make_ones = bounds._ones

    def counted_ones(N):
        field = make_ones(N)
        fn = field.fn

        def wrapped(pts):
            points[0] += len(np.atleast_2d(pts))
            return fn(pts)

        field.fn = wrapped
        return field

    monkeypatch.setattr(bounds, "_ones", counted_ones)
    green_norm_bound(DISC, 0.5)
    assert points[0] > 0


@pytest.mark.parametrize("domain", [
    DISC, BALL3, Ball(center=(0.3, -0.2), radius=1.1)],
    ids=["disc", "ball3", "off-centre"])
@pytest.mark.parametrize("s", [0.25, 0.3, 0.75, 1.0])
def test_report_p_s_is_the_standalone_scan(domain, s):
    # the report reads p_s off its last tau node; a cold standalone
    # centre value at the same order gives the same float
    r = green_norm_bound(domain, s)
    for store in quadrature._MEMO_STORES:
        store.clear()
    assert r.p_s_numeric == p_s_numeric(domain, s)


@pytest.mark.parametrize("domain", [DISC, BALL3], ids=["disc", "ball3"])
@pytest.mark.parametrize("s", [0.25, 0.3, 0.75, 1.0])
def test_mass_profile_falls_toward_center(domain, s):
    # Reference scan: 25 log-spaced radii from near the boundary to the
    # centre.  The profile falls strictly toward the centre, so its
    # minimum is the centre value p_s_numeric reads, and no search
    # between grid points could lower it.
    R = domain.radius
    pts = kernels._radial_points(domain, R - np.geomspace(1e-4 * R, R, 25))
    vals = np.array([kernels.comp_poisson_apply(
        domain, bounds._ones(domain.dim), s, p, QuadConfig()).value
        for p in pts])
    assert np.array_equal(pts[-1], domain.center_array)
    assert np.all(np.diff(vals) < 0.0)
    assert p_s_numeric(domain, s) == vals.min()


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("R", [0.8, 1.1])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
def test_integral_bound_meets_its_estimate(N, R, s):
    # Reference: Gauss-Legendre in tau on [0, s], which agrees with
    # itself from 8 to 16 nodes far below the tau rule's error.  The
    # rule's estimate must cover its distance to the reference.
    ball = Ball(center=(0.0,) * N, radius=R)

    def gauss(n):
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * s * sum(wi * m_s(ball, 0.5 * s * (xi + 1.0))
                             for xi, wi in zip(x, w))

    ref = gauss(16)
    assert abs(gauss(8) - ref) < 1e-12
    taus = s * np.arange(1, bounds.N_TAU + 1) / bounds.N_TAU
    taus[-1] = s
    value, estimate = bounds._tau_integral(
        taus, np.array([m_s(ball, t) for t in taus]))
    assert abs(value - ref) <= estimate < 1e-6
    r = green_norm_bound(ball, s)
    assert r.bound_integral == math.exp(-value)
    assert r.norm_numeric < r.bound_integral < r.bound_new < r.bound_old


def test_tau_rule_is_exact_on_polynomials():
    # Degree 10 lies in the span of both rules (degree 11 on 12 nodes,
    # degree 10 on the last 11): the value is exact to rounding, and so
    # is the gap between the rules.
    taus = 0.75 * np.arange(1, 13) / 12
    value, estimate = bounds._tau_integral(taus, 1.0 + taus ** 10)
    assert value == pytest.approx(0.75 + 0.75 ** 11 / 11, rel=1e-14)
    assert estimate < 1e-14


def test_report_scales_with_radius():
    r = green_norm_bound(Ball(center=(0.0, 0.0), radius=2.0), 0.5)
    base = green_norm_bound(DISC, 0.5)
    assert r.norm_numeric == pytest.approx(2.0 * base.norm_numeric,
                                           rel=1e-12)
    assert r.bound_old == pytest.approx(2.0 * base.bound_old, rel=1e-7)
    assert r.norm_numeric < r.bound_integral < r.bound_new < r.bound_old


def test_report_is_frozen_with_fixed_columns():
    r = green_norm_bound(DISC, 1.0)
    assert BoundReport.CSV_COLUMNS == (
        "s", "norm_numeric", "bound_integral", "bound_new", "bound_old",
        "m_s", "p_s_numeric", "p_s_lower", "q_Ns")
    assert [f.name for f in dataclasses.fields(BoundReport)] == list(
        BoundReport.CSV_COLUMNS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.s = 0.5


def test_report_requires_ball():
    with pytest.raises(CapabilityError):
        green_norm_bound(Ellipsoid(a=(2.0, 0.0, 0.0, 1.0)), 0.5)
