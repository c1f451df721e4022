"""Kernel tests: Green function of the ball, Poisson kernels, and the
complementary Poisson kernel, against frozen high-precision oracles and
closed-form identities."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fraclab.closedform import jacobi_data, jacobi_solution
from fraclab.core import (DivergenceError, DomainError, EvaluationError,
                          SingularityError)
from fraclab.geometry import Ball, Ellipsoid
from fraclab.quadrature import QuadConfig, unit_power_rule, map_rule
from fraclab.specfun import ball_torsion_constant, log_constants
from fraclab import derivative, kernels, operators
from fraclab import quadrature as quad
from fraclab.kernels import (comp_poisson_apply, comp_poisson_kernel,
                             green_apply, green_ball, poisson_ball,
                             poisson_ball_classical, poisson_extend)

CFG = QuadConfig()


def radial_field(fn):
    fn.radial = True
    fn.cache_token = getattr(fn, "__name__", "anon")
    return fn


# ---------------------------------------------------------------------------
# The Green factor: G_s = kappa d^(2s-N) I_x(s, N/2-s), x = r0/(1+r0), or
# equally d^(2s-N) pref B(r0) with B(r0) = int_0^r0 t^(s-1)(1+t)^(-N/2).
# The kernel depends on lx, ly, d only through r0 = lx ly / (R d)^2 and d;
# the rows take R = lx = 1 and ly = r0 d^2.
# Frozen values: 25-digit direct quadrature of B(r0).
# ---------------------------------------------------------------------------

FACTOR_TABLE = [
    (2, 0.5, 0.3, 1.0021860265307144),
    (3, 0.25, 0.9, 3.230065891518468),
    (2, 0.1, 1e-06, 2.5118862031563878),
]

TAIL_TABLE = [  # rows at r0 >= 1
    (2, 0.75, 4.0, 1.7390937441091078),
    (3, 0.6, 12.0, 1.6835649935771523),
    (2, 0.99, 1e8, 16.840074132899456),
    (3, 0.9, 1e6, 1.7952767148805012),
    (3, 0.5, 2e5, 1.9999950000187499),
]

# d = 2^-14 keeps ly = r0 d^2 <= 1 on every frozen row, and r0 exact.
FROZEN_D = 2.0 ** -14


def _kernel_at(N, s, r0):
    d = np.array([FROZEN_D])
    return kernels._green_kernel(N, s, 1.0, 1.0, r0 * d * d, d)[0]


def _frozen_kernel(N, s, b_r0):
    pref = math.gamma(0.5 * N) / (4.0 ** s * math.pi ** (0.5 * N)
                                  * math.gamma(s) ** 2)
    return FROZEN_D ** (2.0 * s - N) * pref * b_r0


def _mp_green(N, s, lx, ly, d):
    """``kappa d^(2s-N) I_x(s, N/2-s)`` in mpmath's working precision
    (``R = 1``), through the complement where ``r0 >= 1``; ``ln(1 + r0) /
    4 pi`` at ``s = 1`` in the plane."""
    lx, ly, d = mpmath.mpf(lx), mpmath.mpf(ly), mpmath.mpf(d)
    r0 = lx * ly / d ** 2
    if s == 1.0:
        return mpmath.log1p(r0) / (4 * mpmath.pi)
    a, b = mpmath.mpf(s), mpmath.mpf(N) / 2 - mpmath.mpf(s)
    if r0 < 1:
        beta = mpmath.betainc(a, b, 0, r0 / (1 + r0), regularized=True)
    else:
        beta = 1 - mpmath.betainc(b, a, 0, 1 / (1 + r0), regularized=True)
    kappa = mpmath.gamma(b) / (4 ** a * mpmath.pi ** (mpmath.mpf(N) / 2)
                               * mpmath.gamma(a))
    return kappa * d ** (2 * a - N) * beta


@pytest.mark.parametrize("N,s,r0,expected", FACTOR_TABLE)
def test_green_factor_small_oracle(N, s, r0, expected):
    assert _kernel_at(N, s, r0) == pytest.approx(
        _frozen_kernel(N, s, expected), rel=3e-15, abs=0.0)


@pytest.mark.parametrize("N,s,r0,b_r0", TAIL_TABLE)
def test_green_tail_oracle(N, s, r0, b_r0):
    assert _kernel_at(N, s, r0) == pytest.approx(
        _frozen_kernel(N, s, b_r0), rel=3e-15, abs=0.0)


def test_green_factor_matches_incomplete_beta():
    for N, s, r0 in [(2, 0.35, 0.8), (3, 0.7, 0.5)]:
        with mpmath.workdps(50):
            expected = float(_mp_green(N, s, 1.0, r0 * FROZEN_D ** 2,
                                       FROZEN_D))
        assert _kernel_at(N, s, r0) == pytest.approx(expected, rel=3e-15,
                                                     abs=0.0)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.01, 0.02, 0.25, 0.5, 0.75, 0.9, 0.98, 0.99,
                               0.999, 0.9999, 0.99999, 0.999999])
def test_green_factor_matches_incomplete_beta_to_rounding(N, s):
    # r0 from 1e-12 to 1e16 at d down to 1e-8.  Near the diagonal (large
    # r0) 1 - x rounds away: in the plane, betainc(s, N/2-s, x) on the
    # rounded x is 5.0e-9 off at r0 = 1e12, s = 0.75, and up to 5e-3 at
    # s = 0.99 for r0 between 1e15 and 1e16.  In the plane kappa grows
    # like pi / sin(pi s) as s -> 1, so a factor formed as kappa minus a
    # term of that size (kappa - pref J) loses digits there.
    r0 = np.logspace(-12.0, 16.0, 57)
    for d in (1e-8, 1e-4, 0.3, 1.9):
        ly = r0 * d * d
        ly = ly[ly <= 1.0]
        got = kernels._green_kernel(N, s, 1.0, 1.0, ly, np.full(len(ly), d))
        with mpmath.workdps(50):
            expected = [float(_mp_green(N, s, 1.0, v, d)) for v in ly]
        np.testing.assert_allclose(got, expected, rtol=3e-15, atol=0.0)


# ---------------------------------------------------------------------------
# Green function point values.
# ---------------------------------------------------------------------------

GREEN_TABLE = [
    (2, 0.5, [0.1, 0.2], [-0.3, 0.4], 0.24549788674082103),
    (2, 0.8, [0.0, 0.0], [0.5, 0.0], 0.15547271282940487),
    (3, 0.5, [0.2, 0.0, 0.0], [0.1, 0.3, -0.2], 0.33460192630292743),
    (3, 0.3, [0.0, 0.0, 0.0], [0.25, 0.25, 0.25], 0.26050302007404001),
    (2, 0.95, [0.9, 0.0], [0.88, 0.05], 0.28427313872621329),
]


@pytest.mark.parametrize("N,s,x,y,expected", GREEN_TABLE)
def test_green_ball_frozen(N, s, x, y, expected):
    ball = Ball(center=(0.0,) * N, radius=1.0)
    assert green_ball(ball, s, x, y) == pytest.approx(expected, rel=2e-13)


def test_green_ball_translation_invariance():
    base = Ball(center=(0.0, 0.0), radius=1.0)
    moved = Ball(center=(2.0, -1.0), radius=1.0)
    a = green_ball(base, 0.6, [0.1, 0.2], [-0.3, 0.4])
    b = green_ball(moved, 0.6, [2.1, -0.8], [1.7, -0.6])
    assert b == pytest.approx(a, rel=1e-14)


def test_green_ball_classical_disc():
    # (1/2pi) ln( |R^2 - z conj(w)| / (R |z - w|) ) on the disc of radius R.
    R = 2.0
    ball = Ball(center=(0.0, 0.0), radius=R)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = complex(*(rng.uniform(-1, 1, 2)))
        w = complex(*(rng.uniform(-1, 1, 2)))
        expected = math.log(abs(R * R - z * w.conjugate())
                            / (R * abs(z - w))) / (2.0 * math.pi)
        got = green_ball(ball, 1.0, [z.real, z.imag], [w.real, w.imag])
        assert got == pytest.approx(expected, rel=1e-12)


def test_green_ball_classical_3d_image_formula():
    R = 1.5
    ball = Ball(center=(0.0, 0.0, 0.0), radius=R)
    x = np.array([0.3, -0.2, 0.5])
    y = np.array([-0.4, 0.1, 0.6])
    ystar = R * R * y / (y @ y)
    expected = (1.0 / np.linalg.norm(x - y)
                - R / (np.linalg.norm(y) * np.linalg.norm(x - ystar))) \
        / (4.0 * math.pi)
    assert green_ball(ball, 1.0, x, y) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x,y,expected,rel", [
    # y = (1 - delta) (0.6, -0.64, 0.48) at delta = 1e-4 and 1e-8, as
    # doubles; 50-digit mpmath values of the image formula at those
    # doubles.  Rounding ly = 1 - |y|^2 alone costs 1.5e-13 and 3.3e-10
    # relative there; the difference 1/d - 1/sqrt(d^2 + lx ly) of the two
    # poles was 2.2e-12 and 1.0e-8 off.
    ([0.3, 0.2, 0.1], [0.59994, -0.6399360000000001, 0.479952],
     7.5100051929457131944e-6, 3e-13),
    ([0.3, 0.2, 0.1], [0.5999999939999999, -0.6399999935999999, 0.4799999952],
     7.509254364905776819e-10, 1e-9),
    # d = 2^-530 (exact; d^2 is subnormal): lx ly / (R^2 d^2) overflows,
    # and the image term 1 / sqrt(d^2 + lx ly) = 1 is 2^-530 of 1 / d.
    ([0.0, 0.0, 0.0], [2.0 ** -530, 0.0, 0.0],
     2.0 ** 530 / (4.0 * math.pi), 1e-15),
    ([0.0, 2.0 ** -530, 0.0], [0.0, 0.0, 0.0],
     2.0 ** 530 / (4.0 * math.pi), 1e-15),
], ids=["delta-1e-4", "delta-1e-8", "next-to-pole", "pole-next-to-centre"])
def test_green_ball_classical_3d_stable(x, y, expected, rel):
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    got = green_ball(ball, 1.0, x, y)
    assert got == pytest.approx(expected, rel=rel, abs=0.0)


def test_green_ball_symmetry():
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    for s in (0.3, 0.7, 1.0):
        a = green_ball(ball, s, [0.5, 0.1], [-0.2, 0.6])
        b = green_ball(ball, s, [-0.2, 0.6], [0.5, 0.1])
        assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("y", [(-0.2, 0.4), (0.3 + 1e-7, 0.1)],
                         ids=["regular", "near-diagonal"])
def test_green_ball_order_quotient_near_one(y):
    # The nonlocal-to-local transition: (G_1 - G_s) / (1 - s) at s = 1 -
    # 10^-k.  The difference G_1 - G_s is 10^-k times the quotient, so G_s
    # must hold nearly all its digits; a kernel formed as kappa - pref J,
    # both growing like pi / sin(pi s), read -0.0060 for -0.1701 at k = 7.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    x = (0.3, 0.1)
    g1 = green_ball(ball, 1.0, x, y)
    with mpmath.workdps(50):
        xm, ym = mpmath.matrix(x), mpmath.matrix(y)
        args = (1 - xm.T * xm)[0], (1 - ym.T * ym)[0], mpmath.norm(xm - ym)
        mp_g1 = _mp_green(2, 1.0, *args)
        for k in range(2, 8):
            s = 1.0 - 10.0 ** -k
            got = (g1 - green_ball(ball, s, x, y)) / (1.0 - s)
            expected = float((mp_g1 - _mp_green(2, s, *args))
                             / (1 - mpmath.mpf(s)))
            assert got == pytest.approx(expected, rel=1e-8, abs=0.0), k


def test_green_ball_edges():
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    assert green_ball(ball, 0.5, [0.2, 0.0], [3.0, 0.0]) == 0.0
    assert green_ball(ball, 0.5, [0.2, 0.0], [0.0, 1.0]) == 0.0
    batch = green_ball(ball, 0.5, [0.2, 0.0],
                       np.array([[0.5, 0.5], [5.0, 0.0]]))
    assert batch[1] == 0.0 and batch[0] > 0.0
    with pytest.raises(SingularityError):
        green_ball(ball, 0.5, [0.2, 0.0], [0.2, 0.0])
    # r0 = lx ly / d^2 above 1e150, where the plane's t-rule would leave
    # double range; the classical kernel is closed there.
    with pytest.raises(SingularityError):
        green_ball(ball, 0.5, [0.0, 0.0], [1e-76, 0.0])
    assert green_ball(ball, 0.5, [0.0, 0.0], [1e-74, 0.0]) > 0.0
    assert green_ball(ball, 1.0, [0.0, 0.0], [1e-76, 0.0]) == pytest.approx(
        math.log1p(1e152) / (4.0 * math.pi), rel=1e-15)
    with pytest.raises(DomainError):
        green_ball(ball, 0.5, [1.2, 0.0], [0.2, 0.0])
    with pytest.raises(kernels.CapabilityError):
        green_ball(Ellipsoid(a=(1.0, 0.0, 0.0, 2.0)), 0.5,
                   [0.1, 0.0], [0.2, 0.0])


# ---------------------------------------------------------------------------
# Acceptance gate at the kernel level: the torsion identity
# int_B G_s(x, y) dy = d(N, s) (R^2 - |x|^2)^s.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 0.95])
def test_green_center_mass_matches_torsion_constant(N, s):
    ball = Ball(center=(0.0,) * N, radius=1.0)
    surf = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    xu, wu = unit_power_rule(2.0 * s - 1.0, s, 24, 26)
    e1 = np.zeros(N)
    e1[0] = 1.0
    ys = xu[:, None] * e1[None, :]
    vals = green_ball(ball, s, np.zeros(N), ys)
    got = surf * float(wu @ (vals * xu ** (N - 1)))
    expected, _ = ball_torsion_constant(N, s)
    assert got == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("N,s,x", [
    (2, 0.25, (0.0, 0.0)),
    (2, 0.75, (0.3, 0.4)),
    (3, 0.5, (0.0, 0.0, 0.0)),
    (3, 0.8, (0.1, -0.2, 0.55)),
])
def test_green_apply_torsion_profile(N, s, x):
    ball = Ball(center=(0.0,) * N, radius=1.0)
    res = green_apply(ball, lambda y: np.ones(len(np.atleast_2d(y))), s, x,
                      CFG)
    d, _ = ball_torsion_constant(N, s)
    r2 = float(np.asarray(x) @ np.asarray(x))
    assert res.value == pytest.approx(d * (1.0 - r2) ** s, rel=1e-12)


def test_green_apply_scaled_shifted_ball():
    # u(x) = d(N,s) (R^2 - |x-c|^2)^s for f = 1 on B_R(c).
    ball = Ball(center=(1.0, -2.0), radius=2.0)
    s = 0.6
    x = np.array([1.5, -1.0])
    res = green_apply(ball, lambda y: np.ones(len(np.atleast_2d(y))), s, x,
                      CFG)
    d, _ = ball_torsion_constant(2, s)
    r2 = float((x - ball.center_array) @ (x - ball.center_array))
    assert res.value == pytest.approx(d * (4.0 - r2) ** s, rel=1e-12)


@pytest.mark.parametrize("N,s,n,l", [
    *[(2, s, n, l) for s in (0.3, 0.75, 1.0)
      for n, l in ((1, 0), (2, 0), (0, 1), (1, 1))],
    *[(3, s, 0, 1) for s in (0.5, 0.75, 1.0)],
    (3, 0.3, 2, 0),
])
def test_green_apply_matches_jacobi_family(N, s, n, l):
    # Non-constant data with a closed solution; l = 1 is not radial.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.array((0.3, -0.4) if N == 2 else (0.3, -0.2, 0.4))
    res = green_apply(ball, lambda y: jacobi_data(s, n, l, y), s, x, CFG)
    assert res.value == pytest.approx(jacobi_solution(s, n, l, x),
                                      rel=1e-12)
    assert res.tolerance_ok


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("n,l", [(0, 1), (1, 2), (2, 3)])
def test_harmonic_route_matches_jacobi_family(N, s, n, l):
    # Data of harmonic degree l <= 3 on every sphere about the centre: the
    # harmonic route stops once the degree passes l, and lands within
    # 1e-12 of the closed solution (relative, floored at 1e-3 of the
    # scale; at |x| = 0 the solution of l >= 1 vanishes), within its own
    # estimate.  On B_R(c) the solution is R^(2s) u_1((x - c) / R).
    d = np.array((0.6, -0.8) if N == 2 else (0.48, -0.64, 0.6))
    cases = [(Ball(center=(0.0,) * N, radius=1.0), r * d)
             for r in (0.0, 0.3, 0.7, 0.95)]
    cases.append((Ball(center=(0.5, -0.25, 0.125)[:N], radius=1.5),
                  np.array((0.5, -0.25, 0.125)[:N]) + 0.9 * d))
    for ball, x in cases:
        c, R = ball.center_array, ball.radius
        res = green_apply(
            ball, lambda y: jacobi_data(s, n, l, (np.atleast_2d(y) - c) / R),
            s, x, CFG)
        exact = R ** (2.0 * s) * jacobi_solution(s, n, l, (x - c) / R)
        err = abs(res.value - exact)
        assert err <= 1e-12 * max(abs(exact), 1e-3), x
        assert err <= res.error_estimate, x
        assert res.tolerance_ok


def exp3(y):
    y = np.atleast_2d(y)
    return np.exp(3.0 * y @ np.array([0.0, 0.6, 0.8][3 - y.shape[1]:]))


def off_gauss(y):
    y = np.atleast_2d(y)
    p = np.array([0.4, -0.3, 0.2])[:y.shape[1]]
    return np.exp(-4.0 * np.sum((y - p) ** 2, axis=1))


@pytest.mark.parametrize("N,s,x,data,reference", [
    # References from the polar pass this route replaced, at rel_tol
    # 1e-12, angular_order 128, radial_order 30 and max_subdiv 26; their
    # estimates are 8.0e-14, 7.9e-15, 2.3e-14, 5.7e-15, 5.8e-14, 3.7e-17,
    # 5.7e-14 and 5.8e-18 in this order.
    (3, 0.5, (0.3, -0.2, 0.4), exp3, 0.8897973025679091),
    (3, 1.0, (0.3, -0.2, 0.4), exp3, 0.2446543478485561),
    (3, 0.25, (0.1, 0.6, -0.5), off_gauss, 0.01367976100213002),
    (3, 0.75, (-0.5, 0.4, 0.6), off_gauss, 0.0051627014369007365),
    (2, 0.5, (0.3, -0.4), exp3, 0.7004121741773741),
    (2, 1.0, (-0.7, 0.5), exp3, 0.09727766864703521),
    (2, 0.25, (0.1, 0.6), off_gauss, 0.06533726526026816),
    (2, 0.75, (-0.62, -0.55), off_gauss, 0.023589235481395653),
])
def test_harmonic_route_matches_polar_references(N, s, x, data, reference):
    # Smooth data that is neither polynomial nor radial, e^(3 y.e) and an
    # off-centre Gaussian: within 1e-10 relative of the polar reference
    # (5e-11 at the most) and within the estimate.
    res = green_apply(Ball(center=(0.0,) * N, radius=1.0), data, s, x, CFG)
    err = abs(res.value - reference)
    assert err <= 1e-10 * abs(reference)
    assert err <= res.error_estimate
    assert res.tolerance_ok


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_green_apply_plain_ball_reads_few_points(s):
    # f = 1 as a plain callable on the 3-ball takes the harmonic route:
    # 36,320 points here at both orders.  The polar pass it replaced read
    # 4,054,016, and any fall-back to one fails this bound.
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    res = green_apply(ball, ones, s, (0.3, -0.2, 0.4), CFG)
    assert res.evaluations <= 200_000


@pytest.mark.parametrize("s,n", [(0.3, 1), (0.75, 2), (1.0, 1)])
def test_green_apply_folds_radial_data(s, n):
    # Declared radial data on the centred disc takes the radial route, one
    # integral in |y| (it used to fold the direction rule by the mirror
    # across the line through 0 and x, half the plain callable's
    # evaluations): at most 4,000 points per call, the plain callable's
    # value within the two estimates, the same closed solution.
    disc = Ball(center=(0.0, 0.0), radius=1.0)
    for x in ((0.3, -0.4), (-0.55, 0.2)):
        plain = green_apply(disc, lambda y: jacobi_data(s, n, 0, y), s, x,
                            CFG)
        radial = green_apply(
            disc, operators.ScalarField(fn=lambda y: jacobi_data(s, n, 0, y),
                                        dim=2, radial=True), s, x, CFG)
        assert radial.evaluations <= 4000
        assert abs(radial.value - plain.value) <= (radial.error_estimate
                                                   + plain.error_estimate)
        assert radial.value == pytest.approx(jacobi_solution(s, n, 0, x),
                                             rel=1e-12)
        assert radial.tolerance_ok


def _slanted(N, r):
    # A point at distance r from the centre, on no axis.
    d = np.array((0.6, -0.8) if N == 2 else (0.48, -0.64, 0.6))
    return r * d


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.02, 0.25, 0.3, 0.5, 0.75, 0.9, 0.98,
                               0.99999, 1.0])
def test_radial_green_matches_torsion_family(N, s):
    # The radial route of green_apply on f = 1 against d(N, s)(1 - |x|^2)^s.
    # The end rule at rho = |x| is exact on both parts of the shell kernel,
    # |rho - r|^(2s-1) smooth + smooth: graded 13 levels deep, the rule
    # stays within 2.1e-15 over this table, at 658-980 points per call.
    # A Gauss-Jacobi end, exact on the first part only, needed 40 levels
    # (1.9e-11 off at 26) and 1,140-1,944 points; at 13 it is 1.6e-7 off.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    f = radial_field(lambda y: np.ones(len(np.atleast_2d(y))))
    d, _ = ball_torsion_constant(N, s)
    for r in (0.0, 0.3, 0.7, 0.95):
        res = green_apply(ball, f, s, _slanted(N, r), CFG)
        assert res.value == pytest.approx(d * (1.0 - r * r) ** s,
                                          rel=1e-13), r
        assert res.tolerance_ok and res.evaluations <= 1100


@pytest.mark.parametrize("N,s,r", [
    *[(2, s, r) for s in (0.3, 0.75, 1.0) for r in (0.3, 0.9)],
    (3, 0.5, 0.6), (3, 1.0, 0.3)])
def test_radial_green_matches_polar_pass(N, s, r):
    # A smooth datum that is no polynomial: the radial route and the
    # harmonic route of the same data undeclared agree within their summed
    # estimates.
    ball = Ball(center=(0.0,) * N, radius=1.0)

    def gauss(y):
        return np.exp(-3.0 * np.sum(np.atleast_2d(y) ** 2, axis=1))

    x = _slanted(N, r)
    radial = green_apply(ball, operators.ScalarField(fn=gauss, dim=N,
                                                     radial=True), s, x, CFG)
    polar = green_apply(ball, operators.ScalarField(fn=gauss, dim=N), s, x,
                        CFG)
    assert abs(radial.value - polar.value) <= (radial.error_estimate
                                               + polar.error_estimate)
    assert radial.tolerance_ok and polar.tolerance_ok


@pytest.mark.parametrize("N", [2, 3])
def test_green_apply_classical_torsion(N):
    # s = 1: u(x) = (R^2 - |x|^2) / (2N).
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.zeros(N)
    x[0] = 0.4
    res = green_apply(ball, lambda y: np.ones(len(np.atleast_2d(y))), 1.0, x,
                      CFG)
    assert res.value == pytest.approx((1.0 - 0.16) / (2.0 * N), rel=1e-9)


@pytest.mark.parametrize("N", [2, 3])
def test_classical_radial_torsion_keeps_its_digits_near_the_boundary(N):
    # s = 1, |x| = 0.999: (1 - |x|^2) / (2N) from (1 - r)(1 + r), exact.
    # The plane's multipole factor below |x| takes ln(R / r) as log1p of
    # the exact R - r: as ln(R / r) it was 8.7e-14 off, 66 times its
    # estimate.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = _slanted(N, 0.999)
    r = float(np.linalg.norm(x))
    res = green_apply(ball, radial_field(lambda y: np.ones(len(y))), 1.0, x,
                      CFG)
    exact = (1.0 - r) * (1.0 + r) / (2.0 * N)
    assert abs(res.value - exact) <= min(res.error_estimate, 1e-15 * exact)


def test_green_apply_near_boundary():
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    s = 0.75
    x = np.array([1.0 - 1e-3, 0.0])
    res = green_apply(ball, lambda y: np.ones(len(np.atleast_2d(y))), s, x,
                      CFG)
    d, _ = ball_torsion_constant(2, s)
    expected = d * (1.0 - float(x @ x)) ** s
    assert res.value == pytest.approx(expected, rel=1e-12)


def test_green_apply_grades_by_the_data_boundary_power():
    # ell_field(1) blows up like delta^(-1/2) and declares boundary_power
    # = -1/2; green_apply grades its rho rule toward R by it.  Frozen from
    # the call that was passed that exponent explicitly; read as 0, the
    # same field gave -0.9434868150211169 with an estimate of 1.7e-9.
    # Re-frozen with the two-family end rule at rho = |x|, 13 levels deep
    # (was 1890 evaluations at 40, estimate 2.2319346272402437e-13); the
    # value holds to the last bit.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    ones_field = operators.ScalarField(
        fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2, radial=True,
        smooth_scale=1.0, cache_token=("ones", 2))
    data = derivative.ell_field(ones_field, ball, 0.5, CFG)
    assert data.boundary_power == -0.5
    res = green_apply(ball, data, 0.5, (0.3, 0.0), CFG)
    assert res.value == -0.9434868150277681
    assert res.evaluations == 926
    assert abs(res.error_estimate - 1.9710322164533319e-13) \
        <= 2.0 * np.spacing(1.9710322164533319e-13)


def poly2(y):
    y = np.atleast_2d(y)
    return 1.0 + y[:, 0] - 0.5 * y[:, 1] ** 2


def ones(y):
    return np.ones(len(np.atleast_2d(y)))


# The ids keep the evaluation counts of the first freeze (69888, 260576
# and 4169216).  The one coarse policy of _two_pass grades the coarse pass
# 18 levels deep, not 20, which re-froze the counts; the values held.  The
# harmonic route re-froze the counts of the plain callables again (68608
# and 4054016 on the polar pass); the values hold.  The two-family end
# rule at rho = |x|, graded 13 levels deep instead of 40, re-froze all
# three (was 54432, 1872 and 74880 evaluations).
@pytest.mark.parametrize("N,s,x,data,evaluations,value", [
    # Non-constant data near the boundary of the disc.  An
    # angular_order=256, radial_order=30 polar run (converged: 512 and 1024
    # directions agree to 1e-17) gives 0.03639239296650002, 1.9e-14 below
    # the first pin, 0.03639239296651939.  The harmonic route reads it at
    # degree 3 (the data is quadratic); at 40 levels it gave
    # 0.03639239296650017, 1.5e-16 above the reference, now 1.6e-16.
    pytest.param(2, 0.9, (0.6, -0.75), poly2, 27440, 0.03639239296650018,
                 id="2-0.9-x0-69888-0.03639239296651939"),
    # Radial-flagged data in the 3-ball; the torsion closed form
    # d(3, 1/4) (1 - |x|^2)^(1/4) is 0.6905233796370002.  Re-frozen with
    # the radial route, one integral in |y| (was 253376 evaluations on the
    # axisymmetric directions); its value 0.6905233796369993 holds the pin.
    # At 13 levels toward |x| it is 0.6905233796370001, 1.1e-16 below the
    # closed form, the same bits as at 40.
    pytest.param(3, 0.25, (0.3, -0.2, 0.4),
                 radial_field(lambda y: np.ones(len(np.atleast_2d(y)))),
                 908, 0.6905233796370001,
                 id="3-0.25-x1-260576-0.6905233796370018"),
    # Plain-callable f = 1 in the 3-ball: both passes stop at degree 3,
    # 2 x 4 + 4 x 8 nodes per sphere (the polar pass read 4,054,016
    # points).  The torsion closed form d(3, 1/2) (1 - |x|^2)^(1/2) is
    # 0.4213074886588179; at 40 levels toward |x| the route was 3.9e-16
    # below it (0.4213074886588175), at 13 it is 1.7e-16 below.
    pytest.param(3, 0.5, (0.3, -0.2, 0.4), ones, 36320, 0.42130748865881773,
                 id="3-0.5-x2-4169216-0.4213074886588175"),
])
def test_green_apply_frozen(N, s, x, data, evaluations, value):
    ball = Ball(center=(0.0,) * N, radius=1.0)
    res = green_apply(ball, data, s, x, CFG)
    assert res.evaluations == evaluations
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)


def wave(y):
    # Oscillates along every sphere around the centre: both passes grow to
    # the degree cap, 31.
    return np.cos(10.0 * np.atleast_2d(y) @ np.array([0.0, 0.6, 0.8]))


def test_green_apply_memory_stays_small():
    # The data is read in blocks of rho nodes under _SPHERE_NODES = 2^18
    # points.  The polar pass peaked at 17.7 MB on the disc before it ran
    # in chunks, and at 146 MB on the plain-callable 3-ball call in 1.2M-
    # node chunks.  The wave reaches the degree cap, 31, in both passes:
    # 2,048 nodes per sphere at the last degree (17.7 MB, 2,477,024
    # evaluations; 18.1 MB and 5,106,816 with 40 levels toward |x|);
    # f = 1 stops at degree 3 (0.7 MB, 2.1 MB with 40 levels).
    for x, data, evaluations, limit in (((0.3, 0.2), ones, None, 10e6),
                                        ((0.3, 0.2, 0.1), ones, 36320, 10e6),
                                        ((0.3, 0.2, 0.1), wave, 2477024,
                                         40e6)):
        ball = Ball(center=(0.0,) * len(x), radius=1.0)
        tracemalloc.start()
        try:
            res = green_apply(ball, data, 0.5, x, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert evaluations in (None, res.evaluations), x
        assert peak < limit, x


def test_green_apply_reads_each_node_once(node_log):
    # One rule per pass and degree: no point reaches f twice.  The fine and
    # coarse rho rules share no node, and the sphere rules of the degrees
    # 1, 3, 7, ... share none either: 2, 4, 8, ... Gauss nodes in mu and
    # azimuths at odd multiples of pi / 4, pi / 8, ...
    for x in ((0.3, 0.2), (0.3, -0.2, 0.4)):
        ball = Ball(center=(0.0,) * len(x), radius=1.0)
        for s, data in ((0.5, ones), (1.0, ones), (0.5, exp3)):
            f = node_log(data)
            res = green_apply(ball, f, s, x, CFG)
            f.assert_each_node_once(res.evaluations)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_green_apply_kernel_once_per_ring(monkeypatch, s):
    # The harmonic route integrates the kernel over each sphere |y| = rho
    # without the data: the pointwise Green kernel never runs, the harmonic
    # factors come once per rho node and pass for the degrees the pass
    # reaches (one degree ahead of the data), and f is read at every node
    # of the sphere rule of each degree L, (L + 1) x (2L + 2) nodes.
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    for data, degrees, tops in ((ones, [1, 3], [3]),
                                (wave, [1, 3, 7, 15, 31], [3, 15, 31])):
        monkeypatch.undo()
        rows, log = [], []
        shell, rule = kernels._shell_green, quad.harmonic_rule

        def factors(*args):
            rows.append((len(args[4]), args[-1]))
            return shell(*args)

        def spy(N, axis, L):
            log.append(L)
            return rule(N, axis, L)

        monkeypatch.setattr(kernels, "_green_kernel", None)
        monkeypatch.setattr(kernels, "_shell_green", factors)
        monkeypatch.setattr(quad, "harmonic_rule", spy)
        res = green_apply(ball, data, s, (0.3, 0.2, 0.1), CFG)
        assert log == 2 * degrees
        assert [top for _, top in rows] == 2 * tops
        fine, coarse = rows[0][0], rows[-1][0]
        per_sphere = sum((L + 1) * (2 * L + 2) for L in degrees)
        assert res.evaluations == (fine + coarse) * per_sphere


@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("center,R,x", [
    # At the centre the ring axis falls back to e_z.
    ((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0)),
    ((0.5, -0.3, 0.2), 1.3, (0.5, -0.3, 0.2)),
    ((0.5, -0.3, 0.2), 1.3, (0.8, -0.1, 0.7)),
], ids=["unit-centre", "shifted-centre", "shifted-off-centre"])
def test_green_apply_shared_rings_on_any_ball(s, center, R, x):
    # f = 1 as a plain callable: u = d(3, s) (R^2 - |x - c|^2)^s.  The
    # sphere rules take their pole along x - c.
    ball = Ball(center=center, radius=R)
    res = green_apply(ball, ones, s, x, CFG)
    d, _ = ball_torsion_constant(3, s)
    xc = np.subtract(x, center)
    assert res.value == pytest.approx(d * (R * R - xc @ xc) ** s, rel=1e-12)
    assert res.tolerance_ok


# The s < 1 passes that hand f whole chunks of nodes: on an origin-centred
# ball they pass the centred nodes themselves, elsewhere the nodes plus the
# centre.
RECENTRING = [
    lambda ball, f, x: green_apply(ball, f, 0.5, x, CFG),
    lambda ball, f, x: poisson_extend(ball, f, 0.5, x, CFG),
]


@pytest.mark.parametrize("apply", RECENTRING,
                         ids=["green_apply", "poisson_extend"])
@pytest.mark.parametrize("N", [2, 3])
def test_off_centre_ball_reads_the_centred_nodes_plus_centre(node_log,
                                                              apply, N):
    # Dyadic centre and point, so x - c is exact and both balls build the
    # same centred nodes: the shifted ball must hand f exactly those nodes
    # plus c, bit for bit.
    c = np.array([0.5, -0.25, 0.125][:N])
    xc = np.array([0.25, 0.125, -0.25][:N])
    read = []
    for center in (np.zeros(N), c):
        f = node_log(ones)
        res = apply(Ball(center=tuple(center), radius=1.0), f, center + xc)
        read.append(np.concatenate(f.batches))
        assert len(read[-1]) == res.evaluations
    assert read[1].tobytes() == (read[0] + c).tobytes()


@pytest.mark.parametrize("apply", RECENTRING,
                         ids=["green_apply", "poisson_extend"])
@pytest.mark.parametrize("N", [2, 3])
def test_centred_ball_data_cannot_move_the_nodes(apply, N):
    # On an origin-centred ball f gets the quadrature's own node array; a
    # field that writes over its input must not change the nodes the
    # kernel reads after the data call.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.array([0.25, 0.125, -0.25][:N])

    def scribble(y):
        out = np.ones(len(y))
        y[...] = 7.0
        return out

    clean = apply(ball, ones, x)
    dirty = apply(ball, scribble, x)
    assert dirty.value == clean.value
    assert dirty.error_estimate == clean.error_estimate
    assert dirty.evaluations == clean.evaluations


def exp_data(y):
    # Smooth, and not axisymmetric about x: e is not parallel to X3.
    return np.exp(3.0 * np.atleast_2d(y) @ np.array([0.0, 0.6, 0.8]))


X3 = np.array([0.3, -0.2, 0.4])


@pytest.mark.parametrize("s,reference", [
    # References from the polar pass this route replaced, at rel_tol 1e-12,
    # angular_order 128, radial_order 30 and max_subdiv 26 (estimates
    # 8.0e-14 and 7.9e-15; a fixed 128-azimuth rule at the default config
    # gave 0.8897973025679072 and 0.24465434784855605).
    (0.5, 0.8897973025679091),
    (1.0, 0.2446543478485561),
])
def test_green_apply_grows_the_degree_as_the_data_needs(monkeypatch, s,
                                                         reference):
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    degrees = []
    rule = quad.harmonic_rule
    monkeypatch.setattr(quad, "harmonic_rule",
                        lambda N, axis, L: degrees.append(L)
                        or rule(N, axis, L))
    flat = green_apply(ball, ones, s, X3, CFG)
    assert degrees == [1, 3, 1, 3]
    del degrees[:]
    res = green_apply(ball, exp_data, s, X3, CFG)
    assert 3 < max(degrees) <= 31
    assert res.evaluations > flat.evaluations
    assert res.value == pytest.approx(reference, rel=1e-13, abs=0.0)
    assert abs(res.value - reference) <= res.error_estimate
    assert res.tolerance_ok


@pytest.mark.parametrize("make", [
    lambda cfg: green_apply(Ball(center=(0.0, 0.0), radius=1.0),
                            lambda y: np.ones(len(y)), 0.5, (0.3, 0.2), cfg),
    lambda cfg: poisson_extend(Ball(center=(0.0, 0.0), radius=1.0),
                               lambda y: np.ones(len(y)), 0.5, (0.3, 0.0),
                               cfg),
], ids=["green_apply", "poisson_extend"])
@pytest.mark.parametrize("max_subdiv", [4, 5])
def test_shallow_grading_keeps_a_valid_coarse_pass(make, max_subdiv):
    # Six levels below a depth of 4 or 5 the coarse rule's weights summed
    # to 4 or 2, and the estimate reported that broken rule (1.16 and
    # 0.24 here) although both values are within 1e-7 of the truth.
    cfg = QuadConfig(max_subdiv=max_subdiv)
    res = make(cfg)
    ref = make(CFG)
    err = abs(res.value - ref.value)
    assert err < 1e-7
    assert err <= max(res.error_estimate, 1e-14)
    assert res.error_estimate < 1e-6
    assert res.tolerance_ok


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_green_apply_estimate_covers_near_boundary_error(s):
    # At |x| = 0.99 the 2D direction count is raised to 12/sqrt(delta);
    # when the coarse pass was raised to the same count, the estimate
    # read 1.3e-12 (s = 0.1) and 2.6e-18 (s = 0.9) against actual errors
    # of 8.8e-12 and 9.2e-15.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    x = np.array([0.594, 0.792])
    res = green_apply(ball, lambda y: np.ones(len(y)), s, x, CFG)
    exact = ball_torsion_constant(2, s)[0] * (1.0 - float(x @ x)) ** s
    assert abs(res.value - exact) <= res.error_estimate
    assert res.tolerance_ok


def test_azimuth_error_is_calibrated():
    # The doubling error of azimuth_rings on a smooth integrand with no
    # symmetry about the axis, 1 / (1.3 - theta . e), against the same
    # rings at 1024 azimuths.  Every cone stops at 32 azimuths; the actual
    # errors are 1.3e-11, 1.3e-11, 1.2e-12 and 1.3e-15 (rounding) at
    # mu_lo = -1, 0, 0.5 and 0.8, and the estimates overstate them 32, 33,
    # 40 and 5 times.
    e = np.array([0.0, 0.6, 0.8])
    axis = np.array([0.3, -0.2, 0.5])

    def ring_pass(dirs, w_dir, n_phi):
        return float(w_dir @ (1.0 / (1.3 - dirs @ e))), len(dirs)

    for mu_lo in (-1.0, 0.0, 0.5, 0.8):
        value, _, estimate = quad.azimuth_rings(ring_pass, axis, 16, 12, 128,
                                                CFG, mu_lo=mu_lo)
        fine, _ = ring_pass(*quad.layered_directions(axis, 16, 12, 1024,
                                                     mu_lo), 1024)
        actual, rounding = abs(value - fine), 1e-15 * abs(value)
        assert actual <= estimate + rounding
        assert estimate <= 1e2 * max(actual, rounding)


def test_poisson_extend_estimate_covers_near_boundary_error():
    # The extension of g = 1 is 1.  At |x| = 0.9 the kernel's angular peak
    # has width delta = 0.099, which a direction rule about x resolved only
    # with 30/delta directions.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    res = poisson_extend(ball, lambda y: np.ones(len(y)), 0.9, (0.85, 0.3),
                         CFG)
    assert abs(res.value - 1.0) <= min(res.error_estimate, 1e-10)
    assert res.tolerance_ok


def test_shallow_comp_apply_flags_its_truncation():
    # At max_subdiv = 4 the radial comp_poisson_apply is 3.7e-5 off; the
    # coarse pass must stay shallower than the fine one to see it.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    f = radial_field(lambda y: np.ones(len(np.atleast_2d(y))))
    ref = comp_poisson_apply(ball, f, 0.5, (0.4, 0.0), CFG)
    res = comp_poisson_apply(ball, f, 0.5, (0.4, 0.0),
                             QuadConfig(max_subdiv=4))
    assert abs(res.value - ref.value) <= res.error_estimate < 1e-3
    assert not res.tolerance_ok


# ---------------------------------------------------------------------------
# Poisson kernel and extension.
# ---------------------------------------------------------------------------

def test_poisson_ball_errors():
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(SingularityError):
        poisson_ball(ball, 0.5, [0.2, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        poisson_ball(ball, 0.5, [0.2, 0.0], [0.5, 0.0])
    with pytest.raises(DomainError):
        poisson_ball(ball, 0.5, [1.2, 0.0], [2.0, 0.0])


@pytest.mark.parametrize("N,s,x", [
    (2, 0.25, (0.0, 0.0)),
    (2, 0.6, (0.5, 0.1)),
    (2, 0.9, (-0.3, 0.2)),
    (3, 0.5, (0.2, 0.1, -0.4)),
])
def test_poisson_extension_of_one_is_one(N, s, x):
    ball = Ball(center=(0.0,) * N, radius=1.0)
    res = poisson_extend(ball, lambda y: np.ones(len(np.atleast_2d(y))), s,
                         x, CFG)
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_poisson_extension_reproduces_linear_s_harmonic():
    # y -> y_1 is s-harmonic and below the growth bound once 2s > 1; in
    # 3D it varies along every azimuth ring around x.
    for x in (np.array([0.35, -0.2]), np.array([0.35, -0.2, 0.3])):
        ball = Ball(center=(0.0,) * len(x), radius=1.0)
        res = poisson_extend(ball, lambda y: np.atleast_2d(y)[:, 0], 0.75, x,
                             CFG)
        assert res.value == pytest.approx(x[0], abs=1e-7)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.75, 1.0])
@pytest.mark.parametrize("r", [0.99, 0.999])
def test_poisson_extension_is_exact_near_the_boundary(N, s, r):
    # y_1 is s-harmonic.  Near the boundary the polar and boundary rules
    # were up to 1.1e-2 off in the plane (s = 0.75, |x| = 0.999; flagged)
    # and up to 4.5e-13 in space (s = 1, |x| = 0.999).
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = r * np.array([0.6, 0.8] if N == 2 else [0.48, 0.6, 0.64])
    res = poisson_extend(ball, lambda y: y[:, 0].copy(), s, x, CFG)
    assert abs(res.value - x[0]) <= 1e-13
    assert res.tolerance_ok


def test_poisson_extension_off_centre_datum_frozen():
    # 1 / (1 + |y - c|^2), c = (0.5, 1, -0.3), not symmetric about x: the
    # reference 0.2219491652541699 is a polar pass of 75,810,816 points
    # (rel_tol 1e-13, abs_tol 1e-15, angular_order 256, radial_order 30;
    # estimate 7.8e-17).  The harmonic route lands 1.2e-15 from it, inside
    # its own estimate of 6.8e-14, from 9,788,064 points.
    def g(y):
        return 1.0 / (1.0 + np.sum((y - np.array([0.5, 1.0, -0.3])) ** 2,
                                   axis=1))

    cfg = QuadConfig(rel_tol=1e-12, angular_order=128, radial_order=30)
    res = poisson_extend(Ball(center=(0.0, 0.0, 0.0), radius=1.0), g, 0.5,
                         (-0.6, 0.2, 0.5), cfg)
    err = abs(res.value - 0.2219491652541699)
    assert err <= 5e-15
    assert err <= res.error_estimate
    assert res.tolerance_ok


@pytest.mark.parametrize("N,most", [(2, 30_000), (3, 100_000)])
def test_poisson_extension_of_one_reads_few_points(N, most):
    # Degrees 1 and 3 of the ladder on the exterior grid: 21,048 points in
    # the plane and 70,160 in space, where the polar passes read 92,096
    # and 4,058,176 or more.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    res = poisson_extend(ball, ones, 0.5, np.array([0.3, -0.2, 0.4][:N]),
                         CFG)
    assert res.value == pytest.approx(1.0, rel=1e-14)
    assert res.evaluations <= most


def test_poisson_extension_growth_guard():
    for N in (2, 3):
        ball = Ball(center=(0.0,) * N, radius=1.0)
        with pytest.raises(DivergenceError):
            poisson_extend(ball,
                           lambda y: np.einsum("ij,ij->i", np.atleast_2d(y),
                                               np.atleast_2d(y)),
                           0.5, np.zeros(N), CFG)


def test_poisson_classical_extension():
    for x in (np.array([0.3, 0.4]), np.array([0.3, 0.4, -0.2])):
        ball = Ball(center=(0.0,) * len(x), radius=1.0)
        one = poisson_extend(ball, lambda y: np.ones(len(np.atleast_2d(y))),
                             1.0, x, CFG)
        lin = poisson_extend(ball, lambda y: np.atleast_2d(y)[:, 0], 1.0, x,
                             CFG)
        assert one.value == pytest.approx(1.0, rel=1e-12)
        assert lin.value == pytest.approx(x[0], rel=1e-10)


def nan_right_of_half(y):
    y = np.atleast_2d(y)
    return np.where(y[:, 0] > 0.5, np.nan, 1.0)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_poisson_extension_non_finite_data_raises_at_its_point(N, s):
    # The exterior and boundary passes once returned nan with no error.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    with pytest.raises(EvaluationError) as info:
        poisson_extend(ball, nan_right_of_half, s, np.full(N, 0.1), CFG)
    assert info.value.point[0] > 0.5


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("s", [0.5, 1.0])
def test_poisson_extend_radial_matches_polar(N, s):
    # Declared radial, g is read once per exterior radius (degree 0);
    # undeclared, the degree ladder runs to L = 3.
    def g(y):
        return 1.0 / (1.0 + np.sum(np.atleast_2d(y) ** 2, axis=1))

    def declared(y):
        return g(y)

    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.array([0.3, -0.2, 0.4][:N])
    radial = poisson_extend(ball, radial_field(declared), s, x, CFG)
    polar = poisson_extend(ball, g, s, x, CFG)
    assert 10 * radial.evaluations < polar.evaluations
    assert abs(radial.value - polar.value) <= (radial.error_estimate
                                               + polar.error_estimate)
    assert radial.tolerance_ok


@pytest.mark.parametrize("N", [2, 3])
def test_poisson_classical_kernel_mass(N):
    # The kernel integrates to 1 over the sphere of radius R: a 40-point
    # trapezoid rule on the circle, or a 40 x 80 Gauss x azimuth rule.
    R = 1.5
    ball = Ball(center=(0.0,) * N, radius=R)
    if N == 2:
        phi = 2.0 * math.pi * np.arange(40) / 40
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        w = np.full(40, 2.0 * math.pi / 40)
    else:
        mu, w_mu = np.polynomial.legendre.leggauss(40)
        phi = 2.0 * math.pi * (np.arange(80) + 0.5) / 80
        sin = np.sqrt(1.0 - mu * mu)
        dirs = np.stack([np.outer(sin, np.cos(phi)).ravel(),
                         np.outer(sin, np.sin(phi)).ravel(),
                         np.repeat(mu, 80)], axis=1)
        w = np.repeat(w_mu, 80) * (2.0 * math.pi / 80)
    z = np.zeros(N)
    z[0] = 0.7
    pk = poisson_ball_classical(ball, z, R * dirs)
    assert float(R ** (N - 1) * w @ pk) == pytest.approx(1.0, rel=1e-10)


# ---------------------------------------------------------------------------
# Exterior sphere means of |z - rho w|^(-N-2s), the kernel of the radial
# normal derivative.
# ---------------------------------------------------------------------------

# rho = 1 - gap at r = 1, gap exact: rho^2 up to 1 - 7e-15, and below 1/2.
MEAN_GAPS = np.r_[2.0 ** -np.arange(1, 48), 0.3, 0.6, 0.9, 0.99]


@pytest.mark.parametrize("s", [0.1, 0.25, 0.49, 0.5, 0.51, 0.75, 0.99,
                               0.5 - 1e-7])
def test_circle_mean_matches_mpmath(s):
    # 2 pi (1 - rho^2)^(-1-2s) 2F1(-s, -s; 1; rho^2), also at and next to
    # s = 1/2, where the expansion about rho = 1 turns logarithmic.
    got = kernels._exterior_mean(2, s, 1.0, 1.0 - MEAN_GAPS, MEAN_GAPS)
    with mpmath.workdps(30):
        for gap, value in zip(MEAN_GAPS, got):
            rho = 1 - mpmath.mpf(gap)
            want = 2 * mpmath.pi * (1 - rho ** 2) ** (-1 - 2 * mpmath.mpf(s)) \
                * mpmath.hyp2f1(-s, -s, 1, rho ** 2)
            assert abs(value - want) <= 1e-13 * abs(want), gap


def test_exterior_means_reduce_to_the_single_pole_angle():
    # At s = 0 the mean of |z - rho w|^(-N) over the sphere is closed:
    # 2 pi / (r^2 - rho^2) (plane), 4 pi / (r (r^2 - rho^2)) (space).
    r, rho = 1.2, np.array([0.1, 0.5, 0.999])
    for N, want in ((2, 2.0 * math.pi / (r * r - rho * rho)),
                    (3, 4.0 * math.pi / (r * (r * r - rho * rho)))):
        got = kernels._exterior_mean(N, 0.0, r, rho, r - rho)
        np.testing.assert_allclose(got, want, rtol=1e-14)


# ---------------------------------------------------------------------------
# Complementary Poisson kernel.
# ---------------------------------------------------------------------------

def test_comp_kernel_disc_classical_center():
    c2, _ = log_constants(2)
    for R in (1.0, 2.0):
        ball = Ball(center=(0.0, 0.0), radius=R)
        for z in ([0.3, 0.1], [-0.5 * R, 0.4 * R]):
            got = comp_poisson_kernel(ball, 1.0, [0.0, 0.0], z)
            assert got == pytest.approx(c2 / R ** 2, rel=1e-12)


def test_comp_kernel_disc_vs_direct_exterior_quadrature():
    # Independent reference: P^c_s(x, z) = c_2 int_{|y|>1} |x-y|^-2
    # P_s(z, y) dy in polar form y = (1 + E) w, with the explicit kernel
    # P_s(z, y) = tau ((1 - |z|^2) / (|y|^2 - 1))^s |z - y|^-2,
    # tau = sin(pi s) / pi^2, and |y|^2 - 1 = E (2 + E).  Nested scipy
    # quad: the E^-s endpoint on [0, 1] through its algebraic weight, the
    # tail [1, inf) plain, the angle inside.
    from scipy.integrate import quad as sp_quad
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    s = 0.6
    x = np.array([0.2, 0.1])
    z = np.array([-0.3, 0.25])
    c2, _ = log_constants(2)
    tau = math.sin(math.pi * s) / math.pi ** 2

    def angular(E):
        q = 1.0 + E

        def f(phi):
            y = q * np.array([math.cos(phi), math.sin(phi)])
            return 1.0 / (float((y - x) @ (y - x)) * float((y - z) @ (y - z)))

        ring = sp_quad(f, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-13,
                       limit=200)[0]
        return q * (2.0 + E) ** -s * ring

    near = sp_quad(angular, 0.0, 1.0, weight="alg", wvar=(-s, 0.0),
                   epsabs=0.0, epsrel=1e-12)[0]
    far = sp_quad(lambda E: E ** -s * angular(E), 1.0, np.inf,
                  epsabs=0.0, epsrel=1e-12)[0]
    direct = c2 * tau * (1.0 - float(z @ z)) ** s * (near + far)
    fast = comp_poisson_kernel(ball, s, x, z)
    assert fast == pytest.approx(direct, rel=1e-12)


PC3_TABLE = [  # one argument at the origin; 25-digit radial quadrature
    (0.5, 0.3, 0.072818743121003224),
    (0.5, 0.4, 0.077576706306605805),
    (0.75, 0.6, 0.16477219982302364),
]


@pytest.mark.parametrize("s,r,expected", PC3_TABLE)
def test_comp_kernel_ball3_frozen(s, r, expected):
    # The frozen values hold the radial integral without the interior
    # weight; P^c(x, 0) carries (R^2 - 0)^s = 1 while P^c(0, z) carries
    # (1 - r^2)^s, so the kernel is *not* symmetric under swapping the
    # pole and the field point.
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    got_x = comp_poisson_kernel(ball, s, [0.0, r, 0.0], [0.0, 0.0, 0.0])
    got_z = comp_poisson_kernel(ball, s, [0.0, 0.0, 0.0], [r, 0.0, 0.0])
    assert got_x == pytest.approx(expected, rel=1e-13)
    assert got_z == pytest.approx((1.0 - r * r) ** s * expected, rel=1e-13)


@pytest.mark.parametrize("q,x,z", [
    (1.05, (0.9, 0.0, 0.0), (0.3, 0.4, -0.2)),
    (1.5, (0.2, -0.1, 0.3), (-0.4, 0.5, 0.1)),
    (1.2, (0.0, 0.0, 0.9), (0.0, 0.0, -0.9)),
])
def test_double_pole_matches_dblquad(q, x, z):
    # The closed sphere integral of |x - q w|^-3 |z - q w|^-3 against
    # scipy dblquad in the polar angles (epsrel 1e-13; about 0.6 s for the
    # peaked q - R = 0.05 row).
    from scipy.integrate import dblquad
    x, z = np.array(x), np.array(z)

    def f(phi, theta):
        w = np.array([math.sin(theta) * math.cos(phi),
                      math.sin(theta) * math.sin(phi), math.cos(theta)])
        dx, dz = x - q * w, z - q * w
        return math.sin(theta) * float(dx @ dx) ** -1.5 \
            * float(dz @ dz) ** -1.5

    want = dblquad(f, 0.0, math.pi, 0.0, 2.0 * math.pi, epsabs=0.0,
                   epsrel=1e-13)[0]
    got = kernels._double_pole(3, 1.0, np.array([q - 1.0]), x, z)[0]
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("r,expected", [
    # scipy quad of c_3 tau (1 - r^2)^s 4 pi int_0^inf (1 + E)^-2 (E (2 +
    # E))^-s / ((1 + E)^2 - r^2) dE, the E^-s end through its algebraic
    # weight, epsrel 1.2e-14: 0.10110834106440225 and 0.13466345463958354.
    # A 3D sphere rule once read these 4.7% and 66% low, with no flag.
    (0.9, 0.1011083410644022),
    (0.99, 0.1346634546395835),
])
def test_comp_kernel_ball3_near_the_boundary(r, expected):
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    got = comp_poisson_kernel(ball, 0.5, [0.0, 0.0, 0.0], [r, 0.0, 0.0])
    assert got == pytest.approx(expected, rel=1e-12)


def test_comp_kernel_ball3_classical_center():
    # s = 1, x at the centre: c_3 / R^3 by the mean-value property.
    c3, _ = log_constants(3)
    for R in (1.0, 2.0):
        ball = Ball(center=(0.5, -1.0, 0.25), radius=R)
        z = np.array([0.5 + 0.3 * R, -1.0 - 0.6 * R, 0.25 + 0.2 * R])
        got = comp_poisson_kernel(ball, 1.0, ball.center, z)
        assert got == pytest.approx(c3 / R ** 3, rel=1e-14)


def test_comp_kernel_memory_ignores_the_angular_order():
    # No direction rule: a 1024 angular order once asked for 3.5 GB.
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    cfg = QuadConfig(angular_order=1024)
    tracemalloc.start()
    try:
        comp_poisson_kernel(ball, 0.5, [0.1, 0.2, 0.0], [0.3, 0.0, 0.1], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("N,r", [(2, 0.0), (2, 0.5), (2, 0.9),
                                 (3, 0.0), (3, 0.5)])
def test_comp_apply_classical_torsion_datum(N, r):
    # s = 1, f = 1:  (2/N) / (R^2 - r^2) * R^... reduces to (2/N)/(1-r^2)
    # on the unit ball.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.zeros(N)
    x[0] = r
    f = radial_field(lambda y: np.ones(len(np.atleast_2d(y))))
    res = comp_poisson_apply(ball, f, 1.0, x, CFG)
    assert res.value == pytest.approx((2.0 / N) / (1.0 - r * r), rel=1e-12)


PI_TABLE = [  # 25-digit Fubini quadrature of the comp kernel datum, f = 1
    (2, 0.75, 0.5, 1.0699040677094331),
    (2, 0.5, 0.0, 0.61370563888010938),   # = 2 - 2 ln 2
    (3, 0.5, 0.0, 0.38629436111989062),   # = 2 ln 2 - 1
    (3, 0.5, 0.6, 0.56463161169538855),
]


@pytest.mark.parametrize("N,s,r,expected", PI_TABLE)
def test_comp_apply_radial_frozen(N, s, r, expected):
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.zeros(N)
    x[0] = r
    f = radial_field(lambda y: np.ones(len(np.atleast_2d(y))))
    res = comp_poisson_apply(ball, f, s, x, CFG)
    assert res.value == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("N,s,r,expected",
                         [row for row in PI_TABLE if row[0] == 3])
def test_comp_apply_plain_3d_matches_the_table(N, s, r, expected):
    # f = 1 as a plain callable takes the harmonic route, which stops at
    # L = 3 and reads 40 points per rho node.  The per-node loop it replaced
    # gave 81,363.2 at the centre and 139,264.8 at r = 0.6 (both flagged)
    # in 50-61 s per call.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.zeros(N)
    x[0] = r
    res = comp_poisson_apply(ball, ones, s, x, CFG)
    assert res.value == pytest.approx(expected, rel=1e-10)
    assert abs(res.value - expected) <= res.error_estimate
    assert res.tolerance_ok
    assert res.evaluations <= 60000


@pytest.mark.parametrize("gap", [1e-6, 0.3])
@pytest.mark.parametrize("N", [2, 3])
def test_comp_apply_pole_factor_matches_quad(N, gap):
    # mu_l(q, rho), the sphere integral of |rho w - q v|^(-N) against the
    # degree-l zonal function, is 2 pi (rho/q)^l / (q^2 - rho^2) (plane)
    # or 4 pi (rho/q)^l / (q (q^2 - rho^2)) (space).  _pole_sums at s = 0
    # with r = q weighs degree l by (rho/q)^l / (q^2 - rho^2); q^2 - rho^2
    # comes from the offsets E = q - R and sigma = R - rho, half of the gap
    # each.  Reference: scipy quad of the angular integral, with |rho w -
    # q v|^2 = (q - rho)^2 + 2 q rho (1 - cos), split at multiples of the
    # peak width.  Measured: within 4.4e-16; q * q - rho * rho from the
    # rounded radii is 2.9e-11 off at the 1e-6 gap.
    from scipy.integrate import quad as sp_quad
    from scipy.special import eval_legendre
    R = 1.0
    E, sigma = np.array([0.5 * gap]), np.array([0.5 * gap])
    q, rho = R + E[0], R - sigma[0]
    width = gap / math.sqrt(q * rho)
    ends = [0.0] + [k * width for k in (1, 10, 100, 1000) if k * width < 1.0]
    for l in range(4):
        if N == 2:
            def f(psi):
                return 2.0 * math.cos(l * psi) / (
                    gap ** 2 + 4.0 * q * rho * math.sin(0.5 * psi) ** 2)
            span = [*ends, math.pi]
        else:
            def f(u):
                return 2.0 * math.pi * eval_legendre(l, 1.0 - u) / (
                    gap ** 2 + 2.0 * q * rho * u) ** 1.5
            span = [*ends, 2.0]
        want = sum(sp_quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                   for a, b in zip(span[:-1], span[1:]))
        wh = np.zeros((l + 1, 1, 1))
        wh[l] = 1.0
        got = kernels._pole_sums(R, 0.0, E, np.array([rho]), sigma, wh,
                                 r=q)[0, 0]
        got *= 2.0 * math.pi if N == 2 else 4.0 * math.pi / q
        assert got == pytest.approx(want, rel=1e-14), l


# P^c_s f(x) for f(y) = exp(1.5 y.e), e = (0.36, 0.48, 0.8), at x = (0.3,
# -0.2, 0.4) on the unit 3-ball.  Independent of the sphere rules and the
# degree ladder: the moments about x are closed, h_l(rho) = (2l + 1)
# i_l(1.5 rho) P_l(xhat.e), and the sum over l <= 30 of mu_l(q, r) mu_l(q,
# rho) h_l(rho) was integrated by nested scipy quad (QAGS, epsrel 1e-13)
# in ln(R - rho) and ln(q - R), below q - R = 1e-40 by its limit, beyond
# q = 2R in R / (q - R); at s = 1 by one quad in rho at q = R.  A second
# variable set, (R - rho)^(1+s) and (q - R)^(1-s), agreed within 2 ulps
# at s = 0.25 and 0.5.
EXP_TABLE = [
    (0.25, 0.44468637745233197),
    (0.5, 0.8323383394170969),
    (0.9, 1.3742831060020384),
    (1.0, 1.4988379730990995),
]


def exp_wave(y):
    return np.exp(1.5 * (np.atleast_2d(y) @ np.array([0.36, 0.48, 0.8])))


@pytest.mark.parametrize("s,expected", EXP_TABLE)
def test_comp_apply_non_radial_3d_matches_closed_moments(s, expected):
    # Within 5e-11 relative: the master grid loses O(2^-depth) of the
    # regular part of its integrand at q = R, about 2e-11 at depth 26
    # (f = 1 at the centre is 1.9e-11 off 2 ln 2 - 1 on either route).
    ball = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
    res = comp_poisson_apply(ball, exp_wave, s, (0.3, -0.2, 0.4), CFG)
    assert res.value == pytest.approx(expected, rel=5e-11)
    assert abs(res.value - expected) <= res.error_estimate
    assert res.tolerance_ok


def test_comp_apply_generic_2d_follows_its_config():
    # Non-radial data takes the harmonic route, whose degree ladder stops
    # on the configured tolerance.  Reference: the nested polar pass that
    # route replaced, at rel_tol=1e-12, angular_order=128, radial_order=32,
    # gives 0.3249575007837765.  The default stops at L = 7, reads 20,608
    # points and lands 9.2e-13 from it (the nested pass read 30,528 and was
    # 3.1e-10 off); the tighter config meets its tolerance, where the
    # nested pass reported an estimate of 1.25e-9 for an error of 1.5e-12.
    ball = Ball(center=(0.0, 0.0), radius=1.0)

    def f(y):
        return np.exp(-np.sum((np.atleast_2d(y) + (0.5, 0.0)) ** 2, axis=1))

    x = np.array([0.1, 0.2])
    ref = 0.3249575007837765
    default = comp_poisson_apply(ball, f, 0.5, x, CFG)
    tight = comp_poisson_apply(ball, f, 0.5, x, QuadConfig(
        rel_tol=1e-9, angular_order=96, radial_order=24))
    assert default.evaluations == 20608
    assert abs(default.value - ref) < 3e-12
    for res in (default, tight):
        assert abs(res.value - ref) <= res.error_estimate
        assert res.tolerance_ok
    assert tight.error_estimate <= 1e-9


def test_comp_apply_generic_matches_radial_fast_path():
    # f = 1 undeclared stops at L = 3, where its moments of degree >= 1
    # vanish; the value is the radial route's but for rounding.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    x = np.array([0.2, 0.0])
    s = 0.5
    fast = comp_poisson_apply(
        ball, radial_field(lambda y: np.ones(len(np.atleast_2d(y)))), s, x,
        CFG)
    generic = comp_poisson_apply(
        ball, lambda y: np.ones(len(np.atleast_2d(y))), s, x, CFG)
    assert generic.value == pytest.approx(fast.value, rel=1e-12)


@pytest.mark.parametrize("N,beta", [(2, 1.0 / 3.0), (3, math.pi / 16.0)])
def test_comp_apply_classical_estimate_bounds_its_error(N, beta):
    # s = 1: c_N beta_f R^(N-1) times the closed single-pole angle, with
    # beta_f = int (1 - rho^2)^(1/2) rho^(N-1) drho.  The square root at R
    # is graded only when the data declares it; undeclared, the rule
    # misses rel_tol (a fixed 48-node rule was 3.8e-6 and 6.5e-6 off and
    # reported an estimate of 1e-14), and the estimate says so.
    ball = Ball(center=(0.0,) * N, radius=1.0)
    x = np.zeros(N)
    x[0] = 0.4
    c_N, _ = log_constants(N)
    exact = c_N * beta * (2.0 * math.pi if N == 2 else 4.0 * math.pi) \
        / (1.0 - 0.4 * 0.4)
    for bp in (0.5, None):
        f = operators.ScalarField(
            fn=lambda y: np.sqrt(np.maximum(1.0 - np.sum(y * y, axis=1),
                                            0.0)),
            dim=N, radial=True, boundary_power=bp)
        res = comp_poisson_apply(ball, f, 1.0, x, CFG)
        assert abs(res.value - exact) <= res.error_estimate
        assert res.tolerance_ok == (bp is not None)
        if bp is not None:
            assert res.value == pytest.approx(exact, rel=1e-14)


def test_comp_apply_radial_nonconstant_profile():
    # f(z) = 1 - |z|^2: the cached inner integrals of the radial
    # declaration against the harmonic route of the same data undeclared,
    # on the same rules (the two were 1e-5 apart on the nested pass).
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    s = 0.4
    x = np.array([0.45, 0.0])

    def prof(y):
        y = np.atleast_2d(y)
        return 1.0 - np.einsum("ij,ij->i", y, y)

    fast = comp_poisson_apply(ball, radial_field(prof), s, x, CFG)
    generic = comp_poisson_apply(ball, prof, s, x, CFG)
    assert generic.value == pytest.approx(fast.value, rel=1e-12)


def test_comp_apply_master_grid_cache_tells_equal_length_grids_apart():
    # Both configurations give a master grid of 788 nodes at s = 0.6; a
    # cache keyed by grid length handed the second one the first's values
    # (1.748 instead of 0.762).
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    f = radial_field(lambda y: np.ones(len(np.atleast_2d(y))))
    x = np.array([0.3, 0.0])
    first = QuadConfig(radial_order=12, max_subdiv=21)
    second = QuadConfig(radial_order=16, max_subdiv=5)
    assert (len(kernels._exterior_radial_grid(1.0, 0.6, 12, 21)[0])
            == len(kernels._exterior_radial_grid(1.0, 0.6, 16, 5)[0]))
    kernels._MF_CACHE.clear()
    cold = comp_poisson_apply(ball, f, 0.6, x, second)
    kernels._MF_CACHE.clear()
    comp_poisson_apply(ball, f, 0.6, x, first)
    after = comp_poisson_apply(ball, f, 0.6, x, second)
    assert after.value == cold.value


class CountingProfile:
    """Radial data ``1 - |y|^2 / 2`` that counts its calls and points."""

    radial = True

    def __init__(self):
        self.cache_token = object()
        self.calls = 0
        self.points = 0

    def __call__(self, y):
        y = np.atleast_2d(y)
        self.calls += 1
        self.points += len(y)
        return 1.0 - 0.5 * np.einsum("ij,ij->i", y, y)


MASTER_GRID_TABLE = [  # N, s, R, point, data points, value, first-freeze id
    (2, 0.02, 0.8, 'centre', 716, 0.026151844641130493,
     '1900-110164-0.026151844641130486'),
    (2, 0.02, 0.8, 'edge', 716, 0.5898777106541482,
     '1900-110164-0.5898777106541756'),
    (2, 0.02, 1.23, 'centre', 716, 0.01759400150406879,
     '1900-110164-0.017594001504068774'),
    (2, 0.02, 1.23, 'edge', 716, 0.33931312213119347,
     '1900-110164-0.33931312213116616'),
    (2, 0.25, 0.8, 'centre', 716, 0.28576213152205054,
     '1900-110184-0.28576213152205027'),
    (2, 0.25, 0.8, 'edge', 716, 15.57134447362521,
     '1900-110184-15.57134447362634'),
    (2, 0.25, 1.23, 'centre', 716, 0.1984721315241153,
     '1900-110184-0.19847213152411503'),
    (2, 0.25, 1.23, 'edge', 716, 10.342441574891456,
     '1900-110184-10.342441574890076'),
    (2, 0.75, 0.8, 'centre', 756, 0.687545261300434,
     '1900-110244-0.6875452613004335'),
    (2, 0.75, 0.8, 'edge', 756, 543.9147735352694,
     '1900-110244-543.9147735353707'),
    (2, 0.75, 1.23, 'centre', 756, 0.5004952613037092,
     '1900-110244-0.5004952613037087'),
    (2, 0.75, 1.23, 'edge', 756, 523.6137234464654,
     '1900-110244-523.6137234463096'),
    (2, 0.999, 0.8, 'centre', 916, 0.8394349038137401,
     '1900-110424-0.8394349038137398'),
    (2, 0.999, 0.8, 'edge', 916, 3335.4453627853745,
     '1900-110424-3335.4453627869775'),
    (2, 0.999, 1.23, 'centre', 916, 0.6213190708973756,
     '1900-110424-0.6213190708973751'),
    (2, 0.999, 1.23, 'edge', 916, 3793.4787215176652,
     '1900-110424-3793.478721516569'),
    (3, 0.02, 0.8, 'centre', 716, 0.014321614284884623,
     '1900-110164-0.014321614284884609'),
    (3, 0.02, 0.8, 'edge', 716, 0.4941175576608541,
     '1900-110164-0.49411755766087867'),
    (3, 0.02, 1.23, 'centre', 716, 0.008578851127183082,
     '1900-110164-0.008578851127183072'),
    (3, 0.02, 1.23, 'edge', 716, 0.26174474540374787,
     '1900-110164-0.2617447454037245'),
    (3, 0.25, 0.8, 'centre', 716, 0.16526819385078206,
     '1900-110184-0.16526819385078184'),
    (3, 0.25, 0.8, 'edge', 716, 12.495010326656498,
     '1900-110184-12.495010326657436'),
    (3, 0.25, 1.23, 'centre', 716, 0.10291819385284676,
     '1900-110184-0.10291819385284663'),
    (3, 0.25, 1.23, 'edge', 716, 7.573572665537155,
     '1900-110184-7.573572665536102'),
    (3, 0.75, 0.8, 'centre', 756, 0.4293898259733886,
     '1900-110244-0.42938982597338815'),
    (3, 0.75, 0.8, 'edge', 756, 375.418978539412,
     '1900-110244-375.41897853948194'),
    (3, 0.75, 1.23, 'centre', 756, 0.28390649264333045,
     '1900-110244-0.28390649264333007'),
    (3, 0.75, 1.23, 'edge', 756, 328.08626245004046,
     '1900-110244-328.0862624499425'),
    (3, 0.999, 0.8, 'centre', 916, 0.5382530215033519,
     '1900-110424-0.5382530215033515'),
    (3, 0.999, 0.8, 'edge', 916, 2139.5130247598545,
     '1900-110424-2139.5130247608827'),
    (3, 0.999, 1.23, 'centre', 916, 0.36377781141941096,
     '1900-110424-0.36377781141941057'),
    (3, 0.999, 1.23, 'edge', 916, 2221.8656048302896,
     '1900-110424-2221.8656048296475'),
]


@pytest.mark.parametrize("N,s,R,where,points,value",
                         [row[:6] for row in MASTER_GRID_TABLE],
                         ids=[f"{r[0]}-{r[1]}-{r[2]}-{r[3]}-{r[6]}"
                              for r in MASTER_GRID_TABLE])
def test_comp_apply_master_grid_pinned(N, s, R, where, points, value):
    # Re-frozen with one rho rule shared by every radius of the master
    # grid: 716 to 916 data points in one call per pass, where a rule per
    # radius read 102,684 to 102,944 (the values moved by at most 4.8e-13
    # relative, 1.4e-15 at the centre).  The evaluations are the data
    # points.  The test ids keep the grid nodes (with the coarse pass of
    # the first freeze, 146 more), data points (7,480 more) and values of
    # the first freeze, so the names stay stable.
    x = np.zeros(N)
    if where == "edge":
        x[0] = R - 1e-4
    f = CountingProfile()
    res = comp_poisson_apply(Ball(center=(0.0,) * N, radius=R), f, s, x, CFG)
    assert res.evaluations == f.points == points <= 1000
    assert f.calls == 2
    assert res.value == pytest.approx(value, rel=1e-13, abs=0.0)


class TokenlessProfile:
    """Radial data ``c`` without a ``cache_token``."""

    radial = True

    def __init__(self, c):
        self.c = c

    def __call__(self, y):
        return self.c * np.ones(len(np.atleast_2d(y)))


def test_comp_apply_leaves_tokenless_data_uncached():
    # A cache keyed on id(f) handed 39 of these 40 temporaries another
    # instance's inner integrals once CPython reused the id.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    x = np.array([0.3, 0.0])
    size = len(kernels._MF_CACHE)
    base = comp_poisson_apply(ball, TokenlessProfile(1.0), 0.6, x).value
    for c in range(1, 41):
        got = comp_poisson_apply(ball, TokenlessProfile(float(c)), 0.6, x)
        assert got.value == pytest.approx(c * base, rel=1e-12)
    assert len(kernels._MF_CACHE) == size


def test_tokenless_data_gets_fresh_derived_tokens():
    # The restriction field and v_1 of token-less data must not share a
    # cache entry with those of an earlier, freed instance.
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    x = np.array([0.3, 0.0])
    comp = [comp_poisson_apply(
        ball, operators.restriction_ws(ball, TokenlessProfile(c), 0.5), 0.5,
        x).value for c in (1.0, 2.0, 3.0)]
    assert comp[1:] == pytest.approx([2.0 * comp[0], 3.0 * comp[0]],
                                     rel=1e-12)
    size = len(derivative._V1_CACHE)
    grid = np.array([[0.3, 0.0]])
    v1 = [derivative._v1_cached(TokenlessProfile(c), ball, grid,
                                CFG).values[0]
          for c in (1.0, 2.0, 3.0)]
    assert v1[1:] == pytest.approx([2.0 * v1[0], 3.0 * v1[0]], rel=1e-12)
    assert len(derivative._V1_CACHE) == size


def nan_beyond_half(y):
    y = np.atleast_2d(y)
    return np.where(np.linalg.norm(y, axis=1) > 0.5, np.nan, 1.0)


nan_beyond_half.radial = True
nan_beyond_half.cache_token = "nan-beyond-half"


@pytest.mark.parametrize("apply,s", [
    (green_apply, 0.5),
    (comp_poisson_apply, 0.5),    # the master-grid inner integrals
    (comp_poisson_apply, 1.0),    # the closed boundary form
])
def test_non_finite_data_raises_at_its_point(apply, s):
    ball = Ball(center=(0.0, 0.0), radius=1.0)
    with pytest.raises(EvaluationError) as info:
        apply(ball, nan_beyond_half, s, (0.2, 0.1), CFG)
    assert np.linalg.norm(info.value.point) > 0.5
