"""Closed-form torsion family: values, s-derivatives, scaling, gating,
and the qualitative behavior (monotonicity, two-sided quotients at s = 1,
boundary band of the derivative); the Jacobi polynomial family."""

import math

import mpmath
import numpy as np
import pytest

from fraclab.core import CapabilityError, DomainError
from fraclab.closedform import (_eval_jacobi, isotropic_scale, jacobi_data,
                                jacobi_eigenvalue, jacobi_solution,
                                torsion_s_derivative, torsion_value)
from fraclab.specfun import ball_torsion_constant

I2 = np.eye(2)
I3 = np.eye(3)


def test_center_value_local_endpoint():
    assert torsion_value(I2, 1.0, np.zeros(2)) == pytest.approx(0.25,
                                                                rel=1e-14)


def test_value_at_three_quarter_radius():
    x = np.array([math.sqrt(0.75), 0.0])
    assert torsion_value(I2, 0.5, x) == pytest.approx(
        (2.0 / math.pi) * 0.5, rel=1e-13)


def test_vanishes_on_and_outside_boundary():
    on = np.array([1.0, 0.0])
    out = np.array([1.3, -0.4])
    for s in (0.5, 1.0, 1.5):
        assert torsion_value(I2, s, on) == 0.0
        assert torsion_value(I2, s, out) == 0.0
        assert torsion_s_derivative(I2, s, on) == 0.0
        assert torsion_s_derivative(I2, s, out) == 0.0


# Frozen derivative values; both confirmed against a central finite
# difference of the constant with h = 1e-5 to ten digits.
DERIV_TABLE = [
    (1.0, -0.5579657578292061),
    (0.5, -0.9290028784664875),
]


@pytest.mark.parametrize("s,expected", DERIV_TABLE)
def test_center_derivative_frozen(s, expected):
    got = torsion_s_derivative(I2, s, np.zeros(2))
    assert got == pytest.approx(expected, rel=1e-13)


def test_derivative_matches_finite_difference():
    h = 1e-5
    for N, s in [(2, 0.5), (2, 1.0), (3, 0.75)]:
        fd = (ball_torsion_constant(N, s + h)[0]
              - ball_torsion_constant(N, s - h)[0]) / (2.0 * h)
        assert ball_torsion_constant(N, s)[1] == pytest.approx(fd, rel=1e-8)


def test_pointwise_derivative_matches_finite_difference():
    x = np.array([0.4, -0.3])
    h = 1e-6
    for s in (0.5, 0.9, 1.0):
        fd = (torsion_value(I2, s + h, x)
              - torsion_value(I2, s - h, x)) / (2.0 * h)
        assert torsion_s_derivative(I2, s, x) == pytest.approx(fd, rel=1e-7)


def test_isotropic_scaling():
    # A = a I is the ball of radius a^{-1/2}
    a = 4.0
    x = np.array([0.2, 0.1])
    d = ball_torsion_constant(2, 0.6)[0]
    expected = d * (0.25 - float(x @ x)) ** 0.6
    assert torsion_value(a * I2, 0.6, x) == pytest.approx(expected,
                                                          rel=1e-13)
    assert isotropic_scale(a * I3)[0] == pytest.approx(4.0)


def test_order_range():
    for bad in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(DomainError):
            torsion_value(I2, bad, np.zeros(2))


def test_anisotropic_gated():
    with pytest.raises(CapabilityError):
        torsion_value(np.diag([1.0, 4.0]), 0.5, np.zeros(2))
    with pytest.raises(CapabilityError):
        torsion_s_derivative(np.diag([1.0, 2.0, 4.0]), 0.5, np.zeros(3))


def test_matrix_validation():
    with pytest.raises(DomainError):
        torsion_value(np.array([[1.0, 0.5], [0.0, 1.0]]), 0.5, np.zeros(2))
    with pytest.raises(DomainError):
        torsion_value(-I2, 0.5, np.zeros(2))
    with pytest.raises(DomainError):
        torsion_value(I2, 0.5, np.zeros(3))


@pytest.mark.parametrize("N", [2, 3])
def test_center_value_strictly_decreasing(N):
    A = I2 if N == 2 else I3
    ss = np.linspace(0.05, 1.0, 20)
    vals = [torsion_value(A, s, np.zeros(N)) for s in ss]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_two_sided_quotients_at_local_endpoint():
    # difference quotients from below and above s = 1 close on each other
    # at first order in h
    v1 = ball_torsion_constant(2, 1.0)[1]
    gaps = []
    for h in (1e-2, 1e-3, 1e-4):
        d1 = ball_torsion_constant(2, 1.0)[0]
        below = (d1 - ball_torsion_constant(2, 1.0 - h)[0]) / h
        above = (ball_torsion_constant(2, 1.0 + h)[0] - d1) / h
        gaps.append(abs(below - above))
    assert gaps[1] < 1e-2 * abs(v1)
    # O(h): each decade of h shrinks the gap by ~10
    assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.15)
    assert gaps[1] / gaps[2] == pytest.approx(10.0, rel=0.15)


def test_boundary_band_of_derivative():
    # -v_1(x) tracks delta (1 + |ln delta|): the ratio stays inside a band
    # frozen from this very family (computed once at the four grid deltas)
    for delta in (1e-3, 1e-2, 1e-1, 0.3):
        x = np.array([1.0 - delta, 0.0])
        v1 = torsion_s_derivative(I2, 1.0, x)
        ratio = -v1 / (delta * (1.0 + abs(math.log(delta))))
        assert 0.53 < ratio < 0.57


@pytest.mark.parametrize("N,s", [(2, 0.3), (3, 0.75), (2, 1.0)])
def test_jacobi_family_contains_torsion(N, s):
    x = np.array((0.4, -0.3, 0.2)[:N])
    A = I2 if N == 2 else I3
    assert jacobi_data(s, 0, 0, x) == 1.0
    assert jacobi_solution(s, 0, 0, x) == pytest.approx(
        torsion_value(A, s, x), rel=1e-14)


@pytest.mark.parametrize("N,n,l", [(2, 1, 0), (2, 2, 1), (3, 1, 1),
                                   (3, 2, 2)])
def test_jacobi_family_solves_poisson_at_s_one(N, n, l):
    # -Delta u = f by a second-order central difference, where u carries
    # 1 / lambda_{n,l}(1) and lambda_{n,l}(1) = 4 (n + 1) (N/2 + n + l).
    x = np.array((0.35, -0.25, 0.3)[:N])
    h = 1e-3
    steps = h * np.eye(N)
    lap = sum(jacobi_solution(1.0, n, l, x + e) + jacobi_solution(
        1.0, n, l, x - e) for e in steps) - 2 * N * jacobi_solution(
        1.0, n, l, x)
    lam = jacobi_eigenvalue(N, 1.0, n, l)
    assert lam == pytest.approx(4.0 * (n + 1) * (0.5 * N + n + l), rel=1e-14)
    assert -lap / h ** 2 == pytest.approx(jacobi_data(1.0, n, l, x),
                                          rel=1e-5)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("a,b", [(0.01, 0.0), (0.5, 1.5), (0.9, 3.0),
                                 (1.0, 0.5)])
def test_jacobi_recurrence_matches_mpmath(n, a, b):
    # The degree recurrence against mpmath's hypergeometric form, relative
    # to max(1, |P_n|) since P_n has zeros in (-1, 1); measured 1.9e-15.
    x = np.linspace(-1.0, 1.0, 41)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.jacobi(n, a, b, t, zeroprec=200))
                        for t in x])
    np.testing.assert_allclose(_eval_jacobi(n, a, b, x), ref, rtol=0.0,
                               atol=4e-15 * max(1.0, np.abs(ref).max()))


def test_jacobi_family_batches_and_vanishes_outside():
    pts = np.array([[0.3, 0.1], [0.9, -0.2], [1.0, 0.0], [0.8, 0.9]])
    sol = jacobi_solution(0.5, 2, 1, pts)
    assert sol.shape == (4,)
    assert sol[2] == 0.0 and sol[3] == 0.0
    assert sol[0] == jacobi_solution(0.5, 2, 1, pts[0])
    with pytest.raises(DomainError):
        jacobi_data(0.5, -1, 0, pts)
    with pytest.raises(DomainError):
        jacobi_data(1.5, 0, 0, pts)
