"""Order-derivative machinery: the data ``ell_s f``, the solve for
``v_s``, finite differences in ``s``, the first-order expansion at the
local endpoint, and two-sided quotients of the closed family -- all
against the closed torsion derivative and exact constant anchors."""

import math

import numpy as np
import pytest

from fraclab.core import CapabilityError, DomainError, Order
from fraclab.geometry import Ball
from fraclab.quadrature import QuadConfig
from fraclab.specfun import log_constants
from fraclab import derivative, operators
from fraclab.closedform import torsion_s_derivative
from fraclab.derivative import (GridField, ell_field, ell_s,
                                expansion_residual, finite_diff_ds,
                                solve_vs, two_sided_check)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
I2 = np.eye(2)


def ones_field():
    return operators.ScalarField(
        fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2, radial=True,
        smooth_scale=1.0, cache_token=("ones", 2))


def radial_grid(n=8, top=0.95):
    return np.stack([np.linspace(0.0, top, n), np.zeros(n)], axis=1)


def closed_derivative(s, pts):
    return np.array([torsion_s_derivative(I2, s, p) for p in pts])


# ---------------------------------------------------------------- grid


def test_grid_field_norms():
    g = GridField(points=np.zeros((3, 2)), delta=np.array([1.0, 0.5, 0.1]),
                  values=np.array([-2.0, 1.0, -1.0]))
    assert g.sup_norm() == 2.0
    assert g.l2_norm() == pytest.approx(math.sqrt(2.0), rel=1e-14)
    expected = math.sqrt(np.mean(
        (np.array([2.0, 1.0, 1.0]) * np.array([1.0, 0.5, 0.1]) ** 0.75)
        ** 2))
    assert g.weighted_norm() == pytest.approx(expected, rel=1e-14)
    assert g.ok.all() and g.ok.dtype == bool


def test_grid_field_validation():
    pts = np.zeros((2, 2))
    with pytest.raises(DomainError):
        GridField(points=pts, delta=np.array([1.0, 0.0]),
                  values=np.zeros(2))
    with pytest.raises(DomainError):
        GridField(points=pts, delta=np.ones(2),
                  values=np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        GridField(points=pts, delta=np.ones(3), values=np.zeros(2))


# ------------------------------------------------------- data ell_s f

# Frozen pointwise values of ell_s 1 on the unit disc.  The center
# values have exact anchors: at s = 1 the geometry weight vanishes and
# the complementary mass is exactly one, so ell = -(1 + rho_2); at
# s = 1/2 the complementary mass at the center is psi(3/2) - psi(1)
# = 2 - ln 4, so ell = -(rho_2 + 2 - ln 4), numerically equal to -rho_3.
ELL_TABLE = [
    (0.5, 0.0, -0.845568670196934),
    (0.5, 0.4, -1.113024923471337),
    (0.75, 0.0, -1.056551149757714),
    (1.0, 0.0, -1.231863031316825),
    (1.0, 0.4, -1.596692608937794),
]


@pytest.mark.parametrize("s,r,expected", ELL_TABLE)
def test_ell_pointwise_frozen(s, r, expected):
    got = ell_s(ones_field(), DISC, s, np.array([r, 0.0]))
    assert got == pytest.approx(expected, rel=1e-9)


def test_ell_center_anchors_exact():
    rho2 = log_constants(2)[1]
    at1 = ell_s(ones_field(), DISC, 1.0, np.zeros(2))
    assert at1 == pytest.approx(-(1.0 + rho2), rel=1e-12)
    at_half = ell_s(ones_field(), DISC, 0.5, np.zeros(2))
    assert at_half == pytest.approx(-(rho2 + 2.0 - math.log(4.0)),
                                    rel=1e-10)
    assert at_half == pytest.approx(-log_constants(3)[1], rel=1e-10)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_ell_is_fractional_laplacian_of_closed_derivative(s):
    # v_s solves (-Delta)^s v_s = ell_s f with zero exterior data, so
    # applying the operator to the closed derivative of the torsion
    # family must reproduce ell_s 1 pointwise.
    v_field = operators.CompactField(
        lambda p: np.array([torsion_s_derivative(I2, s, q)
                            for q in np.atleast_2d(p)]),
        DISC, radial=True, smooth_scale=0.5,
        cache_token=("closed-derivative", s))
    lhs = operators.frac_laplacian(v_field, s, np.zeros(2)).value
    rhs = ell_s(ones_field(), DISC, s, np.zeros(2))
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_ell_field_matches_pointwise():
    fld = ell_field(ones_field(), DISC, 0.75)
    pts = np.stack([np.array([0.0, 0.3, 0.8, 0.995]), np.zeros(4)], axis=1)
    direct = np.array([ell_s(ones_field(), DISC, 0.75, p) for p in pts])
    assert fld(pts) == pytest.approx(direct, rel=1e-8)


def test_ell_field_samples_distinct_points(monkeypatch):
    xs = []
    ell = derivative.ell_s

    def recording(f, ball, s, x, *args, **kwargs):
        xs.append(float(x[0]))
        return ell(f, ball, s, x, *args, **kwargs)

    monkeypatch.setattr(derivative, "ell_s", recording)
    ell_field(ones_field(), DISC, 0.75)
    # Constant data needs about 50 terms in ln delta, so the profile
    # takes its 81-point level: each point once, all of them strictly
    # inside 1e-6 < delta < 1.
    assert len(xs) == len(set(xs)) == 81
    assert 0.0 < min(xs) and max(xs) < 1.0 - 1e-6


def test_ell_field_metadata_and_gating():
    fld = ell_field(ones_field(), DISC, 0.75)
    assert fld.boundary_power == -0.75
    assert fld.is_compact and fld.radial
    assert ell_field(ones_field(), DISC, 1.0).boundary_power == -1.0
    nonradial = operators.ScalarField(
        fn=lambda p: np.atleast_2d(p)[:, 0], dim=2, radial=False)
    with pytest.raises(CapabilityError):
        ell_field(nonradial, DISC, 0.75)


# --------------------------------------------------------- solve v_s


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_solve_matches_closed_derivative(s):
    grid = radial_grid()
    got = solve_vs(ones_field(), DISC, s, grid)
    ref = closed_derivative(s, grid)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got.values - ref)) / scale < 1e-3
    assert (got.values < 0.0).all()
    if s < 1.0:
        assert got.ok.all()


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_solve_center_matches_closed_derivative(s):
    # v_1(0) = -0.5579657...; a cubic spline of ell_s f in ln delta on
    # 64 nodes was off by 6.5e-5 here (1.4e-4 at s = 1/2).
    got = solve_vs(ones_field(), DISC, s, np.zeros((1, 2)))
    want = torsion_s_derivative(I2, s, np.zeros(2))
    assert got.values[0] == pytest.approx(want, rel=1e-8)


def test_solve_opposite_complementary_sign_misses_oracle():
    # The representation with the complementary term added instead of
    # subtracted is kept reachable precisely so this can fail loudly.
    grid = radial_grid()
    got = solve_vs(ones_field(), DISC, 1.0, grid, complementary_sign=1.0)
    ref = closed_derivative(1.0, grid)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(got.values - ref)) / scale > 0.5


def test_interior_grid_deltas_match_pointwise():
    pts = np.array([[0.0, 0.0], [0.3, -0.4], [0.61, 0.79], [-0.2, 0.9]])
    ball = Ball(center=(0.1, -0.2), radius=1.3)
    got, deltas = derivative._interior_grid(ball, pts)
    assert np.array_equal(got, pts) and deltas.shape == (4,)
    for p, d in zip(pts, deltas):
        assert d == derivative.geometry.delta(ball, p)


def test_solve_grid_validation():
    with pytest.raises(DomainError):
        solve_vs(ones_field(), DISC, 0.5, np.array([[1.2, 0.0]]))
    with pytest.raises(DomainError):
        solve_vs(ones_field(), DISC, 0.5, np.zeros((1, 3)))


# ------------------------------------------------- finite differences


def test_finite_difference_central_anchor():
    fd = finite_diff_ds(ones_field(), DISC, 0.5, 1e-3, np.zeros((1, 2)))
    assert fd.values[0] == pytest.approx(-0.9290028784664875, abs=1e-4)


def test_finite_difference_one_sided_at_endpoint():
    # One-sided quotient from below carries an O(h) bias of
    # (h/2) * d''(1) ~ 4.6e-4 at h = 1e-3.
    fd = finite_diff_ds(ones_field(), DISC, 1.0, 1e-3, np.zeros((1, 2)))
    assert fd.values[0] == pytest.approx(-0.5579657578292061, abs=1.5e-3)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_finite_difference_consistent_with_solve(s):
    grid = radial_grid()
    fd = finite_diff_ds(ones_field(), DISC, s, 1e-3, grid)
    vs = solve_vs(ones_field(), DISC, s, grid)
    assert np.max(np.abs(fd.values - vs.values)) < 5e-3 * vs.sup_norm()


def test_finite_difference_validation():
    grid = np.zeros((1, 2))
    for h in (0.0, -1e-3, 0.5):
        with pytest.raises(DomainError):
            finite_diff_ds(ones_field(), DISC, 0.5, h, grid)
    with pytest.raises(DomainError):
        finite_diff_ds(ones_field(), DISC, Order(1.0, limit="above"),
                       1e-3, grid)
    with pytest.raises(DomainError):
        # central stencil would poke past the endpoint
        finite_diff_ds(ones_field(), DISC, 0.9995, 1e-3, grid)


# ------------------------------------------- expansion at the endpoint


def test_expansion_residual_shrinks_superlinearly():
    grid = radial_grid()
    ratios = [expansion_residual(ones_field(), DISC, s, grid) / (1.0 - s)
              for s in (0.9, 0.95, 0.99)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_expansion_residual_matches_closed_family():
    from fraclab.closedform import torsion_value
    grid = radial_grid()
    for s in (0.9, 0.95):
        num = expansion_residual(ones_field(), DISC, s, grid)
        ana = max(abs(torsion_value(I2, s, p) - torsion_value(I2, 1.0, p)
                      - (1.0 - s) * torsion_s_derivative(I2, 1.0, p))
                  for p in grid)
        assert num == pytest.approx(ana, rel=1e-2)


def test_expansion_residual_caches_v1():
    grid = radial_grid(n=3, top=0.5)
    derivative._V1_CACHE.clear()
    first = expansion_residual(ones_field(), DISC, 0.95, grid)
    assert len(derivative._V1_CACHE) == 1
    again = expansion_residual(ones_field(), DISC, 0.95, grid)
    assert again == first
    assert len(derivative._V1_CACHE) == 1


def test_expansion_residual_rejects_endpoint():
    with pytest.raises(DomainError):
        expansion_residual(ones_field(), DISC, 1.0, np.zeros((1, 2)))


# ------------------------------------------------- two-sided quotients


def test_two_sided_quotients_close_at_endpoint():
    rep = two_sided_check(I2, (1e-2, 1e-3, 1e-4))
    # the quotients sandwich the derivative and their gap is O(h)
    assert (rep.below < rep.derivative[:, None]).all()
    assert (rep.above > rep.derivative[:, None]).all()
    assert rep.gap[0, 1] < 1e-2 * abs(rep.derivative[0])
    assert np.max(np.abs(rep.decay_order - 1.0)) < 0.05
    # near the boundary the match is tighter still at the smallest step
    assert rep.gap[3, 2] < 1e-3 * abs(rep.derivative[3])


def test_two_sided_validation():
    with pytest.raises(DomainError):
        two_sided_check(I2, (1e-2, 1.5))
    with pytest.raises(CapabilityError):
        two_sided_check(np.diag([1.0, 2.0]), (1e-2,))
