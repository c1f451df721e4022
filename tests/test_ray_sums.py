"""The batched ray integrator behind the ray operators.

The frozen values and evaluation counts come from the per-direction
implementation this integrator replaced: the rules and segments are the
same, so the counts must agree exactly and the values to rounding, while
the field is called once per batch instead of once per ray segment.
"""

import numpy as np
import pytest

from fraclab.core import EvaluationError
from fraclab.geometry import Ball
from fraclab.quadrature import QuadConfig
from fraclab import operators
from fraclab.operators import (CompactField, ScalarField, frac_laplacian,
                               log_laplacian, log_laplacian_compact,
                               nonlocal_normal_derivative, restriction_ws)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
BALL3 = Ball(center=(0.0, 0.0, 0.0), radius=1.0)


class CountingField:
    """Delegates to a field, counting its calls and keeping its metadata."""

    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, pts):
        self.calls += 1
        return self.field(pts)

    def __getattr__(self, name):
        return getattr(self.field, name)


def poly2(p):
    p = np.atleast_2d(p)
    return (1.0 - np.sum(p * p, axis=1)) * (1.0 + 0.3 * p[:, 0] - 0.2 * p[:, 1])


def poly3(p):
    p = np.atleast_2d(p)
    return ((1.0 - np.sum(p * p, axis=1))
            * (1.0 + 0.4 * p[:, 0] * p[:, 2] + 0.1 * p[:, 1]))


def compact2():
    return CompactField(poly2, DISC, smooth_scale=1.0)


def layered2():
    # Not compactly supported, with an integrable (r - 1)^(-1/2) layer
    # outside the disc that the ray segments must grade toward.
    return operators._radial_interp_field(
        DISC, lambda r: 1.0 - 0.5 * r * r,
        lambda r: 0.5 * (r - 1.0) ** -0.5 * r ** -2.5, 3.0, ext_power=-0.5)


def ws2():
    ones = ScalarField(fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2,
                       radial=True, smooth_scale=1.0, cache_token=("ones", 2))
    return restriction_ws(DISC, ones, 0.5)


X = np.array([0.3, 0.2])
Y = np.array([0.2, -0.1])
CFG3 = QuadConfig(angular_order=48, radial_order=10, max_subdiv=12)

CASES = {
    "log_laplacian_compact_field": (
        compact2, lambda u: log_laplacian(u, X), 150688, 1.1627727776170784),
    "log_laplacian_exterior_layer": (
        layered2, lambda u: log_laplacian(u, X), 177344, -0.4683180280955783),
    # The disc's h_Omega is closed now: its 2128 evaluations are gone.
    "log_laplacian_domain_form": (
        compact2, lambda u: log_laplacian_compact(u, X), 63232,
        1.1627727776170782),
    "normal_derivative_ws_2d": (
        ws2, lambda u: nonlocal_normal_derivative(u, 0.5, np.array([1.2, 0.1])),
        526720, -0.3251780002520529),
    "normal_derivative_poly_3d": (
        lambda: CompactField(poly3, BALL3, smooth_scale=1.0),
        lambda u: nonlocal_normal_derivative(
            u, 0.5, np.array([0.2, -0.1, 1.25]), CFG3),
        6058752, -0.14067497674297313),
    "frac_laplacian_compact_field": (
        compact2, lambda u: frac_laplacian(u, 0.5, Y), 294400,
        2.1561801343652527),
    # Frozen from the graded outer span of a non-compact field instead:
    # the per-direction value was 1.1% off (test_decaying_tail_is_graded).
    "frac_laplacian_decaying_tail": (
        layered2, lambda u: frac_laplacian(u, 0.5, Y), 476928,
        0.9798935329470566),
}


@pytest.mark.parametrize("name", list(CASES))
def test_batched_rays_keep_counts_and_values(name):
    make, run, evaluations, value = CASES[name]
    u = CountingField(make())
    res = run(u)
    assert res.evaluations == evaluations
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    # The per-direction implementation made 97 to 24865 calls here.
    assert u.calls < 40


def test_decaying_tail_is_graded():
    # The layer outside the disc sits on the graded outer span, so the
    # dyadic tail starts past it: the estimate is honest, and a finer rule
    # agrees.  Starting the tail at the crossing gave 0.99109 (estimate
    # 6.5e-3) and 0.98743 (2.4e-3) on the finer rule.
    res = frac_laplacian(layered2(), 0.5, Y)
    fine = frac_laplacian(layered2(), 0.5, Y,
                          QuadConfig(angular_order=128, radial_order=24))
    assert res.error_estimate <= 1e-5
    assert res.tolerance_ok
    assert abs(res.value - fine.value) <= 1e-5


def nan_right_half(p):
    p = np.atleast_2d(p)
    return np.where(p[:, 0] > 0.5, np.nan, 1.0 - np.sum(p * p, axis=1))


def nan_only_at(x):
    def fn(p):
        p = np.atleast_2d(p)
        return np.where((p == x).all(axis=1), np.nan,
                        1.0 - np.sum(p * p, axis=1))
    return fn


RAY_OPERATORS = {
    "log_laplacian": (log_laplacian, (-0.2, 0.1)),
    "log_laplacian_compact": (log_laplacian_compact, (-0.2, 0.1)),
    "nonlocal_normal_derivative": (
        lambda u, z: nonlocal_normal_derivative(u, 0.5, z), (1.3, 0.0)),
    "frac_laplacian": (lambda u, x: frac_laplacian(u, 0.5, x), (-0.2, 0.1)),
}


@pytest.mark.parametrize("name", list(RAY_OPERATORS))
def test_non_finite_field_values_raise(name):
    run, x = RAY_OPERATORS[name]
    x = np.array(x)
    u = CompactField(nan_right_half, DISC, smooth_scale=1.0)
    with pytest.raises(EvaluationError) as info:
        run(u, x)
    assert info.value.point[0] > 0.5
    # NaN at the evaluation point alone: the value every ray differences
    # against.  Outside the disc the field is not compact, so the point
    # of the normal derivative sees it too.
    inside = float(x @ x) < 1.0
    u = ScalarField(fn=nan_only_at(x), dim=2, domain=DISC,
                    is_compact=inside, smooth_scale=1.0)
    with pytest.raises(EvaluationError) as info:
        run(u, x)
    np.testing.assert_array_equal(info.value.point, x)
