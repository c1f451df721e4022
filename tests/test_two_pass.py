"""The fine/coarse error estimate behind every quadrature.

One cheap two-dimensional call per operator that forms its result from a
fine and a coarse pass.  Values, evaluation counts and tolerance flags are
frozen exactly; error estimates to two units in the last place.  They
were recorded from the implementation that wrote the estimate out at
each call site, so any change to the passes, their resolutions or the
error floor shows here.
"""

import numpy as np
import pytest

from fraclab import kernels, operators
from fraclab import quadrature as quad
from fraclab.geometry import Ball, Ellipsoid
from fraclab.operators import CompactField, ScalarField

DISC = Ball(center=(0.0, 0.0), radius=1.0)


def poly2(p):
    p = np.atleast_2d(p)
    return ((1.0 - np.sum(p * p, axis=1))
            * (1.0 + 0.3 * p[:, 0] - 0.2 * p[:, 1]))


def compact2():
    return CompactField(poly2, DISC, smooth_scale=1.0)


def radial2():
    return ScalarField(fn=lambda p: 1.0 - 0.5 * np.sum(p * p, axis=1),
                       dim=2, radial=True)


def undeclared_layer(p):
    # A delta^(-0.9) boundary layer the rule is not told about: with
    # shallow grading the two passes disagree and the flag drops.
    r2 = np.sum(p * p, axis=1)
    return np.exp(p[:, 0]) * np.maximum(1.0 - r2, 0.0) ** -0.9


CASES = {
    "integrate_interior": lambda: quad.integrate_interior(
        DISC, undeclared_layer, quad.QuadConfig(max_subdiv=6)),
    "integrate_exterior": lambda: quad.integrate_exterior(
        DISC, lambda y: np.linalg.norm(y, axis=1) ** -3.0),
    "integrate_pv_second_difference":
        lambda: quad.integrate_pv_second_difference(
            compact2(), np.array([0.2, -0.1]), 0.5),
    "green_apply": lambda: kernels.green_apply(DISC, poly2, 0.9, (0.6, -0.75)),
    "poisson_extend_classical": lambda: kernels.poisson_extend(
        DISC, lambda y: 1.0 + y[:, 0] ** 2, 1.0, (0.3, 0.1)),
    "poisson_extend": lambda: kernels.poisson_extend(
        DISC, lambda y: 1.0 / (1.0 + np.sum(y * y, axis=1)), 0.9, (0.85, 0.3)),
    "comp_poisson_apply": lambda: kernels.comp_poisson_apply(
        DISC, radial2(), 0.5, (0.4, 0.0)),
    "log_laplacian": lambda: operators.log_laplacian(compact2(), (0.3, 0.1)),
    "log_laplacian_compact": lambda: operators.log_laplacian_compact(
        compact2(), (0.3, 0.1)),
    # The two passes run on ellipsoids only; a ball's h_Omega is closed.
    "h_omega": lambda: operators.h_omega(Ellipsoid(a=(1.0, 0.0, 0.0, 4.0)),
                                         (0.1, 0.1)),
    "nonlocal_normal_derivative":
        lambda: operators.nonlocal_normal_derivative(
            compact2(), 0.5, (1.3, 0.2)),
}

# value, error_estimate, evaluations, tolerance_ok
FROZEN = {
    "comp_poisson_apply":
        (0.5139603083393468, 2.8036422771541175e-10, 1900, True),
    "green_apply":
        (0.017212412234932195, 1.1119442658486498e-15, 164416, True),
    "h_omega":
        (0.8622232860402097, 3.896685180258897e-08, 2352, True),
    "integrate_exterior":
        (6.283185307057675, 4.858995319451253e-14, 94080, True),
    "integrate_interior":
        (18.91459956574577, 1.8991644200917561, 10688, False),
    "integrate_pv_second_difference":
        (13.547679339876249, 3.9037691576264246e-13, 294400, True),
    "log_laplacian":
        (1.2472462757365927, 2.0953941907935305e-15, 150224, True),
    # Re-frozen with the closed ball h_Omega, which takes no evaluations
    # and adds no error (was 65360 evaluations, value 1 ulp higher).
    "log_laplacian_compact":
        (1.2472462757365927, 2.0953941907935305e-15, 63232, True),
    "nonlocal_normal_derivative":
        (-0.22258865580013346, 2.9326764872154496e-16, 526720, True),
    "poisson_extend":
        (0.48620551179044025, 1.5964285364155968e-16, 191900, True),
    "poisson_extend_classical":
        (1.54, 5.980892098500627e-16, 96, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_pass_result_frozen(name):
    res = CASES[name]()
    value, err, evals, ok = FROZEN[name]
    assert res.value == value
    assert res.evaluations == evals
    assert res.tolerance_ok is ok
    assert abs(res.error_estimate - err) <= 2.0 * np.spacing(err)
