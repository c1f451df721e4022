"""The fine/coarse error estimate behind every quadrature.

One cheap two-dimensional call per operator that forms its result from a
fine and a coarse pass.  Values, evaluation counts and tolerance flags are
frozen exactly; error estimates to two units in the last place.  They
were recorded from the implementation that wrote the estimate out at
each call site, so any change to the passes, their resolutions or the
error floor shows here.  Since the coarse resolution is derived in
_two_pass alone, the entries whose coarse pass moved were re-frozen: the
same values, other estimates and counts.

At small ``max_subdiv`` the estimates must bound the error of the ray
operators against a fine reference: the coarse pass is always shallower
than the fine one.
"""

import numpy as np
import pytest

from fraclab import kernels, operators
from fraclab import quadrature as quad
from fraclab.geometry import Ball
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


CASES = {
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
    "nonlocal_normal_derivative":
        lambda: operators.nonlocal_normal_derivative(
            compact2(), 0.5, (1.3, 0.2)),
}

# value, error_estimate, evaluations, tolerance_ok
FROZEN = {
    # Re-frozen with math.gamma and scipy's digamma in the constants (was
    # 0.5139603083393468, 5 ulps lower).
    # The coarse master grid has radial order 10 and depth 18 (was 12 and
    # 20: estimate 2.8036422771541175e-10, 1900 evaluations).  Re-frozen
    # with one rho rule shared by the whole master grid: the evaluations
    # count the data points of that rule, 736, not the 1754 grid nodes,
    # and the value moved 2 ulps (was 0.5139603083393474, estimate
    # 1.1347608922445452e-09).  Re-frozen with the Golub-Welsch Jacobi
    # rules: the value is unchanged, the estimate moved 1e-7 relative (was
    # 1.1347491238804842e-09).
    "comp_poisson_apply":
        (0.5139603083393472, 1.1347492349027867e-09, 736, True),
    # Re-frozen with the one-rule Green kernel (was 164416 evaluations on
    # two rules); an angular_order=256, radial_order=30 run gives
    # 0.017212412234932212, 2.7e-16 above, inside the estimate.  The
    # coarse pass takes half the fine pass's 64 directions, not 60, and is
    # graded 18 levels deep, not 20 (was 69888 evaluations).  Re-frozen
    # with the incomplete-beta Green factor: the value moved 2.6e-17
    # toward that reference (was 0.01721241223493194, estimate
    # 4.032810022076146e-11), the count is unchanged.  Re-frozen with the
    # harmonic route, which stops at degree 3 and lands 4.6e-17 from the
    # reference (was 0.017212412234931966, estimate 4.032810369020841e-11,
    # 68608 evaluations on the polar pass).  Re-frozen with the
    # Golub-Welsch Jacobi rules: 4 ulps up (was 0.017212412234932258,
    # estimate 4.389207601980667e-16), 6.3e-18 above the closed Jacobi-data
    # solution 0.0172124122349322637, where it was 5.7e-18 below.
    # Re-frozen with the two-family end rule at rho = |x|, graded 13
    # levels deep instead of 40 (9 instead of 32 in the coarse pass): the
    # same value, still 6.9e-18 above that solution (was estimate
    # 4.527985480058812e-16, 23328 evaluations).
    "green_apply":
        (0.01721241223493227, 3.417762455433655e-16, 11760, True),
    # Re-frozen with one ray per +-theta pair: the same value at half the
    # evaluations (was 294400); the coarse pass sums in another order, so
    # the estimate moved from 3.9037691576264246e-13.  Re-frozen with the
    # coarse pass graded 18 levels deep, not 24 (was 3.886005589232422e-13
    # and 147200 evaluations).  Re-frozen with the Golub-Welsch Jacobi
    # rules: 1.8e-14 down (was 13.547679339876249, estimate
    # 3.8682420208384195e-13), now 4.5e-13 above the closed value
    # 13.5476793398757813 (Dyda's formula over c(2, 1/2)), where it was
    # 4.7e-13 above, outside that estimate; a (1e-13, 1e-15, 256, 30) run
    # gives 13.547679339876733, 5.0e-13 off, inside the new estimate.
    "integrate_pv_second_difference":
        (13.54767933987623, 6.532777279938796e-13, 139520, True),
    # Re-frozen with the library gamma and digamma in c_N and rho_N (was
    # 1.2472462757365927, 1 ulp lower, estimate 2.0953941907935305e-15).
    "log_laplacian":
        (1.247246275736593, 2.095394190793531e-15, 150224, True),
    # Re-frozen with the closed ball h_Omega, which takes no evaluations
    # and adds no error (was 65360 evaluations), and again with the
    # library gamma and digamma (was 1.2472462757365927, 1 ulp lower,
    # estimate 2.0953941907935305e-15).
    "log_laplacian_compact":
        (1.247246275736593, 2.095394190793531e-15, 63232, True),
    "nonlocal_normal_derivative":
        (-0.22258865580013346, 2.9326764872154496e-16, 526720, True),
    # Re-frozen on the harmonic route (one integral in the exterior radius
    # over the data's moments, degrees 1 and 3 of the ladder): 2.4e-16
    # from the 1024-direction polar reference 0.4861856928329459, where the
    # polar pass it replaced (0.4861856928329575, estimate 2.6e-8, 437456
    # evaluations) was 1.2e-14 off.
    "poisson_extend":
        (0.48618569283294566, 2.532739948132726e-15, 21048, True),
    # The classical extension of 1 + y_1^2 (exact 1.54) on the same route at
    # q = R alone, degrees 1, 3 and 7; the boundary rule it replaced gave
    # 1.54 with estimate 6.0e-16 from 96 evaluations.  Re-frozen with one
    # pass: the coarse pass re-read the same points at q = R (was 56
    # evaluations; value and estimate unchanged).
    "poisson_extend_classical":
        (1.5399999999999998, 2.595433806719107e-15, 28, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_pass_result_frozen(name):
    res = CASES[name]()
    value, err, evals, ok = FROZEN[name]
    assert res.value == value
    assert res.evaluations == evals
    assert res.tolerance_ok is ok
    assert abs(res.error_estimate - err) <= 2.0 * np.spacing(err)


def half_dome(p):
    p = np.atleast_2d(p)
    return np.sqrt(np.maximum(1.0 - np.sum(p * p, axis=1), 0.0))


BOUND_CASES = {
    "green_apply": lambda u, cfg: kernels.green_apply(
        DISC, u, 0.5, (0.3, 0.2), cfg),
    "log_laplacian": lambda u, cfg: operators.log_laplacian(
        u, (0.3, 0.2), cfg),
    "log_laplacian_compact": lambda u, cfg: operators.log_laplacian_compact(
        u, (0.3, 0.2), cfg),
    "nonlocal_normal_derivative":
        lambda u, cfg: operators.nonlocal_normal_derivative(
            u, 0.5, (1.3, 0.2), cfg),
    "frac_laplacian": lambda u, cfg: operators.frac_laplacian(
        u, 0.5, (0.3, 0.2), cfg),
}


@pytest.mark.parametrize("max_subdiv", [4, 5, 8])
@pytest.mark.parametrize("name", sorted(BOUND_CASES))
def test_estimate_bounds_error_at_small_depth(name, max_subdiv):
    # The compact radial (1 - |y|^2)^(1/2) kinks at the boundary, so the
    # grading depth sets the error.  With a coarse pass as deep as the
    # fine one the estimate missed it by up to 1e7 (log_laplacian_compact
    # at depth 8: 9.2e-16 against an error of 2.8e-9).
    u = CompactField(half_dome, DISC, smooth_scale=1.0, radial=True)
    run = BOUND_CASES[name]
    ref = run(u, quad.QuadConfig(angular_order=128, radial_order=30,
                                 max_subdiv=40)).value
    res = run(u, quad.QuadConfig(max_subdiv=max_subdiv))
    assert res.error_estimate >= abs(res.value - ref)
