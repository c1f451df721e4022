"""Acceptance suite: one test per advertised guarantee of the laboratory.

Each criterion is a single test, so ``pytest tests/test_acceptance.py -v``
prints exactly one pass/fail line per guarantee.  The criteria exercise
the public API end to end — solver against closed family, derivative
solver against the closed derivative (including the sign adjudication
that must fail), expansion residual, difference quotients across the
local endpoint, interchange of the two Laplacians, kernel mass and
convergence, the norm-bound chain, self-adjointness of the logarithmic
Laplacian, localization of the nonlocal normal derivative, and CLI
determinism.
"""

import math

import numpy as np
import pytest

from fraclab import bounds, cli, derivative, kernels, operators
from fraclab import quadrature as quad
from fraclab.closedform import torsion_s_derivative, torsion_value
from fraclab.geometry import Ball
from fraclab.operators import ScalarField
from fraclab.quadrature import QuadConfig
from fraclab.specfun import ball_torsion_constant, log_constants

DISC = Ball(center=(0.0, 0.0), radius=1.0)
BALL3 = Ball(center=(0.0, 0.0, 0.0), radius=1.0)
CFG = QuadConfig()
I2 = np.eye(2)

# Slanted unit directions so no axis-aligned special case is exercised.
DIR2 = np.array([0.6, 0.8])
DIR3 = np.array([0.48, 0.60, 0.64])


def unit_ball(N):
    return DISC if N == 2 else BALL3


def unit_dir(N):
    return DIR2 if N == 2 else DIR3


def ones_callable(y):
    return np.ones(len(np.atleast_2d(y)))


def ones_field(N):
    return ScalarField(fn=ones_callable, dim=N, radial=True,
                       smooth_scale=1.0, cache_token=("acceptance-ones", N))


def radial_points(N, radii):
    return np.asarray(radii, dtype=float)[:, None] * unit_dir(N)[None, :]


# ---------------------------------------------------------------------------
# 1. Solution operator against the closed torsion family.
# ---------------------------------------------------------------------------

def test_ac01_torsion_solver_matches_closed_family():
    radii = np.linspace(0.0, 0.95, 10)
    for N in (2, 3):
        ball = unit_ball(N)
        d_ns = {s: ball_torsion_constant(N, s)[0]
                for s in (0.25, 0.5, 0.75, 1.0)}
        for s in (0.25, 0.5, 0.75, 1.0):
            for x in radial_points(N, radii):
                num = kernels.green_apply(ball, ones_callable, s, x,
                                          CFG).value
                exact = d_ns[s] * (1.0 - float(x @ x)) ** s
                assert abs(num - exact) < 1e-3 * abs(exact), \
                    f"N={N} s={s} |x|={np.linalg.norm(x):.3f}"


# ---------------------------------------------------------------------------
# 2. Derivative solver against the closed derivative; the opposite
#    complementary sign must fail the same gate.
# ---------------------------------------------------------------------------

def test_ac02_derivative_solver_matches_closed_derivative():
    pts = radial_points(2, np.linspace(0.0, 0.95, 20))
    closed = {s: np.array([torsion_s_derivative(I2, s, p) for p in pts])
              for s in (0.5, 0.75, 1.0)}
    for s in (0.5, 0.75, 1.0):
        got = derivative.solve_vs(ones_field(2), DISC, s, pts, CFG)
        assert np.all(np.abs(got.values - closed[s])
                      <= 0.05 * np.abs(closed[s])), f"s={s}"
    # Adjudication hook: with the complementary term added instead of
    # subtracted the same 5% gate must fail at both branches.
    for s in (0.5, 1.0):
        wrong = derivative.solve_vs(ones_field(2), DISC, s, pts, CFG,
                                    complementary_sign=1.0)
        assert np.any(np.abs(wrong.values - closed[s])
                      > 0.05 * np.abs(closed[s])), f"sign variant passed s={s}"


# ---------------------------------------------------------------------------
# 3. Derivative at the center of the unit disc at the local endpoint.
# ---------------------------------------------------------------------------

def test_ac03_derivative_center_value_at_local_endpoint():
    got = derivative.solve_vs(ones_field(2), DISC, 1.0,
                              np.zeros((1, 2)), CFG)
    assert got.values[0] == pytest.approx(-0.5579657, rel=0.05)


# ---------------------------------------------------------------------------
# 4. First-order expansion residual: superlinear in (1 - s) and matching
#    the closed family's own residual.
# ---------------------------------------------------------------------------

def test_ac04_expansion_residual_superlinear_and_matches_closed():
    pts = radial_points(2, np.linspace(0.0, 0.9, 8))
    rates = []
    for s in (0.9, 0.95, 0.99):
        num = derivative.expansion_residual(ones_field(2), DISC, s, pts, CFG)
        ana = max(abs(torsion_value(I2, s, p) - torsion_value(I2, 1.0, p)
                      - (1.0 - s) * torsion_s_derivative(I2, 1.0, p))
                  for p in pts)
        assert num == pytest.approx(ana, rel=0.10), f"s={s}"
        rates.append(num / (1.0 - s))
    assert rates[0] > rates[1] > rates[2]


# ---------------------------------------------------------------------------
# 5. One-sided difference quotients agree to first order across s = 1.
# ---------------------------------------------------------------------------

def test_ac05_two_sided_quotients_agree_to_first_order():
    rep = derivative.two_sided_check(I2, (1e-1, 1e-2, 1e-3),
                                     radii=(0.0, 0.3, 0.6, 0.9))
    # At the center (the torsion constant itself) with h = 1e-3 the
    # one-sided quotients differ by under 1% of the derivative.
    assert rep.gap[0, 2] < 1e-2 * abs(rep.derivative[0])
    # The gap decays like O(h) across the three decades, at every point.
    assert np.all(np.abs(rep.decay_order - 1.0) < 0.05)
    assert np.all(rep.below[:, -1] < rep.derivative)
    assert np.all(rep.derivative < rep.above[:, -1])


# ---------------------------------------------------------------------------
# 6. Boundary band of the closed derivative at s = 1.
# ---------------------------------------------------------------------------

def test_ac06_boundary_band_of_closed_derivative():
    for delta in (1e-3, 1e-2, 1e-1, 0.3):
        x = np.array([1.0 - delta, 0.0])
        ratio = -torsion_s_derivative(I2, 1.0, x) \
            / (delta * (1.0 + abs(math.log(delta))))
        assert 0.53 < ratio < 0.57, f"delta={delta} ratio={ratio}"


# ---------------------------------------------------------------------------
# 7. Interchange of the logarithmic and fractional Laplacians on the
#    solution, with and without the boundary term.
# ---------------------------------------------------------------------------

def test_ac07_interchange_identity_and_boundary_term():
    pts = radial_points(2, (0.0, 0.2, 0.4, 0.6, 0.8))
    for s in (1.0, 0.5):
        for x in pts:
            rep = operators.interchange_residual(DISC, ones_field(2), s, x,
                                                 CFG)
            assert rep.relative < 5e-2, f"s={s} x={x} rel={rep.relative}"
    # Dropping the complementary boundary term must break the identity.
    rep = operators.interchange_residual(DISC, ones_field(2), 1.0, pts[1],
                                         CFG, drop_boundary_term=True)
    assert rep.relative > 5e-2


# ---------------------------------------------------------------------------
# 8. Unit mass of the Poisson kernels.
# ---------------------------------------------------------------------------

def test_ac08_poisson_kernels_have_unit_mass():
    for x in (np.zeros(2), np.array([0.5, 0.2])):
        classical = kernels.poisson_extend(DISC, ones_callable, 1.0, x, CFG)
        assert abs(classical.value - 1.0) < 1e-6, f"s=1 x={x}"
        for s in (0.3, 0.7):
            mass = kernels.poisson_extend(DISC, ones_callable, s, x, CFG)
            assert abs(mass.value - 1.0) < 1e-4, f"s={s} x={x}"


# ---------------------------------------------------------------------------
# 9. L2 convergence of the complementary kernel at the local endpoint.
# ---------------------------------------------------------------------------

def test_ac09_complementary_kernel_l2_convergence():
    rn, rw = quad.unit_power_rule(0.0, -0.5, 18, 12)
    thetas = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    zs = np.concatenate([rn[:, None] * np.array([[np.cos(t), np.sin(t)]])
                         for t in thetas])
    w = np.tile(rw * rn, len(thetas)) * (2.0 * np.pi / len(thetas))

    def kernel_on_grid(s, x):
        return np.array([kernels.comp_poisson_kernel(DISC, s, x, z, CFG)
                         for z in zs])

    for x in (np.zeros(2), np.array([0.4, 0.2])):
        p1 = kernel_on_grid(1.0, x)
        ref = float(np.sqrt(w @ p1 ** 2))
        dists = [float(np.sqrt(w @ (kernel_on_grid(s, x) - p1) ** 2))
                 for s in (0.8, 0.9, 0.95, 0.99)]
        assert dists[0] > dists[1] > dists[2] > dists[3], f"x={x}"
        assert dists[-1] < 0.05 * ref, f"x={x} final={dists[-1] / ref}"


# ---------------------------------------------------------------------------
# 10. The complementary mass scales like the boundary distance to the -s:
#     delta(x) * ||P_s^c(x, .)||_L1 stays within one order of magnitude.
# ---------------------------------------------------------------------------

def test_ac10_complementary_mass_scales_with_boundary_distance():
    deltas = np.geomspace(0.03, 0.5, 6)
    for s in (0.6, 0.75, 0.9):
        vals = []
        for d in deltas:
            x = (1.0 - d) * DIR2
            mass = kernels.comp_poisson_apply(DISC, ones_callable, s, x,
                                              CFG)
            # The harmonic route stops at L = 3 for constant data; a
            # nested polar pass reads many times this.
            assert mass.evaluations <= 20000
            vals.append(d * mass.value)
        vals = np.asarray(vals)
        assert vals.max() / vals.min() < 10.0, f"s={s} spread={vals}"


# ---------------------------------------------------------------------------
# 11. The norm-bound chain on the unit disc with endpoint anchors.
# ---------------------------------------------------------------------------

def test_ac11_norm_bound_chain_with_endpoint_anchors():
    _, rho2 = log_constants(2)
    for s in (0.25, 0.5, 0.75, 1.0):
        rep = bounds.green_norm_bound(DISC, s, CFG)
        assert rep.norm_numeric < rep.bound_integral < rep.bound_new \
            < rep.bound_old, f"s={s}"
    rep = bounds.green_norm_bound(DISC, 1.0, CFG)
    assert rep.norm_numeric == pytest.approx(0.25, rel=1e-9)
    assert abs(rep.bound_old - 0.7930) < 1e-4
    assert rep.bound_old == pytest.approx(math.exp(-rho2), rel=1e-9)
    assert bounds.p_s_numeric(DISC, 1.0, CFG) >= 0.25


# ---------------------------------------------------------------------------
# 12. The computable complementary-mass infimum dominates its closed
#     lower bound.
# ---------------------------------------------------------------------------

def test_ac12_complementary_infimum_dominates_closed_lower_bound():
    for s in (0.5, 0.75, 0.9):
        num = bounds.p_s_numeric(DISC, s, CFG)
        low = bounds.p_s_lower(2, s, DISC)
        assert num >= low > 0.0, f"s={s} num={num} low={low}"


# ---------------------------------------------------------------------------
# 13. The logarithmic Laplacian's bilinear form is symmetric on smooth
#     compactly supported bumps.
# ---------------------------------------------------------------------------

def _bump_field(center, rho, tag):
    c = np.asarray(center, dtype=float)

    def fn(p):
        p = np.atleast_2d(p)
        t = np.sum((p - c) ** 2, axis=1) / (rho * rho)
        out = np.zeros(len(t))
        inside = t < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - t[inside]))
        return out

    return ScalarField(fn=fn, dim=2,
                       domain=Ball(center=tuple(c), radius=rho),
                       is_compact=True, radial=bool(np.all(c == 0.0)),
                       smooth_scale=rho / 3.0,
                       cache_token=("acceptance-bump", tag, tuple(c), rho))


def _bilinear(u, v, n_ang, n_rad):
    """``int (L u)(x) v(x) dx`` by a polar rule over the support of v."""
    c = np.asarray(v.domain.center_array, dtype=float)
    rho = v.domain.radius
    rn, rw = quad.unit_power_rule(0.0, 0.0, n_rad, 1)
    total = 0.0
    for t in np.linspace(0.0, 2.0 * np.pi, n_ang, endpoint=False):
        d = np.array([np.cos(t), np.sin(t)])
        for rr, ww in zip(rn, rw):
            x = c + rho * rr * d
            lu = operators.log_laplacian(u, x, CFG).value
            total += ww * rho * rho * rr * lu * float(v(x)[0])
    return total * (2.0 * np.pi / n_ang)


def test_ac13_log_laplacian_bilinear_form_is_symmetric():
    pairs = [
        (_bump_field((0.0, 0.0), 1.0, "r1"),
         _bump_field((0.0, 0.0), 0.7, "r2"), 8, 8),
        (_bump_field((-0.15, 0.0), 0.9, "o1"),
         _bump_field((0.2, 0.1), 0.85, "o2"), 12, 8),
    ]
    for u, v, n_ang, n_rad in pairs:
        e_uv = _bilinear(u, v, n_ang, n_rad)
        e_vu = _bilinear(v, u, n_ang, n_rad)
        asym = abs(e_uv - e_vu) / max(abs(e_uv), abs(e_vu))
        assert asym < 1e-3, f"asymmetry {asym}"


# ---------------------------------------------------------------------------
# 14. The nonlocal normal derivative localizes to the classical flux.
# ---------------------------------------------------------------------------

def test_ac14_nonlocal_normal_derivative_localizes_to_flux():
    v = ScalarField(
        fn=lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=1)),
        dim=2, domain=DISC, radial=True, smooth_scale=1.0,
        cache_token=("acceptance-gauss", 2))
    # v = exp(-|x|^2), w = exp(-|x|^2):
    # int_{boundary} dv/dnu w dsigma = 2 pi (-2/e)(1/e).
    target = -4.0 * np.pi * math.exp(-2.0)
    errors = []
    for s in (0.9, 0.95, 0.99):
        rn, rw = quad.map_rule(
            quad.unit_power_rule(1.0 - 2.0 * s, 0.0, 10, 12), 1.0, 6.0)
        nu = np.array([operators.nonlocal_normal_derivative(
            v, s, np.array([r, 0.0]), CFG).value for r in rn])
        total = 2.0 * np.pi * float(rw @ (nu * np.exp(-rn ** 2) * rn))
        errors.append(abs(total - target) / abs(target))
    assert errors[0] > errors[1] > errors[2]
    assert errors[-1] < 5e-2


# ---------------------------------------------------------------------------
# 15. CLI output is byte-deterministic for identical flags.
# ---------------------------------------------------------------------------

def test_ac15_cli_output_is_byte_deterministic(capsys):
    for argv in (["bounds", "--dim", "2", "--orders", "0.4:0.2:0.8",
                  "--domain", "ball:1"],
                 ["torsion", "--dim", "3", "--orders", "0.25:0.25:1.0",
                  "--emit", "json"]):
        outs = []
        for _ in range(2):
            code = cli.main(argv)
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]
