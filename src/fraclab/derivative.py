"""Derivative of the solution map with respect to the fractional order.

The object of interest is ``v_s = d/ds [G_s f]``, characterized as the
solution of ``(-Delta)^s v_s = ell_s f`` with zero exterior data, where

    ``ell_s f(x) = -L [E f](x) - int_Omega P^c_s(x, z) f(z) dz``

combines the domain form of the logarithmic Laplacian with the
complementary Poisson kernel.  This module assembles ``ell_s f``, solves
for ``v_s`` through the Green operator, forms finite-difference
cross-checks in ``s``, and measures the first-order expansion
``u_s = u_1 + (1 - s) v_1 + o(1 - s)`` -- each judged against the closed
solution family for constant data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CapabilityError, DomainError, Order, as_order
from . import geometry
from .geometry import Ball, Domain
from . import quadrature as quad
from .quadrature import QuadConfig
from . import kernels
from . import operators
from .operators import CompactField, ScalarField
from .closedform import isotropic_scale, torsion_value

__all__ = [
    "GridField",
    "TwoSidedReport",
    "ell_s",
    "ell_field",
    "solve_vs",
    "finite_diff_ds",
    "expansion_residual",
    "two_sided_check",
]


@dataclass
class GridField:
    """Values on an interior point cloud, with norms.

    ``delta`` holds the boundary distances of the points (all positive),
    ``ok`` the per-point quadrature tolerance flags.  The norms are the
    discrete sup norm, the root-mean-square norm, and the weighted
    ``L^p`` norm with weight ``delta^a`` (defaults ``a = 0.75, p = 2``,
    inside the admissible band ``a in (1 - 1/p, 1)``).
    """

    points: np.ndarray
    delta: np.ndarray
    values: np.ndarray
    ok: np.ndarray = field(default=None)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.delta = np.asarray(self.delta, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.ok is None:
            self.ok = np.ones(len(self.values), dtype=bool)
        self.ok = np.asarray(self.ok, dtype=bool)
        if not (len(self.points) == len(self.delta) == len(self.values)
                == len(self.ok)):
            raise DomainError("grid arrays must have matching lengths")
        if not (self.delta > 0.0).all():
            raise DomainError("grid points must be strictly interior")
        if not np.isfinite(self.values).all():
            raise DomainError("grid values must be finite")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        return float(math.sqrt(np.mean(self.values ** 2)))

    def weighted_norm(self, a: float = 0.75, p: float = 2.0) -> float:
        w = np.abs(self.values) * self.delta ** a
        return float(np.mean(w ** p) ** (1.0 / p))


def _interior_grid(domain: Domain, grid) -> tuple[np.ndarray, np.ndarray]:
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[1] != domain.dim:
        raise DomainError(
            f"grid of dimension {pts.shape[1]} on a domain of dimension "
            f"{domain.dim}")
    deltas = np.array([float(geometry.delta(domain, p)) for p in pts])
    if not (deltas > 0.0).all():
        raise DomainError("grid points must be strictly interior")
    return pts, deltas


def _compact_data(f, ball: Ball) -> ScalarField:
    if isinstance(f, ScalarField) and f.is_compact and f.domain == ball:
        return f
    return CompactField(lambda p: np.asarray(f(p), dtype=float), ball,
                        radial=bool(getattr(f, "radial", False)),
                        smooth_scale=getattr(f, "smooth_scale", 1.0),
                        cache_token=kernels._field_cache_token(f))


def ell_s(f, domain: Domain, s, x, cfg: QuadConfig | None = None, *,
          complementary_sign: float = -1.0) -> float:
    """``ell_s f(x) = -L[E f](x) + complementary_sign * P^c_s f(x)``.

    The default ``complementary_sign = -1`` (both terms negative) is the
    representation this package adopts; the opposite sign is kept
    reachable so the test suite can demonstrate that it fails the
    closed-form oracle.
    """
    ball = kernels._require_ball(domain, "the order-derivative data")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    x = np.asarray(x, dtype=float)
    data = _compact_data(f, ball)
    interior = operators.log_laplacian_compact(data, x, cfg).value
    comp = kernels.comp_poisson_apply(ball, data, s, x, cfg).value
    return float(-interior + complementary_sign * comp)


def ell_field(f, domain: Domain, s, cfg: QuadConfig | None = None, *,
              complementary_sign: float = -1.0) -> ScalarField:
    """Radial tabulation of ``ell_s f`` ready for the Green operator.

    The data blows up like ``delta^{-s}`` at the boundary, so the bounded
    quotient ``ell_s f * delta^s`` is a chopped Chebyshev series (see
    :func:`quadrature._chebyshev_profile`) in a variable affine in
    ``ln delta`` on ``[ln(1e-6 R), ln R]``, held at its end value closer
    to the boundary; the field declares ``boundary_power = -s`` for the
    quadrature to grade against.
    """
    ball = kernels._require_ball(domain, "the order-derivative data")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    if not bool(getattr(f, "radial", False)):
        raise CapabilityError("the tabulated derivative data needs radial "
                              "f; evaluate ell_s pointwise instead")
    N, R = ball.dim, ball.radius
    c0 = ball.center_array
    ln_lo, ln_span = math.log(1e-6 * R), -math.log(1e-6)

    def quotient(t):
        out = np.empty(len(t))
        for i, d in enumerate(np.exp(ln_lo + 0.5 * ln_span * (t + 1.0))):
            pt = c0.copy()
            pt[0] += R - d
            out[i] = ell_s(f, ball, s, pt, cfg,
                           complementary_sign=complementary_sign) * d ** s
        return out

    coef = quad._chebyshev_profile(quotient)

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts - c0[None, :], axis=1)
        d = np.clip(R - r, 1e-60 * R, None)
        t = np.clip(2.0 * (np.log(d) - ln_lo) / ln_span - 1.0, -1.0, 1.0)
        return np.polynomial.chebyshev.chebval(t, coef) * d ** -s

    return ScalarField(fn=fn, dim=N, domain=ball, radial=True,
                       is_compact=True, smooth_scale=0.5 * R,
                       boundary_power=-s,
                       cache_token=kernels._derived_token(
                           f, "ell", ball, s, complementary_sign))


def solve_vs(f, domain: Domain, s, grid, cfg: QuadConfig | None = None, *,
             complementary_sign: float = -1.0) -> GridField:
    """``v_s`` on the grid: the Green operator applied to ``ell_s f``.

    The boundary blow-up of the data is declared through the field's
    ``boundary_power``, so the Green quadrature grades its panels with
    the matching exponent.
    """
    ball = kernels._require_ball(domain, "the order-derivative solve")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    pts, deltas = _interior_grid(ball, grid)
    data = ell_field(f, ball, s, cfg,
                     complementary_sign=complementary_sign)
    values = np.empty(len(pts))
    flags = np.empty(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        res = kernels.green_apply(ball, data, s, p, cfg,
                                  boundary_power=data.boundary_power)
        values[i] = res.value
        flags[i] = res.tolerance_ok
    return GridField(points=pts, delta=deltas, values=values, ok=flags)


def finite_diff_ds(f, domain: Domain, s, h: float, grid,
                   cfg: QuadConfig | None = None) -> GridField:
    """Difference quotient of ``s -> G_s f`` on the grid.

    Central ``(G_{s+h} f - G_{s-h} f) / 2h`` inside the order interval;
    at ``s = 1`` the one-sided quotient from below (the side the
    differentiability statement covers).
    """
    ball = kernels._require_ball(domain, "the order finite difference")
    cfg = cfg or QuadConfig()
    order = as_order(s)
    s = float(order)
    h = float(h)
    if not 0.0 < h < 0.5:
        raise DomainError(f"step h={h} outside (0, 0.5)")
    pts, deltas = _interior_grid(ball, grid)
    if s == 1.0:
        if order.limit == "above":
            raise DomainError("the solve only reaches s = 1 from below")
        hi = operators.restriction_ws(ball, f, 1.0, cfg)
        lo = operators.restriction_ws(ball, f, 1.0 - h, cfg)
        vals = (hi(pts) - lo(pts)) / h
    else:
        as_order(s + h)   # keeps central stencils inside (0, 1]
        as_order(s - h)
        hi = operators.restriction_ws(ball, f, s + h, cfg)
        lo = operators.restriction_ws(ball, f, s - h, cfg)
        vals = (hi(pts) - lo(pts)) / (2.0 * h)
    return GridField(points=pts, delta=deltas, values=vals)


_V1_CACHE: dict = {}


def _v1_cached(f, ball: Ball, pts: np.ndarray,
               cfg: QuadConfig) -> np.ndarray:
    token = kernels._field_cache_token(f)
    key = None if token is None else (token, ball, pts.tobytes(), cfg)
    hit = _V1_CACHE.get(key)
    if hit is None:
        hit = solve_vs(f, ball, 1.0, pts, cfg).values
        if key is not None:
            _V1_CACHE[key] = hit
    return hit


def expansion_residual(f, domain: Domain, s, grid,
                       cfg: QuadConfig | None = None) -> float:
    """Sup-norm residual of the first-order expansion at the local
    endpoint: ``max_grid |G_s f - G_1 f - (1 - s) v_1|``, with ``v_1``
    computed once per ``(f, grid)`` and cached."""
    ball = kernels._require_ball(domain, "the expansion residual")
    cfg = cfg or QuadConfig()
    s = float(as_order(s, include_high=False))
    pts, _ = _interior_grid(ball, grid)
    v1 = _v1_cached(f, ball, pts, cfg)
    u_s = operators.restriction_ws(ball, f, s, cfg)(pts)
    u_1 = operators.restriction_ws(ball, f, 1.0, cfg)(pts)
    return float(np.max(np.abs(u_s - u_1 - (1.0 - s) * v1)))


@dataclass(frozen=True)
class TwoSidedReport:
    """One-sided difference quotients of the closed torsion family across
    the local endpoint ``s = 1``.

    ``below``/``above``/``gap`` are ``(n_points, n_steps)`` tables;
    ``derivative`` holds the closed derivative at ``s = 1``;
    ``decay_order`` the per-point least-squares slope of
    ``ln gap`` against ``ln h`` (first-order matching gives ~1).
    """

    radii: np.ndarray
    h_values: np.ndarray
    below: np.ndarray
    above: np.ndarray
    gap: np.ndarray
    derivative: np.ndarray
    decay_order: np.ndarray


def two_sided_check(A, h_list,
                    radii=(0.0, 0.3, 0.6, 0.9)) -> TwoSidedReport:
    """Difference quotients of the closed family from both sides of
    ``s = 1`` at points ``|x| = radius_fraction * ball radius``."""
    a, N = isotropic_scale(A)
    Rb = a ** -0.5
    h_values = np.asarray(list(h_list), dtype=float)
    if not ((h_values > 0.0) & (h_values < 1.0)).all():
        raise DomainError("steps must lie in (0, 1)")
    radii = np.asarray(list(radii), dtype=float)
    below = np.empty((len(radii), len(h_values)))
    above = np.empty_like(below)
    deriv = np.empty(len(radii))
    from .closedform import torsion_s_derivative

    for i, rho in enumerate(radii):
        x = np.zeros(N)
        x[0] = rho * Rb
        u1 = torsion_value(A, 1.0, x)
        deriv[i] = torsion_s_derivative(A, 1.0, x)
        for j, h in enumerate(h_values):
            below[i, j] = (u1 - torsion_value(A, 1.0 - h, x)) / h
            above[i, j] = (torsion_value(A, 1.0 + h, x) - u1) / h
    gap = np.abs(below - above)
    slopes = np.empty(len(radii))
    for i in range(len(radii)):
        slopes[i] = np.polyfit(np.log(h_values), np.log(gap[i]), 1)[0]
    return TwoSidedReport(radii=radii, h_values=h_values, below=below,
                          above=above, gap=gap, derivative=deriv,
                          decay_order=slopes)
