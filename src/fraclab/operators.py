"""Nonlocal operators: fractional Laplacian, logarithmic Laplacian (both
the full-space and the domain form), the geometry weight ``h_Omega``, the
nonlocal normal derivative, the solution-operator field, and the
interchange residual between the fractional and logarithmic Laplacians.

Field convention: a field is any callable taking an ``(M, N)`` array of
points and returning ``(M,)`` values.  :class:`ScalarField` adds the
metadata the quadrature layer consumes: a domain whose boundary crossings
become quadrature breakpoints, a local smoothness scale (a callable of
the point) that sizes principal-value inner balls and finite-difference
steps, a compact-support flag, and the boundary vanishing exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import CapabilityError, DomainError, as_order
from . import geometry
from .geometry import Ball, Domain
from . import quadrature as quad
from .quadrature import IntegralResult, QuadConfig
from . import kernels
from .specfun import frac_normalization, log_constants

__all__ = [
    "ScalarField",
    "CompactField",
    "frac_laplacian",
    "log_laplacian",
    "log_laplacian_compact",
    "h_omega",
    "nonlocal_normal_derivative",
    "restriction_ws",
    "interchange_residual",
    "InterchangeReport",
]


@dataclass
class ScalarField:
    """A scalar function on R^N with evaluation metadata.

    ``fn`` maps an ``(M, N)`` array to ``(M,)`` values.  ``smooth_scale``
    may be a number (constant scale of variation) or a callable of the
    point; for fields with a domain a numeric scale is automatically
    capped by the distance to the boundary, where such fields kink.
    ``boundary_power`` declares the vanishing exponent at the domain
    boundary, used to grade quadrature endpoints.  ``exterior_power``
    declares an algebraic layer ``dist^p`` on the *outside* of the
    boundary (``p > -1`` may be negative: integrable blow-up); operators
    then integrate across the boundary with panels of matching exponent.

    ``radial`` declares that ``fn`` depends only on the distance to the
    centre of the field's ball (to the origin when there is no domain, so
    data for a ball centred elsewhere is declared with ``domain``).  On a
    ball with that centre (:func:`~fraclab.quadrature.centred_radial`) the
    tabulated fields (``restriction_ws``, ``ell_field``) and the
    interchange residual accept the data, ``comp_poisson_apply`` and
    ``poisson_extend`` read it on one radius per exterior node,
    ``green_apply``, ``log_laplacian_compact`` and
    ``nonlocal_normal_derivative`` take one integral in the distance to
    the centre with the sphere integrals of their kernels done without the
    data, and the 2D passes of ``log_laplacian`` and of the principal
    value of ``frac_laplacian`` read half their directions, by the mirror
    symmetry across the line through the centre and the point.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    domain: Domain | None = None
    radial: bool = False
    is_compact: bool = False
    smooth_scale: object = 1.0
    boundary_power: float | None = None
    exterior_power: float | None = None
    cache_token: object = None

    def __post_init__(self):
        if self.is_compact and self.domain is None:
            raise DomainError("a compactly supported field needs a domain")
        if self.cache_token is None:
            self.cache_token = object()
        if not callable(self.smooth_scale):
            base = float(self.smooth_scale)
            if base <= 0.0:
                raise DomainError("smooth_scale must be positive")
            dom = self.domain
            if dom is not None:
                def scale(x, base=base, dom=dom):
                    d = abs(float(geometry.delta(dom, np.asarray(x))))
                    return max(1e-9 * base, min(base, d))
            else:
                def scale(x, base=base):
                    return base
            self.smooth_scale = scale

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[1] != self.dim:
            raise DomainError(
                f"field expects dimension {self.dim}, got {pts.shape[1]}")
        if not self.is_compact:
            return np.asarray(self.fn(pts), dtype=float)
        inside = np.atleast_1d(geometry.contains(self.domain, pts))
        if inside.size and inside.all():
            # Ray nodes usually all lie inside: no gather or scatter.
            vals = np.asarray(self.fn(pts), dtype=float)
            if vals.shape == inside.shape:
                return vals
            return np.broadcast_to(vals, inside.shape).copy()
        out = np.zeros(len(pts))
        if inside.any():
            out[inside] = np.asarray(self.fn(pts[inside]), dtype=float)
        return out


def CompactField(fn, domain: Domain, **kw) -> ScalarField:
    """A field supported on the closure of ``domain`` (zero outside)."""
    return ScalarField(fn=fn, dim=domain.dim, domain=domain,
                       is_compact=True, **kw)


def _compact_on(f, ball: Ball) -> ScalarField:
    """Data ``f`` cut off outside ``ball``, keeping its ``cache_token`` and,
    if :func:`~fraclab.quadrature.centred_radial`, its ``radial`` flag; a
    field already compact on ``ball`` is ``f`` itself."""
    if isinstance(f, ScalarField) and f.is_compact and f.domain == ball:
        return f
    return CompactField(lambda p: np.asarray(f(p), dtype=float), ball,
                        radial=quad.centred_radial(f, ball),
                        cache_token=getattr(f, "cache_token", None))


def _field_dim(u) -> int:
    dim = getattr(u, "dim", None)
    if dim is None:
        raise DomainError("operator arguments must carry a .dim attribute; "
                          "wrap plain callables in ScalarField")
    return int(dim)


# ---------------------------------------------------------------------------
# Fractional Laplacian.
# ---------------------------------------------------------------------------

def _stencil_points(x: np.ndarray, h: float) -> np.ndarray:
    """Nodes of the fourth-order five-point ``-Delta`` stencil: ``x``, then
    per axis ``x + 2he, x + he, x - he, x - 2he``."""
    N = len(x)
    pts = [x]
    for i in range(N):
        e = np.zeros(N)
        e[i] = h
        pts.extend([x + 2 * e, x + e, x - e, x - 2 * e])
    return np.array(pts)


def _stencil_neg_laplacian(vals, h: float) -> float:
    """``-Delta`` from values at the nodes of :func:`_stencil_points`."""
    total = 0.0
    for i in range((len(vals) - 1) // 4):
        b = 1 + 4 * i
        total += (vals[b] - 16.0 * vals[b + 1] + 30.0 * vals[0]
                  - 16.0 * vals[b + 2] + vals[b + 3]) / (12.0 * h * h)
    return total


def frac_laplacian(u, s, x, cfg: QuadConfig | None = None) -> IntegralResult:
    """``(-Delta)^s u (x)`` for ``0 < s <= 1``.

    ``s < 1``: normalized principal-value integral of the symmetrized
    second difference.  ``s = 1``: the classical ``-Delta`` by a
    fourth-order five-point stencil per axis, with the step tied to the
    field's local smoothness scale.
    """
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N = _field_dim(u)
    x = np.asarray(x, dtype=float)

    if s < 1.0:
        c = frac_normalization(N, s)
        res = quad.integrate_pv_second_difference(u, x, s, cfg)
        return IntegralResult(c * res.value, c * res.error_estimate,
                              res.evaluations, res.tolerance_ok)

    h = 0.02 * quad._scale_at(u, x)
    pts = _stencil_points(x, h)
    vals = np.asarray(u(pts), dtype=float)
    total = _stencil_neg_laplacian(vals, h)
    # Fourth-order truncation plus rounding amplified by 1/h^2.
    err = abs(total) * 1e-7 + 64.0 * 1e-16 * abs(vals[0]) / (h * h)
    return IntegralResult(total, err, len(pts),
                          quad._tol_ok(total, err, cfg))


# ---------------------------------------------------------------------------
# Logarithmic Laplacian.
# ---------------------------------------------------------------------------

def log_laplacian(u, x, cfg: QuadConfig | None = None) -> IntegralResult:
    """Full-space logarithmic Laplacian

    ``L u(x) = c_N int_{B_1(x)} (u(x)-u(y))/|x-y|^N dy
               - c_N int_{B_1(x)^c} u(y)/|x-y|^N dy + rho_N u(x)``.

    The near integral converges absolutely for C^1 fields (the integrand
    is bounded along each ray, so no symmetrization is needed); the far
    integral requires decay of ``u``, automatic for compact fields and
    handled by dyadic blocks with a calm stop otherwise.
    """
    cfg = cfg or QuadConfig()
    N = _field_dim(u)
    c_N, rho_N = log_constants(N)
    x = np.asarray(x, dtype=float)
    u_x = quad._centre_value(u, x)
    dom = getattr(u, "domain", None)
    compact = bool(getattr(u, "is_compact", False))
    ext_p = getattr(u, "exterior_power", None)
    axis = x - dom.center_array if quad.centred_radial(u, dom) else None

    def one_pass(m_ang, n_rad, levels):
        dirs, w_dir = quad.polar_directions(N, m_ang, axis)
        evals = 0
        # Per-direction far spans end one doubling past the last crossing
        # so the dyadic continuation never starts on a singular layer.
        if dom is None:
            t_lo = t_hi = np.full(len(dirs), np.nan)
            far_hi = np.full(len(dirs), 2.0)
        else:
            t_lo, t_hi, hit = geometry.ray_spans(dom, x, dirs)
            far_hi = 2.0 * np.maximum(1.0, np.where(hit, t_hi, 1.0))

        def sums(lo, hi, kernel, plain_levels):
            # One field pass per pair of endpoint exponents; segments with
            # plain grading at both ends take ``plain_levels``.
            nonlocal evals
            idx, a, b, al, ah = quad.crossing_segments(t_lo, t_hi, lo, hi,
                                                       ext_p)
            total = np.zeros(len(dirs))
            for pair in sorted(set(zip(al.tolist(), ah.tolist()))):
                sel = (al == pair[0]) & (ah == pair[1])
                lv = plain_levels if pair == (0.0, 0.0) else levels
                part, n = quad.ray_sums(
                    u, x, dirs, idx[sel], a[sel], b[sel],
                    quad.unit_power_rule(*pair, n_rad, lv), kernel)
                total += part
                evals += n
            return total

        near = sums(0.0, 1.0, lambda t, v: (u_x - v) / t, levels)
        far = sums(1.0, far_hi, lambda t, v: v / t, min(levels, 12))
        if not compact:
            # Dyadic blocks per direction until two in a row are calm.
            lo = far_hi
            calm = np.zeros(len(dirs), dtype=int)
            for _ in range(60):
                live = np.nonzero(calm < 2)[0]
                if not live.size:
                    break
                block, n = quad.ray_sums(u, x, dirs, live, lo[live],
                                         2.0 * lo[live],
                                         quad._gauss_unit(n_rad),
                                         lambda t, v: v / t)
                evals += n
                far += block
                calm[live] = np.where(
                    np.abs(block[live]) < 0.25 * cfg.abs_tol,
                    calm[live] + 1, 0)
                lo = 2.0 * lo
        return float(w_dir @ near) - float(w_dir @ far), evals

    return quad._two_pass(one_pass,
                          (cfg.angular_order, cfg.radial_order,
                           min(cfg.max_subdiv, 24)),
                          cfg, scale=c_N,
                          shift=IntegralResult(rho_N * u_x, 0.0, 0),
                          floor=1e-15)


def log_laplacian_compact(u, x, cfg: QuadConfig | None = None
                          ) -> IntegralResult:
    """Domain form of the logarithmic Laplacian for fields supported on a
    bounded domain:

    ``L u(x) = c_N int_Omega (u(x)-u(y))/|x-y|^N dy
               + (h_Omega(x) + rho_N) u(x)``.

    Agrees with :func:`log_laplacian` on compact fields; the unit-ball
    split is traded for the geometry weight ``h_Omega``.

    A field radial about the centre of its ball
    (:func:`~fraclab.quadrature.centred_radial`) takes one integral in
    ``rho = |y - centre|``: the sphere means of ``|x - y|^(-N)`` are
    closed, ``2 pi rho / |rho^2 - r^2|`` in the plane and ``4 pi rho
    min(r, rho) / (r |rho^2 - r^2|)`` in space (``r = |x - centre|``), and
    ``u(x) - u(rho)`` times either stays bounded on each side of ``rho =
    r``.  The rule (:func:`~fraclab.quadrature.offset_rule`) splits there
    and grades toward ``r`` from both sides, half as deep as toward ``R``
    (its end rule at ``r`` is exact on both parts), so no principal value
    is needed, and the field is read once per ``rho`` node.  Other fields
    are integrated along the rays of a polar rule around ``x``.
    """
    cfg = cfg or QuadConfig()
    N = _field_dim(u)
    dom = getattr(u, "domain", None)
    if dom is None or not bool(getattr(u, "is_compact", False)):
        raise DomainError("the domain form needs a compactly supported "
                          "field with a domain")
    c_N, rho_N = log_constants(N)
    x = np.asarray(x, dtype=float)
    h_res = h_omega(dom, x, cfg)       # raises outside the domain
    u_x = quad._centre_value(u, x)

    def radial_pass(_, n_rad, levels):
        r = quad._centre_distance(x - dom.center_array, dom.radius)
        rho, off, _, w = quad.offset_rule(r, dom.radius, n_rad,
                                          (0.0, levels // 2), (0.0, levels))
        # |rho^2 - r^2| = |off| (rho + r), with off exact near rho = r.
        mean = 2.0 * math.pi * rho / (np.abs(off) * (rho + r))
        if N == 3:
            mean *= 2.0 * np.where(off < 0.0, rho / max(r, 1e-300), 1.0)
        vals = (u_x - kernels._radial_data(u, dom, rho)) * mean
        return float(w @ vals), len(rho)

    def polar_pass(m_ang, n_rad, levels):
        dirs, w_dir = quad.polar_directions(N, m_ang)
        _, t_hi, _ = geometry.ray_spans(dom, x, dirs)
        sums, evals = quad.ray_sums(
            u, x, dirs, np.arange(len(dirs)), np.zeros(len(dirs)), t_hi,
            quad.unit_power_rule(0.0, 0.0, n_rad, levels),
            lambda t, v: (u_x - v) / t)
        return float(w_dir @ sums), evals

    shift = IntegralResult((h_res.value + rho_N) * u_x,
                           h_res.error_estimate * abs(u_x), h_res.evaluations)
    return quad._two_pass(radial_pass if quad.centred_radial(u, dom)
                          else polar_pass,
                          (cfg.angular_order, cfg.radial_order,
                           min(cfg.max_subdiv, 24)),
                          cfg, scale=c_N, shift=shift, floor=1e-15)


# ---------------------------------------------------------------------------
# Geometry weight h_Omega.
# ---------------------------------------------------------------------------

def _log_mean(lam) -> tuple[float, float]:
    """``mean_theta ln(theta . A theta)`` on the unit circle or sphere from
    the ascending eigenvalues ``lam`` of ``A``, and the last change of its
    rule.  On a circle it is ``2 ln((sqrt a + sqrt b) / 2)``; on the sphere
    the latitude at height ``mu`` on the axis of ``lam_3`` is such a circle
    with ``a = lam_1 + (lam_3 - lam_1) mu^2`` and ``b`` likewise, summed by
    Gauss-Legendre on [0, 1] from 40 nodes, doubled (up to 1280) until two
    sums agree to the rounding of an ``n``-node rule, ``n ulp(sum |f|)``."""
    def circle(a, b):
        return 2.0 * np.log(0.5 * (np.sqrt(a) + np.sqrt(b)))

    if len(lam) == 2:
        return float(circle(*lam)), 0.0
    l1, l2, l3 = lam
    n, prev = 40, None
    while True:
        mu, w = quad._gauss_unit(n)
        f = circle(l1 + (l3 - l1) * mu * mu, l2 + (l3 - l2) * mu * mu)
        total = float(w @ f)
        if prev is not None:
            change = abs(total - prev)
            if change <= n * math.ulp(float(w @ np.abs(f))) or n >= 1280:
                return total, change
        n, prev = 2 * n, total


def h_omega(domain: Domain, x, cfg: QuadConfig | None = None
            ) -> IntegralResult:
    """Geometry weight of the domain form of the logarithmic Laplacian,
    ``h(x) = c_N [ int_{B_1(x) \\ Omega} - int_{Omega \\ B_1(x)} ]
    |x-y|^{-N} dy``.

    In polar coordinates, with ``rho(theta)`` the distance from ``x`` to
    the boundary along ``theta`` and ``c_N |S^{N-1}| = 2``, this is
    ``-mean_theta ln(rho(theta) rho(-theta))``.  On the ellipsoid
    ``{y . A y < 1}`` the chord roots multiply to
    ``(1 - x.Ax) / theta.A theta``, so ``h(x) = -ln(1 - x.Ax)
    + mean_theta ln(theta . A theta)`` with the mean of :func:`_log_mean`.
    Its error estimate is the mean's last change plus the rounding of
    ``x.Ax`` over ``1 - x.Ax``, ``4 eps |x||A||x| / (1 - x.Ax)``, and
    ``eps |h|``.  On a ball ``B_R(c)``, ``h = -ln(delta (2R - delta))``
    with ``delta = R - |x - c|``, which does not cancel near the boundary,
    with error 0.  No field is read: ``evaluations`` is 0.
    """
    cfg = cfg or QuadConfig()
    x = np.asarray(x, dtype=float)
    if not geometry.contains(domain, x):
        raise DomainError("h_Omega is evaluated inside the domain")
    if isinstance(domain, Ball):
        d = float(geometry.delta(domain, x))
        return IntegralResult(-math.log(d * (2.0 * domain.radius - d)),
                              0.0, 0)
    mean, change = _log_mean(geometry._spectral(domain)[0])
    q = float(geometry._level(domain, x[None])[0])
    value = mean - math.log1p(-q)
    spread = float(np.abs(x) @ np.abs(domain.matrix) @ np.abs(x))
    err = change + math.ulp(1.0) * (4.0 * spread / (1.0 - q) + abs(value))
    return IntegralResult(value, err, 0, quad._tol_ok(value, err, cfg))


# ---------------------------------------------------------------------------
# Nonlocal normal derivative.
# ---------------------------------------------------------------------------

def _exterior_radial(u, ball: Ball, t: float, z, cfg: QuadConfig,
                     scale: float) -> IntegralResult:
    """``scale int_ball (u(z) - u(y)) |z - y|^(-N-2t) dy``, ``0 <= t < 1``,
    at ``z`` outside ``ball`` for ``u`` radial about its centre: ``scale
    int_0^R (u(z) - u(rho)) rho^(N-1) M drho`` with the closed sphere mean
    ``M`` (:func:`kernels._exterior_mean`) at ``r - rho = (r - R) + (R -
    rho)``.  The kernel peaks at ``R`` on the scale ``r - R``, so the rule
    grades there ``ceil(log2(R / (r - R)))`` levels deeper."""
    N, R = ball.dim, ball.radius
    u_z = quad._centre_value(u, z)
    gap = float(np.linalg.norm(z - ball.center_array)) - R
    deeper = max(0, math.ceil(math.log2(R / gap)))
    bp = getattr(u, "boundary_power", None)

    def radial_pass(_, n_rad, levels):
        rho, _, sigma, w = quad.offset_rule(0.0, R, n_rad, None,
                                            (bp or 0.0, levels + deeper))
        mean = kernels._exterior_mean(N, t, R + gap, rho, gap + sigma)
        vals = (u_z - kernels._radial_data(u, ball, rho)) \
            * rho ** (N - 1) * mean
        return float(w @ vals), len(rho)

    return quad._two_pass(radial_pass, (0, cfg.radial_order,
                                        min(cfg.max_subdiv, 24)),
                          cfg, scale=scale, floor=1e-15)


def nonlocal_normal_derivative(u, s, z, cfg: QuadConfig | None = None
                               ) -> IntegralResult:
    """``N_s u(z) = c(N,s) int_Omega (u(z) - u(y)) / |z-y|^(N+2s) dy`` at
    exterior ``z``, ``0 < s < 1``.

    For fields supported in the closure of Omega this equals
    ``(-Delta)^s u(z)``: the principal-value integral is proper at
    exterior points and the two expressions integrate the same function.
    A field radial about the centre of its ball takes one integral in
    ``|y - centre|`` (:func:`_exterior_radial`), others the rays of the
    cone under which ``z`` sees the domain.
    """
    cfg = cfg or QuadConfig()
    s = float(as_order(s, include_high=False))
    N = _field_dim(u)
    dom = getattr(u, "domain", None)
    if dom is None:
        raise DomainError("the nonlocal normal derivative needs a field "
                          "with a domain")
    z = np.asarray(z, dtype=float)
    if geometry.delta(dom, z) >= 0.0:
        raise DomainError("the nonlocal normal derivative is evaluated "
                          "outside the closure of the domain")
    c = frac_normalization(N, s)
    if quad.centred_radial(u, dom):
        return _exterior_radial(u, dom, s, z, cfg, c)
    u_z = quad._centre_value(u, z)

    # The domain is seen from z under a finite cone; integrate directions
    # over that cone only, graded toward its rim, where the chord length
    # collapses with a square-root kink.  (For an ellipsoid the cone of
    # its circumscribed sphere is used; misses inside it are skipped.)
    center = dom.center_array
    _, diam = geometry.measures(dom)
    cz = center - z
    q0 = float(np.linalg.norm(cz))
    sin_a = min(1.0, 0.5 * diam / max(q0, 1e-300))

    def one_pass(n_mu, n_rad, levels):
        def ring_pass(dirs, w_dir):
            # Spans per direction, not per ring: on an ellipsoid they vary
            # along a ring of the cone.
            t_lo, t_hi, hit = geometry.ray_spans(dom, z, dirs)
            a = np.maximum(t_lo, 0.0)
            idx = np.nonzero(hit & (t_hi > a))[0]
            sums, evals = quad.ray_sums(
                u, z, dirs, idx, a[idx], t_hi[idx],
                quad.unit_power_rule(0.0, 0.0, n_rad, levels),
                lambda t, v: (u_z - v) * t ** (-1.0 - 2.0 * s))
            return float(w_dir @ sums), evals

        if N == 2:
            alpha = math.asin(sin_a) if sin_a < 1.0 else math.pi
            a_hat = cz / max(q0, 1e-300)
            e1 = np.array([-a_hat[1], a_hat[0]])
            th, w_dir = quad.map_rule(
                quad.unit_power_rule(0.0, 0.0, n_mu, levels), -alpha, alpha)
            dirs = np.cos(th)[:, None] * a_hat[None, :] \
                + np.sin(th)[:, None] * e1[None, :]
            return ring_pass(dirs, w_dir)
        # The doubling is judged on the normalized value, the units of the
        # result and of the difference it returns.
        mu_lo = -1.0 if sin_a >= 1.0 else math.sqrt(1.0 - sin_a * sin_a)
        return quad.azimuth_rings(ring_pass, cz, n_mu, levels,
                                  min(128, max(16, 6 * n_mu)), cfg,
                                  mu_lo=mu_lo, value=lambda v: c * v)

    return quad._two_pass(one_pass,
                          (max(10, cfg.angular_order // 6), cfg.radial_order,
                           min(cfg.max_subdiv, 24)),
                          cfg, scale=c, floor=1e-15)


# ---------------------------------------------------------------------------
# Solution-operator field.
# ---------------------------------------------------------------------------

def restriction_ws(domain: Domain, f, s, cfg: QuadConfig | None = None
                   ) -> ScalarField:
    """The solution ``u_s = G_s f`` as a compactly supported field.

    Data radial about the centre of the ball only
    (:func:`~fraclab.quadrature.centred_radial`), ``x`` measured from it:
    the smooth quotient ``u_s(x) / (R^2-|x|^2)^s`` is a chopped Chebyshev
    series in ``2|x|^2/R^2 - 1`` sampled by ``green_apply`` (see
    :func:`quadrature._chebyshev_profile`; for polynomial data the
    quotient is a polynomial in ``|x|^2``, so it chops after a handful of
    solves).  Clenshaw recurrence evaluates it at all points at once, and
    downstream operators see the boundary factor ``(R^2-|x|^2)^s`` exactly
    instead of chasing it numerically.  The coefficients are built once
    per data ``cache_token``, ball, order and ``QuadConfig``: that
    ``quad._data_key`` is both their store key and the field's
    ``cache_token``, so a field built at another config is other data
    downstream.  Every call returns a fresh field.
    """
    ball = kernels._require_ball(domain, "the solution-operator field")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    if not quad.centred_radial(f, ball):
        raise CapabilityError("the tabulated solution field needs data "
                              "radial about the ball's centre; evaluate "
                              "green_apply pointwise instead")
    N, R = ball.dim, ball.radius
    c0 = ball.center_array

    def quotient(xi):
        r2 = 0.5 * R * R * (xi + 1.0)
        pts = kernels._radial_points(ball, np.sqrt(r2))
        return np.array([
            kernels.green_apply(ball, f, s, pt, cfg).value
            / (R * R - q) ** s for pt, q in zip(pts, r2)])

    token = quad._data_key(f, "ws", ball, s, cfg)
    coef = quad._PROFILE_CACHE.fetch(
        token, lambda: quad._chebyshev_profile(quotient))

    def fn(pts):
        # The compact field passes inside points only.
        r2 = geometry.sq_dist(pts, c0)
        return (np.polynomial.chebyshev.chebval(2.0 * r2 / (R * R) - 1.0,
                                                coef)
                * np.maximum(R * R - r2, 0.0) ** s)

    return ScalarField(fn=fn, dim=N, domain=ball, radial=True,
                       is_compact=True, smooth_scale=R,
                       boundary_power=s, cache_token=token)


# ---------------------------------------------------------------------------
# Interchange residual.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterchangeReport:
    """Both sides of the interchange identity and their disagreement.

    ``boundary_term`` is the contribution carried by the complementary
    part of the identity (the piece that must not be dropped).
    """

    lhs: float
    rhs: float
    residual: float
    relative: float
    boundary_term: float


def _radial_field(ball: Ball, inner, outer, exterior_power=None
                  ) -> ScalarField:
    """A field radial about the centre of ``ball``: ``inner(r)`` inside,
    ``outer(r)`` elsewhere, ``r`` the distance to the centre."""
    def fn(pts):
        r = np.sqrt(geometry.sq_dist(pts, ball.center_array))
        ins = r < ball.radius
        out = np.empty(len(r))
        out[ins], out[~ins] = inner(r[ins]), outer(r[~ins])
        return out

    return ScalarField(fn=fn, dim=ball.dim, domain=ball, radial=True,
                       smooth_scale=0.5 * ball.radius,
                       exterior_power=exterior_power)


def _exterior_profile(ball: Ball, t: float, sample, token):
    """``sample(pt)`` outside ``ball`` as a function of the radius ``r``: a
    profile like ``(r - R)^(-t)`` at the boundary and ``r^(-N-2t)`` far
    away, times ``((r - R) / R)^t (r / R)^(N+t)``, tabulated in ``ln(r -
    R)`` on ``[ln(1e-6 R), ln(63 R)]`` and continued by those powers."""
    N, R = ball.dim, ball.radius

    def weight(e):
        return (e / R) ** t * (1.0 + e / R) ** (N + t)

    q = quad._log_profile(lambda e: weight(e) * np.array(
        [sample(pt) for pt in kernels._radial_points(ball, R + e)]),
        math.log(1e-6 * R), math.log(6.3e7), token)

    def profile(r):
        e = np.maximum(r - R, 1e-60 * R)
        return q(e) / weight(e)

    return profile


def interchange_residual(domain: Domain, f, s, x,
                         cfg: QuadConfig | None = None, *,
                         drop_boundary_term: bool = False
                         ) -> InterchangeReport:
    """Residual of interchanging the fractional and logarithmic
    Laplacians on the solution ``u_s = G_s f`` at the point ``x``.

    ``s = 1``: compares ``-Delta (L u_1)(x)`` with
    ``L[E f](x) + (P^c_1 f)(x)``; the complementary-kernel term carries
    the boundary contribution.

    ``s < 1``: ``(-Delta)^s u_s`` equals ``f`` inside the domain but
    equals the nonlocal normal derivative outside, so the right side is
    ``L[E f + 1_ext N_s u_s](x)``; the exterior tail is the boundary
    contribution here.  With ``drop_boundary_term`` the identity is
    evaluated without that contribution (it should then fail, which is
    the point of the flag).

    ``u_s`` is read through radial routes only: ``L u_s`` by
    :func:`log_laplacian_compact` inside and as ``-c_N int u_s(y) |z -
    y|^(-N) dy`` outside, ``N_s u_s`` by :func:`_exterior_radial`.  At ``s
    < 1`` the outer operators read these as profiles tabulated once per
    data ``cache_token``, ball, order and ``QuadConfig``, inside in
    ``ln(R^2 - r^2)``, which keeps them even in ``r``.
    """
    ball = kernels._require_ball(domain, "the interchange residual")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    x = np.asarray(x, dtype=float)
    N, R = ball.dim, ball.radius
    if not quad.centred_radial(f, ball):
        raise CapabilityError("the interchange residual needs data radial "
                              "about the ball's centre")
    u_s = restriction_ws(ball, f, s, cfg)
    lite = QuadConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                      angular_order=max(32, cfg.angular_order // 2),
                      radial_order=max(12, cfg.radial_order - 4),
                      max_subdiv=min(cfg.max_subdiv, 20))

    if s >= 1.0:
        h = 0.1 * float(geometry.delta(ball, x))
        lhs = _stencil_neg_laplacian([
            log_laplacian_compact(u_s, p, cfg).value
            for p in _stencil_points(x, h)], h)
        f_field = _compact_on(f, ball)
        boundary = kernels.comp_poisson_apply(ball, f_field, 1.0, x,
                                              lite).value
        rhs = log_laplacian_compact(f_field, x, cfg).value \
            + (0.0 if drop_boundary_term else boundary)
    else:
        # Each nested field is tabulated once as a radial profile, which
        # the outer operator reads.
        def key(kind):
            return quad._data_key(f, "interchange", kind, ball, s, cfg)

        def nu(pt):
            return nonlocal_normal_derivative(u_s, s, pt, cfg).value

        lap_in = quad._log_profile(lambda d: np.array([
            log_laplacian_compact(u_s, pt, cfg).value
            for pt in kernels._radial_points(ball, np.sqrt(R * R - d))]),
            math.log(1e-6 * R * R), -math.log(1e-6), key("L inside"))
        lap_out = _exterior_profile(
            ball, 0.0, lambda pt: _exterior_radial(
                u_s, ball, 0.0, pt, cfg, log_constants(N)[0]).value,
            key("L outside"))
        lhs = frac_laplacian(_radial_field(
            ball, lambda r: lap_in((R - r) * (R + r)), lap_out), s, x,
            lite).value
        outer, ext_p = (np.zeros_like, None) if drop_boundary_term else \
            (_exterior_profile(ball, s, nu, key("nu")), -s)
        rhs = log_laplacian(_radial_field(
            ball, lambda r: kernels._radial_data(f, ball, r), outer, ext_p),
            x, lite).value
        boundary = nu(kernels._radial_points(ball, 1.25 * R)[0])
    residual = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return InterchangeReport(lhs, rhs, residual, residual / scale, boundary)
