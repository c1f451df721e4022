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
from .geometry import Ball, Domain, Ellipsoid
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
        out = np.zeros(len(pts))
        inside = np.atleast_1d(geometry.contains(self.domain, pts))
        if inside.any():
            out[inside] = np.asarray(self.fn(pts[inside]), dtype=float)
        return out


def CompactField(fn, domain: Domain, **kw) -> ScalarField:
    """A field supported on the closure of ``domain`` (zero outside)."""
    return ScalarField(fn=fn, dim=domain.dim, domain=domain,
                       is_compact=True, **kw)


def _field_dim(u) -> int:
    dim = getattr(u, "dim", None)
    if dim is None:
        raise DomainError("operator arguments must carry a .dim attribute; "
                          "wrap plain callables in ScalarField")
    return int(dim)


def _scale_at(u, x) -> float:
    scale = getattr(u, "smooth_scale", None)
    if scale is None:
        return 1.0
    if callable(scale):
        return float(scale(x))
    return float(scale)


def _domain_center(domain: Domain) -> np.ndarray:
    if isinstance(domain, Ball):
        return domain.center_array
    return np.zeros(domain.dim)


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

    h = 0.02 * _scale_at(u, x)
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

def _crossing_segments(domain: Domain | None, x: np.ndarray,
                       dirs: np.ndarray, lo: float, hi, ext_p: float | None
                       ) -> tuple[np.ndarray, ...]:
    """Flat segments ``(idx, a, b, alpha_lo, alpha_hi)`` of ``[lo, hi]``
    along each direction, split at boundary crossings.

    The endpoint exponents feed :func:`~fraclab.quadrature.unit_power_rule`:
    ``0.0`` (plain dyadic grading, right for the bounded kinks of fields
    vanishing at the boundary) everywhere except on the *exterior* side of
    a crossing of a field with a declared ``exterior_power`` -- below an
    entry point and above an exit point -- where the layer ``dist^p`` gets
    Jacobi panels of matching exponent.  Crossings are matched to within a
    relative tolerance so a crossing sitting exactly on ``lo``/``hi``
    (e.g. the unit-split radius of the logarithmic Laplacian hitting the
    boundary) still flags the adjacent segment.  ``hi`` may be an array
    (per-direction upper ends).
    """
    n_dirs = len(dirs)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n_dirs,))
    eps = 1e-9 * np.maximum(1.0, np.abs(hi))
    if domain is None:
        t_lo = t_hi = np.full(n_dirs, np.nan)
    else:
        t_lo, t_hi, _ = geometry.ray_spans(domain, x, dirs)
    cuts = np.column_stack([t_lo, t_hi])
    inside = ((float(lo) + eps)[:, None] < cuts) & (cuts < (hi - eps)[:, None])
    cuts[~inside] = np.nan
    idx, a, b = quad._split_rays(float(lo), hi, cuts)
    alpha_lo = np.zeros(len(idx))
    alpha_hi = np.zeros(len(idx))
    if ext_p is not None:
        alpha_lo[np.abs(a - t_hi[idx]) <= eps[idx]] = float(ext_p)
        alpha_hi[np.abs(b - t_lo[idx]) <= eps[idx]] = float(ext_p)
    return idx, a, b, alpha_lo, alpha_hi


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

    def one_pass(m_ang, n_rad, levels):
        dirs, w_dir = quad.polar_directions(N, m_ang)
        evals = 0

        def sums(lo, hi, kernel, plain_levels):
            # One field pass per pair of endpoint exponents; segments with
            # plain grading at both ends take ``plain_levels``.
            nonlocal evals
            idx, a, b, al, ah = _crossing_segments(dom, x, dirs, lo, hi,
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
        # Per-direction far spans end one doubling past the last crossing
        # so the dyadic continuation never starts on a singular layer.
        if dom is not None:
            _, t_hi_c, hit_c = geometry.ray_spans(dom, x, dirs)
            far_hi = 2.0 * np.maximum(1.0, np.where(hit_c, t_hi_c, 1.0))
        else:
            far_hi = np.full(len(dirs), 2.0)
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

    levels = min(cfg.max_subdiv, 24)
    return quad._two_pass(one_pass,
                          (cfg.angular_order, cfg.radial_order, levels),
                          (max(16, cfg.angular_order // 2),
                           max(8, cfg.radial_order - 6), max(8, levels - 8)),
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
    """
    cfg = cfg or QuadConfig()
    N = _field_dim(u)
    dom = getattr(u, "domain", None)
    if dom is None or not bool(getattr(u, "is_compact", False)):
        raise DomainError("the domain form needs a compactly supported "
                          "field with a domain")
    c_N, rho_N = log_constants(N)
    x = np.asarray(x, dtype=float)
    if geometry.delta(dom, x) <= 0.0:
        raise DomainError("the domain form is evaluated inside the domain")
    u_x = quad._centre_value(u, x)

    def one_pass(m_ang, n_rad, levels):
        dirs, w_dir = quad.polar_directions(N, m_ang)
        _, t_hi, _ = geometry.ray_spans(dom, x, dirs)
        sums, evals = quad.ray_sums(
            u, x, dirs, np.arange(len(dirs)), np.zeros(len(dirs)), t_hi,
            quad.unit_power_rule(0.0, 0.0, n_rad, levels),
            lambda t, v: (u_x - v) / t)
        return float(w_dir @ sums), evals

    levels = min(cfg.max_subdiv, 24)
    h_res = h_omega(dom, x, cfg)
    shift = IntegralResult((h_res.value + rho_N) * u_x,
                           h_res.error_estimate * abs(u_x), h_res.evaluations)
    return quad._two_pass(one_pass,
                          (cfg.angular_order, cfg.radial_order, levels),
                          (max(16, cfg.angular_order // 2),
                           max(8, cfg.radial_order - 6), max(8, levels - 8)),
                          cfg, scale=c_N, shift=shift, floor=1e-15)


# ---------------------------------------------------------------------------
# Geometry weight h_Omega.
# ---------------------------------------------------------------------------

def _circle_quadric_measure(A: np.ndarray, c: np.ndarray, e1: np.ndarray,
                            e2: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Angular measure of ``{phi : g(c_i + rho_i (cos phi e1 + sin phi e2))
    < 0}`` for the quadric ``g(y) = y.A y - 1``, one row per circle.

    ``c`` is ``(rows, N)``, ``rho`` ``(rows,)`` and positive, and ``e1,
    e2`` an orthonormal pair shared by all rows.  On such a circle ``g``
    is the trigonometric polynomial ``a0 + a1 cos phi + b1 sin phi
    + a2 cos 2phi + b2 sin 2phi``; times ``z^2``, with ``z = e^{i phi}``,
    it is a quartic in ``z`` whose unit-modulus roots are the crossings.
    The roots of all rows come from one batched eigenvalue call on
    companion matrices (in row chunks of bounded size) and are polished by
    Newton steps on ``g(phi)``.  Every root angle cuts the circle, and the
    sign of ``g`` at the mid-angle of each arc between cuts says whether
    the arc is inside; off-circle roots merely add cuts, so a circle
    without crossings needs no special case.

    Where ``A`` restricted to the plane is a multiple of the identity
    (circles, and every plane section of a sphere) ``a2 = b2 = 0`` and the
    quartic degenerates: ``g = a0 + R cos(phi - psi)``, whose inside arc
    is ``2 pi - 2 arccos(-a0 / R)``.
    """
    p, q, r = e1 @ A @ e1, e2 @ A @ e2, e1 @ A @ e2
    Ac = c @ A
    a0 = np.einsum("ij,ij->i", Ac, c) - 1.0 + 0.5 * (p + q) * rho * rho
    a1, b1 = 2.0 * rho * (Ac @ e1), 2.0 * rho * (Ac @ e2)
    if math.hypot(p - q, 2.0 * r) <= 1e-13 * (p + q):
        # A circle whose extreme value of g is zero to within rounding of
        # g's terms touches the boundary: its arc is exactly 0 or 2 pi,
        # where arccos would turn one rounding error into sqrt(eps).
        R = np.hypot(a1, b1)
        tol = 16.0 * np.finfo(float).eps * (np.abs(a0) + 1.0 + R)
        with np.errstate(divide="ignore", invalid="ignore"):
            cstar = np.clip(-a0 / R, -1.0, 1.0)
        cstar = np.where(a0 >= 0.0, np.where(a0 - R >= -tol, -1.0, cstar),
                         np.where(a0 + R <= tol, 1.0, cstar))
        return 2.0 * math.pi - 2.0 * np.arccos(cstar)
    a2, b2 = 0.5 * (p - q) * rho * rho, r * rho * rho

    out = np.empty(len(rho))
    for sl in quad.direction_chunks(len(rho), 16):
        k0, k1, l1, k2, l2 = (v[sl, None] for v in (a0, a1, b1, a2, b2))

        def g(ph):
            return (k0 + k1 * np.cos(ph) + l1 * np.sin(ph)
                    + k2 * np.cos(2.0 * ph) + l2 * np.sin(2.0 * ph))

        def dg(ph):
            return (l1 * np.cos(ph) - k1 * np.sin(ph)
                    + 2.0 * (l2 * np.cos(2.0 * ph) - k2 * np.sin(2.0 * ph)))

        lead = 0.5 * (k2 - 1j * l2)
        comp = np.zeros((len(lead), 4, 4), dtype=complex)
        comp[:, 0, :] = -np.concatenate(
            [0.5 * (k1 - 1j * l1), k0, 0.5 * (k1 + 1j * l1), np.conj(lead)],
            axis=1) / lead
        comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
        phi = np.angle(np.linalg.eigvals(comp))
        for _ in range(2):
            with np.errstate(divide="ignore", invalid="ignore"):
                step = g(phi) / dg(phi)
            phi = np.where(np.abs(step) < 1e-6, phi - step, phi)
        phi = np.sort(np.mod(phi, 2.0 * math.pi), axis=1)
        ends = np.concatenate([phi, phi[:, :1] + 2.0 * math.pi], axis=1)
        mid = 0.5 * (ends[:, 1:] + ends[:, :-1])
        out[sl] = np.where(g(mid) < 0.0, np.diff(ends, axis=1), 0.0).sum(1)
    return out


def _arc_inside_ellipsoid(ell: Ellipsoid, x: np.ndarray, t) -> np.ndarray:
    """Angular measure of directions with ``x + t theta`` inside the
    ellipsoid, for an array of radii ``t``.

    Dimension 2: the circle ``|y - x| = t`` itself, exact up to rounding.
    Dimension 3: exact arcs on the latitude circles of a 48-node Gauss
    rule in the cosine ``mu`` of the angle to ``x`` (to the third axis at
    the centre), summed with its weights.  The rule does not resolve the
    kinks of the latitude integrand where a latitude circle touches the
    boundary.  Both cut all circles in one call of
    :func:`_circle_quadric_measure`.
    """
    A = ell.matrix
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if ell.dim == 2:
        e1, e2 = np.eye(2)
        return _circle_quadric_measure(A, np.broadcast_to(x, (len(t), 2)),
                                       e1, e2, t)
    mu, wmu = quad.map_rule(quad._gauss_unit(48), -1.0, 1.0)
    nx = np.linalg.norm(x)
    e3 = x / nx if nx > 0.0 else np.array([0.0, 0.0, 1.0])
    tmp = np.array([1.0, 0.0, 0.0])
    if abs(e3 @ tmp) > 0.9:
        tmp = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(e3, tmp)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e3, e1)
    tm = np.outer(t, mu).ravel()
    rho = np.outer(t, np.sqrt(1.0 - mu * mu)).ravel()
    arcs = _circle_quadric_measure(A, x + tm[:, None] * e3, e1, e2, rho)
    return arcs.reshape(len(t), len(mu)) @ wmu


def h_omega(domain: Domain, x, cfg: QuadConfig | None = None
            ) -> IntegralResult:
    """Geometry weight of the domain form of the logarithmic Laplacian:

    ``h(x) = c_N [ int_{B_1(x) \\ Omega} - int_{Omega \\ B_1(x)} ]
             |x-y|^{-N} dy``.

    Radially, with ``A(t)`` the angular measure of directions staying
    inside Omega at distance ``t``, the two parts are
    ``int_0^1 (sigma_N - A)/t dt`` and ``int_1^inf A/t dt``.  ``A`` is
    exactly ``sigma_N`` below the boundary distance and exactly 0 beyond
    the farthest boundary point, so those stretches integrate to
    logarithms and the quadrature only sees the transition region, whose
    endpoint square-root kinks the graded rule absorbs.

    On a ball ``B_R(c)`` the weight is the closed form
    ``-ln(R^2 - |x - c|^2) = -ln(delta (2R - delta))`` with
    ``delta = R - |x - c|``, which does not cancel near the boundary; it
    is returned with error 0 and no evaluations.  On an ellipsoid every
    radial node of a panel is cut in one batched call: in the plane
    ``A(t)`` is the exact arc of the circle ``|y - x| = t`` inside the
    ellipse; in space it sums exact arcs over the latitude circles of a
    48-node rule in the polar cosine (see :func:`_arc_inside_ellipsoid`).
    """
    cfg = cfg or QuadConfig()
    x = np.asarray(x, dtype=float)
    N = domain.dim
    c_N, _ = log_constants(N)
    d = float(geometry.delta(domain, x))
    if d <= 0.0:
        raise DomainError("h_Omega is evaluated inside the domain")
    if isinstance(domain, Ball):
        return IntegralResult(-math.log(d * (2.0 * domain.radius - d)),
                              0.0, 0)
    sigma = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    _, diam = geometry.measures(domain)
    t_far = float(np.linalg.norm(x)) + 0.5 * diam    # centred at 0

    # The arc measure kinks where the sphere |y - x| = t is tangent to
    # the boundary; for a centered evaluation point these tangency radii
    # are the distances to the principal-axis endpoints, which remain good
    # panel marks nearby.
    dvals, Q, _, _ = geometry._spectral(domain)
    axes = dvals ** -0.5
    inner_breaks = []
    for i in range(N):
        for sgn in (1.0, -1.0):
            inner_breaks.append(
                float(np.linalg.norm(x - sgn * axes[i] * Q[:, i])))
    n_base = min(cfg.radial_order, 12)

    def seg(lo, hi, weight, n, levels):
        # int_lo^hi weight(A(t)) / t dt
        if hi - lo <= 1e-15 * max(1.0, hi):
            return 0.0, 0
        t, wts = quad._breakpoint_rule(lo, hi, inner_breaks, n, levels)
        arc = _arc_inside_ellipsoid(domain, x, t)
        return float(wts @ (weight(arc) / t)), len(t)

    def one_pass(n, levels):
        evals = 0
        near = far = 0.0
        if t_far < 1.0:
            near += sigma * math.log(1.0 / t_far)
        hi_n = min(1.0, t_far)
        if d < hi_n:
            v, e = seg(d, hi_n, lambda a: sigma - a, n, levels)
            near, evals = near + v, evals + e
        if d > 1.0:
            far += sigma * math.log(d)
        lo_f = max(1.0, d)
        if t_far > lo_f:
            v, e = seg(lo_f, t_far, lambda a: a, n, levels)
            far, evals = far + v, evals + e
        return near - far, evals

    levels = min(cfg.max_subdiv, 10)
    return quad._two_pass(one_pass, (n_base, levels),
                          (max(6, n_base - 6), max(6, levels - 8)), cfg,
                          scale=c_N, floor=1e-15)


# ---------------------------------------------------------------------------
# Nonlocal normal derivative.
# ---------------------------------------------------------------------------

def nonlocal_normal_derivative(u, s, z, cfg: QuadConfig | None = None
                               ) -> IntegralResult:
    """``N_s u(z) = c(N,s) int_Omega (u(z) - u(y)) / |z-y|^(N+2s) dy`` at
    exterior ``z``, ``0 < s < 1``.

    For fields supported in the closure of Omega this equals
    ``(-Delta)^s u(z)``: the principal-value integral is proper at
    exterior points and the two expressions integrate the same function.
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
    u_z = quad._centre_value(u, z)

    # The domain is seen from z under a finite cone; integrate directions
    # over that cone only, graded toward its rim, where the chord length
    # collapses with a square-root kink.  (For an ellipsoid the cone of
    # its circumscribed sphere is used; misses inside it are skipped.)
    center = _domain_center(dom)
    _, diam = geometry.measures(dom)
    cz = center - z
    q0 = float(np.linalg.norm(cz))
    sin_a = min(1.0, 0.5 * diam / max(q0, 1e-300))
    axisym = bool(getattr(u, "radial", False)) \
        and isinstance(dom, geometry.Ball) \
        and float(np.linalg.norm(dom.center_array)) == 0.0

    def one_pass(n_mu, n_rad, levels):
        if N == 2:
            alpha = math.asin(sin_a) if sin_a < 1.0 else math.pi
            a_hat = cz / max(q0, 1e-300)
            e1 = np.array([-a_hat[1], a_hat[0]])
            th, w_dir = quad._breakpoint_rule(-alpha, alpha, (), n_mu,
                                              levels)
            dirs = np.cos(th)[:, None] * a_hat[None, :] \
                + np.sin(th)[:, None] * e1[None, :]
        else:
            mu_lo = -1.0 if sin_a >= 1.0 else math.sqrt(1.0 - sin_a * sin_a)
            n_phi = None if axisym else int(min(128, max(16, 6 * n_mu)))
            dirs, w_dir = quad.layered_directions(cz, "cone", n_mu, levels,
                                                  n_phi, mu_lo=mu_lo)
        t_lo, t_hi, hit = geometry.ray_spans(dom, z, dirs)
        a = np.maximum(t_lo, 0.0)
        idx = np.nonzero(hit & (t_hi > a))[0]
        sums, evals = quad.ray_sums(
            u, z, dirs, idx, a[idx], t_hi[idx],
            quad.unit_power_rule(0.0, 0.0, n_rad, levels),
            lambda t, v: (u_z - v) * t ** (-1.0 - 2.0 * s))
        return float(w_dir @ sums), evals

    levels = min(cfg.max_subdiv, 24)
    return quad._two_pass(one_pass,
                          (max(10, cfg.angular_order // 6), cfg.radial_order,
                           levels),
                          (max(8, cfg.angular_order // 12),
                           max(8, cfg.radial_order - 6), max(8, levels - 8)),
                          cfg, scale=c, floor=1e-15)


# ---------------------------------------------------------------------------
# Solution-operator field.
# ---------------------------------------------------------------------------

def restriction_ws(domain: Domain, f, s, cfg: QuadConfig | None = None
                   ) -> ScalarField:
    """The solution ``u_s = G_s f`` as a compactly supported field.

    Radial data on a ball: the smooth quotient ``u_s(x) / (R^2-|x|^2)^s``
    is a chopped Chebyshev series in ``2|x|^2/R^2 - 1`` sampled by
    ``green_apply`` (see :func:`quadrature._chebyshev_profile`; for
    polynomial data the quotient is a polynomial in ``|x|^2``, so it chops
    after a handful of solves).  Clenshaw recurrence evaluates it at all
    points at once, and downstream operators see the boundary factor
    ``(R^2-|x|^2)^s`` exactly instead of chasing it numerically.
    """
    ball = kernels._require_ball(domain, "the solution-operator field")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    if not bool(getattr(f, "radial", False)):
        raise CapabilityError("the tabulated solution field needs radial "
                              "data; evaluate green_apply pointwise instead")
    N, R = ball.dim, ball.radius
    c0 = ball.center_array

    def quotient(xi):
        out = np.empty(len(xi))
        for i, r2 in enumerate(0.5 * R * R * (xi + 1.0)):
            pt = c0.copy()
            pt[0] += math.sqrt(r2)
            out[i] = kernels.green_apply(
                ball, f, s, pt, cfg,
                boundary_power=getattr(f, "boundary_power", None)
            ).value / (R * R - r2) ** s
        return out

    coef = quad._chebyshev_profile(quotient)

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dx = pts - c0[None, :]
        r2 = np.einsum("ij,ij->i", dx, dx)
        out = np.zeros(len(pts))
        inside = r2 < R * R
        r2 = r2[inside]
        out[inside] = (np.polynomial.chebyshev.chebval(
            2.0 * r2 / (R * R) - 1.0, coef) * (R * R - r2) ** s)
        return out

    return ScalarField(fn=fn, dim=N, domain=ball, radial=True,
                       is_compact=True, smooth_scale=R,
                       boundary_power=s,
                       cache_token=kernels._derived_token(f, "ws", ball, s))


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


def _radial_interp_field(ball: Ball, inner_fn, outer_fn, decay: float,
                         n_in: int = 40, n_out: int = 40,
                         ext_power: float | None = None) -> ScalarField:
    """Field from two radial profiles: ``inner_fn(r)`` sampled at
    Chebyshev nodes in ``r^2`` inside the ball, ``outer_fn(r)`` sampled
    geometrically in ``r - R`` outside, splined separately (the kink at
    the boundary stays a quadrature breakpoint), with an ``r^-decay``
    power tail beyond the sampled range.

    ``ext_power`` declares the algebraic behaviour ``(r - R)^ext_power``
    of the outer profile at the boundary; below the innermost sample the
    field is then continued by that power law (instead of clamping),
    and the metadata is passed on so operators grade their panels.
    """
    from scipy.interpolate import CubicSpline

    N, R = ball.dim, ball.radius
    c0 = ball.center_array
    xi = np.cos((2.0 * np.arange(n_in) + 1.0) * math.pi / (2.0 * n_in))
    r_in = np.sqrt(0.5 * R * R * (xi + 1.0))[::-1]
    r_in = np.concatenate([[0.0], r_in, [R * (1.0 - 1e-7)]])
    v_in = np.array([float(inner_fn(r)) for r in r_in])
    sp_in = CubicSpline(r_in ** 2, v_in)

    e_out = np.geomspace(1e-6 * R, 63.0 * R, n_out)
    r_out = R + e_out
    v_out = np.array([float(outer_fn(r)) for r in r_out])
    sp_out = CubicSpline(np.log(e_out), v_out)
    e0, v0 = float(e_out[0]), float(v_out[0])
    r_hi = float(r_out[-1])
    v_hi = float(v_out[-1])

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts - c0[None, :], axis=1)
        out = np.empty(len(r))
        ins = r < R
        out[ins] = sp_in(r[ins] ** 2)
        mid = (~ins) & (r <= r_hi)
        e = np.clip(r[mid] - R, 1e-60 * R, None)
        vals = sp_out(np.log(np.clip(e, e0, None)))
        if ext_power is not None:
            tiny = e < e0
            vals[tiny] = v0 * (e[tiny] / e0) ** ext_power
        out[mid] = vals
        farm = r > r_hi
        out[farm] = v_hi * (r_hi / r[farm]) ** decay
        return out

    return ScalarField(fn=fn, dim=N, domain=ball, radial=True,
                       smooth_scale=0.5 * R, exterior_power=ext_power)


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
    """
    ball = kernels._require_ball(domain, "the interchange residual")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    x = np.asarray(x, dtype=float)
    N, R = ball.dim, ball.radius
    c0 = ball.center_array
    if not bool(getattr(f, "radial", False)):
        raise CapabilityError("the interchange residual needs radial data")
    u_s = restriction_ws(ball, f, s, cfg)
    lite = QuadConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                      angular_order=max(32, cfg.angular_order // 2),
                      radial_order=max(12, cfg.radial_order - 4),
                      max_subdiv=min(cfg.max_subdiv, 20))

    f_field = CompactField(lambda p: np.asarray(f(p), dtype=float),
                           ball, radial=True,
                           cache_token=kernels._field_cache_token(f))

    if s >= 1.0:
        d = float(geometry.delta(ball, x))
        h = 0.1 * d
        lvals = np.array([log_laplacian(u_s, p, lite).value
                          for p in _stencil_points(x, h)])
        lhs = _stencil_neg_laplacian(lvals, h)
        interior = log_laplacian(f_field, x, lite).value
        boundary = kernels.comp_poisson_apply(ball, f_field, 1.0, x,
                                              lite).value
        rhs = interior + (0.0 if drop_boundary_term else boundary)
        residual = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        return InterchangeReport(lhs, rhs, residual, residual / scale,
                                 boundary)

    # s < 1.  Both sides nest operator evaluations; the data and hence
    # every intermediate field are radial, so each nested field is
    # tabulated once as a radial profile and the outer operator works on
    # the (cheap) interpolant.
    prof_cfg = QuadConfig(rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
                          angular_order=32, radial_order=12,
                          max_subdiv=16)

    def lprofile(r):
        pt = c0.copy()
        pt[0] += r
        return log_laplacian(u_s, pt, prof_cfg).value

    lfield = _radial_interp_field(ball, lprofile, lprofile, float(N))
    lhs = frac_laplacian(lfield, s, x, lite).value

    def nu_profile(r):
        pt = c0.copy()
        pt[0] += r
        return nonlocal_normal_derivative(u_s, s, pt, prof_cfg).value

    nu_field = _radial_interp_field(ball, lambda r: 0.0, nu_profile,
                                    float(N) + 2.0 * s, ext_power=-s)

    def rhs_fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.zeros(len(pts))
        inside = np.atleast_1d(geometry.contains(ball, pts))
        if inside.any():
            out[inside] = np.asarray(f(pts[inside]), dtype=float)
        if (~inside).any() and not drop_boundary_term:
            out[~inside] = nu_field(pts[~inside])
        return out

    rhs_field = ScalarField(fn=rhs_fn, dim=N, domain=ball, radial=True,
                            smooth_scale=0.5 * R,
                            exterior_power=(None if drop_boundary_term
                                            else -s))
    rhs = log_laplacian(rhs_field, x, lite).value
    boundary = nu_profile(1.25 * R)
    residual = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return InterchangeReport(lhs, rhs, residual, residual / scale, boundary)
