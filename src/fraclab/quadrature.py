"""The numerical-integration engine behind every operator in the package.

Design notes
------------
All deterministic rules reduce to one primitive: a composite rule on the
unit interval whose endpoint behaviour ``x^a (1-x)^b`` is handled by a
Gauss-Jacobi micro-segment at each declared endpoint, glued to geometric
dyadic refinement with plain Gauss-Legendre panels in between.  Per-panel
relative accuracy of Gauss-Legendre on a dyadic panel is self-similar (the
nearest singularity sits one panel-length away), so the composite error is
at rounding level for any mix of endpoint powers, while the micro-segment
removes the truncation error that pure grading would leave for strong
singularities.  This is what keeps the boundary-layer mass of the kernels
(which concentrates below distance 1e-14 of the boundary as s -> 1) inside
the rule rather than lost under it.

Volume integrals are assembled in polar form around an interior point:
directions come from an equispaced circle rule (dimension 2, spectrally
accurate for the analytic angular dependence that arises here) or a
Gauss x azimuth sphere rule (dimension 3); the exact ray/boundary
intersections from :mod:`fraclab.geometry` delimit the radial intervals.

Integrals along rays from a point (the logarithmic Laplacians, the
nonlocal normal derivative, the principal-value outer region and tails)
go through :func:`ray_sums`.  An operator lays out its ray segments as
flat arrays (direction index, start, end), one unit-interval rule is
mapped onto all of them, the field is called once per chunk of nodes
rather than once per segment, and the weighted integrand is reduced per
direction with ``np.bincount``.

Tabulated radial fields are chopped Chebyshev series from
:func:`_chebyshev_profile`, sampled only as densely as the data needs.

Every integration returns an :class:`IntegralResult` with a coarse/fine
error estimate and the evaluation count, formed in one place,
:func:`_two_pass`, for every quadrature in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import dct
from scipy.special import roots_jacobi

from .core import DivergenceError, DomainError, EvaluationError
from . import geometry
from .geometry import Ball, Domain

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_interior",
    "integrate_exterior",
    "integrate_pv_second_difference",
    "polar_directions",
    "layered_directions",
    "direction_chunks",
    "unit_power_rule",
    "map_rule",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and resolution knobs shared by all quadratures.

    ``rel_tol`` / ``abs_tol`` are targets the error estimate is compared
    against (results flag, not raise, when they miss).  ``max_subdiv``
    bounds the dyadic refinement depth toward singular endpoints.
    ``pv_inner_radius`` is the fraction of the local smoothness scale used
    as the inner radius of the principal-value split; values above 1/2
    would let the inner ball leak past the nearest boundary crossing.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_subdiv: int = 48
    pv_inner_radius: float = 0.25
    angular_order: int = 64
    radial_order: int = 16

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if not 0.0 < self.pv_inner_radius <= 0.5:
            raise DomainError("pv_inner_radius must lie in (0, 1/2]")
        if self.max_subdiv < 4:
            raise DomainError("max_subdiv must be at least 4")


DEFAULT_CONFIG = QuadConfig()


@dataclass(frozen=True)
class IntegralResult:
    """Value, an error estimate, and the number of integrand evaluations."""

    value: float
    error_estimate: float
    evaluations: int
    tolerance_ok: bool = True

    def __float__(self) -> float:
        return self.value


def _tol_ok(value: float, err: float, cfg: QuadConfig) -> bool:
    return err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))


def _two_pass(one_pass, fine_args, coarse_args, cfg: QuadConfig, *,
              scale=1.0, shift: IntegralResult | None = None, floor=1e-16
              ) -> IntegralResult:
    """The fine/coarse error policy shared by every quadrature.

    ``one_pass(*fine_args)`` and ``one_pass(*coarse_args)`` each return a
    raw value and an evaluation count.  The result is ``scale * fine``
    plus the separately computed term ``shift``; its error estimate is
    ``scale |fine - coarse|`` plus the error of ``shift`` plus
    ``floor |value|`` for rounding, and its evaluations are those of both
    passes and of ``shift``.
    """
    fine, n_f = one_pass(*fine_args)
    coarse, n_c = one_pass(*coarse_args)
    extra = shift or IntegralResult(0.0, 0.0, 0)
    value = scale * fine + extra.value
    err = scale * abs(fine - coarse) + extra.error_estimate \
        + floor * abs(value)
    return IntegralResult(value, err, n_f + n_c + extra.evaluations,
                          _tol_ok(value, err, cfg))


# ---------------------------------------------------------------------------
# Cached one-dimensional rules.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _gauss_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=256)
def _jacobi_unit(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating ``t^beta * g(t)`` on [0, 1] from g-values.

    Built from the Gauss-Jacobi rule with weight ``(1 + x)^beta`` on
    [-1, 1].  ``beta > -1``.
    """
    if beta <= -1.0:
        raise DomainError(f"endpoint exponent {beta} is not integrable")
    x, w = roots_jacobi(n, 0.0, beta)
    t = 0.5 * (x + 1.0)
    return t, w * 2.0 ** (-beta - 1.0)


def polar_directions(N: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights with ``sum(w) = |S^(N-1)|``."""
    if N == 2:
        t = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    dirs, w = geometry._sphere_rule(max(6, m // 4))
    return dirs, w


def _axis_frame(axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed orthonormal frame whose first vector follows ``axis``
    (``e_z`` when the axis vanishes)."""
    a = np.asarray(axis, dtype=float)
    na = float(np.linalg.norm(a))
    a = a / na if na > 0.0 else np.array([0.0, 0.0, 1.0])
    e1 = np.zeros(3)
    e1[int(np.argmin(np.abs(a)))] = 1.0
    e1 = e1 - float(e1 @ a) * a
    e1 /= float(np.linalg.norm(e1))
    return a, e1, np.cross(a, e1)


def layered_directions(axis, layout: str, n_mu: int, levels: int,
                       n_phi: int | None = None, mu_lo: float = -1.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Direction rule on the 2-sphere for integrands with an angular layer.

    A product (equal-area) sphere rule needs ``O(1/width^2)`` points to
    resolve a feature of small angular width, which is hopeless for
    boundary layers; instead the polar cosine ``mu`` against ``axis`` gets
    a dyadically graded composite rule whose shape names the feature:

    * ``"cap"``     -- graded toward ``mu = 1``: kernels peaking at the
      boundary point nearest an off-center base point;
    * ``"equator"`` -- graded toward ``mu = 0`` from both sides: ray spans
      of interior polar integrals kink across the tangency circle;
    * ``"cone"``    -- supported on ``mu in [mu_lo, 1]`` and graded toward
      both edges: an exterior point sees a convex body under the half
      angle ``arccos(mu_lo)`` and the spans collapse at the rim.

    ``n_phi = None`` declares the integrand axisymmetric around ``axis``:
    a single representative azimuth is used and the exact factor
    ``2 pi`` is folded into the weights.  Otherwise the azimuth gets an
    ``n_phi``-point trapezoid rule (spectral in smooth angular
    dependence).  Weights carry the surface measure of the covered zone.
    """
    a, e1, e2 = _axis_frame(axis)
    if layout == "cap":
        v, wv = unit_power_rule(0.0, None, n_mu, levels)
        mu, w_mu = 1.0 - 2.0 * v, 2.0 * wv
    elif layout == "equator":
        v, wv = unit_power_rule(0.0, None, n_mu, levels)
        mu = np.concatenate([v, -v])
        w_mu = np.concatenate([wv, wv])
    elif layout == "cone":
        mu, w_mu = _breakpoint_rule(float(mu_lo), 1.0, (), n_mu, levels)
    else:
        raise DomainError(f"unknown angular layout {layout!r}")
    mu = np.asarray(mu, dtype=float)
    sig = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
    if n_phi is None:
        dirs = mu[:, None] * a[None, :] + sig[:, None] * e1[None, :]
        return dirs, 2.0 * math.pi * np.asarray(w_mu, dtype=float)
    phi = 2.0 * math.pi * np.arange(int(n_phi)) / int(n_phi)
    ring = np.cos(phi)[:, None] * e1[None, :] \
        + np.sin(phi)[:, None] * e2[None, :]
    dirs = (mu[:, None, None] * a[None, None, :]
            + sig[:, None, None] * ring[None, :, :]).reshape(-1, 3)
    w = np.repeat(np.asarray(w_mu, dtype=float), int(n_phi)) \
        * (2.0 * math.pi / int(n_phi))
    return dirs, w


def direction_chunks(n_dirs: int, row_len: int, budget: int = 1_200_000):
    """Slices over a direction set keeping each ``directions x radial``
    work array under ``budget`` entries (bounds peak memory of polar
    quadratures regardless of how adaptive the angular rule grew)."""
    step = max(8, int(budget // max(int(row_len), 1)))
    for lo in range(0, int(n_dirs), step):
        yield slice(lo, min(lo + step, int(n_dirs)))


@lru_cache(maxsize=512)
def unit_power_rule(alpha_lo, alpha_hi, n: int, levels: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, 1] for integrands ``x^alpha_lo (1-x)^alpha_hi * smooth``.

    ``alpha_lo`` / ``alpha_hi`` may be ``None`` (endpoint is smooth: no
    refinement there) or a float > -1 (dyadic refinement toward the
    endpoint, with the innermost micro-segment integrated by a
    Gauss-Jacobi rule of matching exponent so no mass is truncated).  The
    returned weights apply directly to integrand *values*: the Jacobi
    weight has been divided back out at the micro-segment nodes.
    """
    pieces_t, pieces_w = [], []
    # Deeper refinement than ~26 dyadic levels would place nodes closer to
    # the endpoint than floating point can represent once the rule is
    # mapped to a generic interval; the Jacobi micro-segment already
    # captures the remaining mass exactly, so nothing is lost by capping.
    levels = min(int(levels), 26)

    def graded_end(alpha, lo_is_zero: bool):
        # Builds the rule on [0, 1/2] graded toward 0; mirrored for the
        # upper endpoint by the caller.
        h0 = 0.5 ** (levels + 1)
        tj, wj = _jacobi_unit(max(n, 20), float(alpha))
        # Micro-segment [0, h0]: integrate t^alpha g exactly, then divide
        # the weight by t^alpha so it applies to raw integrand values.
        t = tj * h0
        w = wj * h0 ** (alpha + 1.0) / t ** alpha
        seg_t, seg_w = [t], [w]
        xg, wg = _gauss_unit(n)
        lo = h0
        for _ in range(levels):
            hi = 2.0 * lo
            seg_t.append(lo + (hi - lo) * xg)
            seg_w.append((hi - lo) * wg)
            lo = hi
        t_all = np.concatenate(seg_t)
        w_all = np.concatenate(seg_w)
        if lo_is_zero:
            return t_all, w_all
        return 1.0 - t_all[::-1], w_all[::-1]

    def smooth_end(lo_is_zero: bool):
        xg, wg = _gauss_unit(n)
        if lo_is_zero:
            return 0.5 * xg, 0.5 * wg
        return 0.5 + 0.5 * xg, 0.5 * wg

    if alpha_lo is None:
        t, w = smooth_end(True)
    else:
        t, w = graded_end(alpha_lo, True)
    pieces_t.append(t)
    pieces_w.append(w)
    if alpha_hi is None:
        t, w = smooth_end(False)
    else:
        t, w = graded_end(alpha_hi, False)
    pieces_t.append(t)
    pieces_w.append(w)
    return np.concatenate(pieces_t), np.concatenate(pieces_w)


def map_rule(rule: tuple[np.ndarray, np.ndarray], a: float, b: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """Affine image of a unit-interval rule on [a, b]."""
    x, w = rule
    return a + (b - a) * x, (b - a) * w


def _breakpoint_rule(lo: float, hi: float, breaks, n: int, levels: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [lo, hi] refined dyadically toward interior kinks.

    ``breaks`` are points where the integrand has limited smoothness (e.g.
    a ray crossing the domain boundary, where fields kink like a fractional
    power).  Between consecutive marks the integrand is analytic, so each
    stretch gets a both-ends-graded rule; endpoint grading depth ``levels``
    keeps the kink error at the (gap)^(1+power) scale.
    """
    marks = [lo] + sorted(float(b) for b in breaks if lo < b < hi) + [hi]
    ts, ws = [], []
    rule = unit_power_rule(0.0, 0.0, n, levels)
    for a, b in zip(marks[:-1], marks[1:]):
        if b - a <= 0.0:
            continue
        t, w = map_rule(rule, a, b)
        ts.append(t)
        ws.append(w)
    return np.concatenate(ts), np.concatenate(ws)


# ---------------------------------------------------------------------------
# Chopped Chebyshev profiles.
# ---------------------------------------------------------------------------

CHEB_CHOP_TOL = 1e-10     # coefficients below this times the largest drop
CHEB_MAX_POINTS = 81      # 9 -> 27 -> 81 first-kind points; 9 * 3^k


def _chebyshev_profile(sample) -> np.ndarray:
    """Chopped Chebyshev coefficients, for ``chebval``, of the function
    that ``sample(xi)`` evaluates on an array of points in ``[-1, 1]``.

    It samples first-kind Chebyshev points, never the interval ends, at
    9, 27 and 81 nested points, so no point is sampled twice; a DCT-II
    gives the coefficients.  Once the last third of them lies below
    ``CHEB_CHOP_TOL`` times the largest, the series is cut after its last
    coefficient above that level (Aurentz and Trefethen, "Chopping a
    Chebyshev series", ACM TOMS 43, 2017); at ``CHEB_MAX_POINTS`` points
    all are kept.
    """
    m = CHEB_MAX_POINTS
    xi = np.cos((2.0 * np.arange(m) + 1.0) * math.pi / (2.0 * m))
    vals, sampled = np.empty(m), np.zeros(m, dtype=bool)
    n = 9
    while True:
        # The n-point level is every (m/n)-th point of the m-point one.
        idx = np.arange(m // n // 2, m, m // n)
        new = idx[~sampled[idx]]
        vals[new] = np.asarray(sample(xi[new]), dtype=float)
        sampled[new] = True
        coef = dct(vals[idx], type=2) / n
        coef[0] *= 0.5
        level = CHEB_CHOP_TOL * np.max(np.abs(coef))
        above = np.flatnonzero(np.abs(coef) > level)
        last = above[-1] if above.size else 0      # zero data: [0.0]
        if last < n - n // 3:
            return coef[:last + 1]
        if n >= m:
            return coef
        n *= 3


# ---------------------------------------------------------------------------
# Ray integrals.
# ---------------------------------------------------------------------------

def _split_rays(lo, hi, cuts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat segments ``(idx, a, b)`` of the per-direction intervals
    ``[lo, hi]`` cut at the finite entries of ``cuts`` (one row per
    direction, entries outside ``(lo, hi)`` already NaN).  Repeated cuts
    leave no empty segment; segments come direction by direction in
    increasing order."""
    cuts = np.asarray(cuts, dtype=float)
    n = len(cuts)
    marks = np.sort(np.column_stack([np.broadcast_to(lo, (n,)), cuts,
                                     np.broadcast_to(hi, (n,))]), axis=1)
    a, b = marks[:, :-1], marks[:, 1:]
    keep = b > a                      # NaN marks (sorted last) fail too
    return np.nonzero(keep)[0], a[keep], b[keep]


def _finite_values(f, pts) -> np.ndarray:
    """``f(pts)`` as floats, one value per row of ``pts``; a non-finite
    value raises :class:`EvaluationError` at its point."""
    vals = np.asarray(f(pts), dtype=float)
    if not np.isfinite(vals).all():
        bad = np.flatnonzero(~np.isfinite(vals))[0]
        raise EvaluationError("field returned a non-finite value",
                              point=pts[bad])
    return vals


def _centre_value(u, x) -> float:
    """``u(x)``, the value the ray operators difference against; a
    non-finite value raises :class:`EvaluationError` at ``x``."""
    return float(_finite_values(u, x[None, :])[0])


def ray_sums(u, x, dirs, idx, a, b, rule, kernel) -> tuple[np.ndarray, int]:
    """Per-direction sums of ``int_a^b kernel(t, u(x + t theta)) dt``.

    Segment ``k`` runs over ``[a[k], b[k]]`` along ``dirs[idx[k]]`` and
    gets the unit-interval ``rule`` mapped onto it.  The field is called
    once per chunk of segments (the :func:`direction_chunks` budget) on
    all their nodes; ``kernel`` maps the ``(segments, nodes)`` arrays of
    radii and field values to integrand values.  Returns the sums (one
    per row of ``dirs``) and the evaluation count.
    """
    x = np.asarray(x, dtype=float)
    xu, wu = rule
    idx = np.asarray(idx, dtype=np.intp)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sums = np.zeros(len(dirs))
    for sl in direction_chunks(len(idx), len(xu)):
        h = (b[sl] - a[sl])[:, None]
        t = a[sl, None] + h * xu[None, :]
        pts = x + t[:, :, None] * dirs[idx[sl]][:, None, :]
        vals = _finite_values(u, pts.reshape(-1, x.size)).reshape(t.shape)
        seg = np.einsum("kj,kj->k", kernel(t, vals), h * wu[None, :])
        sums += np.bincount(idx[sl], weights=seg, minlength=len(dirs))
    return sums, idx.size * len(xu)


# ---------------------------------------------------------------------------
# Interior integrals.
# ---------------------------------------------------------------------------

def _polar_interior_pass(domain, f, center, radial_power, boundary_power,
                         m_ang, n_rad, levels):
    N = domain.dim
    dirs, w_dir = polar_directions(N, m_ang)
    _, t_hi, hit = geometry.ray_spans(domain, center, dirs)
    if not hit.all() or (t_hi <= 0.0).any():
        raise DomainError("polar center must be an interior point")
    alpha_lo = (0.0 if radial_power is None else float(radial_power)) + (N - 1)
    alpha_hi = None if boundary_power is None else float(boundary_power)
    rule = unit_power_rule(alpha_lo, alpha_hi, n_rad, levels)
    xu, wu = rule
    t = t_hi[:, None] * xu[None, :]                      # (M, K)
    pts = center[None, None, :] + t[:, :, None] * dirs[:, None, :]
    vals = _finite_values(f, pts.reshape(-1, N)).reshape(t.shape)
    radial = (vals * t ** (N - 1)) @ wu
    value = float(w_dir @ (radial * t_hi))
    return value, t.size


def integrate_interior(domain: Domain, f, cfg: QuadConfig | None = None, *,
                       center=None, radial_power=None, boundary_power=None
                       ) -> IntegralResult:
    """Integral of ``f`` over the domain by a graded polar product rule.

    ``radial_power`` declares a point singularity ``|y - center|^p`` at the
    polar center, ``boundary_power`` a boundary concentration
    ``delta(y)^q``; both are optional and only sharpen the rule, they are
    not required for correctness on smooth integrands.
    """
    cfg = cfg or DEFAULT_CONFIG
    c = np.asarray(center, dtype=float) if center is not None else (
        domain.center_array if isinstance(domain, Ball)
        else np.zeros(domain.dim))
    levels = min(cfg.max_subdiv, 48)

    def one_pass(m_ang, n_rad, lv):
        return _polar_interior_pass(domain, f, c, radial_power,
                                    boundary_power, m_ang, n_rad, lv)

    return _two_pass(one_pass,
                     (cfg.angular_order, cfg.radial_order, levels),
                     (max(8, cfg.angular_order // 2),
                      max(6, cfg.radial_order - 6), max(4, levels - 8)),
                     cfg)


# ---------------------------------------------------------------------------
# Exterior integrals.
# ---------------------------------------------------------------------------

def _exterior_pass(domain, f, boundary_power, m_ang, n_rad, levels, cfg):
    """Polar exterior integral with a doubling tail and divergence probe."""
    N = domain.dim
    center = (domain.center_array if isinstance(domain, Ball)
              else np.zeros(N))
    dirs, w_dir = polar_directions(N, m_ang)
    _, t_hi, hit = geometry.ray_spans(domain, center, dirs)
    if not hit.all():
        raise DomainError("polar center must be an interior point")
    _, diam = geometry.measures(domain)

    evals = 0

    def block(lo_vec, hi_vec, rule):
        nonlocal evals
        xu, wu = rule
        t = lo_vec[:, None] + (hi_vec - lo_vec)[:, None] * xu[None, :]
        pts = center[None, None, :] + t[:, :, None] * dirs[:, None, :]
        vals = _finite_values(f, pts.reshape(-1, N)).reshape(t.shape)
        evals += t.size
        radial = (vals * t ** (N - 1)) @ wu
        return float(w_dir @ (radial * (hi_vec - lo_vec)))

    alpha = None if boundary_power is None else float(boundary_power)
    near_rule = unit_power_rule(alpha, None, n_rad, levels)
    smooth_rule = unit_power_rule(None, None, n_rad, 0)
    acc = block(t_hi, t_hi + diam, near_rule)

    lo = t_hi + diam
    contributions = []
    calm = 0
    for _ in range(70):
        hi = 2.0 * lo
        c_j = block(lo, hi, smooth_rule)
        contributions.append(c_j)
        lo = hi
        scale = max(abs(acc), cfg.abs_tol)
        if len(contributions) >= 3:
            last3 = [abs(v) for v in contributions[-3:]]
            if (last3[2] >= last3[1] >= last3[0]
                    and last3[2] > 1e-14 * scale):
                raise DivergenceError(
                    "exterior integral: dyadic tail blocks are not decaying "
                    f"(last contributions {last3})")
        acc += c_j
        if abs(c_j) < 0.25 * cfg.abs_tol + 1e-16 * abs(acc):
            calm += 1
            if calm >= 2:
                break
        else:
            calm = 0
    else:
        # Budget exhausted: sum the geometric tail from the observed ratio.
        ratio = abs(contributions[-1]) / max(abs(contributions[-2]), 1e-300)
        if ratio >= 0.95:
            raise DivergenceError("exterior integral: tail ratio ~ 1")
        acc += contributions[-1] * ratio / (1.0 - ratio)
    return acc, evals


def integrate_exterior(domain: Domain, f, cfg: QuadConfig | None = None, *,
                       boundary_power=None) -> IntegralResult:
    """Integral of ``f`` over the complement of the domain.

    ``boundary_power`` declares a ``delta(y)^q`` concentration at the
    boundary (e.g. ``-s`` for the exterior Poisson kernel).  The far field
    is integrated over dyadic radial blocks; if three consecutive blocks
    fail to decay the integral is declared divergent
    (:class:`~fraclab.core.DivergenceError`) rather than silently
    truncated.
    """
    cfg = cfg or DEFAULT_CONFIG
    levels = min(cfg.max_subdiv, 48)

    def one_pass(m_ang, n_rad, lv):
        return _exterior_pass(domain, f, boundary_power, m_ang, n_rad, lv,
                              cfg)

    return _two_pass(one_pass,
                     (cfg.angular_order, cfg.radial_order, levels),
                     (max(8, cfg.angular_order // 2),
                      max(6, cfg.radial_order - 6), max(4, levels - 8)),
                     cfg)


# ---------------------------------------------------------------------------
# Symmetrized principal value.
# ---------------------------------------------------------------------------

def integrate_pv_second_difference(u, x, s, cfg: QuadConfig | None = None, *,
                                   domain: Domain | None = None,
                                   inner_scale: float | None = None,
                                   compact_support: bool | None = None
                                   ) -> IntegralResult:
    """Symmetrized principal value ``int (2u(x) - u(x+z) - u(x-z)) / (2 |z|^(N+2s)) dz``.

    Returns the *unnormalized* integral; callers apply the fractional
    normalization themselves.  ``u`` must be twice differentiable near
    ``x`` on the scale ``inner_scale`` (defaulting to metadata on ``u``
    when present, else 1): inside ``pv_inner_radius * inner_scale`` the
    second difference is integrated against the exact ``t^(1-2s)`` radial
    weight, so the split radius never needs to chase the singularity.

    ``domain`` marks a boundary across which ``u`` loses smoothness
    (fields that vanish outside kink like ``delta^s`` there); ray crossings
    become quadrature breakpoints.  For compactly supported ``u`` the far
    tail is the exact power integral of ``2 u(x)``; otherwise the graded
    span runs one doubling past the last crossing (with panels matching a
    declared ``exterior_power`` layer outside the boundary) and the
    decaying part beyond it is integrated over dyadic blocks until
    negligible.
    """
    cfg = cfg or DEFAULT_CONFIG
    s = float(s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"principal value rule requires 0 < s < 1, got {s}")
    x = np.asarray(x, dtype=float)
    N = x.shape[0]
    if domain is None:
        domain = getattr(u, "domain", None)
    if inner_scale is None:
        scale_fn = getattr(u, "smooth_scale", None)
        inner_scale = float(scale_fn(x)) if scale_fn is not None else 1.0
    if compact_support is None:
        compact_support = bool(getattr(u, "is_compact", domain is not None))
    if not inner_scale > 0.0:
        raise DomainError("second-difference rule needs a positive smoothness scale")

    def one_pass(m_ang, n_rad, levels):
        return _pv_pass(u, x, s, N, domain, inner_scale, compact_support,
                        cfg, m_ang, n_rad, levels)

    lv = min(cfg.max_subdiv, 30)
    return _two_pass(one_pass, (cfg.angular_order, cfg.radial_order, lv),
                     (max(8, cfg.angular_order // 2),
                      max(6, cfg.radial_order - 6), max(4, lv - 6)), cfg)


def _pv_pass(u, x, s, N, domain, inner_scale, compact_support, cfg,
             m_ang, n_rad, levels):
    dirs, w_dir = polar_directions(N, m_ang)
    M = len(dirs)
    every = np.arange(M)
    both = np.concatenate([dirs, -dirs])
    r_in = cfg.pv_inner_radius * inner_scale
    u_x = _centre_value(u, x)
    evals = 0

    def sym_sums(idx, a, b, rule, kernel):
        # Rays along theta and -theta share their segments; half the sum of
        # the two integrates the symmetrized second difference.
        nonlocal evals
        sums, n = ray_sums(u, x, both, np.concatenate([idx, idx + M]),
                           np.tile(a, 2), np.tile(b, 2), rule, kernel)
        evals += n
        return 0.5 * float(w_dir @ (sums[:M] + sums[M:]))

    # Inner ball: the Jacobi rule carries the weight (t/r_in)^(1-2s); the
    # smooth part D(t)/t^2 is even and C^2.
    inner = sym_sums(every, np.zeros(M), np.full(M, r_in),
                     _jacobi_unit(24, 1.0 - 2.0 * s),
                     lambda t, v: (u_x - v) / t ** 2) * r_in ** (1.0 - 2.0 * s)

    # Outer region: breakpoints at the boundary crossings of both rays.  A
    # compact field ends at the farthest crossing.  Any other field runs
    # one doubling past it, so the dyadic tail never starts on a layer
    # outside the boundary, and its declared ``exterior_power`` grades the
    # panels on the exterior side of each crossing: above an exit, below
    # an entry.
    t_end = np.full(M, max(2.0 * r_in, 1.0))
    cuts = np.empty((M, 0))
    if domain is not None:
        t_lo, t_hi, _ = geometry.ray_spans(domain, x, both)
        cuts = np.column_stack([t_lo[:M], t_hi[:M], t_lo[M:], t_hi[M:]])
        cuts[~(cuts > r_in)] = np.nan
        last = np.fmax.reduce(cuts, axis=1)
        if not compact_support:
            last = 2.0 * last
        t_end = np.where(np.isnan(last), t_end, last)
        cuts[~(cuts < t_end[:, None])] = np.nan
    idx, a, b = _split_rays(r_in, t_end, cuts)
    alpha_lo, alpha_hi = np.zeros(len(idx)), np.zeros(len(idx))
    ext_p = getattr(u, "exterior_power", None)
    if ext_p is not None and not compact_support:
        seg_cuts = cuts[idx]
        alpha_lo[(a[:, None] == seg_cuts[:, 1::2]).any(axis=1)] = ext_p
        alpha_hi[(b[:, None] == seg_cuts[:, 0::2]).any(axis=1)] = ext_p
    outer = 0.0
    for pair in sorted(set(zip(alpha_lo.tolist(), alpha_hi.tolist()))):
        sel = (alpha_lo == pair[0]) & (alpha_hi == pair[1])
        outer += sym_sums(idx[sel], a[sel], b[sel],
                          unit_power_rule(*pair, n_rad, levels),
                          lambda t, v: (u_x - v) * t ** (-1.0 - 2.0 * s))

    # Far tail: the 2u(x) part is an exact power integral; a field that is
    # not compactly supported also has its decaying part subtracted over
    # dyadic blocks.
    tail = u_x * float(w_dir @ t_end ** (-2.0 * s)) / (2.0 * s)
    if not compact_support:
        lo = t_end
        for _ in range(60):
            c_j = sym_sums(every, lo, 2.0 * lo, _gauss_unit(n_rad),
                           lambda t, v: -v * t ** (-1.0 - 2.0 * s))
            tail += c_j
            lo = 2.0 * lo
            if abs(c_j) < 1e-17 * (abs(inner) + abs(outer) + abs(tail)) + 1e-300:
                break
    value = inner + outer + tail
    return value, evals
