"""Ball kernels: Green function, Poisson kernels, and the complementary
Poisson kernel with its Fubini-form application.

Stability conventions
---------------------
* For ``s < 1`` the Green function of the ball is ``pref d^(2s-N)
  int_0^r0 u^(s-1) (1 + u)^(-N/2) du``, ``d = |x - y|``, ``r0 = (R^2 -
  |x|^2)(R^2 - |y|^2) / (R d)^2``: ``green_apply``'s sphere factor
  :func:`_shell_factor` at ``a = b = 1`` (times 2 in space), with its
  Gauss-Jacobi block of weight ``u^(s-1)`` and Gauss panels in ``ln u``.
  Nothing of the size of ``kappa``, which grows like ``1 / (1 - s)`` in
  the plane, is subtracted: against 50-digit mpmath it is within 3.3e-15
  relative for ``0.01 <= s <= 0.999999`` and ``r0 <= 1e150``.
* ``green_apply``, ``poisson_extend`` and ``comp_poisson_apply`` never
  evaluate their kernels pointwise: closed integrals over spheres, degree
  by degree, meet the data's moments (:func:`_harmonic_sum`).
* Every integral across the boundary layer of the exterior uses the
  *distance* ``E = q - R`` as integration variable.  The singular factor
  ``(q - R)^(-s)`` is then evaluated from an exactly-represented ``E``
  rather than from a rounded absolute coordinate; this is what keeps the
  kernels accurate as ``s -> 1``, when most of the exterior mass sits
  below ``E = 1e-12``.
* The sphere integrals of ``|x - q w|^(-N)`` against each zonal harmonic
  are closed (Poisson-series summation), so ``poisson_extend`` is one
  integral in the exterior radius ``q`` and ``comp_poisson_apply`` a
  double integral in ``q`` and the radius ``rho`` of the data.  The
  sphere integral of the product of two such poles is closed too, so the
  pointwise complementary kernel is one integral in ``q``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import (CapabilityError, DivergenceError, DomainError,
                   SingularityError, as_order)
from . import geometry
from .geometry import Ball, Domain
from . import quadrature as quad
from .quadrature import QuadConfig, IntegralResult
from .specfun import ball_poisson_constant, log_constants

__all__ = [
    "green_ball",
    "green_apply",
    "poisson_ball",
    "poisson_ball_classical",
    "poisson_extend",
    "comp_poisson_kernel",
    "comp_poisson_apply",
]


def _require_ball(domain: Domain, what: str) -> Ball:
    if not isinstance(domain, Ball):
        raise CapabilityError(
            f"{what} is implemented in closed form only for balls; "
            "got " + type(domain).__name__)
    return domain


def _centered(domain: Ball, pts):
    return np.atleast_2d(np.asarray(pts, dtype=float)) - domain.center_array


def _absolute(domain: Ball, pts: np.ndarray) -> np.ndarray:
    """Centred points in absolute coordinates: ``pts + center``, or ``pts``
    itself (no copy) on an origin-centred ball, where adding zero could
    only turn a ``-0.0`` into ``0.0``."""
    c = domain.center_array
    return pts + c if c.any() else pts


def _radial_points(ball: Ball, rho, dirs=None) -> np.ndarray:
    """``centre + rho d`` for every radius ``rho`` and row ``d`` of ``dirs``
    (``e_1`` when None), radius by radius: every route in ``rho``,
    tabulator and scan places its samples here."""
    rho = np.atleast_1d(rho)
    if dirs is not None:
        return _absolute(ball, (rho[:, None, None] * dirs).reshape(
            -1, ball.dim))
    pts = np.tile(ball.center_array, (len(rho), 1))
    pts[:, 0] += rho
    return pts


def _radial_data(f, ball: Ball, rho: np.ndarray) -> np.ndarray:
    """Radial data ``f`` at the radii ``rho`` about the ball's centre."""
    return quad._finite_values(f, _radial_points(ball, rho))


# ---------------------------------------------------------------------------
# Green function of the ball.
# ---------------------------------------------------------------------------

def _green_prefactor(N: int, s: float) -> float:
    return math.gamma(0.5 * N) / (4.0 ** s * math.pi ** (0.5 * N)
                                  * math.gamma(s) ** 2)


def _green_kernel(N: int, s: float, R: float, lx: float, ly: np.ndarray,
                  d: np.ndarray) -> np.ndarray:
    """Centered-ball Green function from ``lx = R^2 - |x|^2``, ``ly = R^2 -
    |y|^2 >= 0`` and ``d = |x - y| > 0``.

    For ``s < 1`` it is ``pref d^(2s-N) int_0^r0 u^(s-1) (1 + u)^(-N/2)
    du``, ``r0 = lx ly / (R d)^2``: :func:`_shell_factor` at ``a = b =
    1``, ``p = 0``, whose sphere denominator is then ``(1 + u)^(N/2)`` in
    the plane and twice that in space (hence the factor ``N - 1``), on the
    Gauss-Jacobi block and ``ln u`` panels ``green_apply`` takes.  Above
    ``r0 = 1e150`` the plane's ``(1 + u)^2`` would leave double range:
    such points raise :class:`~fraclab.core.SingularityError`.  ``s = 1``
    takes the classical logarithmic (plane) or image (space) formula.
    """
    c = lx * ly / (R * R)
    if s < 1.0:
        if (c > 1e150 * d * d).any():
            raise SingularityError("Green function evaluated within 1e-75 "
                                   "sqrt(lx ly) / R of its pole")
        one = np.ones_like(d)
        return _green_prefactor(N, s) * (N - 1.0) * d ** (2.0 * s - N) \
            * _shell_factor(N, s, one, one, c / (d * d), 0.0 * one, 12, 0)[0]
    if N == 2:
        return np.log1p(c / (d * d)) / (4.0 * math.pi)
    # 1/d - 1/e with e = sqrt(d^2 + c), written as c / (d e (d + e)):
    # nothing cancels as y nears the sphere (c -> 0), and nothing overflows
    # as y nears x.
    e = np.sqrt(d * d + c)
    return c / (d * e * (d + e)) / (4.0 * math.pi)


def green_ball(domain: Domain, s, x, y) -> float | np.ndarray:
    """Green function of the ball, ``0 < s <= 1`` (``s = 1`` is classical).

    ``x`` must lie in the open ball; ``y`` may be a point or a batch and
    the value is zero outside the closure.  ``x == y`` raises
    :class:`~fraclab.core.SingularityError`, and so does, for ``s < 1``,
    ``|x - y| < 1e-75 sqrt((R^2 - |x|^2)(R^2 - |y|^2)) / R``.
    """
    ball = _require_ball(domain, "the Green function")
    s = float(as_order(s))
    xc = _centered(ball, x)[0]
    if np.linalg.norm(xc) >= ball.radius:
        raise DomainError("Green function pole must lie inside the ball")
    y_arr = np.asarray(y, dtype=float)
    single = y_arr.ndim == 1
    yc = _centered(ball, y_arr)
    if (geometry.sq_dist(yc, xc) == 0.0).any():
        raise SingularityError("Green function evaluated on its diagonal")
    R = ball.radius
    ly = R * R - geometry.sq_dist(yc)
    out = np.zeros(len(yc))
    inside = ly > 0.0
    if inside.any():
        out[inside] = _green_kernel(
            ball.dim, s, R, R * R - float(xc @ xc), ly[inside],
            np.sqrt(geometry.sq_dist(yc[inside], xc)))
    return float(out[0]) if single else out


# The Green rule: columns (rho nodes or pointwise kernel values) whose
# t-rules share one block of work arrays, the width of its panels in ln t,
# and the data nodes per call of f, which keep the work arrays near 6 MB.
_SHELL_BLOCK = 256
_LOG_PANEL = 3.0
_SPHERE_NODES = 1 << 18


def _shell_denominator(N: int, a2, b2, t):
    """``1 / phi`` of the sphere integral ``2 pi rho phi`` (plane) or ``8 pi
    rho^2 phi`` (space) of ``(d^2 + t)^(-N/2)`` over ``|y| = rho``, from
    ``a2 = (rho - r)^2`` and ``b2 = (rho + r)^2``: ``sqrt(A B)`` or
    ``sqrt(A) sqrt(B) (sqrt(A) + sqrt(B))`` with ``A = a2 + t``, ``B = b2 +
    t``.  Overwrites ``t``."""
    A = a2 + t
    B = np.add(b2, t, out=t)
    if N == 2:
        A *= B
        return np.sqrt(A, out=A)
    np.sqrt(A, out=A)
    np.sqrt(B, out=B)
    total = A + B
    A *= B
    A *= total
    return A


def _degree_sums(N: int, num, p, a2, b2, t, w, L: int) -> np.ndarray:
    """Rows ``(num phi q^l) @ w`` for ``l <= L``, ``phi`` of
    :func:`_shell_denominator` at ``t`` (overwritten) and ``q = p /
    (sqrt(a2 + t) + sqrt(b2 + t))^2`` in cumulative products."""
    q = p / (np.sqrt(a2 + t) + np.sqrt(b2 + t)) ** 2 if L else None
    vals = num / _shell_denominator(N, a2, b2, t)
    out = np.empty((L + 1, len(vals)))
    out[0] = vals @ w
    for l in range(1, L + 1):
        vals *= q
        out[l] = vals @ w
    return out


def _shell_factor(N: int, s: float, a: np.ndarray, b: np.ndarray,
                  c: np.ndarray, p: np.ndarray, n: int, L: int) -> np.ndarray:
    """``int_0^c t^(s-1) phi(t) q(t)^l dt``, one row per degree ``l <= L``
    and one column per entry of ``a = |rho - r| > 0``, with ``b = rho +
    r``, ``p = 4 r rho`` and ``phi``, ``q`` of :func:`_degree_sums`.

    ``phi`` turns from ``1/(a b)`` toward ``t^(-1/2)/b`` at ``t = a^2`` and
    toward ``1/t`` at ``t = b^2``.  An ``n``-node Gauss-Jacobi rule of
    weight ``t^(s-1)`` takes ``[0, t1]``, ``t1 = min(a^2, c)``, where
    ``phi`` is analytic with its nearest singularity, ``-a^2``, no nearer
    than the block's length.  Above it ``ln t`` runs to ``ln c`` in
    ``n``-node Gauss panels of width :data:`_LOG_PANEL`, counted down
    from ``ln c`` so that each row's nodes are ``c e^(-W (k+1))`` times one
    shared vector, and one narrower panel at the bottom; the integrand is
    analytic within ``pi`` of the real axis in ``ln t``.  The columns run
    in blocks of :data:`_SHELL_BLOCK`, which bounds the work arrays.
    """
    if len(a) > _SHELL_BLOCK:
        return np.hstack([_shell_factor(N, s, *(v[lo:lo + _SHELL_BLOCK]
                                               for v in (a, b, c, p)), n, L)
                          for lo in range(0, len(a), _SHELL_BLOCK)])
    a2, b2 = a * a, b * b
    t1 = np.minimum(a2, c)
    u, wj = quad._jacobi_unit(n, s - 1.0)
    cols = (p[:, None], a2[:, None], b2[:, None])
    out = t1 ** s * _degree_sums(N, 1.0, *cols, t1[:, None] * u, wj, L)
    xg, wg = quad._gauss_unit(n)
    span = np.log(c / t1)
    full = np.floor(span / _LOG_PANEL).astype(np.intp)
    h = span - _LOG_PANEL * full
    lnt = np.log(t1)[:, None] + h[:, None] * xg
    out += h * _degree_sums(N, np.exp(s * lnt), *cols, np.exp(lnt), wg, L)
    row = np.repeat(np.arange(len(a)), full)
    k = np.arange(len(row)) - np.repeat(np.cumsum(full) - full, full)
    lnq = np.log(c)[row] - _LOG_PANEL * (k + 1.0)
    e = np.exp(_LOG_PANEL * xg)
    panels = _degree_sums(N, np.exp(s * lnq)[:, None] * e ** s,
                          p[row, None], a2[row, None], b2[row, None],
                          np.exp(lnq)[:, None] * e, _LOG_PANEL * wg, L)
    for l in range(L + 1):
        out[l] += np.bincount(row, weights=panels[l], minlength=len(a))
    return out


def _shell_green(N: int, s: float, R: float, r: float, rho: np.ndarray,
                 off: np.ndarray, sigma: np.ndarray, n: int, L: int
                 ) -> np.ndarray:
    """``K_l(rho) = int_{|y| = rho} G_s(x, y) Z_l dS(y)``, one row per
    degree ``l <= L`` and one column per node, for ``|x| = r`` on the
    centred ball, with ``Z_l = P_l`` (space) or ``cos(l psi)`` (plane) of
    the angle between ``y`` and ``x``, at nodes with offsets ``off = rho -
    r`` and ``sigma = R - rho`` (:func:`~fraclab.quadrature.offset_rule`).

    At ``s = 1`` they are the multipole factors ``K_0 = rho ln(R / max(r,
    rho))`` (plane) or ``rho^2 (1 / max(r, rho) - 1 / R)`` (space), then,
    with ``k = 2l + N - 2``, ``(rho / k) (r / rho)^l (1 - (rho / R)^k)``
    above ``r`` and ``(rho / k) (rho / r)^(l + N - 2) (1 - (r / R)^k)``
    below.  For ``s < 1``, ``G = pref int_0^c t^(s-1) (d^2 + t)^(-N/2)
    dt``, ``c = (R^2 - r^2)(R^2 - rho^2) / R^2``, and the angular integral
    of ``(d^2 + t)^(-N/2) Z_l`` is ``q^l`` times that of degree 0 (DLMF
    18.12): ``K_l = pref 2 pi rho`` or ``pref 8 pi rho^2`` times
    :func:`_shell_factor`.
    """
    if s >= 1.0:
        # Nodes below r exist only for r > 0.
        outer, inner = off > 0.0, off <= 0.0
        ro, so, ri = rho[outer], sigma[outer], rho[inner]
        l = np.arange(1.0, L + 1.0)[:, None]
        k = 2.0 * l + (N - 2)
        K = np.empty((L + 1, len(rho)))
        K[0, outer] = -ro * np.log1p(-so / R) if N == 2 else ro * so / R
        K[1:, outer] = ro / k * (r / ro) ** l \
            * -np.expm1(k * np.log1p(-so / R))
        if inner.any():
            K[0, inner] = -ri * math.log1p(-(R - r) / R) if N == 2 else \
                ri ** 2 * (R - r) / (r * R)
            K[1:, inner] = ri / k * (ri / r) ** (l + N - 2) \
                * -np.expm1(k * math.log1p(-(R - r) / R))
        return K
    c = (R - r) * (R + r) * sigma * (2.0 * R - sigma) / (R * R)
    a, b, p = np.abs(off), rho + r, 4.0 * r * rho
    ang = 2.0 * math.pi * rho if N == 2 else 8.0 * math.pi * rho * rho
    return _green_prefactor(N, s) * ang * _shell_factor(N, s, a, b, c, p, n, L)


def _sphere_moments(f, ball: Ball, rho: np.ndarray, dirs: np.ndarray,
                    Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Y^T f(centre + rho_i dirs)`` per node ``rho_i`` and ``|Y|^T |f|``,
    the scale of its rounding, in blocks under :data:`_SPHERE_NODES`."""
    h, scale = np.empty((2, Y.shape[1], len(rho)))
    for sl in quad.direction_chunks(len(rho), len(Y), _SPHERE_NODES):
        vals = quad._finite_values(f, _radial_points(ball, rho[sl], dirs))
        vals = vals.reshape(-1, len(Y)).T
        h[:, sl], scale[:, sl] = Y.T @ vals, np.abs(Y.T) @ np.abs(vals)
    return h, scale


def _ladder(cfg: QuadConfig) -> list[int]:
    """The degrees 1, 3, 7, ... of a harmonic route, up to half the
    ``angular_order`` (at least 4): their sphere rules share no node."""
    top = (max(4, cfg.angular_order // 2) + 1).bit_length()
    return [2 ** k - 1 for k in range(1, top)]


def _harmonic_sum(f, ball: Ball, xc: np.ndarray, rho: np.ndarray, contract,
                  cfg: QuadConfig) -> tuple[float, int, float]:
    """One integral in ``rho`` over the data's moments about ``xc`` on the
    spheres ``|y - centre| = rho``, one harmonic degree at a time.

    ``contract(h, scale)`` maps a block of moments ``h`` (one row per degree
    ``l <= L``, one column per node; :func:`_sphere_moments`) to the value,
    and their rounding scale ``scale`` to ``sum |terms|``.  ``L`` climbs
    the :func:`_ladder` until the
    :func:`~fraclab.quadrature.doubling_error` of the last step meets
    ``max(abs_tol, rel_tol |value|)``.  Data radial about the
    centre (:func:`~fraclab.quadrature.centred_radial`) is ``L = 0``, read
    once per node at ``centre + rho e_1``.  Returns the value, the data
    points read and the error: the last doubling error plus ``1e-15 sum
    |terms|``, since factors and moments carry about 1e-15 relative
    rounding and terms that cancel leave it on that scale.
    """
    radial = quad.centred_radial(f, ball)
    degrees = [0] if radial else _ladder(cfg)
    evals, gap, err = 0, 0.0, 0.0
    for i, L in enumerate(degrees):
        dirs, Y = (None, np.ones((1, 1))) if radial else \
            quad.harmonic_rule(ball.dim, xc, L)
        value, size = contract(*_sphere_moments(f, ball, rho, dirs, Y))
        evals += len(rho) * len(Y)
        if i:
            err, gap = quad.doubling_error(gap, abs(value - last)), \
                abs(value - last)
            if err <= max(cfg.abs_tol, cfg.rel_tol * abs(value)):
                break
        last = value
    return value, evals, err + 1e-15 * size


def green_apply(domain: Domain, f, s, x, cfg: QuadConfig | None = None
                ) -> IntegralResult:
    """Solution value ``int_Omega G_s(x, y) f(y) dy`` at an interior point.

    A ``boundary_power`` attribute of ``f`` declares how it behaves at the
    boundary (``delta^p``; logarithmic factors are absorbed by the dyadic
    panels); data without one is taken as bounded there.

    One integral in ``rho = |y - centre|`` serves every datum, one
    harmonic degree at a time (Funk-Hecke; Atkinson and Han, *Spherical
    Harmonics and Approximations on the Unit Sphere*, LNM 2044, 2012):
    the kernel's factors ``K_l`` over each sphere (:func:`_shell_green`)
    meet the data's moments on it about ``x - centre``
    (:func:`_harmonic_sum`, whose degree ladder stops on the configured
    tolerance; radial data is ``L = 0``).  The factors run one degree of
    the ladder ahead: they cost more than the data.

    The rule (:func:`~fraclab.quadrature.offset_rule`) grades toward
    ``rho = r = |x - centre|`` from both sides, where every ``K_l`` behaves
    like ``|rho - r|^(2s-1)`` times a smooth part plus a smooth part (it
    kinks at ``s = 1``, exponent 0 there), half as deep as toward ``R``:
    its end rule is exact on both parts.  Toward ``R`` it grades with the
    exponent ``s + boundary_power``.  It takes 10 Gauss nodes per dyadic
    level and the ``v``-rules 12 per panel, whatever ``radial_order`` says
    (8 of each in the coarse pass): they reach rounding on such panels.
    """
    ball = _require_ball(domain, "the Green solution operator")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N = ball.dim
    R = ball.radius
    xc = _centered(ball, x)[0]
    if np.linalg.norm(xc) >= R:
        raise DomainError("Green solution evaluated outside the domain")
    bp = float(getattr(f, "boundary_power", None) or 0.0)
    r = quad._centre_distance(xc, R)
    top = _ladder(cfg)[-1]

    def green_pass(n_v, n_rad, levels):
        near = (0.0 if s >= 1.0 else 2.0 * s - 1.0, levels // 2)
        rho, off, sigma, w = quad.offset_rule(r, R, n_rad, near,
                                              (s + bp, levels))
        K = np.empty((0, len(rho)))

        def contract(h, scale):
            nonlocal K
            L = len(h) - 1
            if len(K) <= L:
                K = _shell_green(N, s, R, r, rho, off, sigma, n_v,
                                 min(2 * L + 1, top) if L else 0)
            wK = w * K[:L + 1]
            return float((wK * h).sum()), float((np.abs(wK) * scale).sum())

        return _harmonic_sum(f, ball, xc, rho, contract, cfg)

    return quad._two_pass(green_pass, (12, 10, cfg.max_subdiv), cfg)


# ---------------------------------------------------------------------------
# Poisson kernels.
# ---------------------------------------------------------------------------

def poisson_ball(domain: Domain, s, z, y) -> float | np.ndarray:
    """Exterior Poisson kernel ``P_s(z, y)`` of the ball, ``0 < s < 1``.

    ``z`` is interior, ``y`` strictly exterior (a batch is allowed);
    ``|y| = R`` raises :class:`~fraclab.core.SingularityError` since the
    kernel blows up like ``dist^(-s)`` there.
    """
    ball = _require_ball(domain, "the Poisson kernel")
    s = float(as_order(s, include_high=False))
    N, R = ball.dim, ball.radius
    zc = _centered(ball, z)[0]
    if np.linalg.norm(zc) >= R:
        raise DomainError("Poisson kernel base point must be interior")
    y_arr = np.asarray(y, dtype=float)
    single = y_arr.ndim == 1
    yc = _centered(ball, y_arr)
    q2 = geometry.sq_dist(yc)
    if (q2 < R * R).any():
        raise DomainError("Poisson kernel field point must be exterior")
    if np.any(q2 == R * R):
        raise SingularityError("Poisson kernel evaluated on the boundary")
    tau = ball_poisson_constant(N, s)
    lz = R * R - float(zc @ zc)
    d = np.sqrt(geometry.sq_dist(yc, zc))
    out = tau * (lz / (q2 - R * R)) ** s * d ** (-float(N))
    return float(out[0]) if single else out


def poisson_ball_classical(domain: Domain, z, y) -> float | np.ndarray:
    """Classical harmonic Poisson kernel on the boundary sphere."""
    ball = _require_ball(domain, "the classical Poisson kernel")
    N, R = ball.dim, ball.radius
    zc = _centered(ball, z)[0]
    if np.linalg.norm(zc) >= R:
        raise DomainError("Poisson kernel base point must be interior")
    y_arr = np.asarray(y, dtype=float)
    single = y_arr.ndim == 1
    yc = _centered(ball, y_arr)
    onb = np.abs(np.sqrt(geometry.sq_dist(yc)) - R) < 1e-10 * R
    if not onb.all():
        raise DomainError("classical Poisson kernel needs boundary points")
    sphere = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    lz = R * R - float(zc @ zc)
    d = np.sqrt(geometry.sq_dist(yc, zc))
    out = lz / (sphere * R * d ** float(N))
    return float(out[0]) if single else out


@lru_cache(maxsize=128)
def _exterior_radial_grid(R: float, s: float, n: int, depth: int,
                          blocks: int = 40) -> tuple[np.ndarray, ...]:
    """Master rule in ``E = q - R`` on ``(0, inf)`` for ``E^(-s) A(E) +
    B(E)``, ``A`` and ``B`` smooth: a boundary block ``[0, R]`` graded
    ``depth`` levels toward 0 (:func:`~fraclab.quadrature._half` at
    ``alpha = -s``, closed like every graded end by the two-family end
    rule), ``blocks`` dyadic blocks out to ``2^blocks R``, then one
    inversion block (``u = 1/q``, Jacobi weight ``u^(2s-1)``) exact on the
    admissible decay ``q^(-1-2s) x (analytic in 1/q)`` of the tail, which
    is analytic from ``Q = 2R`` on when every singularity lies at ``q <=
    R``; a datum outside the ball needs the dyadic blocks.  The third
    return value marks the block boundaries for per-block divergence
    checks (the inversion block last).
    """
    xu, wu = quad._half(-s, n, depth)
    xg, wg = quad._gauss_unit(n)
    E = [xu * R, (0.5 + 0.5 * xg) * R]
    W = [wu * R, 0.5 * wg * R]
    offsets = [0, len(xu) + n]
    lo = R
    for _ in range(blocks):
        E.append(lo + lo * xg)
        W.append(lo * wg)
        offsets.append(offsets[-1] + n)
        lo *= 2.0
    # Tail beyond q = R + lo: int_Q^inf F dq = int_0^{1/Q} u^{2s-1}
    # [F(1/u) u^{-1-2s}] du, Jacobi weight on the bracket.
    Q = R + lo
    uj, wj = quad._jacobi_unit(2 * n, 2.0 * s - 1.0)
    m = 1.0 / Q
    u_nodes = m * uj
    E.append(1.0 / u_nodes - R)
    W.append(m ** (2.0 * s) * wj * u_nodes ** (-1.0 - 2.0 * s))
    return np.concatenate(E), np.concatenate(W), np.array(offsets)


def _grid_depth(levels: int, R: float, *radii: float) -> int:
    """Boundary-block depth of the master grid for a pass ``levels`` deep:
    half of it (capped at ``MAX_LEVELS``), and a level more per halving of
    ``R - r`` below ``2^-8 R`` for the nearest pole ``1 / (q^2 - r^2)`` of
    ``radii``, in steps of 12 so that a profile shares one or two grids."""
    e = max(0, math.ceil(math.log2(R / min(R - r for r in radii))) - 8)
    return min(levels, quad.MAX_LEVELS) // 2 + 12 * math.ceil(e / 12)


def _exterior_rule(N: int, R: float, s: float, lz: float, n: int,
                   depth: int) -> tuple[np.ndarray, np.ndarray, object]:
    """The exterior nodes ``E = q - R`` of the Poisson kernel ``P_s(z, .)``,
    ``lz = R^2 - |z|^2``, with weights ``tau lz^s (q^2 - R^2)^(-s)
    q^(N-1)`` times the master grid's (everything but the sphere
    integral), and the grid's block offsets.  At ``s = 1`` the kernel
    lives on the boundary: ``q = R`` alone, weight ``lz R^(N-2) / |S|``,
    and no offsets."""
    if s >= 1.0:
        sphere = 2.0 * math.pi if N == 2 else 4.0 * math.pi
        return np.zeros(1), np.array([lz * R ** (N - 2) / sphere]), None
    E, wE, offs = _exterior_radial_grid(R, s, n, depth)
    return E, ball_poisson_constant(N, s) * lz ** s * wE * E ** (-s) \
        * (2.0 * R + E) ** (-s) * (R + E) ** (N - 1), offs


def poisson_extend(domain: Domain, g, s, x, cfg: QuadConfig | None = None
                   ) -> IntegralResult:
    """Poisson extension: ``int_{Omega^c} P_s(x, y) g(y) dy`` for ``s < 1``,
    the boundary integral against the classical kernel for ``s = 1``.

    ``g`` must grow slower than ``|y|^(2s)``; the dyadic far field is
    summed until its blocks are negligible and diverging blocks raise.

    One integral over the exterior radii ``q = R + E`` of the master grid
    (:func:`_exterior_radial_grid`) serves every datum, one harmonic
    degree at a time (:func:`_harmonic_sum`): with ``r = |x - centre|``,

        ``P_s g(x) = tau (R^2 - r^2)^s int dq q^(N-1) (q^2 - R^2)^(-s)
        sum_l mu_l(q, r) g_l(q)``,

    where ``g_l`` is the degree-``l`` moment of ``g`` about ``x - centre``
    on the sphere of radius ``q`` and ``mu_l(q, r) = |S| (r/q)^l / (q^(N-2)
    (q^2 - r^2))`` the sphere integral of ``|x - q w|^(-N)`` against the
    degree-``l`` zonal function, with ``q^2 - r^2 = (E + R - r)(q + r)``
    from the exact offset.  At ``s = 1`` the exterior integral is the
    boundary one, ``q = R`` alone with weight ``(R^2 - r^2) R^(N-2) /
    |S|``, in one pass.  Data radial about the centre of the ball
    (:func:`~fraclab.quadrature.centred_radial`) is ``L = 0``: ``g`` is
    read once per ``q``.
    """
    ball = _require_ball(domain, "the Poisson extension")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N, R = ball.dim, ball.radius
    xc = _centered(ball, x)[0]
    r = float(np.linalg.norm(xc))
    if r >= R:
        raise DomainError("Poisson extension is evaluated inside the domain")
    sphere = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    lx = (R - r) * (R + r)

    def one_pass(_, n_rad, levels):
        E, wq, offs = _exterior_rule(N, R, s, lx, n_rad,
                                     _grid_depth(levels, R, r))
        q = R + E
        # mu_l(q, r) without its (r/q)^l, from the offset E + (R - r).
        wq = wq * sphere / (q ** (N - 2) * (E + (R - r)) * (q + r))
        t = r / q

        def contract(h, scale):
            proj, size = h[-1].copy(), scale[-1].copy()
            for l in range(len(h) - 2, -1, -1):
                proj = proj * t + h[l]
                size = size * t + scale[l]
            if offs is not None:
                # The dyadic blocks of the sum; the inversion block, last,
                # is legitimately larger than the late dyadic ones.
                blocks = np.abs(np.add.reduceat(wq * proj, offs)[:-1])
                tail = blocks[-3:]
                if tail.min() > 1e-13 * blocks.max() and tail[-1] >= tail[0]:
                    raise DivergenceError(
                        "Poisson extension diverges: the boundary datum "
                        "grows at least like |y|^(2s) at infinity")
            return float(wq @ proj), float(np.abs(wq) @ size)

        return _harmonic_sum(g, ball, xc, q, contract, cfg)

    fine = (cfg.angular_order, cfg.radial_order, cfg.max_subdiv)
    if s < 1.0:
        return quad._two_pass(one_pass, fine, cfg)
    # The one node q = R takes no resolution: a coarse pass would re-read
    # the same points, so the estimate is the ladder error and rounding.
    value, evals, err = one_pass(*fine)
    err += 1e-16 * abs(value)
    return IntegralResult(value, err, evals, quad._tol_ok(value, err, cfg))


# ---------------------------------------------------------------------------
# Complementary Poisson kernel and its application.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _circle_hyp_series(s: float) -> tuple[np.ndarray, ...]:
    """40 coefficients each, highest first, of ``F(z) = 2F1(-s, -s; 1; z)``
    about 0 and of ``P``, ``Q`` in ``F(1 - t) = P(t) + t^2 L(t) Q(t)``,
    ``L = (t^e - 1) / e``, ``e = 2s - 1``.  DLMF 15.8.4 splits ``F(1 - t)``
    into ``sum A_k t^k + t^(2+e) sum B_k t^k``, where ``A_(k+2)`` and
    ``B_k`` have poles at ``e = 0`` that cancel in pairs; with ``t^(2+e) =
    t^2 (1 + e L)`` they regroup as ``A_(k+2) + B_k = K D_k`` and ``e B_k =
    -K Y_k``, ``K = Gamma(1+e) Gamma(1-e) / (Gamma(s) Gamma(1-s))^2``,
    ``Y_k = Gamma(k+1+s)^2 / (Gamma(k+3+e) k!)``, ``D_k = (X_k - Y_k) /
    e``, ``X_k = Gamma(k+2-s)^2 / (Gamma(k+1-e) (k+2)!)``.  ``D_(k+1) = x_k
    D_k + Y_k (x_k - y_k) / e`` with the term ratios ``x``, ``y``, whose
    difference quotient is rational in ``e``, and ``K D_0`` makes both
    forms agree at ``z = 1/2``: no pole is left, and ``s = 1/2`` is the
    logarithmic case."""
    n, e = 40, 2.0 * s - 1.0     # every series converges like 2^-k
    k = np.arange(n, dtype=float)
    about_0 = np.cumprod(np.r_[1.0, ((k[:-1] - s) / (k[:-1] + 1.0)) ** 2])
    a0 = math.gamma(1.0 + 2.0 * s) / math.gamma(1.0 + s) ** 2
    K = math.cos(0.5 * math.pi * e) / (math.pi ** 2 * np.sinc(0.5 * e))
    p, q, a = k + 1.0, k + 3.0, k + 1.5
    x = (a - 0.5 * e) ** 2 / ((p - e) * q)
    dq = (a * a * (p + q) - 2.0 * a * p * q + 2.0 * a * e
          + 0.25 * e * e * (p + q)) / ((p - e) * q * (q + e) * p)
    Y = math.gamma(1.0 + s) ** 2 / math.gamma(3.0 + e) * np.cumprod(
        np.r_[1.0, ((a + 0.5 * e) ** 2 / ((q + e) * p))[:-1]])
    # D_k = D_0 unit_k + forced_k, with D_0 fixed by the matching below.
    unit, forced = np.cumprod(np.r_[1.0, x[:-1]]), np.zeros(n)
    for j in range(n - 1):
        forced[j + 1] = x[j] * forced[j] + Y[j] * dq[j]
    h = 0.5 ** k
    L = math.log(0.5) if e == 0.0 else math.expm1(e * math.log(0.5)) / e
    KD = (4.0 * (about_0 @ h - a0 * (1.0 - 0.25 * s)) - K * (forced @ h)
          + L * K * (Y @ h)) / (unit @ h)
    P = np.r_[a0, -0.5 * s * a0, KD * unit + K * forced]
    return about_0[::-1], P[::-1], -K * Y[::-1]


def _exterior_mean(N: int, s: float, r: float, rho: np.ndarray,
                   gap: np.ndarray) -> np.ndarray:
    """``int_{S^{N-1}} |z - rho w|^(-N-2s) dw`` for ``|z| = r > rho``, ``0 <=
    s < 1``, from ``gap = r - rho`` formed without cancellation: ``2 pi
    (gap^k - (r + rho)^k) / (-k r rho)``, ``k = -1 - 2s``, in space, ``2 pi
    r^(2s) (r^2 - rho^2)^(-1-2s) F(rho^2 / r^2)`` in the plane, with ``F``
    of :func:`_circle_hyp_series` (within 9e-16 of mpmath)."""
    b = r + rho
    if N == 3:
        k = -1.0 - 2.0 * s
        return 2.0 * math.pi * (gap ** k - b ** k) / (-k * r * rho)
    about_0, P, Q = _circle_hyp_series(float(s))
    z, t, e = (rho / r) ** 2, gap * b / (r * r), 2.0 * s - 1.0
    near = z > 0.5
    F = np.polyval(about_0, z)
    t = t[near]
    L = np.log(t) if e == 0.0 else np.expm1(e * np.log(t)) / e
    F[near] = np.polyval(P, t) + t * t * L * np.polyval(Q, t)
    return 2.0 * math.pi * r ** (2.0 * s) * (gap * b) ** (-1.0 - 2.0 * s) * F


def _double_pole(N: int, R: float, E: np.ndarray, xc: np.ndarray,
                 zc: np.ndarray) -> np.ndarray:
    """``int_{S^(N-1)} |x - q w|^(-N) |z - q w|^(-N) dw`` at ``q = R + E``
    for centred ``|x|, |z| < R``, closed by summing the Poisson series
    ``sum eps_l t^l cos(l g)`` (plane) or ``sum (2l + 1) t^l P_l(cos g)``
    (space), ``t = |x| |z| / q^2`` and ``g`` the angle between ``x`` and
    ``z``: ``|S| (1 - t^2) / (q^(2N-4) (q^2 - |x|^2) (q^2 - |z|^2) (1 - 2t
    cos g + t^2)^(N/2))``.

    With ``p = |x| |z|``, ``a = q^2 - p`` and ``b = p (1 - cos g)``, formed
    as ``p |x/|x| - z/|z||^2 / 2``, it is ``|S| a (q^2 + p) / ((q^2 -
    |x|^2) (q^2 - |z|^2) (a^2 + 2 q^2 b)^(N/2))``; every factor is a sum of
    non-negative terms in the exact offset ``E``.
    """
    rx, rz = float(np.linalg.norm(xc)), float(np.linalg.norm(zc))
    p = rx * rz
    b = 0.0 if p == 0.0 else \
        0.5 * p * float(geometry.sq_dist(xc / rx, zc / rz))
    q = R + E
    # q^2 - p = E (2R + E) + ((R - |x|)(R + |z|) + (R - |z|)(R + |x|)) / 2.
    a = E * (2.0 * R + E) + 0.5 * ((R - rx) * (R + rz) + (R - rz) * (R + rx))
    sphere = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    return sphere * a * (q * q + p) / (
        (E + (R - rx)) * (q + rx) * (E + (R - rz)) * (q + rz)
        * (a * a + 2.0 * q * q * b) ** (0.5 * N))


def comp_poisson_kernel(domain: Domain, s, x, z,
                        cfg: QuadConfig | None = None) -> float:
    """Complementary Poisson kernel ``P^c_s(x, z)`` for interior ``x, z``.

    ``P^c_s(x, z) = c_N int_{Omega^c} |x-y|^{-N} P_s(z, y) dy`` for
    ``s < 1`` and the analogous boundary integral against the classical
    kernel at ``s = 1``.  The sphere integral of the product of the two
    poles is closed (:func:`_double_pole`), so the kernel is one integral
    in the exterior radius on the master grid, ``q = R`` alone at ``s =
    1``.
    """
    ball = _require_ball(domain, "the complementary Poisson kernel")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N, R = ball.dim, ball.radius
    xc = _centered(ball, x)[0]
    zc = _centered(ball, z)[0]
    rz = float(np.linalg.norm(zc))
    if np.linalg.norm(xc) >= R or rz >= R:
        raise DomainError("complementary Poisson kernel needs interior points")
    c_N, _ = log_constants(N)
    depth = _grid_depth(cfg.max_subdiv, R, np.linalg.norm(xc), rz)
    E, wq, _ = _exterior_rule(N, R, s, (R - rz) * (R + rz),
                              cfg.radial_order, depth)
    return c_N * float(wq @ _double_pole(N, R, E, xc, zc))


# Master-grid inner integrals; a bound_chain pass holds 94 of them.
_MF_CACHE = quad._Memo(256)

# Exterior radii per block of the (q x rho) factor of comp_poisson_apply:
# at the default QuadConfig a block is about 250 KB, which keeps a cold
# call's peak below that of the rule per radius it replaced.
_POLE_BLOCK = 64


# Sized, like _MF_CACHE, to hold the 94 rule sets of a bound_chain pass.
@lru_cache(maxsize=128)
def _comp_rules(N: int, R: float, s: float, bp, n_rho: int, n: int,
                levels: int) -> tuple[np.ndarray, ...]:
    """The exterior nodes ``E = q - R`` of one pass of
    :func:`comp_poisson_apply` with their weights ``wq`` (everything but
    ``M_l(q)`` and the pole at ``x``), and the rule ``(rho, sigma = R -
    rho, w)`` every exterior radius shares.

    For ``s < 1`` the nodes are the master grid
    :func:`_exterior_radial_grid` (``levels`` deep, no dyadic block) and
    the ``rho`` rule an ``n_rho``-node
    :func:`~fraclab.quadrature.offset_rule` graded toward ``R`` with the
    exponent ``s + bp`` down to the smallest ``E``, the scale on which ``1
    / (q^2 - rho^2)`` varies there.  At ``s = 1`` the one node is ``q =
    R``, and the ``n``-node rule is graded toward ``R`` only by a declared
    boundary power ``bp``: nothing else is singular there.  The calls of a
    profile at one order share them, read-only.
    """
    c_N = log_constants(N)[0]
    sphere = 2.0 * math.pi if N == 2 else 4.0 * math.pi
    if s >= 1.0:
        rho, _, sigma, w = quad.offset_rule(
            0.0, R, n, None, None if bp is None else (bp, levels))
        return np.zeros(1), np.array([c_N * sphere * R ** (2 - N)]), rho, \
            sigma, w
    E, wE, _ = _exterior_radial_grid(R, s, n, levels, 0)
    depth = math.ceil(math.log2(R / E.min()))
    rho, _, sigma, w = quad.offset_rule(0.0, R, n_rho, None,
                                        (s + (bp or 0.0), depth))
    wq = c_N * ball_poisson_constant(N, s) * sphere ** 2 * wE \
        * E ** (-s) * (2.0 * R + E) ** (-s) * (R + E) ** (3 - N)
    return E, wq, rho, sigma, w


def _pole_sums(R: float, s: float, E: np.ndarray, rho: np.ndarray,
               sigma: np.ndarray, wh: np.ndarray, r: float = 0.0
               ) -> np.ndarray:
    """``sum_l sum_rho (R^2 - rho^2)^s / (q^2 - rho^2) (r rho / q^2)^l
    wh[l]`` at every ``q = R + E``, one row per ``q`` and one column per
    column of the ``wh[l]`` (weighted moments of degree ``l``, one row per
    ``rho`` node), with ``q^2 - rho^2 = E (2R + E) + sigma (2R - sigma)``
    from the exact offsets, :data:`_POLE_BLOCK` radii at a time."""
    c = sigma * (2.0 * R - sigma)
    cs, eps = c ** s, E * (2.0 * R + E)
    out = np.empty((len(E), wh.shape[-1]))
    # One block buffer per call, filled in place: a fresh block per 64
    # radii faults in new pages wherever the allocator maps it afresh.
    buf = np.empty((min(len(E), _POLE_BLOCK), len(rho)))
    for lo in range(0, len(E), _POLE_BLOCK):
        blk = slice(lo, lo + _POLE_BLOCK)
        P = buf[:len(E) - lo]
        np.add(eps[blk, None], c, out=P)
        np.divide(cs, P, out=P)
        out[blk] = P @ wh[0]
        if len(wh) > 1:
            t = r * rho / (R + E[blk, None]) ** 2
            for l in range(1, len(wh)):
                P *= t
                out[blk] += P @ wh[l]
    return out


def _mf_on_grid(ball: Ball, f, s: float, n: int, levels: int,
                n_rho: int = 12) -> np.ndarray:
    """``M_0(q) = sum_rho w rho^(N-1) (R^2 - rho^2)^s f(rho) / (q^2 -
    rho^2)`` for radial ``f`` at the nodes of :func:`_comp_rules`, and of
    ``|f|`` in a second column, kept in :data:`_MF_CACHE` under
    ``quad._data_key(f, ball, s, n, levels, n_rho)`` (data without a
    ``cache_token`` is never stored): ``f`` is read once per ``rho``
    node."""
    def build():
        E, _, rho, sigma, w = _comp_rules(
            ball.dim, ball.radius, s, getattr(f, "boundary_power", None),
            n_rho, n, levels)
        wh = w * rho ** (ball.dim - 1) * _radial_data(f, ball, rho)
        return _pole_sums(ball.radius, s, E, rho, sigma,
                          np.stack([wh, np.abs(wh)], axis=-1)[None])

    return _MF_CACHE.fetch(quad._data_key(f, ball, s, n, levels, n_rho),
                           build)


def comp_poisson_apply(domain: Domain, f, s, x,
                       cfg: QuadConfig | None = None) -> IntegralResult:
    """Apply the complementary Poisson kernel:
    ``int_Omega P^c_s(x, z) f(z) dz`` via Fubini with the exterior variable
    outermost.

    One route serves every datum, one harmonic degree at a time
    (Funk-Hecke; Atkinson and Han, LNM 2044, 2012): with ``r = |x -
    centre|``,

        ``P^c_s f(x) = c_N tau int dq q^(N-1) (q^2 - R^2)^(-s)
        sum_l mu_l(q, r) M_l(q)``,
        ``M_l(q) = int drho rho^(N-1) (R^2 - rho^2)^s mu_l(q, rho) h_l(rho)``,

    where ``h_l`` is the data's degree-``l`` moment about ``x - centre``
    on the sphere of radius ``rho`` (:func:`_harmonic_sum`) and ``mu_l(q,
    rho) = 2 pi (rho/q)^l / (q^2 - rho^2)`` (plane) or ``4 pi (rho/q)^l /
    (q (q^2 - rho^2))`` (space) is the sphere integral of ``|rho w - q
    v|^(-N)`` against the degree-``l`` zonal function.  ``q`` runs on the
    master grid, ``rho`` on one rule shared by all of it
    (:func:`_comp_rules`), so the data is read once per ``rho`` node and
    sphere point whatever the grid.  At ``s = 1`` the exterior integral
    is the boundary one, ``q = R`` alone with ``c_N / (|S| R)`` and ``R^2
    - rho^2`` in place of the ``s`` weights.

    For ``f`` radial about the centre of the ball
    (:func:`~fraclab.quadrature.centred_radial`) only ``L = 0`` remains,
    and ``M_0`` does not depend on ``x``: it is kept on the grid
    (:func:`_mf_on_grid`), so a profile reads the data once per grid
    (:func:`_grid_depth`); ``evaluations`` counts the rule's points.
    """
    ball = _require_ball(domain, "the complementary Poisson application")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N, R = ball.dim, ball.radius
    xc = _centered(ball, x)[0]
    if np.linalg.norm(xc) >= R:
        raise DomainError("complementary Poisson application needs interior x")
    r = quad._centre_distance(xc, R)
    bp = getattr(f, "boundary_power", None)
    radial = quad.centred_radial(f, ball)

    def comp_pass(n_rho, n, levels):
        levels = _grid_depth(levels, R, r) if s < 1.0 else levels
        E, wq, rho, sigma, w = _comp_rules(N, R, s, bp, n_rho, n, levels)
        # The pole at x: 1 / (q^2 - r^2), from the offset E + (R - r).
        wq = wq / ((E + (R - r)) * (R + E + r))
        if radial:
            # The rounding as in _harmonic_sum; every weight is positive.
            value, size = wq @ _mf_on_grid(ball, f, s, n, levels, n_rho)
            return float(value), len(rho), 1e-15 * float(size)
        wr = w * rho ** (N - 1)

        def contract(h, scale):
            wh = np.stack([h, scale], axis=-1) * wr[:, None]
            value, size = wq @ _pole_sums(R, s, E, rho, sigma, wh, r)
            return float(value), float(size)

        return _harmonic_sum(f, ball, xc, rho, contract, cfg)

    # The inner rho order takes the angular slot (12 fine, 8 coarse); the
    # s = 1 rule takes the radial one.
    return quad._two_pass(comp_pass, (12, cfg.radial_order, cfg.max_subdiv),
                          cfg)
