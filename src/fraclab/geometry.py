"""Domains (balls and origin-centered ellipsoids) and their geometry.

Everything downstream -- quadrature segmentation, boundary layers, kernel
formulas -- is driven by the primitives implemented here: the signed
distance to the boundary, exact ray/boundary intersections, the product
rule on the unit sphere, and the squared distance ``sq_dist`` of a point
batch, through which every row norm of points and ray nodes goes.

On an ellipsoid :func:`delta` solves the nearest-point equation for a
whole batch at once: closed at ``eps = 0``, by Newton steps elsewhere.

Both domain types are frozen dataclasses (hence hashable), which lets
expensive per-domain data such as eigendecompositions and cached quadrature
rules key off the domain object directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DomainError

__all__ = [
    "Ball",
    "Ellipsoid",
    "Domain",
    "unit_ball",
    "sq_dist",
    "delta",
    "contains",
    "measures",
    "ray_spans",
    "parse_domain",
]


@dataclass(frozen=True)
class Ball:
    """Open ball ``{ |x - center| < radius }``."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise DomainError(f"ball radius must be positive, got {self.radius}")
        if len(self.center) not in (2, 3):
            raise DomainError("only dimensions 2 and 3 are supported")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class Ellipsoid:
    """Open ellipsoid ``{ x : x . A x < 1 }``, centered at the origin.

    ``a`` holds the row-major entries of the symmetric positive definite
    matrix ``A``; the constructor validates symmetry and positivity.
    """

    a: tuple

    def __post_init__(self):
        n2 = len(self.a)
        n = int(round(math.sqrt(n2)))
        if n * n != n2 or n not in (2, 3):
            raise DomainError(
                f"ellipsoid matrix must be 2x2 or 3x3 row-major, got {n2} entries")
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        A = self.matrix
        if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * np.abs(A).max()):
            raise DomainError("ellipsoid matrix must be symmetric")
        evals = np.linalg.eigvalsh(A)
        if evals.min() <= 0.0:
            raise DomainError("ellipsoid matrix must be positive definite")

    @property
    def dim(self) -> int:
        return int(round(math.sqrt(len(self.a))))

    @property
    def matrix(self) -> np.ndarray:
        n = self.dim
        return np.asarray(self.a, dtype=float).reshape(n, n)

    @property
    def center_array(self) -> np.ndarray:
        return np.zeros(self.dim)


Domain = Ball | Ellipsoid


def unit_ball(N: int) -> Ball:
    return Ball(center=(0.0,) * N, radius=1.0)


@lru_cache(maxsize=64)
def _spectral(domain: Ellipsoid):
    """Eigendecomposition ``A = Q diag(d) Q^T`` plus derived maps (cached)."""
    A = domain.matrix
    d, Q = np.linalg.eigh(A)
    # B = A^{-1/2}: maps the unit sphere onto the ellipsoid boundary.
    B = (Q * (d ** -0.5)) @ Q.T
    Binv = (Q * (d ** 0.5)) @ Q.T
    return d, Q, B, Binv


def sq_dist(pts, c=None) -> np.ndarray:
    """Squared distances ``sum_k (pts[..., k] - c[k])^2`` of a point batch.

    ``pts`` has shape ``(..., N)`` and ``c`` is one point ``(N,)``, the
    origin when omitted.  The columns are summed one at a time in index
    order: that is bit for bit the sum ``np.linalg.norm(pts - c, axis=-1)``
    takes over its short last axis, without a row reduction of length 2
    or 3, which is several times slower than adding whole columns.
    """
    pts = np.asarray(pts, dtype=float)

    def column(k):
        return pts[..., k] if c is None else pts[..., k] - c[k]

    sq = np.square(column(0))
    for k in range(1, pts.shape[-1]):
        sq += np.square(column(k))
    return sq


def _ellipsoid_distance(domain: Ellipsoid, pts: np.ndarray) -> np.ndarray:
    """Distance of each row of ``pts`` to the boundary (see :func:`delta`);
    no BLAS product mixes the rows, so a row alone gives the same bits."""
    d, Q, _, _ = _spectral(domain)
    xt = sum(np.multiply.outer(pts[:, k], Q[k]) for k in range(len(d)))
    r = d / d[-1]
    stiff = r == 1.0
    yo = xt[:, ~stiff] / (1.0 - r[~stiff])
    rest = 1.0 - (d[~stiff] * yo ** 2).sum(axis=1)
    s2 = (xt[:, stiff] ** 2).sum(axis=1)
    closed = (s2 == 0.0) & (rest >= 0.0)
    out = np.empty(len(pts))
    out[closed] = np.sqrt(((xt[closed][:, ~stiff] - yo[closed]) ** 2)
                          .sum(axis=1) + rest[closed] / d[-1])
    x, s2, rest = xt[~closed], s2[~closed], rest[~closed]
    w = d * x ** 2
    # Start below the root (F >= 1 for the stiff terms alone, and for the
    # others with each 1 - r_i lowered to the least); the upper end is
    # twice a bound with F <= 1, so no step lands on it unevaluated.
    c = np.min(1.0 - r, where=~stiff, initial=1.0)
    lo = np.maximum(np.sqrt(d[-1] * s2),
                    c * -rest / (1.0 + np.sqrt(1.0 - rest)))
    hi = 2.0 * np.maximum(1.0, np.sqrt(w.sum(axis=1)) / r[0])
    eps = lo.copy()
    todo = np.arange(len(x))
    while todo.size:
        e = eps[todo]
        den = (1.0 - r) + e[:, None] * r
        F = (w[todo] / den ** 2).sum(axis=1)
        below = F >= 1.0
        lo[todo] = a = np.where(below, e, lo[todo])
        hi[todo] = b = np.where(below, hi[todo], e)
        slope = (w[todo] * r / den ** 3).sum(axis=1)
        step = e + F * (np.sqrt(F) - 1.0) / slope
        step = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
        eps[todo] = step
        todo = todo[(a < step) & (step < b)]     # NaN stops too
    # x - y = x (eps - 1) r / den, with no cancellation near the boundary.
    den = (1.0 - r) + eps[:, None] * r
    out[~closed] = np.sqrt(((x * ((eps[:, None] - 1.0) * r) / den) ** 2)
                           .sum(axis=1))
    return out


def _points(domain: Domain, x) -> tuple[np.ndarray, bool]:
    """``x`` as an ``(M, N)`` batch, and whether it was a single point."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != domain.dim:
        raise DomainError(
            f"point dimension {pts.shape[1]} != domain dimension {domain.dim}")
    return pts, single


def delta(domain: Domain, x) -> float | np.ndarray:
    """Signed distance to the boundary: positive inside, negative outside.

    Accepts a single point ``(N,)`` or a batch ``(M, N)``; returns a float
    or an array accordingly.  The sign is the side :func:`contains`
    takes, also within an ulp of the boundary.

    On an ellipsoid ``A = Q diag(d) Q^T`` the nearest boundary point is
    ``y_i = xt_i / (1 + lam d_i)`` in the eigenbasis ``xt = Q^T x``.  The
    whole batch is solved at once in ``eps = 1 + lam d_max``, where
    ``1 + lam d_i = (1 - r_i) + eps r_i`` with ``r_i = d_i / d_max`` does
    not cancel near the pole ``eps = 0``:

    - ``eps = 0`` in closed form when ``x`` has no stiff component and
      ``rest >= 0``, the level its projection onto the other axes leaves:
      the stiff axes take that rest;
    - otherwise ``eps > 0`` is the unique root of the decreasing, convex
      ``F(eps) = sum_i d_i xt_i^2 / ((1 - r_i) + eps r_i)^2 = 1``.  Newton
      steps on the concave ``F^(-1/2) = 1`` (Moré and Sorensen, SIAM J.
      Sci. Stat. Comput. 4, 1983) rise to it from a lower bound, a step
      leaving the bracket of evaluated points bisects it, and each point
      iterates until it stops moving.
    """
    pts, single = _points(domain, x)
    if isinstance(domain, Ball):
        out = domain.radius - np.sqrt(sq_dist(pts, domain.center))
    else:
        dist = _ellipsoid_distance(domain, pts)
        out = np.where(_level(domain, pts) < 1.0, dist, -dist)
    return float(out[0]) if single else out


def contains(domain: Domain, x) -> bool | np.ndarray:
    """Membership of a single point ``(N,)`` or of a batch ``(M, N)``."""
    pts, single = _points(domain, x)
    if isinstance(domain, Ball):
        # sqrt(sq) < R, not sq < R^2, which differs within an ulp of the
        # sphere: membership stays exactly ``delta > 0``.
        out = np.sqrt(sq_dist(pts, domain.center)) < domain.radius
    else:
        out = _level(domain, pts) < 1.0
    return bool(out[0]) if single else out


def _level(domain: Ellipsoid, pts: np.ndarray) -> np.ndarray:
    """``y . A y`` for each row ``y`` of an ``(M, N)`` batch."""
    return np.einsum("ij,jk,ik->i", pts, domain.matrix, pts)


def measures(domain: Domain) -> tuple[float, float]:
    """Return ``(volume, diameter)``."""
    N = domain.dim
    omega = math.pi if N == 2 else 4.0 * math.pi / 3.0
    if isinstance(domain, Ball):
        return omega * domain.radius ** N, 2.0 * domain.radius
    d, _, _, _ = _spectral(domain)
    vol = omega / math.sqrt(float(np.prod(d)))
    diam = 2.0 / math.sqrt(float(d.min()))
    return vol, diam


def _sphere_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule on the unit sphere: Gauss in cos(polar) x uniform azimuth.

    Returns unit vectors (M, 3) and weights summing to 4 pi.
    """
    n_mu = int(order)
    n_phi = 2 * n_mu
    mu, wmu = np.polynomial.legendre.leggauss(n_mu)
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    sin_th = np.sqrt(1.0 - mu ** 2)
    cp, sp = np.cos(phi), np.sin(phi)
    dirs = np.empty((n_mu * n_phi, 3))
    dirs[:, 0] = np.outer(sin_th, cp).ravel()
    dirs[:, 1] = np.outer(sin_th, sp).ravel()
    dirs[:, 2] = np.repeat(mu, n_phi)
    w = np.repeat(wmu, n_phi) * (2.0 * math.pi / n_phi)
    return dirs, w


def ray_spans(domain: Domain, x, thetas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersection parameters of the lines ``x + t theta`` with the boundary.

    ``thetas`` is (M, N) with unit rows.  Returns ``(t_lo, t_hi, hit)``;
    where ``hit`` is False the other entries are NaN.  Because the domains
    are quadrics, the intersections are the roots of a quadratic and exact
    to rounding.
    """
    x = np.asarray(x, dtype=float)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if isinstance(domain, Ball):
        xc = x - domain.center_array
        a = np.ones(len(thetas))
        b = thetas @ xc
        c = float(xc @ xc) - domain.radius ** 2
        disc = b ** 2 - a * c
    else:
        A = domain.matrix
        Ath = thetas @ A
        a = np.einsum("ij,ij->i", Ath, thetas)
        b = Ath @ x
        c = float(x @ A @ x) - 1.0
        disc = b ** 2 - a * c
    hit = disc > 0.0
    t_lo = np.full(len(thetas), np.nan)
    t_hi = np.full(len(thetas), np.nan)
    root = np.sqrt(np.where(hit, disc, 0.0))
    # Stable quadratic roots (avoid cancellation when b is large).
    sgn = np.where(b >= 0.0, 1.0, -1.0)
    q = -(b + sgn * root)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(hit, q / a, np.nan)
        r2 = np.where(hit & (q != 0.0), c / q, np.nan)
        r2 = np.where(hit & (q == 0.0), -r1, r2)
    t_lo[hit] = np.minimum(r1, r2)[hit]
    t_hi[hit] = np.maximum(r1, r2)[hit]
    return t_lo, t_hi, hit


def parse_domain(literal: str, dims: int | None = None) -> Domain:
    """Parse a command-line domain literal.

    ``ball:R`` gives a ball of radius ``R`` centered at the origin (the
    dimension comes from ``dims``, default 2); ``ellipsoid:a11,a12,...``
    takes the row-major matrix entries, with the dimension inferred from
    their count.
    """
    kind, _, payload = literal.partition(":")
    if kind == "ball":
        try:
            radius = float(payload)
        except ValueError as exc:
            raise DomainError(f"bad ball literal {literal!r}") from exc
        n = dims if dims is not None else 2
        return Ball(center=(0.0,) * n, radius=radius)
    if kind == "ellipsoid":
        try:
            entries = tuple(float(v) for v in payload.split(","))
        except ValueError as exc:
            raise DomainError(f"bad ellipsoid literal {literal!r}") from exc
        dom = Ellipsoid(a=entries)
        if dims is not None and dom.dim != dims:
            raise DomainError(
                f"ellipsoid literal has dimension {dom.dim}, expected {dims}")
        return dom
    raise DomainError(f"unknown domain literal {literal!r}")
