"""The numerical-integration engine behind every operator in the package.

Design notes
------------
All deterministic rules reduce to one primitive: a composite rule on the
unit interval whose endpoint behaviour ``x^a (1-x)^b`` is handled by
geometric dyadic refinement with plain Gauss-Legendre panels toward each
declared endpoint, closed there by one generalized Gaussian rule,
:func:`_end_rule`, exact on ``x^a smooth + smooth``: the solutions
behave like ``delta^s smooth + smooth`` at every boundary and kink.
Per-panel relative accuracy of Gauss-Legendre on a dyadic panel is
self-similar (the nearest singularity sits one panel-length away), so
the composite error is at rounding level for any mix of endpoint powers,
while the end rule removes the truncation error that pure grading would
leave for strong singularities.  This is what keeps the boundary-layer
mass of the kernels (which concentrates below distance 1e-14 of the
boundary as s -> 1) inside the rule rather than lost under it.

Volume integrals are assembled in polar form around an interior point:
directions come from an equispaced circle rule (dimension 2, spectrally
accurate for the analytic angular dependence that arises here) or a
Gauss x azimuth sphere rule (dimension 3); the exact ray/boundary
intersections from :mod:`fraclab.geometry` delimit the radial intervals.
The cone under which an exterior point sees the domain (dimension 3)
takes :func:`layered_directions` instead, whose azimuth count per ring
:func:`azimuth_rings` doubles until the data is resolved, reading each
node once.  The Green, Poisson-extension and complementary Poisson
operators of a ball read the data through its harmonic moments on
spheres about the centre (:func:`harmonic_rule`).  All judge their last
doubling by :func:`doubling_error`.

Integrals along rays from a point (the logarithmic Laplacians, the
nonlocal normal derivative, the principal value) go through
:func:`ray_sums`.  An operator lays out its ray segments as flat
arrays (direction index, start, end), one unit-interval rule is mapped
onto all of them, the field is called once per chunk of nodes rather
than once per segment, and the weighted integrand is reduced per
direction with ``np.bincount``.  Where a field
kinks at the boundary, :func:`crossing_segments` cuts the segments at
the crossings of one or more rays per direction and names the endpoint
exponents of a declared exterior layer.

Data radial about the centre of its ball (:func:`centred_radial`) is
integrated in the distance to that centre alone (:func:`offset_rule`).
Tabulated radial fields and profiles are chopped Chebyshev series from
:func:`_chebyshev_profile`, in the logarithm of a distance where they reach
a boundary (:func:`_log_profile`), stored under their own
:func:`_data_key`.

Every integration returns an :class:`IntegralResult` with a coarse/fine
error estimate and the evaluation count, formed in one place,
:func:`_two_pass`, for every quadrature in the package.  A caller names
only its fine resolution (angular order, radial order, grading depth);
the coarse pass always takes half the angular order, six radial nodes
fewer (each at least 8, never above the fine one) and the depth
``max(L // 2, L - 8)`` of the fine depth ``L`` capped at
:data:`MAX_LEVELS` = 26.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# numpy loads np.polynomial on its first use: load it here, not inside the
# first rule of a timed run.
import numpy.polynomial  # noqa: F401

from .core import DomainError, EvaluationError
from . import geometry
from .geometry import Ball

__all__ = [
    "QuadConfig",
    "IntegralResult",
    "integrate_pv_second_difference",
    "centred_radial",
    "polar_directions",
    "layered_directions",
    "harmonic_rule",
    "azimuth_rings",
    "doubling_error",
    "direction_chunks",
    "unit_power_rule",
    "offset_rule",
    "map_rule",
]

# The work arrays of a call (a few hundred KB to a few MB) lie above
# glibc's initial 128 KiB mmap threshold, and freed heap above its 128 KiB
# trim threshold goes back to the system, so each call faulted in fresh
# pages: 12,000-21,000 minor faults in one pass of a perfbench workload.
# Freeing one 8 MB block raises both thresholds for the process (glibc's
# dynamic mmap threshold), and later work arrays reuse the heap.  The
# block is never touched; other allocators just map and unmap it.
np.empty(1 << 20)


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and resolution knobs shared by all quadratures.

    ``rel_tol`` / ``abs_tol`` are targets the error estimate is compared
    against (results flag, not raise, when they miss).  ``max_subdiv`` is
    the fine pass's dyadic depth toward singular endpoints, capped at
    :data:`MAX_LEVELS` = 26 (lower in some operators).  Rules in an exact
    offset (:func:`offset_rule`) grade deeper where a singularity needs it:
    the exterior radial rule ``ceil(log2(R / (r - R)))`` levels toward
    ``R``.  Every graded end closes with :func:`_end_rule`, exact on its
    singular and its regular part.  The radial rules of the Green
    operator and of ``log_laplacian_compact`` grade half the depth toward
    ``rho = |x|``, and the master grid toward ``q = R``.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    max_subdiv: int = 48
    angular_order: int = 64
    radial_order: int = 16

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise DomainError("tolerances must be positive")
        if self.max_subdiv < 4:
            raise DomainError("max_subdiv must be at least 4")


DEFAULT_CONFIG = QuadConfig()

# Deepest grading a caller's ``max_subdiv`` asks for (:func:`_two_pass`,
# :func:`unit_power_rule`); rules in an exact offset add levels beyond it.
MAX_LEVELS = 26

# Radius of the principal-value inner ball, as a fraction of the local
# smoothness scale; above 1/2 the ball could leak past the nearest
# boundary crossing.
PV_INNER_RADIUS = 0.25


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


def _coarse_depth(levels: int) -> int:
    """Grading depth of the coarse pass whose fine pass grades ``levels``
    deep: eight levels shallower, but never below half the fine depth, so
    the rule stays valid and the estimate still sees the truncation."""
    return max(levels // 2, levels - 8)


def _two_pass(one_pass, fine: tuple[int, int, int], cfg: QuadConfig, *,
              scale=1.0, shift: IntegralResult | None = None, floor=1e-16
              ) -> IntegralResult:
    """The fine/coarse error policy shared by every quadrature.

    ``one_pass(angular, radial, levels)`` returns a raw value and an
    evaluation count, and may add a third entry: an error of that pass
    the pass itself measured (the :func:`doubling_error` of the last
    azimuth or degree doubling, or the rounding of a sum whose terms
    cancel), in the units of the result.  A pass without directions puts its
    inner order in the angular slot.  The fine pass
    runs at ``fine`` with its depth ``L`` capped at :data:`MAX_LEVELS`.
    The coarse pass, by the one rule of the package, runs at
    ``(max(8, angular // 2), max(8, radial - 6), _coarse_depth(L))``,
    neither order above the fine one.  The result is ``scale * fine``
    plus the separately computed term ``shift``; its error estimate is
    ``scale |fine - coarse|`` plus the fine pass's own error, the error of
    ``shift`` and ``floor |value|`` for rounding, and its evaluations are
    those of both passes and of ``shift``.
    """
    angular, radial, levels = fine[0], fine[1], min(fine[2], MAX_LEVELS)
    fine_val, n_f, *fine_err = one_pass(angular, radial, levels)
    coarse_val, n_c, *_ = one_pass(min(angular, max(8, angular // 2)),
                                   min(radial, max(8, radial - 6)),
                                   _coarse_depth(levels))
    extra = shift or IntegralResult(0.0, 0.0, 0)
    value = scale * fine_val + extra.value
    err = scale * abs(fine_val - coarse_val) + sum(fine_err) \
        + extra.error_estimate + floor * abs(value)
    return IntegralResult(value, err, n_f + n_c + extra.evaluations,
                          _tol_ok(value, err, cfg))


# ---------------------------------------------------------------------------
# Bounded memo stores.
# ---------------------------------------------------------------------------

_MEMO_STORES: list = []


class _Memo(dict):
    """Insertion-ordered store of at most ``bound`` built values; once it
    is full the oldest entry makes room for the next."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        _MEMO_STORES.append(self)

    def fetch(self, key, build):
        """``self[key]``, from ``build()`` on a miss.  Key None (data
        without a ``cache_token``) builds without storing."""
        if key is None:
            return build()
        if key in self:
            return self[key]
        value = build()
        if len(self) >= self.bound:
            del self[next(iter(self))]
        self[key] = value
        return value


def _data_key(f, *inputs):
    """The one key rule of every store: ``(f.cache_token, *inputs)``, or
    None -- never stored -- for data without a ``cache_token``, since an
    ``id`` is reused once its object is gone."""
    token = getattr(f, "cache_token", None)
    return (token, *inputs) if token is not None else None


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

    Gauss rule of the weight ``t^beta`` on [0, 1] itself, ``beta > -1``, by
    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix of the shifted Jacobi
    polynomials, the weights ``1 / (beta + 1)`` times the squared first
    components of its eigenvectors.  Built on [0, 1] rather than mapped
    from [-1, 1], whose ``(x + 1) / 2`` rounds away the relative digits
    of the nodes nearest the singular end.  Against a 40-digit rule the
    weights are within 3e-13 relative for ``n <= 40``, also at ``beta``
    near -1.
    """
    if beta <= -1.0:
        raise DomainError(f"endpoint exponent {beta} is not integrable")
    k = np.arange(1.0, n)
    m = 2.0 * k + beta
    J = np.zeros((n, n))
    J[0, 0] = (beta + 1.0) / (beta + 2.0)
    J.flat[n + 1::n + 1] = ((k + beta) * (k + beta + 1.0) + k * (k + 1.0)) \
        / (m * (m + 2.0))
    # eigh reads the lower triangle alone.
    J.flat[n::n + 1] = k * (k + beta) / (m * np.sqrt((m - 1.0) * (m + 1.0)))
    t, v = np.linalg.eigh(J)
    return t, v[0] ** 2 / (beta + 1.0)


END_NODES = 6       # nodes of the two-family end rule (:func:`_end_rule`)
_END_POWERS = np.arange(END_NODES, dtype=float)


def _end_basis(alpha: float, y: np.ndarray):
    """Values, ``y``-derivatives and moments on [0, 1] of the 12 functions
    :func:`_end_rule` integrates, at the nodes ``x = e^y``.

    They are ``x^k`` and, for the family ``x^(alpha+k)``, ``k < 6``, the
    quotients ``(x^(alpha+k) - x^j) / (alpha - n) = x^j expm1((alpha - n)
    ln x) / (alpha - n)`` (``x^j ln x`` at ``alpha = n``) where ``j = k +
    n`` lies in ``0..5``, with ``n`` the integer nearest ``alpha``: the two
    families merge at ``alpha`` = -1, 0 and 1, and the quotients keep the
    basis well apart there."""
    n = min(1, max(-1, round(alpha)))
    b = alpha - n
    k = _END_POWERS
    F, dF = np.empty((2, 2 * END_NODES, END_NODES))
    x, q, dq = F[:END_NODES], F[END_NODES:], dF[END_NODES:]
    np.exp(k[:, None] * y, out=x)
    np.multiply(k[:, None], x, out=dF[:END_NODES])
    xa = np.exp((alpha + k)[:, None] * y)
    q[:], mq = xa, 1.0 / (alpha + k + 1.0)
    np.multiply((alpha + k)[:, None], xa, out=dq)
    # The rows k whose j = k + n lies in 0..5, and those rows j.
    keep = slice(max(0, -n), END_NODES - max(0, n))
    rows = slice(max(0, n), END_NODES + min(0, n))
    j = k[rows]
    q[keep] = x[rows] * (y if b == 0.0 else np.expm1(b * y) / b)
    dq[keep] = j[:, None] * q[keep] + xa[keep]
    mq[keep] = -1.0 / ((j + 1.0) * (alpha + k[keep] + 1.0))
    return F, dF, np.concatenate([1.0 / (k + 1.0), mq])


def _end_newton(alpha: float, w: np.ndarray, y: np.ndarray):
    """Newton's method on the weights and log-nodes of :func:`_end_rule`
    from ``(w, y)``, residuals relative to the moments: the converged
    ``(w, y)``, or None when a step leaves positive weights and nodes in
    (0, 1) or ten steps do not reach 2e-15."""
    for _ in range(10):
        F, dF, mom = _end_basis(alpha, y)
        res = (F @ w - mom) / np.abs(mom)
        if np.max(np.abs(res)) < 2e-15:
            return w, y
        step = np.linalg.solve(np.hstack([F, dF * w]) / np.abs(mom)[:, None],
                               -res)
        w, y = w + step[:END_NODES], y + step[END_NODES:]
        if not (w.min() > 0.0 and y.max() < 0.0):
            return None
    return None


@lru_cache(maxsize=128)
def _end_rule(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The 6-node rule on [0, 1] exact on ``x^k`` and ``x^(alpha+k)``, ``k
    < 6`` (``x^k ln x`` at ``alpha = 0``), for ``-1 < alpha <= 1``: a
    generalized Gaussian rule (Ma, Rokhlin and Wandzura, SIAM J. Numer.
    Anal. 33, 1996), with positive weights and nodes inside (0, 1).

    Under ``x = u^2`` the rules at ``alpha = -1/2`` and ``1/2`` are closed:
    Gauss-Legendre in ``u`` with weights ``2 u w`` and Gauss-Jacobi of
    weight ``u`` with weights ``2 w``.  Every other rule continues from
    an anchor, the rule at the nearest multiple of 1/4 (at least -3/4),
    and an anchor from the next one toward the closed rule of its sign:
    a rule depends on ``alpha`` alone, not on which rules were built
    before.  Newton's method (:func:`_end_newton`) follows ``alpha`` in
    steps of at most 1/2, each started from a secant: the first through
    the anchor and the anchor on the other side of ``alpha`` (-1/2 below
    -3/4), the others through the last two rules.  A step that fails is
    halved and one that succeeds doubles (Bremer, Gimbutas and Rokhlin,
    SIAM J. Sci. Comput. 32, 2010).  Built on first use: 0.2-0.6 ms per
    rule down to ``alpha = -0.9``, 2-6 ms toward -0.999.  The cache holds
    the 57 exponents of a bound-chain pass and their anchors."""
    if not -1.0 < alpha <= 1.0:
        raise DomainError(f"end exponent {alpha} is outside (-1, 1]")
    if alpha == -0.5:
        u, w = _gauss_unit(END_NODES)
        return u * u, 2.0 * u * w
    if alpha == 0.5:
        u, w = _jacobi_unit(END_NODES, 1.0)
        return u * u, 2.0 * w
    a, last = min(1.0, max(-0.75, round(4.0 * alpha) / 4.0)), None
    if a == alpha:
        a += math.copysign(0.25, math.copysign(0.5, a) - a)
    else:
        b = a + math.copysign(0.25, alpha - a) if alpha > -0.75 else -0.5
        xb, wb = _end_rule(b)
        last = (b, wb, np.log(xb))
    x, w = _end_rule(a)
    y, step = np.log(x), 0.25
    while a != alpha:
        nxt = a + max(-step, min(step, alpha - a))
        start = (w, y)
        if last is not None:
            f = (nxt - a) / (a - last[0])
            guess = (w + f * (w - last[1]), y + f * (y - last[2]))
            if np.all(guess[0] > 0.0):
                start = guess
        new = _end_newton(nxt, *start)
        if new is None:
            step *= 0.5
            if step < 1e-6:
                raise DomainError(f"end rule at {alpha} did not converge")
            continue
        last, (w, y) = (a, w, y), new
        a, step = nxt, min(2.0 * step, 0.5)
    return np.exp(y), w


def centred_radial(f, ball) -> bool:
    """Whether ``f`` is declared radial (``f.radial``, read nowhere else)
    about the centre of ``ball``: ``ball`` is a :class:`Ball` and ``f``'s
    own centre -- that of its domain, or the origin when it has none --
    is ``ball.center_array`` exactly.

    Then ``f``, the ball and every field derived from them depend on the
    distance ``rho`` to that centre alone: the domain logarithmic
    Laplacian and the nonlocal normal derivative integrate in ``rho``
    (:func:`offset_rule`), and the harmonic routes of the Green operator,
    the Poisson extension and the complementary Poisson operator take
    degree 0 alone, reading the data once per radius; the complementary
    Poisson operator keeps the one data-dependent integral of every
    exterior radius.
    The full-space logarithmic Laplacian and the principal value have no
    such form; their 2D passes fold their direction rules by the mirror
    across the line through the centre and ``x`` (:func:`polar_directions`
    on the axis ``x - centre``).
    """
    if not (getattr(f, "radial", False) and isinstance(ball, Ball)):
        return False
    own = getattr(f, "domain", None)
    centre = np.zeros(ball.dim) if own is None else own.center_array
    return np.array_equal(centre, ball.center_array)


def polar_directions(N: int, m: int, axis=None, antipodal: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Directions and weights with ``sum(w) = |S^(N-1)|``.

    In 2D the rule is the ``m``-point midpoint rule on the circle, in 3D
    a Gauss x azimuth product rule.  Two symmetries of the integrand fold
    it, each direction then standing for its whole orbit with the
    orbit's weight:

    * ``axis`` (2D): the integrand is symmetric under the reflection
      across the line along ``axis``.  The circle rule is rotated so that
      the axis bisects two nodes, and the nodes on one side of it are
      kept at double weight; for odd ``m`` the node opposite the axis is
      its own mirror image and keeps a single weight.  The 3D product
      rule is not aligned with an axis and ignores it.
    * ``antipodal``: the integrand takes equal values at ``theta`` and
      ``-theta``.  The 2D rule with even ``m`` and the 3D rule are closed
      under negation; the directions with azimuth in ``(0, pi)``
      (relative to the axis, if one is given) are kept at double weight.
      A 2D rule with odd ``m`` is not closed under it and is left alone.

    Without a fold the rule is the plain one, bit for bit.  Mirror-
    symmetric trapezoid rules keep the spectral accuracy of the plain one
    on periodic analytic integrands (Trefethen and Weideman, SIAM Review
    56, 2014).
    """
    if N != 2:
        dirs, w = geometry._sphere_rule(max(6, m // 4))
        if not antipodal:
            return dirs, w
        # Azimuths (k + 1/2) 2 pi / n_phi pair off across pi, mu with -mu.
        keep = dirs[:, 1] > 0.0
        return dirs[keep], 2.0 * w[keep]
    # Node j lies at phi + 2 pi k / m with k = j + 1/2, and the folds keep
    # the nodes with k <= span, whose orbits have m / span nodes except
    # at k == span, the one node on the fold line.
    span = 0.5 * m if antipodal and m % 2 == 0 else float(m)
    if axis is not None:
        span *= 0.5
    k = np.arange(m) + 0.5
    k = k[k <= span]
    t = 2.0 * math.pi * k / m
    if axis is not None:
        t = math.atan2(float(axis[1]), float(axis[0])) + t
    dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
    w = np.full(len(k), 2.0 * math.pi / span)
    w[k == span] *= 0.5
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


def layered_directions(axis, n_mu: int, levels: int, n_phi: int,
                       mu_lo: float = -1.0, offset: bool = False
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Direction rule on the 2-sphere for integrands with an angular layer.

    A product (equal-area) sphere rule needs ``O(1/width^2)`` points to
    resolve a feature of small angular width, which is hopeless for
    boundary layers; instead the polar cosine ``mu`` against ``axis`` gets
    a composite rule on ``[mu_lo, 1]`` graded dyadically toward both
    edges: an exterior point sees a convex body under the half angle
    ``arccos(mu_lo)``, and the spans collapse at the rim.

    The azimuth gets an ``n_phi``-point trapezoid rule (spectral in smooth
    angular dependence) at ``phi_j = 2 pi j / n_phi``, or, with
    ``offset``, at the midpoints ``2 pi (j + 1/2) / n_phi`` that double
    it; callers pick ``n_phi`` through :func:`azimuth_rings`.  Weights
    carry the surface measure of the covered zone.
    """
    a, e1, e2 = _axis_frame(axis)
    mu, w_mu = map_rule(unit_power_rule(0.0, 0.0, n_mu, levels),
                        float(mu_lo), 1.0)
    sig = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
    phi = 2.0 * math.pi * (np.arange(int(n_phi)) + 0.5 * offset) / int(n_phi)
    ring = np.cos(phi)[:, None] * e1[None, :] \
        + np.sin(phi)[:, None] * e2[None, :]
    dirs = (mu[:, None, None] * a[None, None, :]
            + sig[:, None, None] * ring[None, :, :]).reshape(-1, 3)
    w = np.repeat(w_mu, int(n_phi)) * (2.0 * math.pi / int(n_phi))
    return dirs, w


def harmonic_rule(N: int, axis, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and the matrix ``Y`` that maps data values at them
    to the moments ``(2l + 1)/(4 pi) int P_l(mu) g dS`` (sphere) or
    ``eps_l/(2 pi) int cos(l psi) g dpsi`` (circle; ``eps_0 = 1``, else 2)
    of degree ``l <= L`` about ``axis``, exact for polynomials of degree
    ``L``: :func:`~fraclab.geometry._sphere_rule` of ``L + 1`` Gauss nodes
    in ``mu`` turned to the axis (``e_z`` if it vanishes), or the ``2L +
    2``-point :func:`polar_directions`."""
    if N == 2:
        dirs, w = polar_directions(2, 2 * L + 2)
        psi = np.arctan2(dirs[:, 1], dirs[:, 0]) - math.atan2(axis[1], axis[0])
        Z = 2.0 * np.cos(np.outer(psi, np.arange(L + 1)))
        Z[:, 0] = 1.0
    else:
        d, w = geometry._sphere_rule(L + 1)
        a, e1, e2 = _axis_frame(axis)
        dirs = d @ np.array([e1, e2, a])
        Z = np.polynomial.legendre.legvander(d[:, 2], L) \
            * (np.arange(L + 1) + 0.5)
    return dirs, Z * (w / (2.0 * math.pi))[:, None]


def doubling_error(prev: float, gap: float) -> float:
    """Error of the last sum ``S_2n`` of a doubling sequence from the last
    differences ``prev = |S_n - S_n/2|`` (0 if none) and ``gap = |S_2n -
    S_n|``: the geometric tail ``gap q / (1 - q)`` where ``q = gap / prev
    < 1`` (Trefethen and Weideman, SIAM Review 56, 2014), else ``gap``."""
    if 0.0 < gap < prev:
        return gap * gap / (prev - gap)
    return gap


AZIMUTH_START = 8     # azimuths per ring before the first doubling


def azimuth_rings(ring_pass, axis, n_mu: int, levels: int,
                  max_azimuths: int, cfg: QuadConfig, *,
                  mu_lo: float = -1.0, value=float):
    """A :func:`layered_directions` pass whose azimuth count doubles until
    the data is resolved.

    ``ring_pass(dirs, w_dir)`` integrates over one direction set and
    returns its weighted sum (a float, or an array that ``value`` maps to
    the pass's scalar result) and its evaluation count.  The rows come
    ring by ring: each ring is a run of consecutive rows of
    :func:`layered_directions` that share the polar cosine ``mu`` against
    ``axis`` and differ only in azimuth.  Every ring first takes
    ``AZIMUTH_START`` azimuths ``2 pi j / n``.  A doubling reads only the
    ``n`` new azimuths ``2 pi (j + 1/2) / n``, whose trapezoid sum ``T_n``
    gives ``S_2n = (S_n + T_n) / 2``, so no node is read twice.  It stops
    once the error of ``S_2n`` (:func:`doubling_error` of the last two
    differences) is at most ``max(abs_tol, rel_tol |S_2n|)``, or at the
    largest ``AZIMUTH_START * 2^k`` not above ``max_azimuths``.

    Returns ``(sum, evaluations, error)``, the error in the units of
    ``value``.
    """
    def rings(n, offset=False):
        return ring_pass(*layered_directions(axis, n_mu, levels, n, mu_lo,
                                             offset))

    n = AZIMUTH_START
    acc, evals = rings(n)
    gap = err = 0.0
    while 2 * n <= max_azimuths:
        mid, more = rings(n, offset=True)
        evals += more
        prev = value(acc)
        acc = 0.5 * (acc + mid)
        n *= 2
        now = value(acc)
        err, gap = doubling_error(gap, abs(now - prev)), abs(now - prev)
        if err <= max(cfg.abs_tol, cfg.rel_tol * abs(now)):
            break
    return acc, evals, err


def direction_chunks(n_dirs: int, row_len: int, budget: int = 1_200_000):
    """Slices over a direction set keeping each ``directions x radial``
    work array under ``budget`` entries, one row at a time where a single
    row exceeds it (bounds peak memory of polar quadratures regardless of
    how adaptive the angular rule grew)."""
    step = max(1, int(budget // max(int(row_len), 1)))
    for lo in range(0, int(n_dirs), step):
        yield slice(lo, min(lo + step, int(n_dirs)))


@lru_cache(maxsize=512)
def _graded_half(alpha: float, n: int, levels: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Rule on ``[0, 1/2]`` for ``x^alpha * smooth + smooth``, graded
    toward 0: Gauss panels ``[2^-(k+1), 2^-k]`` for ``1 <= k <= levels``,
    closed on ``[0, 2^-(levels+1)]`` by :func:`_end_rule`, exact on both
    families.  An exponent ``alpha > 1`` closes at ``alpha - m`` in ``(0,
    1]``, ``m`` a whole number: ``x^alpha g = x^(alpha-m) (x^m g)``.  The
    depth is not capped: scaled but not shifted, the nodes keep their
    relative precision at any depth."""
    if alpha > 1.0:
        alpha -= math.ceil(alpha) - 1
    h0 = 0.5 ** (levels + 1)
    t, w = _end_rule(alpha)
    seg_t, seg_w = [t * h0], [w * h0]
    xg, wg = _gauss_unit(n)
    lo = h0
    for _ in range(levels):
        hi = 2.0 * lo
        seg_t.append(lo + (hi - lo) * xg)
        seg_w.append((hi - lo) * wg)
        lo = hi
    return np.concatenate(seg_t), np.concatenate(seg_w)


def _half(alpha, n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_graded_half`, or one Gauss panel on ``[0, 1/2]`` when the
    end is smooth (``alpha`` None)."""
    if alpha is None:
        xg, wg = _gauss_unit(n)
        return 0.5 * xg, 0.5 * wg
    return _graded_half(float(alpha), n, levels)


@lru_cache(maxsize=512)
def unit_power_rule(alpha_lo, alpha_hi, n: int, levels: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, 1] for integrands ``x^alpha_lo (1-x)^alpha_hi * smooth``.

    ``alpha_lo`` / ``alpha_hi`` may be ``None`` (endpoint is smooth: no
    refinement there) or a float > -1 (dyadic refinement toward the
    endpoint, closed by the end rule of :func:`_graded_half`, so no mass
    is truncated).  The weights apply directly to integrand *values*.
    Each graded end is exact on a regular part added to its singular
    one, ``x^alpha g1 + g2``.  ``levels`` must be at least 0: a negative
    depth would stretch the end segment past the half interval.
    """
    if int(levels) < 0:
        raise DomainError(f"refinement depth {levels} is negative")
    # Deeper refinement than MAX_LEVELS would place nodes closer to the
    # endpoint than floating point can represent once the rule is mapped
    # to a generic interval; the end rule already integrates the rest
    # exactly, so nothing is lost by capping.
    levels = min(int(levels), MAX_LEVELS)
    t_lo, w_lo = _half(alpha_lo, n, levels)
    t_hi, w_hi = _half(alpha_hi, n, levels)
    return (np.concatenate([t_lo, 1.0 - t_hi[::-1]]),
            np.concatenate([w_lo, w_hi[::-1]]))


def _centre_distance(x, R: float) -> float:
    """``|x|`` for the routes in ``rho = |y - centre|``, 0 within ``2^-30
    R`` of the centre: their rules grade a level deeper per halving of
    ``|x|`` (:func:`offset_rule`).  That close, the value moves by
    ``O(|x|^2)``, below rounding, for radial data smooth at the centre,
    and by at most ``2^-30 R |grad u|`` for other data.
    """
    r = float(np.linalg.norm(x))
    return r if r > 2.0 ** -30 * R else 0.0


def offset_rule(r: float, R: float, n: int, near, far
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rule for ``int_0^R g(rho) drho`` with ``g`` singular at an interior
    point ``0 <= r < R`` and at ``R``.

    ``near = (alpha, levels)`` declares ``|rho - r|^alpha * smooth +
    smooth`` on each side of ``r``, ``far = (beta, levels)`` ``(R -
    rho)^beta * smooth + smooth`` at ``R``, exponents above -1; either may
    be None for a smooth end.  ``[0, r]`` and ``[r, R]`` are halved: the
    halves next to ``r`` are graded toward it (:func:`_half` with
    ``near``), the one next to ``R`` toward ``R`` (with ``far``), each
    closed by :func:`_end_rule`, exact on both families, and ``[0, r/2]``
    is one Gauss panel.  The smooth factors vary near ``r`` on the scale
    of the nearer of the centre and ``R``, so both halves next to ``r``
    grade to ``2^-levels`` of ``min(r, R - r)``: the longer one takes the
    extra levels.  Each graded half runs in its own offset variable,
    ``tau = |rho - r|`` or ``sigma = R - rho``, built as an exact multiple
    of its half's length, so it may grade deeper than :data:`MAX_LEVELS`.

    Returns ``(rho, off, sigma, w)``: the nodes, their signed offsets
    ``rho - r`` (negative below ``r``), their distances ``R - rho`` and
    the weights.  ``off`` is exact on the halves next to ``r`` and
    ``sigma`` on the half next to ``R``, where they are small; the side
    of a node is the sign of ``off``, even where ``rho`` rounds to ``r``.
    """
    span = R - r
    scale = min(r, span) if r > 0.0 else span

    def graded(end, length=scale):
        if end is None:
            return _half(None, n, 0)
        deeper = max(0, math.ceil(math.log2(length / scale)))
        return _half(end[0], n, end[1] + deeper)

    t, w = graded(near, span)
    tf, wf = graded(far)
    parts = [(r + span * t, span * t, span - span * t, span * w),
             (R - span * tf, span - span * tf, span * tf, span * wf)]
    if r > 0.0:
        t, w = graded(near, r)
        tg, wg = graded(None)
        parts += [(r - r * t, -r * t, span + r * t, r * w),
                  (r * tg, r * tg - r, R - r * tg, r * wg)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def map_rule(rule: tuple[np.ndarray, np.ndarray], a: float, b: float
             ) -> tuple[np.ndarray, np.ndarray]:
    """Affine image of a unit-interval rule on [a, b]."""
    x, w = rule
    return a + (b - a) * x, (b - a) * w


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
        k = np.arange(n)        # DCT-II, angles reduced mod 2 pi exactly
        cos = np.cos(np.outer(k, 2 * k + 1) % (4 * n) * (math.pi / (2 * n)))
        coef = cos @ vals[idx] * (2.0 / n)
        coef[0] *= 0.5
        level = CHEB_CHOP_TOL * np.max(np.abs(coef))
        above = np.flatnonzero(np.abs(coef) > level)
        last = above[-1] if above.size else 0      # zero data: [0.0]
        if last < n - n // 3:
            return coef[:last + 1]
        if n >= m:
            return coef
        n *= 3


# Coefficients of the tabulated fields (``restriction_ws``, ``ell_field``)
# and of the interchange profiles, keyed by their own token.
_PROFILE_CACHE = _Memo(256)


def _log_profile(sample, ln_lo: float, ln_span: float, token):
    """A function of a distance ``d > 0``: the chopped Chebyshev series of
    ``sample(d)`` in ``2 (ln d - ln_lo) / ln_span - 1`` (stored in
    :data:`_PROFILE_CACHE` under ``token``), held at its end values."""
    coef = _PROFILE_CACHE.fetch(token, lambda: _chebyshev_profile(
        lambda t: sample(np.exp(ln_lo + 0.5 * ln_span * (t + 1.0)))))

    def profile(d):
        t = np.clip(2.0 * (np.log(d) - ln_lo) / ln_span - 1.0, -1.0, 1.0)
        return np.polynomial.chebyshev.chebval(t, coef)

    return profile


# ---------------------------------------------------------------------------
# Ray integrals.
# ---------------------------------------------------------------------------

def crossing_segments(t_lo, t_hi, lo: float, hi, ext_p: float | None
                      ) -> tuple[np.ndarray, ...]:
    """Flat segments ``(idx, a, b, alpha_lo, alpha_hi)`` of ``[lo, hi]``
    along each direction, split at its boundary crossings.

    ``t_lo`` and ``t_hi`` hold the entries and exits (from
    :func:`~fraclab.geometry.ray_spans`, NaN where there is none): one per
    direction, or one column per ray when several rays share the
    direction's segments.  ``hi`` may be an array (per-direction upper
    ends).  Crossings within a relative 1e-9 of ``lo`` or ``hi`` cut
    nothing, and repeated ones leave no empty segment; segments come
    direction by direction in increasing order.

    The endpoint exponents feed :func:`unit_power_rule`: ``0.0`` (plain
    dyadic grading, right for the bounded kinks of fields vanishing at the
    boundary) everywhere except on the *exterior* side of a crossing of a
    field with a declared ``exterior_power`` ``ext_p`` -- below an entry
    and above an exit -- where the end rule of the layer ``dist^p`` takes
    the matching exponent.  Crossings are matched to the same tolerance, so
    one sitting exactly on ``lo`` or ``hi`` (e.g. the unit-split radius of
    the logarithmic Laplacian hitting the boundary) still flags the
    adjacent segment.
    """
    n = len(t_lo)
    t_lo = np.asarray(t_lo, dtype=float).reshape(n, -1)
    t_hi = np.asarray(t_hi, dtype=float).reshape(n, -1)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,))
    eps = 1e-9 * np.maximum(1.0, np.abs(hi))
    cuts = np.column_stack([t_lo, t_hi])
    inside = ((float(lo) + eps)[:, None] < cuts) & (cuts < (hi - eps)[:, None])
    cuts[~inside] = np.nan
    marks = np.sort(np.column_stack([np.full(n, float(lo)), cuts, hi]),
                    axis=1)
    a, b = marks[:, :-1], marks[:, 1:]
    keep = b > a                      # NaN marks (sorted last) fail too
    idx, a, b = np.nonzero(keep)[0], a[keep], b[keep]
    alpha_lo, alpha_hi = np.zeros(len(idx)), np.zeros(len(idx))
    if ext_p is not None:
        near = eps[idx, None]
        alpha_lo[(np.abs(a[:, None] - t_hi[idx]) <= near).any(axis=1)] = ext_p
        alpha_hi[(np.abs(b[:, None] - t_lo[idx]) <= near).any(axis=1)] = ext_p
    return idx, a, b, alpha_lo, alpha_hi


def _scale_at(u, x) -> float:
    """Local smoothness scale of ``u`` at ``x``: its ``smooth_scale``, a
    number or a callable of the point, else 1."""
    scale = getattr(u, "smooth_scale", None)
    if scale is None:
        return 1.0
    return float(scale(x) if callable(scale) else scale)


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
        d_sl = dirs[idx[sl]]
        pts = np.empty(t.shape + (x.size,))
        for d in range(x.size):
            pts[..., d] = x[d] + t * d_sl[:, d, None]
        vals = _finite_values(u, pts.reshape(-1, x.size)).reshape(t.shape)
        seg = np.einsum("kj,kj->k", kernel(t, vals), h * wu[None, :])
        sums += np.bincount(idx[sl], weights=seg, minlength=len(dirs))
    return sums, idx.size * len(xu)


# ---------------------------------------------------------------------------
# Symmetrized principal value.
# ---------------------------------------------------------------------------

def integrate_pv_second_difference(u, x, s, cfg: QuadConfig | None = None
                                   ) -> IntegralResult:
    """Symmetrized principal value ``int (2u(x) - u(x+z) - u(x-z)) / (2 |z|^(N+2s)) dz``.

    Returns the *unnormalized* integral; callers apply the fractional
    normalization themselves.  ``u`` must be twice differentiable near
    ``x`` on its smoothness scale (:func:`_scale_at`): inside
    ``PV_INNER_RADIUS`` times that scale the second difference is
    integrated against the exact ``t^(1-2s)`` radial weight, so the split
    radius never needs to chase the singularity.

    ``u.domain``, when present, marks a boundary across which ``u`` loses
    smoothness (fields that vanish outside kink like ``delta^s`` there);
    ray crossings become quadrature breakpoints.  For compactly supported
    ``u`` (``u.is_compact``, by default whether it has a domain) the far
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
    domain = getattr(u, "domain", None)
    compact_support = bool(getattr(u, "is_compact", domain is not None))
    inner_scale = _scale_at(u, x)
    if not inner_scale > 0.0:
        raise DomainError("second-difference rule needs a positive smoothness scale")

    u_x = _centre_value(u, x)

    def one_pass(m_ang, n_rad, levels):
        return _pv_pass(u, x, u_x, s, N, domain, inner_scale,
                        compact_support, m_ang, n_rad, levels)

    return _two_pass(one_pass, (cfg.angular_order, cfg.radial_order,
                                cfg.max_subdiv), cfg)


def _pv_pass(u, x, u_x, s, N, domain, inner_scale, compact_support,
             m_ang, n_rad, levels):
    # The symmetrized integrand is even in theta, so one direction of each
    # +- pair carries the pair; radial data folds by the mirror too.
    axis = x - domain.center_array if centred_radial(u, domain) else None
    dirs, w_dir = polar_directions(N, m_ang, axis, antipodal=True)
    M = len(dirs)
    every = np.arange(M)
    both = np.concatenate([dirs, -dirs])
    r_in = PV_INNER_RADIUS * inner_scale
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
    # panels on the exterior side of each crossing.
    t_end = np.full(M, max(2.0 * r_in, 1.0))
    t_lo = t_hi = np.empty((M, 0))
    if domain is not None:
        lo2, hi2, _ = geometry.ray_spans(domain, x, both)
        t_lo, t_hi = lo2.reshape(2, M).T, hi2.reshape(2, M).T
        cross = np.column_stack([t_lo, t_hi])
        last = np.fmax.reduce(np.where(cross > r_in, cross, np.nan), axis=1)
        if not compact_support:
            last = 2.0 * last
        t_end = np.where(np.isnan(last), t_end, last)
    ext_p = None if compact_support else getattr(u, "exterior_power", None)
    idx, a, b, alpha_lo, alpha_hi = crossing_segments(t_lo, t_hi, r_in,
                                                      t_end, ext_p)
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
