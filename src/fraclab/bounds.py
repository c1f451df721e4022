"""Norm bounds for the Green operator on balls.

For the solution operator ``G_s`` of the order-``s`` Dirichlet problem,
the sup-norm obeys a chain of explicit estimates built from the geometry
weight ``h_Omega``, the complementary-kernel mass ``P^c_s 1``, and the
constant ``q_{N,s}``:

    ``||G_s|| <= exp(-int_0^s m_tau dtau)``
             ``<= exp(-s(min h + rho_N) - q_{N,s} |Omega| diam^{-N})``
             ``<= exp(-s(min h + rho_N))``

with ``m_s = rho_N + inf_Omega (h_Omega + P^c_s 1)``.  On a ball the
norm itself is available exactly -- the torsion solution is radial and
peaks at the center -- so every link of the chain is checkable.  This
module computes the numeric norm, the three bounds, and the quantities
``m_s``, ``p_s = inf P^c_s 1`` (with its closed-form lower bound) that
enter them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .core import DomainError, as_order
from . import geometry
from .geometry import Ball, Domain
from . import quadrature as quad
from .quadrature import QuadConfig
from . import kernels
from . import operators
from .operators import ScalarField
from .specfun import ball_torsion_constant, log_constants

__all__ = [
    "BoundReport",
    "q_constant",
    "p_s_lower",
    "p_s_numeric",
    "m_s",
    "min_h_omega",
    "green_norm_bound",
]

N_TAU = 12  # nodes of (0, s] sampling m_tau in the integral bound


@dataclass(frozen=True)
class BoundReport:
    """Numeric Green-operator norm and its explicit bounds at one order.

    The documented ordering -- ``norm_numeric <= bound_integral <=
    bound_new <= bound_old`` and ``p_s_numeric >= p_s_lower >= 0`` -- is
    a theorem, not a construction-time constraint: the report carries
    whatever the quadrature produced so a violation shows up in tests
    rather than vanishing into an exception.
    """

    s: float
    norm_numeric: float
    bound_integral: float
    bound_new: float
    bound_old: float
    m_s: float
    p_s_numeric: float
    p_s_lower: float
    q_Ns: float
    integral_error: float

    CSV_COLUMNS: ClassVar[tuple] = (
        "s", "norm_numeric", "bound_integral", "bound_new", "bound_old",
        "m_s", "p_s_numeric", "p_s_lower", "q_Ns", "integral_error")


def _q_integrand(tau: float, N: int) -> float:
    # ln of  (3^tau Gamma(N/2) / (2^N Gamma(tau) Gamma(N/2+1-tau)))^{N/(N-2tau)}
    # 1/Gamma(tau) kills the integrand at tau -> 0+; for N = 2 the
    # exponent blows up as tau -> 1- with base < 1, so the integrand
    # dies there too (guarded: the clamp below avoids exp underflow).
    if tau <= 0.0 or 2.0 * tau >= N:
        return 0.0
    ln_base = (tau * math.log(3.0) + math.lgamma(0.5 * N) - N * math.log(2.0)
               - math.lgamma(tau) - math.lgamma(0.5 * N + 1.0 - tau))
    val = N / (N - 2.0 * tau) * ln_base
    return math.exp(val) if val > -700.0 else 0.0


def q_constant(N: int, s) -> float:
    """``q_{N,s} = c_N int_0^s (3^t G(N/2) / (2^N G(t) G(N/2+1-t)))^{N/(N-2t)} dt``.

    Graded Gauss panels on ``[0, s]``; the test suite cross-checks them
    against adaptive quadrature of the same integrand.
    """
    c_N = log_constants(N)[0]
    s = float(as_order(s))
    nodes, w = quad.map_rule(quad.unit_power_rule(0.0, 0.0, 16, 8), 0.0, s)
    vals = np.array([_q_integrand(t, N) for t in nodes])
    return c_N * float(np.dot(w, vals))


def p_s_lower(N: int, s, domain: Domain) -> float:
    """Closed-form lower bound for ``p_s(Omega) = inf_Omega P^c_s 1``.

    For ``s < 1`` this is
    ``c_N (3^s G(N/2)/(2^N G(s) G(N/2+1-s)))^{N/(N-2s)} |Omega| diam^{-N}``;
    at ``s = 1`` the classical Poisson-kernel bound
    ``c_N |Omega| diam^{-N}``.  The ``s < 1`` expression degenerates to 0
    as ``s -> 1`` in dimension 2 (exponent blow-up with base < 1), which
    is why the endpoint carries its own formula.
    """
    s = float(as_order(s))
    if domain.dim != N:
        raise DomainError(
            f"domain of dimension {domain.dim} with N = {N}")
    c_N = log_constants(N)[0]
    vol, diam = geometry.measures(domain)
    geo = vol * diam ** -N
    if s == 1.0:
        return c_N * geo
    return _q_integrand(s, N) * c_N * geo


def _ones(N: int) -> ScalarField:
    return ScalarField(fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=N,
                       radial=True, smooth_scale=1.0,
                       cache_token=("bounds-ones", N))


def _centre_mass(ball: Ball, t: float, cfg: QuadConfig) -> float:
    """``P^c_t 1`` at the centre of ``ball``, moved to the origin:
    ``P^c_t 1`` is translation invariant, and ``_ones``, with no domain,
    is radial about the origin."""
    origin = Ball((0.0,) * ball.dim, ball.radius)
    return kernels.comp_poisson_apply(origin, _ones(ball.dim), t,
                                      np.zeros(ball.dim), cfg).value


def p_s_numeric(domain: Domain, s, cfg: QuadConfig | None = None) -> float:
    """``p_s(Omega) = inf_Omega P^c_s 1``: on a ball, ``P^c_s 1`` at the
    centre.

    With ``f = 1`` the computed ``P^c_s 1`` sums, with positive weights,
    terms that grow with the distance from the centre (``2 pi/(q^2 -
    r^2)``, ``4 pi/(q (q^2 - r^2))``, the ``s = 1`` form), so the profile
    falls strictly toward the centre and its minimum is the centre value.
    The test suite checks this against a radial scan.
    """
    ball = kernels._require_ball(domain, "the complementary-mass infimum")
    return _centre_mass(ball, float(as_order(s)), cfg or QuadConfig())


def m_s(domain: Domain, s, cfg: QuadConfig | None = None) -> float:
    """``m_s(Omega) = rho_N + inf_Omega (h_Omega + P^c_s 1)``.

    On a ball both ``h_Omega = -ln(R^2 - |x - c|^2)`` and ``P^c_s 1``
    (:func:`p_s_numeric`) are smallest at the centre, so the infimum is
    their sum there; ``h_Omega`` is taken as ``-ln(R R)``, not
    :func:`min_h_omega`'s ``-2 ln R``, which differs by an ulp.
    """
    ball = kernels._require_ball(domain, "the norm-decay rate")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    rho_N = log_constants(ball.dim)[1]
    h = operators.h_omega(ball, ball.center_array, cfg).value
    return rho_N + (h + _centre_mass(ball, s, cfg))


def min_h_omega(domain: Domain) -> float:
    """``min_Omega h_Omega``.

    On a ball of radius ``R``, ``h_Omega(x) = -ln(R^2 - |x - c|^2)`` is
    smallest at the center, with value ``-2 ln R``.
    """
    ball = kernels._require_ball(domain, "the geometry-weight minimum")
    return -2.0 * math.log(ball.radius)


def _tau_integral(taus: np.ndarray, ms: np.ndarray) -> tuple[float, float]:
    """``int_0^s m_tau dtau`` and its estimate from ``m_tau`` at the
    equispaced nodes ``taus`` of ``(0, s]``: the integral of their
    Chebyshev interpolant in ``2 tau/s - 1``, which carries the smooth
    ``m_tau`` to ``tau = 0``, and its gap to the same rule on all nodes
    but the first."""
    s = taus[-1]
    u = 2.0 * taus / s - 1.0

    def rule(k):
        series = cheb.chebint(cheb.chebfit(u[-k:], ms[-k:], k - 1), lbnd=-1.0)
        return 0.5 * s * float(cheb.chebval(1.0, series))

    value = rule(len(taus))
    return value, abs(value - rule(len(taus) - 1))


def green_norm_bound(domain: Domain, s,
                     cfg: QuadConfig | None = None) -> BoundReport:
    """Full report: numeric norm of ``G_s`` on a ball and its bounds.

    The numeric norm is exact -- the radial torsion solution peaks at
    the center with value ``d_{N,s} R^{2s}``.  The integral-form bound
    integrates ``m_tau`` at ``N_TAU`` equispaced nodes of ``(0, s]`` by
    their interpolating polynomial (:func:`_tau_integral`); its estimate
    ``e`` gives ``bound_integral``'s relative error ``expm1(e)``.
    ``m_tau`` is read at the centre (:func:`m_s`): one ``h_Omega`` value
    serves every node, and one ``P^c_tau 1`` value per node serves
    ``m_tau`` and, at the last node ``tau = s``, ``p_s_numeric``.
    """
    ball = kernels._require_ball(domain, "the Green-operator norm")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N, R = ball.dim, ball.radius
    rho_N = log_constants(N)[1]
    vol, diam = geometry.measures(ball)
    geo = vol * diam ** -N

    norm_numeric = ball_torsion_constant(N, s)[0] * R ** (2.0 * s)
    q = q_constant(N, s)
    minh = min_h_omega(ball)
    bound_old = math.exp(-s * (minh + rho_N))
    bound_new = math.exp(-s * (minh + rho_N) - q * geo)

    taus = s * np.arange(1, N_TAU + 1) / N_TAU
    taus[-1] = s  # p_s is read at this node; the product may round off s
    mass = np.array([_centre_mass(ball, t, cfg) for t in taus])
    h = operators.h_omega(ball, ball.center_array, cfg).value
    ms = rho_N + (h + mass)
    integral, tau_error = _tau_integral(taus, ms)

    return BoundReport(s=s, norm_numeric=norm_numeric,
                       bound_integral=math.exp(-integral), bound_new=bound_new,
                       bound_old=bound_old, m_s=float(ms[-1]),
                       p_s_numeric=float(mass[-1]),
                       p_s_lower=p_s_lower(N, s, ball), q_Ns=q,
                       integral_error=math.expm1(tau_error))
