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
from scipy.special import gammaln

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

    CSV_COLUMNS: ClassVar[tuple] = (
        "s", "norm_numeric", "bound_integral", "bound_new", "bound_old",
        "m_s", "p_s_numeric", "p_s_lower", "q_Ns")


def _q_integrand(tau: float, N: int) -> float:
    # ln of  (3^tau Gamma(N/2) / (2^N Gamma(tau) Gamma(N/2+1-tau)))^{N/(N-2tau)}
    # 1/Gamma(tau) kills the integrand at tau -> 0+; for N = 2 the
    # exponent blows up as tau -> 1- with base < 1, so the integrand
    # dies there too (guarded: the clamp below avoids exp underflow).
    if tau <= 0.0 or 2.0 * tau >= N:
        return 0.0
    ln_base = (tau * math.log(3.0) + gammaln(0.5 * N) - N * math.log(2.0)
               - gammaln(tau) - gammaln(0.5 * N + 1.0 - tau))
    val = N / (N - 2.0 * tau) * ln_base
    return math.exp(val) if val > -700.0 else 0.0


def q_constant(N: int, s, cfg: QuadConfig | None = None, *,
               rule: str = "gauss") -> float:
    """``q_{N,s} = c_N int_0^s (3^t G(N/2) / (2^N G(t) G(N/2+1-t)))^{N/(N-2t)} dt``.

    ``rule`` selects between the in-house graded Gauss panels
    (``"gauss"``, default) and adaptive quadrature from scipy
    (``"quad"``); the two serve as independent cross-checks of the
    frozen values in the test suite.
    """
    c_N = log_constants(N)[0]
    s = float(as_order(s))
    if rule == "gauss":
        nodes, w = quad.map_rule(quad.unit_power_rule(0.0, 0.0, 32, 18),
                                 0.0, s)
        vals = np.array([_q_integrand(t, N) for t in nodes])
        return c_N * float(np.dot(w, vals))
    if rule == "quad":
        from scipy.integrate import quad as sp_quad
        val, _ = sp_quad(_q_integrand, 0.0, s, args=(N,), limit=200,
                         epsabs=1e-13, epsrel=1e-12)
        return c_N * val
    raise DomainError(f"unknown quadrature rule {rule!r}")


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


def _radial_points(ball: Ball, n: int) -> np.ndarray:
    # log-spaced boundary distances so the blow-up of h and P^c 1 near
    # the boundary is sampled densely; delta = R reaches the center.
    R = ball.radius
    deltas = np.geomspace(1e-4 * R, R, n)
    pts = np.tile(ball.center_array, (n, 1))
    pts[:, 0] += R - deltas
    return pts


def _golden_refine(fun, rs, vals):
    i = int(np.argmin(vals))
    if 0 < i < len(rs) - 1:
        from scipy.optimize import minimize_scalar
        res = minimize_scalar(fun, bracket=(rs[i - 1], rs[i], rs[i + 1]),
                              method="golden", options={"xtol": 1e-6})
        if res.fun < vals[i]:
            return float(res.fun)
    return float(vals[i])


def p_s_numeric(domain: Domain, s, cfg: QuadConfig | None = None, *,
                n_grid: int = 25) -> float:
    """``p_s(Omega) = inf_Omega P^c_s 1`` by radial scan on a ball.

    The infimum of the radial profile is located on a log-spaced grid
    and refined by golden-section search when it falls strictly inside
    the grid (on balls it typically sits at the center).
    """
    ball = kernels._require_ball(domain, "the complementary-mass infimum")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    data = _ones(ball.dim)
    pts = _radial_points(ball, n_grid)
    rs = np.linalg.norm(pts - ball.center_array[None, :], axis=1)
    vals = np.array([kernels.comp_poisson_apply(ball, data, s, p, cfg).value
                     for p in pts])

    def fun(r):
        p = ball.center_array.copy()
        p[0] += r
        return kernels.comp_poisson_apply(ball, data, s, p, cfg).value

    return _golden_refine(fun, rs, vals)


def _h_profile(ball: Ball, cfg: QuadConfig, n_grid: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """``h_Omega`` on the radial scan points; it does not depend on the
    order, so one profile serves every ``m_tau``."""
    pts = _radial_points(ball, n_grid)
    return pts, np.array([operators.h_omega(ball, p, cfg).value
                          for p in pts])


def _m_scan(ball: Ball, s: float, cfg: QuadConfig, pts: np.ndarray,
            h: np.ndarray) -> float:
    data = _ones(ball.dim)
    vals = h + np.array([kernels.comp_poisson_apply(ball, data, s, p,
                                                    cfg).value
                         for p in pts])
    return float(np.min(vals))


def m_s(domain: Domain, s, cfg: QuadConfig | None = None, *,
        n_grid: int = 25) -> float:
    """``m_s(Omega) = rho_N + inf_Omega (h_Omega + P^c_s 1)``.

    Both terms blow up at the boundary, so the infimum is interior; the
    grid minimum over the radial profile is reported.
    """
    ball = kernels._require_ball(domain, "the norm-decay rate")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    rho_N = log_constants(ball.dim)[1]
    return rho_N + _m_scan(ball, s, cfg, *_h_profile(ball, cfg, n_grid))


def min_h_omega(domain: Domain) -> float:
    """``min_Omega h_Omega``.

    On a ball of radius ``R``, ``h_Omega(x) = -ln(R^2 - |x - c|^2)`` is
    smallest at the center, with value ``-2 ln R``.
    """
    ball = kernels._require_ball(domain, "the geometry-weight minimum")
    return -2.0 * math.log(ball.radius)


def green_norm_bound(domain: Domain, s, cfg: QuadConfig | None = None, *,
                     n_tau: int = 12, n_grid: int = 25) -> BoundReport:
    """Full report: numeric norm of ``G_s`` on a ball and its bounds.

    The numeric norm is exact -- the radial torsion solution peaks at
    the center with value ``d_{N,s} R^{2s}``.  The integral-form bound
    samples ``m_tau`` on ``n_tau`` nodes of ``(0, s]`` and applies the
    trapezoid rule, extending the first cell to ``tau = 0`` linearly.
    """
    ball = kernels._require_ball(domain, "the Green-operator norm")
    cfg = cfg or QuadConfig()
    s = float(as_order(s))
    N, R = ball.dim, ball.radius
    c_N, rho_N = log_constants(N)
    vol, diam = geometry.measures(ball)
    geo = vol * diam ** -N

    norm_numeric = ball_torsion_constant(N, s)[0] * R ** (2.0 * s)
    q = q_constant(N, s, cfg)
    pts, h = _h_profile(ball, cfg, n_grid)
    minh = min_h_omega(ball)
    bound_old = math.exp(-s * (minh + rho_N))
    bound_new = math.exp(-s * (minh + rho_N) - q * geo)

    taus = s * np.arange(1, n_tau + 1) / n_tau
    ms = np.array([rho_N + _m_scan(ball, t, cfg, pts, h) for t in taus])
    integral = float(np.trapezoid(ms, taus))
    m0 = ms[0] - (ms[1] - ms[0]) * taus[0] / (taus[1] - taus[0])
    integral += taus[0] * 0.5 * (m0 + ms[0])
    bound_integral = math.exp(-integral)

    return BoundReport(s=s, norm_numeric=norm_numeric,
                       bound_integral=bound_integral, bound_new=bound_new,
                       bound_old=bound_old, m_s=float(ms[-1]),
                       p_s_numeric=p_s_numeric(ball, s, cfg, n_grid=n_grid),
                       p_s_lower=p_s_lower(N, s, ball), q_Ns=q)
