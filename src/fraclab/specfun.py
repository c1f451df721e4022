"""Gamma-family special functions and the named constants of the model.

Gamma is ``math.gamma``; digamma is :func:`digamma` below, closed at
``N/2`` (``psi(1) = -gamma_E``, ``psi(3/2) = 2 - gamma_E - 2 ln 2``).  The
test suite pins both against a frozen high-precision table, digamma on a
dense grid of ``1 + s`` and ``N/2 + s`` against mpmath, and every constant
below against its closed value.

Conventions
-----------
* ``frac_normalization`` is the constant ``c(N, s)`` making the principal
  value integral equal the Fourier multiplier ``|xi|^(2s)``.
* ``log_constants`` returns ``(c_N, rho_N)`` for the logarithmic operator
  with symbol ``2 log |xi|``: the kernel constant ``c_N = Gamma(N/2) /
  pi^(N/2)`` and the zero-order constant ``rho_N = 2 ln 2 + psi(N/2) -
  gamma_E``  (Euler's constant entering through ``psi(1) = -gamma_E``).
* ``riesz_constant`` is the coefficient of ``|z|^(2s - N)`` in the
  fundamental solution, defined for ``0 < s < N/2``.
* ``ball_poisson_constant`` is the coefficient in the exterior Poisson
  kernel of a ball.
* ``ball_torsion_constant`` is the center coefficient ``d(N, s)`` of the
  ball torsion function together with its exact s-derivative.
"""

from __future__ import annotations

import math

from .core import DomainError

__all__ = [
    "digamma",
    "frac_normalization",
    "log_constants",
    "riesz_constant",
    "ball_poisson_constant",
    "ball_torsion_constant",
]

_EULER_GAMMA = 0.57721566490153286061

# psi(N/2) in closed form.
_PSI_HALF_N = {2: -_EULER_GAMMA,
               3: 2.0 - _EULER_GAMMA - 2.0 * math.log(2.0)}

# The positive root x0 = 1.46163214496836234126... of psi as a double and
# its remainder, and (-1)^(k+1) zeta(k+1, x0 + 4) for k = 1..24 (mpmath,
# 50 digits): the Taylor coefficients of psi(x + 4) - psi(x0 + 4) in
# x - x0.
_PSI_ROOT = (1.4616321449683622, 9.549995429965697e-17)
_PSI_ROOT_SERIES = (
    0.20087373450709453, -0.020108936358587962, 0.0026754437112900442,
    -0.00039919946356110106, 6.33408058735551e-05, -1.0437948438872376e-05,
    1.7641303405817275e-06, -3.0352352220279607e-07, 5.290876438611407e-08,
    -9.313984792854184e-09, 1.6520741532171012e-09, -2.9477631702702637e-10,
    5.284334007743229e-11, -9.508590939361904e-12, 1.7161536543178907e-12,
    -3.105018301175094e-13, 5.629180337232354e-14, -1.0222173079600432e-14,
    1.858800089109782e-15, -3.383853464430562e-16, 6.165901877197223e-17,
    -1.1243969110752078e-17, 2.0517501999989985e-18, -3.7459737214890964e-19,
)
# B_2k / (2k), k = 1..8: the asymptotic series of psi.
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12, -3617 / 8160)


def digamma(x: float) -> float:
    """The digamma function ``psi(x)``, ``x > 0``.

    ``psi(x) = psi(x + 1) - 1/x`` lifts ``x < 1``; from ``x >= 10`` the
    asymptotic series ``ln x - 1/(2x) - sum B_2k / (2k x^2k)`` takes over,
    and below it ``psi(x) = psi(x - 1) + 1/(x - 1)`` lowers ``x`` into
    ``[1, 2.5)``, adding terms of one sign.  There, about the root ``x0``
    with ``d = x - x0``,

        ``psi(x) = d (sum_{j<4} 1 / ((x0 + j)(x + j))
                     + sum_k (-1)^(k+1) zeta(k+1, x0 + 4) d^(k-1))``,

    every part of which carries the factor ``d``, so nothing cancels as
    ``x`` nears the root.  Against mpmath on a dense grid of ``1 + s`` and
    ``3/2 + s``, ``0 < s < 2``, it is at most 2 ulp off, and at most
    1.1e-16 within 0.3 of the root.
    """
    x = float(x)
    acc = 0.0
    while x < 1.0:
        acc -= 1.0 / x
        x += 1.0
    if x >= 10.0:
        r = 1.0 / (x * x)
        tail = 0.0
        for b in reversed(_PSI_ASYMPTOTIC):
            tail = tail * r + b
        return acc + (math.log(x) - 0.5 / x - tail * r)
    while x >= 2.5:
        x -= 1.0
        acc += 1.0 / x
    hi, lo = _PSI_ROOT
    d = (x - hi) - lo
    t = 0.0
    for c in reversed(_PSI_ROOT_SERIES):
        t = t * d + c
    for j in (3.0, 2.0, 1.0, 0.0):
        t += 1.0 / ((hi + j) * (x + j))
    return acc + d * t


def frac_normalization(N: int, s) -> float:
    """Normalization ``c(N, s)`` of the fractional Laplacian, ``0 < s < 1``.

    ``c(N, s) = 4^s Gamma(N/2 + s) s (1 - s) / (Gamma(2 - s) pi^(N/2))``,
    the constant for which the symmetrized principal-value integral has
    Fourier symbol ``|xi|^(2s)``.  Vanishes linearly at both endpoints,
    which is what drives the entire small-``1-s`` analysis; the endpoint
    values themselves are excluded because the principal-value operator is
    not defined there.
    """
    _check_dim(N)
    s = float(s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"frac_normalization requires 0 < s < 1, got s={s}")
    return (4.0 ** s * math.gamma(0.5 * N + s) * s * (1.0 - s)
            / (math.gamma(2.0 - s) * math.pi ** (0.5 * N)))


def log_constants(N: int) -> tuple[float, float]:
    """Kernel and zero-order constants ``(c_N, rho_N)`` of the log operator.

    ``c_N = Gamma(N/2) / pi^(N/2)`` and ``rho_N = 2 ln 2 + psi(N/2) -
    gamma_E``.  These are the s-derivatives at ``s = 0`` of ``c(N, s)``'s
    numerator structure; concretely ``rho_2 = 2 ln 2 - 2 gamma_E``.
    """
    _check_dim(N)
    c_N = math.gamma(0.5 * N) / math.pi ** (0.5 * N)
    rho_N = 2.0 * math.log(2.0) + _PSI_HALF_N[N] - _EULER_GAMMA
    return c_N, rho_N


def riesz_constant(N: int, s) -> float:
    """Coefficient ``kappa(N, s)`` of the fundamental solution, ``0 < s < N/2``.

    ``kappa(N, s) = Gamma(N/2 - s) / (4^s pi^(N/2) Gamma(s))`` multiplies
    ``|z|^(2s - N)``.  The upper restriction ``s < N/2`` is genuine: at
    ``s = N/2`` the fundamental solution changes to logarithmic type, which
    this package does not provide.
    """
    _check_dim(N)
    s = float(s)
    if not 0.0 < s < 0.5 * N:
        raise DomainError(
            f"riesz_constant requires 0 < s < N/2 = {0.5 * N}, got s={s}")
    return math.gamma(0.5 * N - s) / (4.0 ** s * math.pi ** (0.5 * N)
                                      * math.gamma(s))


def ball_poisson_constant(N: int, s) -> float:
    """Coefficient ``tau(N, s)`` of the exterior Poisson kernel of a ball.

    ``tau(N, s) = Gamma(N/2) sin(pi s) / pi^(N/2 + 1)``; equivalently
    ``Gamma(N/2) / (pi^(N/2) Gamma(s) Gamma(1 - s))``.  Defined for
    ``0 < s < 1`` and vanishing at both ends.
    """
    _check_dim(N)
    s = float(s)
    if not 0.0 < s < 1.0:
        raise DomainError(f"ball_poisson_constant requires 0 < s < 1, got s={s}")
    return (math.gamma(0.5 * N) * math.sin(math.pi * s)
            / math.pi ** (0.5 * N + 1.0))


def ball_torsion_constant(N: int, s) -> tuple[float, float]:
    """Center coefficient ``d(N, s)`` of the ball torsion function and ``d/ds``.

    ``d(N, s) = Gamma(N/2) / (4^s Gamma(N/2 + s) Gamma(1 + s))`` is the
    value at the center of the unit-ball solution with unit right-hand
    side; the solution itself is ``d(N, s) (1 - |x|^2)^s``.  Both the value
    and the exact derivative

    ``d'(N, s) = d(N, s) (-ln 4 - psi(N/2 + s) - psi(1 + s))``

    extend real-analytically to ``0 < s < 2``, and the wider range is
    deliberately admitted: two-sided difference quotients across ``s = 1``
    need evaluations slightly above 1.
    """
    _check_dim(N)
    s = float(s)
    if not 0.0 < s < 2.0:
        raise DomainError(
            f"ball_torsion_constant requires 0 < s < 2, got s={s}")
    value = math.gamma(0.5 * N) / (4.0 ** s * math.gamma(0.5 * N + s)
                                   * math.gamma(1.0 + s))
    slope = value * (-math.log(4.0) - digamma(0.5 * N + s)
                     - digamma(1.0 + s))
    return value, slope


def _check_dim(N: int) -> None:
    if N not in (2, 3):
        raise DomainError(f"dimension must be 2 or 3, got {N!r}")
