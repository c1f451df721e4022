"""Gamma-family special functions and the named constants of the model.

Gamma is ``math.gamma`` and digamma ``scipy.special.digamma``; the test
suite pins both against a frozen high-precision table, and every constant
below against its closed value.

Conventions
-----------
* ``frac_normalization`` is the constant ``c(N, s)`` making the principal
  value integral equal the Fourier multiplier ``|xi|^(2s)``.
* ``log_constants`` returns ``(c_N, rho_N)`` for the logarithmic operator
  with symbol ``2 log |xi|``: the kernel constant ``c_N = Gamma(N/2) /
  pi^(N/2)`` and the zero-order constant ``rho_N = 2 ln 2 + psi(N/2) +
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

from scipy import special

from .core import DomainError

__all__ = [
    "frac_normalization",
    "log_constants",
    "riesz_constant",
    "ball_poisson_constant",
    "ball_torsion_constant",
]

_EULER_GAMMA = 0.57721566490153286061


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
    rho_N = (2.0 * math.log(2.0) + float(special.digamma(0.5 * N))
             - _EULER_GAMMA)
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
    slope = value * float(-math.log(4.0) - special.digamma(0.5 * N + s)
                          - special.digamma(1.0 + s))
    return value, slope


def _check_dim(N: int) -> None:
    if N not in (2, 3):
        raise DomainError(f"dimension must be 2 or 3, got {N!r}")
