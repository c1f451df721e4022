"""Closed-form solution families: constant data on ellipsoids, Jacobi
polynomial data on the unit ball.

For the ellipsoid ``E = {x : Ax . x < 1}`` with isotropic ``A = a I`` (a
ball of radius ``a**-0.5``) the solution of ``(-Delta)^s u = 1`` with zero
exterior data is

    ``u_s(x) = c(s, A) (1 - Ax . x)_+^s,   c(s, aI) = d(N, s) a^{-s}``,

with ``d(N, s)`` the unit-ball center coefficient.  Because the family is
explicit in ``s``, its s-derivative is explicit too; these two functions
are the ground truth against which the numerically assembled derivative
machinery is judged.

On the unit ball, with a solid harmonic ``V_l`` of degree ``l``, ``n >= 0``
and ``b = N/2 - 1 + l``, Dyda, Kuznetsov and Kwasnicki (J. London Math.
Soc. 95, 2017) give

    ``(-Delta)^s [(1-|x|^2)_+^s V_l P_n^(s,b)(2|x|^2-1)]
        = lambda_{n,l}(s) V_l P_n^(s,b)(2|x|^2-1)``,

so ``jacobi_data`` and ``jacobi_solution`` are an exact data/solution pair
for every ``0 < s <= 1``; ``V_l = Re (x_1 + i x_2)^l`` makes the data
non-radial once ``l >= 1``, and ``n = l = 0`` is the torsion family.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CapabilityError, DomainError, as_order
from .geometry import sq_dist
from .specfun import ball_torsion_constant

__all__ = [
    "isotropic_scale",
    "torsion_value",
    "torsion_s_derivative",
    "jacobi_eigenvalue",
    "jacobi_data",
    "jacobi_solution",
]


def isotropic_scale(A) -> tuple[float, int]:
    """Return ``(a, N)`` for an isotropic matrix ``A = a I``.

    The closed-form constant is only available for balls; a genuinely
    anisotropic ellipsoid raises :class:`CapabilityError` (the solution
    family exists but its constant has no elementary form here).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    N = A.shape[0]
    if A.shape != (N, N) or N not in (2, 3):
        raise DomainError(f"matrix must be 2x2 or 3x3, got shape {A.shape}")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12 * np.abs(A).max()):
        raise DomainError("ellipsoid matrix must be symmetric")
    diag = np.diag(A)
    a = float(diag[0])
    if a <= 0.0:
        raise DomainError("ellipsoid matrix must be positive definite")
    iso = (np.allclose(diag, a, rtol=1e-12, atol=0.0)
           and np.allclose(A - np.diag(diag), 0.0, atol=1e-12 * a))
    if not iso:
        raise CapabilityError(
            "the torsion constant is only in closed form for isotropic "
            "matrices (balls); anisotropic ellipsoids are not offered")
    return a, N


def _quadratic_form(A, x) -> float:
    x = np.asarray(x, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if x.shape != (A.shape[0],):
        raise DomainError(
            f"point of dimension {x.shape} does not match matrix {A.shape}")
    return float(x @ A @ x)


def torsion_value(A, s, x) -> float:
    """``u_s(x) = c(s, A) (1 - Ax . x)_+^s`` for isotropic ``A``.

    Vanishes on and outside the boundary (positive part); admits
    ``0 < s < 2`` so difference quotients across ``s = 1`` stay inside
    the closed-form family.
    """
    a, N = isotropic_scale(A)
    d, _ = ball_torsion_constant(N, s)
    v = 1.0 - _quadratic_form(A, x)
    if v <= 0.0:
        return 0.0
    return d * a ** -float(s) * v ** float(s)


def torsion_s_derivative(A, s, x) -> float:
    """``d/ds u_s(x)`` of the closed family, at any ``0 < s < 2``:

    ``a^{-s} [ (d'(N,s) - d(N,s) ln a) v^s + d(N,s) v^s ln v ]`` with
    ``v = 1 - Ax . x``.  Both terms vanish as ``v -> 0+``, so the value
    on and outside the boundary is 0.
    """
    a, N = isotropic_scale(A)
    d, dp = ball_torsion_constant(N, s)
    v = 1.0 - _quadratic_form(A, x)
    if v <= 0.0:
        return 0.0
    s = float(s)
    return a ** -s * ((dp - d * math.log(a)) * v ** s
                      + d * v ** s * math.log(v))


def jacobi_eigenvalue(N: int, s, n: int, l: int) -> float:
    """``lambda_{n,l}(s) = 4^s Gamma(1+s+n) Gamma(N/2+s+n+l)
    / (n! Gamma(N/2+n+l))``."""
    s = float(as_order(s))
    h = 0.5 * N + n + l
    return math.exp(s * math.log(4.0) + math.lgamma(1.0 + s + n)
                    + math.lgamma(h + s) - math.lgamma(n + 1.0)
                    - math.lgamma(h))


def _eval_jacobi(n: int, a: float, b: float, x: np.ndarray) -> np.ndarray:
    """The Jacobi polynomial ``P_n^(a, b)(x)``, ``a, b >= 0``, by its
    three-term recurrence in the degree (DLMF 18.9.2)."""
    p_prev, p = np.ones_like(x), a + 1.0 + 0.5 * (a + b + 2.0) * (x - 1.0)
    if n == 0:
        return p_prev
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        p_prev, p = p, ((c - 1.0) * (c * (c - 2.0) * x + a * a - b * b) * p
                        - 2.0 * (k + a - 1.0) * (k + b - 1.0) * c * p_prev) \
            / (2.0 * k * (k + a + b) * (c - 2.0))
    return p


def _jacobi_parts(s, n: int, l: int, x):
    s = float(as_order(s))
    if min(n, l) < 0 or int(n) != n or int(l) != l:
        raise DomainError(f"degrees n={n}, l={l} must be integers >= 0")
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    N = pts.shape[1]
    if N not in (2, 3):
        raise DomainError(f"points must be 2D or 3D, got dimension {N}")
    r2 = sq_dist(pts)
    harmonic = ((pts[:, 0] + 1j * pts[:, 1]) ** int(l)).real
    data = harmonic * _eval_jacobi(int(n), s, 0.5 * N - 1.0 + l,
                                   2.0 * r2 - 1.0)
    return s, N, r2, data, x.ndim == 1


def jacobi_data(s, n: int, l: int, x) -> float | np.ndarray:
    """``V_l(x) P_n^(s, N/2-1+l)(2|x|^2 - 1)`` with ``V_l = Re (x_1 +
    i x_2)^l``, at a point or a batch of points."""
    _, _, _, data, single = _jacobi_parts(s, n, l, x)
    return float(data[0]) if single else data


def jacobi_solution(s, n: int, l: int, x) -> float | np.ndarray:
    """Solution on the unit ball for :func:`jacobi_data`:
    ``(1 - |x|^2)_+^s V_l P_n / lambda_{n,l}(s)``, zero outside."""
    s, N, r2, data, single = _jacobi_parts(s, n, l, x)
    lam = jacobi_eigenvalue(N, s, n, l)
    out = np.maximum(1.0 - r2, 0.0) ** s * data / lam
    return float(out[0]) if single else out
