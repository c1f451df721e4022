"""Differentiate the solution map in the order at the local endpoint.

The map ``s -> u_s`` (torsion solutions of ``(-Delta)^s u = 1`` on the
unit disc) is differentiable at ``s = 1``; its derivative ``v_1`` solves a
Poisson problem whose data combines the logarithmic Laplacian of the
extended solution with the complementary Poisson term.  This script

1. solves for ``v_1`` numerically on a radial grid and compares with the
   closed derivative of the torsion family,
2. checks the first-order expansion ``u_s = u_1 + (s - 1) v_1 + o(1-s)``
   by printing the sup-residual divided by ``1 - s`` (it must shrink), and
3. prints one-sided difference quotients of the closed family on both
   sides of ``s = 1`` to show they pinch the derivative.

Run with ``python3 demos/order_derivative.py`` (0.2–0.3 s on a 2-core
Xeon host).
"""

import numpy as np

from fraclab import derivative
from fraclab.closedform import torsion_s_derivative
from fraclab.geometry import Ball
from fraclab.operators import ScalarField
from fraclab.quadrature import QuadConfig

DISC = Ball(center=(0.0, 0.0), radius=1.0)
CFG = QuadConfig()
I2 = np.eye(2)

ONES = ScalarField(fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2,
                   radial=True, smooth_scale=1.0,
                   cache_token=("demo-ones", 2))


def main():
    radii = np.array([0.0, 0.3, 0.6, 0.9])
    pts = radii[:, None] * np.array([[1.0, 0.0]])

    print("Derivative of the solution map at s = 1 on the unit disc")
    got = derivative.solve_vs(ONES, DISC, 1.0, pts, CFG)
    closed = np.array([torsion_s_derivative(I2, 1.0, p) for p in pts])
    print(f"{'r':>6} {'v_1 numeric':>14} {'v_1 closed':>14} {'rel err':>10}")
    for r, num, ref in zip(radii, got.values, closed):
        print(f"{r:>6.2f} {num:>14.10f} {ref:>14.10f} "
              f"{abs(num - ref) / abs(ref):>10.2e}")

    print()
    print("First-order expansion residual (sup over the grid):")
    print(f"{'s':>6} {'residual':>12} {'residual/(1-s)':>16}")
    for s in (0.9, 0.95, 0.99):
        res = derivative.expansion_residual(ONES, DISC, s, pts, CFG)
        print(f"{s:>6.2f} {res:>12.3e} {res / (1.0 - s):>16.3e}")

    print()
    print("One-sided difference quotients of the closed family at r = 0:")
    rep = derivative.two_sided_check(I2, (1e-1, 1e-2, 1e-3), radii=(0.0,))
    print(f"{'h':>8} {'from below':>14} {'from above':>14} {'gap':>10}")
    for j, h in enumerate(rep.h_values):
        print(f"{h:>8.0e} {rep.below[0, j]:>14.10f} "
              f"{rep.above[0, j]:>14.10f} {rep.gap[0, j]:>10.2e}")
    print(f"closed derivative: {rep.derivative[0]:.10f}   "
          f"gap decay order: {rep.decay_order[0]:.3f}")


if __name__ == "__main__":
    main()
