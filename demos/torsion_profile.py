"""Solve the fractional torsion problem on the unit disc and compare with
the closed family.

The solution of ``(-Delta)^s u = 1`` on the unit ball with zero exterior
data is ``u_s(x) = d_{N,s} (1 - |x|^2)^s``.  This script applies the
Green operator to the constant right-hand side at a handful of radii and
prints the numerical value next to the closed form, then shows the
constant ladder ``d_{2,s}`` across orders, including the classical
endpoint ``d_{2,1} = 1/4``.

Run with ``python3 demos/torsion_profile.py`` (about 0.2 s on a 2-core
Xeon host).
"""

import numpy as np

from fraclab import kernels
from fraclab.geometry import Ball
from fraclab.quadrature import QuadConfig
from fraclab.specfun import ball_torsion_constant

DISC = Ball(center=(0.0, 0.0), radius=1.0)
CFG = QuadConfig()


def ones(y):
    return np.ones(len(np.atleast_2d(y)))


def main():
    s = 0.5
    d, _ = ball_torsion_constant(2, s)
    print(f"Radial profile of the torsion solution at s = {s}")
    print(f"{'r':>6} {'numeric':>14} {'closed':>14} {'rel err':>10}")
    for r in (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95):
        x = np.array([r, 0.0])
        num = kernels.green_apply(DISC, ones, s, x, CFG).value
        exact = d * (1.0 - r * r) ** s
        print(f"{r:>6.2f} {num:>14.10f} {exact:>14.10f} "
              f"{abs(num - exact) / exact:>10.2e}")

    print()
    print("Center value d_{2,s} across the order range (d_{2,1} = 1/4):")
    print(f"{'s':>6} {'numeric':>14} {'closed':>14}")
    for s in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        d, _ = ball_torsion_constant(2, s)
        num = kernels.green_apply(DISC, ones, s, np.zeros(2), CFG).value
        print(f"{s:>6.2f} {num:>14.10f} {d:>14.10f}")


if __name__ == "__main__":
    main()
