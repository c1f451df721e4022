"""The Green-operator norm against its computable bound chain.

For the unit ball the sup-operator norm of the solution operator is known
in closed form (the torsion center value), so the chain

    ||G_s||  <=  exp(-int_0^s m_tau dtau)  <=  exp(-s(min h + rho_N) - q)
             <=  exp(-s(min h + rho_N))

can be audited end to end.  This script tabulates all four quantities on
the unit disc and the unit 3-ball, plus the ingredients (the spectral
floor ``m_s``, the complementary-mass infimum ``p_s`` with its closed
lower bound, and the accumulated improvement ``q_{N,s}``).

Run with ``python3 demos/norm_bound_chain.py`` (0.3–0.4 s on a 2-core
Xeon host).
"""

import numpy as np

from fraclab import bounds
from fraclab.geometry import Ball
from fraclab.quadrature import QuadConfig

CFG = QuadConfig()


def main():
    for N in (2, 3):
        ball = Ball(center=(0.0,) * N, radius=1.0)
        print(f"Unit ball, dimension {N}:")
        print(f"{'s':>6} {'||G_s||':>10} {'integral':>10} {'with q':>10} "
              f"{'plain':>10} {'m_s':>8} {'p_s':>8} {'p_s low':>8} "
              f"{'q_Ns':>9}")
        for s in (0.25, 0.5, 0.75, 1.0):
            rep = bounds.green_norm_bound(ball, s, CFG)
            print(f"{s:>6.2f} {rep.norm_numeric:>10.6f} "
                  f"{rep.bound_integral:>10.6f} {rep.bound_new:>10.6f} "
                  f"{rep.bound_old:>10.6f} {rep.m_s:>8.4f} "
                  f"{rep.p_s_numeric:>8.4f} {rep.p_s_lower:>8.4f} "
                  f"{rep.q_Ns:>9.6f}")
        print()

    print("Every row satisfies  ||G_s|| < integral < with-q < plain:")
    ok = True
    for N in (2, 3):
        ball = Ball(center=(0.0,) * N, radius=1.0)
        for s in (0.25, 0.5, 0.75, 1.0):
            rep = bounds.green_norm_bound(ball, s, CFG)
            ok &= (rep.norm_numeric < rep.bound_integral
                   < rep.bound_new < rep.bound_old)
    print(f"  chain holds at all rows: {ok}")


if __name__ == "__main__":
    main()
