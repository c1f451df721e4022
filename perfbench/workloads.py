"""Seeded inputs and independent oracles for the four workloads.

Nothing here imports fraclab: the inputs go to a child process that runs
fraclab, and the outputs it sends back are checked against closed forms
computed here from ``math`` and ``scipy`` alone.

Evaluation points lie on slanted directions (every coordinate of the unit
direction is at least ``0.2`` in size, so no point sits on an axis) with
radii drawn inside fixed bands, so every seed gives the same mix of
centre, middle and near-boundary points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, gamma, hyp2f1

WORKLOADS = ("torsion_solve", "order_derivative", "bound_chain",
             "nested_operators")
ORDERS = (0.25, 0.5, 0.75, 1.0)
BANDS = ((0.1, 0.35), (0.35, 0.6), (0.6, 0.85))
ELLIPSE = (1.0, 0.0, 0.0, 4.0)          # semi-axes 1 and 1/2

TORSION_REL = 1e-3       # green_apply against the torsion family
DERIV_REL = 5e-2         # solve_vs against the closed s-derivative
V1_CENTER = -0.5579657   # v_1(0) on the unit disc
RESIDUAL_REL = 1e-1      # expansion residual against the closed residual
INTERCHANGE_REL = 5e-2   # relative interchange residual
OPERATOR_REL = 1e-6      # h_omega (circle), ws, frac_laplacian, nnd
CSV_REL = 1e-9           # numbers printed with 10 significant digits
# h_{lam Omega}(lam x) = h_Omega(x) - 2 ln lam on the anisotropic ellipse.
# The seed code misses its 1e-6 tolerance there and says so (tolerance_ok
# False, counted in tol_ok_share); the gate catches wrong answers: over 32
# seeds the gap reached 1.8e-4, at times 2.6 times the results' own summed
# error estimates.
SCALING_ABS = 1e-3


# ------------------------------------------------------------ inputs


def _direction(rng, dim: int) -> np.ndarray:
    while True:
        d = rng.standard_normal(dim)
        d /= np.linalg.norm(d)
        if np.min(np.abs(d)) >= 0.2:
            return d


def _point(rng, dim: int, band) -> list[float]:
    return (_direction(rng, dim) * rng.uniform(*band)).tolist()


def _op(kind: str, label: str, **params) -> dict:
    return {"kind": kind, "label": label, **params}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The operations of one pass, in order; the same seed gives the same
    operations.  Every datum is ``f = 1`` on the unit ball unless an
    operation names another domain."""
    rng = np.random.default_rng([seed % 2 ** 64, WORKLOADS.index(workload)])
    if workload == "torsion_solve":
        ops = []
        for dim, forms in ((2, ("plain", "radial")), (3, ("radial",))):
            for s in ORDERS:
                for band in BANDS:
                    x = _point(rng, dim, band)
                    ops += [_op("green_apply", f"green_apply N={dim} s={s} "
                                f"|x|={np.linalg.norm(x):.3f} {form}",
                                dim=dim, s=s, x=x, form=form)
                            for form in forms]
        # The 3-ball with a plain callable: no axisymmetric shortcut, one
        # call per kernel branch (Riesz split for s < 1, classical at 1).
        for s in (0.5, 1.0):
            x = _point(rng, 3, BANDS[1])
            ops.append(_op("green_apply", f"green_apply N=3 s={s} "
                           f"|x|={np.linalg.norm(x):.3f} plain",
                           dim=3, s=s, x=x, form="plain"))
        return ops
    if workload == "order_derivative":
        # The centre plus one point in each of 11 radius bands up to 0.9;
        # at s = 1 about a third of the points beyond |x| = 0.45 miss their
        # tolerance, so the flag count needs this many points to be steady.
        grid = [[0.0, 0.0]] + [_point(rng, 2, (0.075 * k, 0.075 * (k + 1)))
                               for k in range(1, 12)]
        return ([_op("solve_vs", f"solve_vs s={s}", s=s, grid=grid)
                 for s in (1.0, 0.5)]
                + [_op("expansion_residual", f"expansion_residual s={s}",
                       s=s, grid=grid) for s in (0.9, 0.95, 0.98)])
    if workload == "bound_chain":
        radius = round(float(rng.uniform(0.8, 1.25)), 6)
        return [_op("cli", f"fraclab bounds N={dim}", dim=dim, radius=radius,
                    orders=orders, out=f"bounds_{dim}d.csv",
                    argv=["bounds", "--dim", str(dim), "--orders", orders,
                          "--domain", f"ball:{radius}",
                          "--out", f"bounds_{dim}d.csv"])
                for dim, orders in ((2, "0.25:0.25:1.0"), (3, "0.5:0.5:1.0"))]
    if workload == "nested_operators":
        s = 0.5
        r, th = rng.uniform(0.15, 0.5), rng.uniform(0.3, 1.27)
        ops = [_op("interchange", f"interchange_residual s={t} #{i}", s=t,
                   x=_point(rng, 2, band))
               for i, (t, band) in enumerate(((0.5, (0.1, 0.5)),
                                              (1.0, (0.1, 0.4)),
                                              (1.0, (0.4, 0.7))))]
        ops.append(_op("h_omega", "h_omega circle", a=[1.0, 0.0, 0.0, 1.0],
                       x=_point(rng, 2, (0.2, 0.6))))
        ops.append(_op("h_omega_scaling", "h_omega ellipse scaling",
                       a=list(ELLIPSE),
                       x=[r * math.cos(th), 0.5 * r * math.sin(th)],
                       lam=float(rng.uniform(1.3, 1.7))))
        interior = [_point(rng, 2, band) for band in BANDS for _ in range(3)]
        ops.append(_op("restriction_ws", "restriction_ws values", s=s,
                       points=interior))
        ops += [_op("frac_laplacian", f"frac_laplacian #{i}", s=s, x=x)
                for i, x in enumerate(interior)]
        ops += [_op("nonlocal_normal_derivative",
                    f"nonlocal_normal_derivative #{i}", s=s,
                    z=_point(rng, 2, band))
                for i, band in enumerate(((1.1, 1.3), (1.1, 1.3),
                                          (1.3, 1.6), (1.3, 1.6)))]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------- closed forms


def torsion_constant(N: int, s: float) -> tuple[float, float]:
    """``d(N, s)`` of ``u_s = d (1 - |x|^2)^s`` and its ``s``-derivative."""
    d = gamma(N / 2) / (4.0 ** s * gamma(N / 2 + s) * gamma(1.0 + s))
    return d, d * (-math.log(4.0) - digamma(N / 2 + s) - digamma(1.0 + s))


def torsion(N: int, s: float, x) -> float:
    v = 1.0 - float(np.dot(x, x))
    return torsion_constant(N, s)[0] * v ** s


def torsion_ds(N: int, s: float, x) -> float:
    v = 1.0 - float(np.dot(x, x))
    d, dp = torsion_constant(N, s)
    return dp * v ** s + d * v ** s * math.log(v)


def rho_constant(N: int) -> float:
    """``rho_N = 2 ln 2 + psi(N/2) - gamma_E`` of the logarithmic Laplacian."""
    return 2.0 * math.log(2.0) + digamma(N / 2) - np.euler_gamma


def exterior_flux(s: float, z) -> float:
    """``(-Delta)^s u_s`` at an exterior point of the unit disc, ``f = 1``.

    ``-c(2,s) d(2,s) int_0^1 rho (1-rho^2)^s int_0^{2 pi}
    |z - rho e|^{-2-2s} dphi drho``; the angular integral is the closed
    ``2 pi a^-nu 2F1(nu/2, (nu+1)/2; 1; (b/a)^2)`` with ``a = q^2+rho^2``,
    ``b = 2 q rho``, ``nu = 1+s``, and the radial one is scipy's
    algebraic-weight quadrature.
    """
    q = float(np.linalg.norm(z))
    nu = 1.0 + s
    c = 4.0 ** s * gamma(1.0 + s) * s * (1.0 - s) / (gamma(2.0 - s) * math.pi)

    def radial(rho):
        a, b = q * q + rho * rho, 2.0 * q * rho
        ang = 2.0 * math.pi * a ** -nu * hyp2f1(nu / 2, (nu + 1) / 2, 1.0,
                                                (b / a) ** 2)
        return rho * (1.0 + rho) ** s * ang

    val, _ = quad(radial, 0.0, 1.0, weight="alg", wvar=(0.0, s),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return -c * torsion_constant(2, s)[0] * val


# -------------------------------------------------------------- gates


def _close(got, want, rel, floor=0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * max(abs(want),
                                                                floor)


def _parse_csv(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _bounds_ok(op: dict, value: dict) -> bool:
    if value["code"] != 0:
        return False
    N, R = op["dim"], op["radius"]
    lo, step, hi = (float(v) for v in op["orders"].split(":"))
    rows = _parse_csv(value["csv"])
    if len(rows) != round((hi - lo) / step) + 1:
        return False
    for row in rows:
        num = {k: float(v) for k, v in row.items() if k != "chain_ok"}
        s = num["s"]
        if not (_close(num["norm_numeric"],
                       torsion_constant(N, s)[0] * R ** (2 * s), CSV_REL)
                and _close(num["bound_old"],
                           R ** (2 * s) * math.exp(-s * rho_constant(N)),
                           OPERATOR_REL)
                and num["norm_numeric"] < num["bound_integral"]
                < num["bound_new"] < num["bound_old"]
                and row["chain_ok"] == "true"
                and num["p_s_numeric"] >= num["p_s_lower"]):
            return False
    return True


def check(op: dict, record: dict) -> bool:
    """Whether one operation's output passes its oracle gate."""
    if "error" in record:
        return False
    kind, value = op["kind"], record["value"]
    if kind == "green_apply":
        return _close(value, torsion(op["dim"], op["s"], op["x"]),
                      TORSION_REL)
    if kind == "solve_vs":
        want = [torsion_ds(2, op["s"], p) for p in op["grid"]]
        ok = len(value) == len(want) and all(
            _close(v, w, DERIV_REL) for v, w in zip(value, want))
        return ok and (op["s"] != 1.0 or _close(value[0], V1_CENTER,
                                                DERIV_REL))
    if kind == "expansion_residual":
        s = op["s"]
        want = max(abs(torsion(2, s, p) - torsion(2, 1.0, p)
                       - (1.0 - s) * torsion_ds(2, 1.0, p))
                   for p in op["grid"])
        return _close(value, want, RESIDUAL_REL)
    if kind == "cli":
        return _bounds_ok(op, value)
    if kind == "interchange":
        return math.isfinite(value) and value < INTERCHANGE_REL
    if kind == "h_omega":
        x = op["x"]
        return _close(value, -math.log(1.0 - float(np.dot(x, x))),
                      OPERATOR_REL, floor=1.0)
    if kind == "h_omega_scaling":
        gap = value["h_scaled"] - value["h"] + 2.0 * math.log(op["lam"])
        return math.isfinite(gap) and abs(gap) <= SCALING_ABS
    if kind == "restriction_ws":
        return len(value) == len(op["points"]) and all(
            _close(v, torsion(2, op["s"], p), OPERATOR_REL)
            for v, p in zip(value, op["points"]))
    if kind == "frac_laplacian":
        return _close(value, 1.0, OPERATOR_REL)
    if kind == "nonlocal_normal_derivative":
        return _close(value, exterior_flux(op["s"], op["z"]), OPERATOR_REL)
    raise ValueError(f"unknown operation kind {kind!r}")
