"""Batch front-end: subcommand dispatch, deterministic CSV/JSON emission.

Subcommands
-----------
``constants --dim N --order S``
    The constant zoo at one order: ``c_Ns`` (fractional-Laplacian
    normalization), ``c_N``/``rho_N`` (log-Laplacian kernel and
    zero-order constants), ``kappa`` (Riesz fundamental-solution
    coefficient), ``tau`` (exterior ball Poisson coefficient), ``d``
    (torsion center value).  Constants whose admissible order range
    excludes ``S`` print as null.
``eval --op fraclap|loglap|homega|ws|interchange --domain D --order S --points P``
    Pointwise evaluations on constant data ``f = 1``: ``ws`` is the
    solution ``u_s``, ``fraclap`` applies ``(-Delta)^s`` to it (values
    near 1 confirm the round trip), ``loglap`` is the log-Laplacian of
    the domain indicator, ``homega`` the geometry weight, and
    ``interchange`` the relative interchange residual at each point.
    Points come from a CSV file (one point per row) or stdin (``-``).
``kernels --which green|poisson|comp --domain ball:R --order S --x PT --z PT [--z PT ...]``
    Kernel values ``G_s(x, z)``, ``P_s(x, z)`` (``z`` exterior;
    boundary kernel at ``s = 1``), or ``P^c_s(x, z)``.
``torsion --dim N --orders A:STEP:B [--at PT]``
    Closed-form torsion value and its order-derivative on the unit ball.
``derivative --dim N --order S [--fd H] [--grid-n K]``
    Solves the order-derivative problem on a radial grid and compares
    with the closed form; ``--fd`` adds a difference-quotient column.
    Exit code 2 when any pointwise relative error exceeds 5e-2.
``transition --orders S1,S2,... [--dim N]``
    First-order expansion residuals at the local endpoint; writes a
    per-point side table (path embedded in the report).
``bounds --dim N --orders A:STEP:B --domain ball:R``
    Green-norm bound chain per order; the trailing ``chain_ok`` column
    records ``norm <= integral <= new <= old`` with the integral bound's
    estimated relative error ``integral_error`` within ``--rel-tol``.
    Exit code 2 when any row breaks the chain.

Global flags: ``--rel-tol``, ``--abs-tol`` (quadrature tolerances),
``--emit csv|json``, ``--out PATH``.

Contracts: floats print with 10 significant digits; every output embeds
the package version and the full run configuration; identical
argv produce byte-identical output (wall time goes to stderr, never into
the file).  Exit codes: 0 success, 1 domain/usage error, 2 tolerance
failure (results still emitted).
"""

from __future__ import annotations

import argparse
import json
# argparse's gettext loads locale in the first parse: load it here, not
# inside the first call of a timed run.
import locale  # noqa: F401
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .core import DomainError, FracLabError
from . import geometry
from .quadrature import QuadConfig
from . import kernels
from . import operators
from . import bounds as bounds_mod
from .bounds import _ones
from . import derivative as derivative_mod
from .closedform import torsion_s_derivative, torsion_value
from .specfun import (ball_poisson_constant, ball_torsion_constant,
                      frac_normalization, log_constants, riesz_constant)

__all__ = ["main", "RunConfig"]

SCHEMA_VERSION = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the CLI contract reserves
    # 2 for tolerance failures, so usage problems are rerouted to code 1.
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run, embedded in each output."""

    subcommand: str
    options: dict
    rel_tol: float
    abs_tol: float
    emit: str
    out: str | None

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "options": {k: self.options[k] for k in sorted(self.options)},
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "emit": self.emit,
            "out": self.out,
        }

    def quad_config(self) -> QuadConfig:
        return QuadConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)


# ----------------------------------------------------------- formatting


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".10g")
    if v is None:
        return ""
    return str(v)


def _json_text(v, indent: int = 0) -> str:
    pad, pad_in = "  " * indent, "  " * (indent + 1)
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f):
            return "NaN"
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return format(f, ".10g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        items = [pad_in + _json_text(x, indent + 1) for x in v]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [pad_in + json.dumps(str(k)) + ": " + _json_text(x, indent + 1)
                 for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise DomainError(f"cannot serialize {type(v).__name__}")


def _emit(config: RunConfig, columns, rows, extra: dict | None = None) -> str:
    """Render results deterministically; returns the emitted text."""
    if config.emit == "json":
        if columns is None:
            results = rows  # a single mapping (constants)
        else:
            results = [dict(zip(columns, row)) for row in rows]
        doc = {"schema_version": SCHEMA_VERSION, "version": __version__,
               "run_config": config.to_dict(), "results": results}
        doc.update(extra or {})
        return _json_text(doc) + "\n"
    lines = [f"# fraclab {__version__}",
             f"# schema_version {SCHEMA_VERSION}",
             "# config " + json.dumps(config.to_dict(), sort_keys=True,
                                      separators=(",", ":"))]
    for k, v in (extra or {}).items():
        lines.append(f"# {k} {_fmt(v)}")
    if columns is None:
        columns = list(rows.keys())
        rows = [[rows[c] for c in columns]]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(config: RunConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        Path(config.out).write_text(text)


# -------------------------------------------------------------- parsing


def _parse_point(literal: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in literal.split(",")], dtype=float)
    except ValueError as exc:
        raise DomainError(f"bad point literal {literal!r}") from exc


def _parse_order_range(literal: str) -> list[float]:
    parts = literal.split(":")
    if len(parts) != 3:
        raise DomainError(
            f"order range must be a:step:b, got {literal!r}")
    a, step, b = (float(t) for t in parts)
    if step <= 0.0 or b < a:
        raise DomainError(f"bad order range {literal!r}")
    n = int(math.floor((b - a) / step + 1e-9))
    return [a + k * step for k in range(n + 1)]


def _parse_order_list(literal: str) -> list[float]:
    try:
        return [float(t) for t in literal.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad order list {literal!r}") from exc


def _read_points(source: str, dim: int) -> np.ndarray:
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = _parse_point(line)
        if len(row) != dim:
            raise DomainError(
                f"point {line!r} has {len(row)} columns, domain dimension "
                f"{dim}")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(rows), dim)


# ---------------------------------------------------------- subcommands


def _cmd_constants(config: RunConfig) -> tuple[int, str]:
    N = config.options["dim"]
    s = config.options["order"]
    c_N, rho_N = log_constants(N)

    def may(fn, *args):
        # constants with a restricted order range print as null outside it
        try:
            return fn(*args)
        except FracLabError:
            return None

    result = {
        "c_Ns": may(frac_normalization, N, s),
        "c_N": c_N,
        "rho_N": rho_N,
        "kappa": may(riesz_constant, N, s),
        "tau": may(ball_poisson_constant, N, s),
        "d": ball_torsion_constant(N, s)[0],
    }
    return 0, _emit(config, None, result)


def _cmd_eval(config: RunConfig) -> tuple[int, str]:
    opts = config.options
    domain = geometry.parse_domain(opts["domain"], dims=opts["dim"])
    s = opts["order"]
    cfg = config.quad_config()
    pts = _read_points(opts["points"], domain.dim)
    op = opts["op"]
    data = _ones(domain.dim)
    solution = None
    if op in ("fraclap", "ws"):
        solution = operators.restriction_ws(domain, data, s, cfg)
    indicator = operators.CompactField(
        lambda p: np.ones(len(np.atleast_2d(p))), domain, radial=True,
        smooth_scale=1.0, cache_token=("cli-indicator", domain))

    rows, flagged = [], False
    for x in pts:
        if op == "homega":
            res = operators.h_omega(domain, x, cfg)
            value, err, ok = res.value, res.error_estimate, res.tolerance_ok
        elif op == "loglap":
            res = operators.log_laplacian_compact(indicator, x, cfg)
            value, err, ok = res.value, res.error_estimate, res.tolerance_ok
        elif op == "fraclap":
            res = operators.frac_laplacian(solution, s, x, cfg)
            value, err, ok = res.value, res.error_estimate, res.tolerance_ok
        elif op == "ws":
            value = float(np.asarray(solution(x)).reshape(-1)[0])
            err, ok = float("nan"), True
        else:  # interchange
            rep = operators.interchange_residual(domain, data, s, x, cfg)
            value, err, ok = rep.relative, float("nan"), True
        flagged = flagged or not ok
        rows.append([*x, value, err])
    columns = [f"x{i + 1}" for i in range(domain.dim)] + [
        "value", "error_estimate"]
    return (2 if flagged else 0), _emit(config, columns, rows)


def _cmd_kernels(config: RunConfig) -> tuple[int, str]:
    opts = config.options
    domain = geometry.parse_domain(opts["domain"], dims=opts["dim"])
    s = opts["order"]
    cfg = config.quad_config()
    x = _parse_point(opts["x"])
    zs = [_parse_point(z) for z in opts["z"]]
    which = opts["which"]
    rows = []
    for z in zs:
        if which == "green":
            value = kernels.green_ball(domain, s, x, z)
        elif which == "poisson":
            if s == 1.0:
                value = kernels.poisson_ball_classical(domain, x, z)
            else:
                value = kernels.poisson_ball(domain, s, x, z)
        else:  # comp
            value = kernels.comp_poisson_kernel(domain, s, x, z, cfg)
        rows.append([*x, *z, float(value)])
    N = domain.dim
    columns = ([f"x{i + 1}" for i in range(N)]
               + [f"z{i + 1}" for i in range(N)] + ["value"])
    return 0, _emit(config, columns, rows)


def _cmd_torsion(config: RunConfig) -> tuple[int, str]:
    opts = config.options
    N = opts["dim"]
    orders = _parse_order_range(opts["orders"])
    x = (_parse_point(opts["at"]) if opts["at"] is not None
         else np.zeros(N))
    if x.shape != (N,):
        raise DomainError(f"point of dimension {len(x)} with dim {N}")
    A = np.eye(N)
    rows = [[s, torsion_value(A, s, x), torsion_s_derivative(A, s, x)]
            for s in orders]
    return 0, _emit(config, ["s", "u_s", "ds_u_s"], rows)


def _cmd_derivative(config: RunConfig) -> tuple[int, str]:
    opts = config.options
    N = opts["dim"]
    s = opts["order"]
    cfg = config.quad_config()
    ball = geometry.unit_ball(N)
    n = opts["grid_n"]
    grid = kernels._radial_points(ball, np.linspace(0.0, 0.95, n))
    data = _ones(N)
    vs = derivative_mod.solve_vs(data, ball, s, grid, cfg)
    closed = np.array([torsion_s_derivative(np.eye(N), s, p) for p in grid])
    rel = np.abs(vs.values - closed) / np.abs(closed)
    columns = ["r", "delta", "v_numeric", "v_closed", "rel_err"]
    table = [grid[:, 0], vs.delta, vs.values, closed, rel]
    if opts["fd"] is not None:
        fd = derivative_mod.finite_diff_ds(data, ball, s, opts["fd"], grid,
                                           cfg)
        columns.append("fd_quotient")
        table.append(fd.values)
    rows = [list(vals) for vals in zip(*table)]
    flagged = bool((rel > 5e-2).any())
    return (2 if flagged else 0), _emit(config, columns, rows)


def _points_table_path(config: RunConfig) -> Path:
    if config.out is not None:
        out = Path(config.out)
        return out.with_name(out.stem + "_points.csv")
    return Path("transition_points.csv")


def _cmd_transition(config: RunConfig) -> tuple[int, str]:
    opts = config.options
    N = opts["dim"]
    orders = _parse_order_list(opts["orders"])
    for s in orders:
        if not 0.0 < s < 1.0:
            raise DomainError(
                f"transition orders must lie in (0, 1), got {s}")
    cfg = config.quad_config()
    ball = geometry.unit_ball(N)
    n = opts["grid_n"]
    grid = kernels._radial_points(ball, np.linspace(0.0, 0.95, n))
    data = _ones(N)
    rows, point_rows = [], []
    for s in orders:
        u_s, u_1, v_1, point_res = derivative_mod._expansion(
            data, ball, s, grid, cfg)
        residual = float(np.max(point_res))
        rows.append([s, residual, residual / (1.0 - s)])
        for k in range(n):
            point_rows.append([s, grid[k, 0], u_s[k], u_1[k], v_1[k],
                               point_res[k]])

    table_path = _points_table_path(config)
    table_lines = ["s,r,u_s,u_1,v_1,residual"]
    table_lines += [",".join(_fmt(v) for v in row) for row in point_rows]
    table_path.write_text("\n".join(table_lines) + "\n")
    return 0, _emit(config, ["s", "residual", "ratio"], rows,
                    extra={"points_table": str(table_path)})


def _cmd_bounds(config: RunConfig) -> tuple[int, str]:
    opts = config.options
    domain = geometry.parse_domain(opts["domain"], dims=opts["dim"])
    orders = _parse_order_range(opts["orders"])
    cfg = config.quad_config()
    rows, flagged = [], False
    for s in orders:
        r = bounds_mod.green_norm_bound(domain, s, cfg)
        chain_ok = (r.norm_numeric <= r.bound_integral <= r.bound_new
                    <= r.bound_old and r.integral_error <= cfg.rel_tol)
        flagged = flagged or not chain_ok
        rows.append([getattr(r, c) for c in r.CSV_COLUMNS] + [chain_ok])
    columns = list(bounds_mod.BoundReport.CSV_COLUMNS) + ["chain_ok"]
    return (2 if flagged else 0), _emit(config, columns, rows)


_COMMANDS = {
    "constants": _cmd_constants,
    "eval": _cmd_eval,
    "kernels": _cmd_kernels,
    "torsion": _cmd_torsion,
    "derivative": _cmd_derivative,
    "transition": _cmd_transition,
    "bounds": _cmd_bounds,
}

_DEFAULT_EMIT = {"constants": "json", "transition": "json"}


# ------------------------------------------------------------ dispatch


def _build_parser() -> _Parser:
    parser = _Parser(prog="fraclab", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--rel-tol", type=float, default=1e-6)
    common.add_argument("--abs-tol", type=float, default=1e-9)
    common.add_argument("--emit", choices=("csv", "json"), default=None)
    common.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=float, required=True)

    p = sub.add_parser("eval", parents=[common])
    p.add_argument("--op", required=True, choices=(
        "fraclap", "loglap", "homega", "ws", "interchange"))
    p.add_argument("--domain", required=True)
    p.add_argument("--order", type=float, default=0.5)
    p.add_argument("--points", required=True)
    p.add_argument("--dim", type=int, default=2)

    p = sub.add_parser("kernels", parents=[common])
    p.add_argument("--which", required=True,
                   choices=("green", "poisson", "comp"))
    p.add_argument("--domain", required=True)
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--z", required=True, action="append")
    p.add_argument("--dim", type=int, default=2)

    p = sub.add_parser("torsion", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--at", default=None)

    p = sub.add_parser("derivative", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--order", type=float, required=True)
    p.add_argument("--fd", type=float, default=None)
    p.add_argument("--grid-n", type=int, default=8)

    p = sub.add_parser("transition", parents=[common])
    p.add_argument("--orders", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--grid-n", type=int, default=8)

    p = sub.add_parser("bounds", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--orders", required=True)
    p.add_argument("--domain", required=True)
    return parser


_GLOBAL_KEYS = ("rel_tol", "abs_tol", "emit", "out")


def _run(argv) -> int:
    t0 = time.perf_counter()
    parser = _build_parser()
    ns = parser.parse_args(argv)
    options = {k: v for k, v in vars(ns).items()
               if k not in _GLOBAL_KEYS and k != "subcommand"}
    emit = ns.emit or _DEFAULT_EMIT.get(ns.subcommand, "csv")
    config = RunConfig(subcommand=ns.subcommand, options=options,
                       rel_tol=ns.rel_tol, abs_tol=ns.abs_tol,
                       emit=emit, out=ns.out)
    code, text = _COMMANDS[ns.subcommand](config)
    _write(config, text)
    print(f"# wall-time {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        return _run(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 1
    except FracLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
