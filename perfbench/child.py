"""One benchmark pass in a fresh process.

Reads ``{"ops": [...], "trace": bool, "probe": bool}`` as JSON on stdin,
runs the operations through fraclab's public API in order, and writes
``result.json`` (and ``spans.json`` when tracing) into its working
directory.  Run by ``run.py``; the working directory is a fresh temporary
directory, because ``fraclab transition`` writes into its cwd.

Every datum is the constant ``f = 1``, given as a plain callable or as a
radial ``ScalarField``; both count the points they are asked for, which
is the ``data_evals`` metric.
"""

import json
import resource
import sys
import time


def main() -> int:
    payload = json.loads(sys.stdin.read())
    import numpy as np

    import fraclab.cli  # noqa: F401  (imports every fraclab module)
    from fraclab import bounds, cli, derivative, kernels, operators
    from fraclab.geometry import Ball, Ellipsoid
    from fraclab.operators import ScalarField

    ready = time.monotonic()
    if payload["probe"]:
        _write("result.json", {"ready": ready})
        return 0

    points = [0]

    def counted(fn):
        def wrapped(pts):
            points[0] += len(np.atleast_2d(pts))
            return fn(pts)
        return wrapped

    def ones(y):
        return np.ones(len(np.atleast_2d(y)))

    plain = counted(ones)
    radial = {N: ScalarField(fn=counted(ones), dim=N, radial=True,
                             smooth_scale=1.0, cache_token=("bench-ones", N))
              for N in (2, 3)}
    balls = {N: Ball(center=(0.0,) * N, radius=1.0) for N in (2, 3)}
    disc = balls[2]

    # The bound chain builds its own f = 1; count that one instead.
    make_ones = bounds._ones

    def counted_ones(N):
        field = make_ones(N)
        field.fn = counted(field.fn)
        return field

    bounds._ones = counted_ones

    ws = [None]

    def run(op):
        """``(value, tolerance flags)`` of one operation."""
        kind = op["kind"]
        if kind == "green_apply":
            N = op["dim"]
            f = plain if op["form"] == "plain" else radial[N]
            res = kernels.green_apply(balls[N], f, op["s"],
                                      np.array(op["x"]))
            return res.value, [res.tolerance_ok]
        if kind == "solve_vs":
            res = derivative.solve_vs(radial[2], disc, op["s"],
                                      np.array(op["grid"]))
            return res.values.tolist(), res.ok.tolist()
        if kind == "expansion_residual":
            return derivative.expansion_residual(
                radial[2], disc, op["s"], np.array(op["grid"])), []
        if kind == "cli":
            code = cli.main(op["argv"])
            with open(op["out"], encoding="utf-8") as fh:
                text = fh.read()
            # Exit code 2 is the CLI's "some tolerance was not met".
            return {"code": code, "csv": text}, [code != 2]
        if kind == "interchange":
            rep = operators.interchange_residual(disc, radial[2], op["s"],
                                                 np.array(op["x"]))
            return rep.relative, []
        if kind == "h_omega":
            res = operators.h_omega(Ellipsoid(a=tuple(op["a"])),
                                    np.array(op["x"]))
            return res.value, [res.tolerance_ok]
        if kind == "h_omega_scaling":
            lam = op["lam"]
            x = np.array(op["x"])
            base = operators.h_omega(Ellipsoid(a=tuple(op["a"])), x)
            scaled = operators.h_omega(
                Ellipsoid(a=tuple(v / lam ** 2 for v in op["a"])), lam * x)
            return ({"h": base.value, "h_scaled": scaled.value},
                    [base.tolerance_ok, scaled.tolerance_ok])
        if kind == "restriction_ws":
            ws[0] = operators.restriction_ws(disc, radial[2], op["s"])
            return ws[0](np.array(op["points"])).tolist(), []
        if kind == "frac_laplacian":
            res = operators.frac_laplacian(ws[0], op["s"], np.array(op["x"]))
            return res.value, [res.tolerance_ok]
        if kind == "nonlocal_normal_derivative":
            res = operators.nonlocal_normal_derivative(ws[0], op["s"],
                                                       np.array(op["z"]))
            return res.value, [res.tolerance_ok]
        raise ValueError(f"unknown operation kind {kind!r}")

    tracer = None
    if payload["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    records = []
    t0 = time.perf_counter()
    for op in payload["ops"]:
        try:
            value, flags = run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            records.append({"label": op["label"],
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({"label": op["label"], "value": _plain(value),
                        "flags": [bool(v) for v in flags]})
    wall = time.perf_counter() - t0

    result = {
        "ready": ready,
        "wall_s": wall,
        "data_evals": points[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "records": records,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        _write("spans.json", tracer.dump())
    _write("result.json", result)
    return 0


def _plain(value):
    """JSON-ready copy of an operation's value (numpy scalars to float)."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    return float(value)


def _write(name: str, data) -> None:
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
