"""Span tracing of fraclab's public functions, installed from outside.

The tracer replaces each function named in ``WRAPPED`` by a wrapper that
records one span (name, start, end, parent) per call.  The source under
``src/`` is not edited: every fraclab module attribute that refers to the
original function object is rebound to the wrapper, so calls through
``module.function`` and through names imported with ``from ... import``
are both seen.

Per span the tracer also keeps two counts:

* ``evals``: ``IntegralResult.evaluations`` of the returned result, or,
  for functions returning something else, the sum over the spans the
  call caused (so ``solve_vs`` reports the evaluations of the
  ``ell_field`` and ``green_apply`` calls beneath it);
* ``tol_miss``: 1 for an ``IntegralResult`` with ``tolerance_ok`` False,
  the number of False entries of ``GridField.ok``, or the sum over the
  spans beneath for other results.

Self time is a span's duration minus the time covered by its child spans
(calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time

# Public functions wrapped in a traced pass, by fraclab module.
WRAPPED = {
    "quadrature": ("unit_power_rule", "layered_directions",
                   "polar_directions", "integrate_pv_second_difference"),
    "geometry": ("ray_spans",),
    "kernels": ("green_apply", "comp_poisson_apply"),
    "operators": ("restriction_ws", "log_laplacian", "log_laplacian_compact",
                  "frac_laplacian", "nonlocal_normal_derivative", "h_omega",
                  "interchange_residual"),
    "derivative": ("ell_field", "solve_vs", "expansion_residual"),
    "bounds": ("green_norm_bound", "min_h_omega", "p_s_numeric",
               "q_constant"),
    "cli": ("main",),
}
SPAN_STATS = ("calls", "self_s", "evals", "tol_miss")
FIELD_SPAN = "operators.restriction_ws.field"
CACHES = ("kernels.mf_cache", "derivative.v1_cache", "quadrature.rule_cache")
CACHE_STATS = ("hits", "misses", "lookups")


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced pass reports, in a fixed order."""
    names = [f"{mod}.{fn}.{stat}" for mod, fns in WRAPPED.items()
             for fn in fns for stat in SPAN_STATS]
    names += [f"{FIELD_SPAN}_{stat}" for stat in ("calls", "points", "s")]
    names += [f"{cache}.{stat}" for cache in CACHES for stat in CACHE_STATS]
    return names


def _own_counts(result):
    """``(evals, tol_miss)`` carried by a result, ``None`` where absent."""
    evals = getattr(result, "evaluations", None)
    ok = getattr(result, "tolerance_ok", None)
    if ok is not None:
        return evals, int(not bool(ok))
    flags = getattr(result, "ok", None)
    if flags is not None and hasattr(flags, "__len__"):
        return evals, int(len(flags) - sum(bool(v) for v in flags))
    return evals, None


def _dict_cache_sizes() -> dict[str, int]:
    from fraclab import derivative, kernels

    return {"kernels.mf_cache": len(kernels._MF_CACHE),
            "derivative.v1_cache": len(derivative._V1_CACHE)}


def _rule_cache_info():
    from fraclab import quadrature

    # The lru_cache object sits behind the tracing wrapper.
    fn = quadrature.unit_power_rule
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn.cache_info()


class Tracer:
    """Spans held in memory for one pass; ``install`` wraps fraclab."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One row per span: [name_id, start, end, parent, evals, tol_miss]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # Per open span: [child duration, child evals, child tol_miss]
        self._acc: list[list] = []
        self.field_points = 0
        self._counters = {"kernels.mf_cache": 0, "derivative.v1_cache": 0}
        self._sizes: dict[str, int] = {}
        self._rule_start = None
        self.t0 = time.perf_counter()

    # ----------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), None, parent, 0, 0])
        self._stack.append(len(self.spans) - 1)
        self._acc.append([0.0, 0, 0])
        return len(self.spans) - 1

    def _close(self, idx: int, result) -> None:
        end = time.perf_counter()
        row = self.spans[idx]
        row[2] = end
        child_dur, child_evals, child_miss = self._acc.pop()
        self._stack.pop()
        evals, miss = _own_counts(result)
        row[4] = child_evals if evals is None else int(evals)
        row[5] = child_miss if miss is None else miss
        if self._acc:
            parent = self._acc[-1]
            parent[0] += end - row[1]
            parent[1] += row[4]
            parent[2] += row[5]
        # Self time replaces the child-duration slot once the span is shut.
        row.append(end - row[1] - child_dur)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                if name == "operators.restriction_ws":
                    tracer._wrap_field(result)
                return result
            finally:
                tracer._close(idx, result)

        return traced

    def _wrap_field(self, field) -> None:
        inner = field.fn
        tracer = self

        def fn(pts):
            idx = tracer._open(FIELD_SPAN)
            result = None
            try:
                result = inner(pts)
                tracer.field_points += len(pts)
                return result
            finally:
                tracer._close(idx, None)

        field.fn = fn

    def _count(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------- installing

    def _rebind(self, orig, repl) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "fraclab" or mod_name.startswith("fraclab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, repl)

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` and the two dict caches."""
        import fraclab.cli  # noqa: F401  (loads every traced module)
        from fraclab import derivative, kernels

        for mod_name, fns in WRAPPED.items():
            mod = sys.modules[f"fraclab.{mod_name}"]
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                self._rebind(orig, self._wrap(f"{mod_name}.{fn_name}", orig))
        self._rebind(kernels._mf_on_grid,
                     self._count("kernels.mf_cache", kernels._mf_on_grid))
        self._rebind(derivative._v1_cached,
                     self._count("derivative.v1_cache",
                                 derivative._v1_cached))
        self._sizes = _dict_cache_sizes()
        self._rule_start = _rule_cache_info()
        self.t0 = time.perf_counter()

    # ------------------------------------------------------- reporting

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (zero for functions never called)."""
        out = {name: 0 for name in layer_metric_names()}
        for row in self.spans:
            name = self.names[row[0]]
            if name == FIELD_SPAN:
                out[f"{FIELD_SPAN}_calls"] += 1
                out[f"{FIELD_SPAN}_s"] += row[6]
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += row[6]
            out[f"{name}.evals"] += row[4]
            out[f"{name}.tol_miss"] += row[5]
        out[f"{FIELD_SPAN}_points"] = self.field_points
        sizes = _dict_cache_sizes()
        for key, lookups in self._counters.items():
            misses = sizes[key] - self._sizes[key]
            out[f"{key}.lookups"] = lookups
            out[f"{key}.misses"] = misses
            out[f"{key}.hits"] = lookups - misses
        now = _rule_cache_info()
        hits = now.hits - self._rule_start.hits
        misses = now.misses - self._rule_start.misses
        out["quadrature.rule_cache.hits"] = hits
        out["quadrature.rule_cache.misses"] = misses
        out["quadrature.rule_cache.lookups"] = hits + misses
        return out

    def dump(self) -> dict:
        """Spans as plain data, times relative to the start of the pass."""
        return {
            "names": self.names,
            "columns": ["name", "start_s", "end_s", "parent", "evals",
                        "tol_miss", "self_s"],
            "spans": [[r[0], r[1] - self.t0, r[2] - self.t0, r[3], r[4],
                       r[5], r[6]] for r in self.spans],
        }
