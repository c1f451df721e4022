"""fraclab benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload torsion_solve --seed 1 \\
        --seconds 5 --trace 0

Run from the repository root.  Each pass runs the workload's operations in
a fresh child process (``child.py``) with a temporary working directory,
so every pass starts cold, as every ``fraclab`` invocation does.  Passes
repeat until ``--seconds`` have elapsed; a few extra children only import
fraclab, to give ``setup_s`` several samples.  Every output is checked
against an independent closed form (``workloads.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the run's provenance.  Run records and span
files go to ``.bench_work/`` in the repository root.  The exit code is 0
when every gate passed, 1 when one failed, 2 when the benchmark could not
run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import layer_metric_names
from workloads import WORKLOADS, check, make_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
# One BLAS/OpenMP thread per child: the passes are single-caller closed
# loops, and pinned threads keep a shared two-core machine steady.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "data_evals": "count", "ok_share": "share",
                    "tol_ok_share": "share"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed gate)."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def run_child(payload: dict, spans_to: Path | None = None) -> dict:
    """Run one child to completion; returns its result with ``setup_s``."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py")], cwd=tmp,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(json.dumps(payload),
                                      timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass exceeded {CHILD_TIMEOUT_S} s") from None
        finally:
            # Also reached on SIGTERM (see main): never leave a child behind.
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"pass exited with code {proc.returncode}:\n"
                             f"{err[-3000:]}")
        result = json.loads((Path(tmp) / "result.json").read_text())
        if spans_to is not None:
            spans_to.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(str(Path(tmp) / "spans.json"), str(spans_to))
    result["setup_s"] = result.pop("ready") - spawned
    return result


def run_passes(workload: str, ops: list[dict], seconds: float, trace: bool,
               seed: int) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced passes, traced passes and set-up samples of one run.

    A traced run starts with one untraced pass, the reference for the
    tracing overhead, then traces every further pass.
    """
    setup = [run_child({"probe": True, "trace": False, "ops": []})["setup_s"]
             for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    while True:
        tracing = trace and bool(plain)
        spans = (WORK / "traces" / f"{workload}_seed{seed}_pass{len(traced)}"
                 ".json") if tracing else None
        result = run_child({"probe": False, "trace": tracing, "ops": ops},
                           spans)
        (traced if tracing else plain).append(result)
        setup.append(result["setup_s"])
        if time.monotonic() - start >= seconds and (traced or not trace):
            return plain, traced, setup


def verify(ops: list[dict], passes: list[dict]) -> tuple[int, int, list[str]]:
    """Gate every operation of every pass; ``(attempted, failed, why)``.

    Besides the per-operation oracles, every later pass must repeat the
    first one exactly in its ``data_evals`` count and in the bytes of the
    CLI's output, and counts as one more attempted operation for that.
    """
    attempted, failed, why = 0, 0, []
    first = passes[0]
    for k, res in enumerate(passes):
        for op, rec in zip(ops, res["records"], strict=True):
            attempted += 1
            try:
                ok = check(op, rec)
            except (KeyError, IndexError, TypeError, ValueError):
                ok = False  # malformed output, such as a truncated CSV
            if not ok:
                failed += 1
                why.append(f"pass {k}: {op['label']}: "
                           f"{rec.get('error', rec.get('value'))}")
        if k == 0:
            continue
        attempted += 1
        same_csv = all(a.get("value") == b.get("value")
                       for op, a, b in zip(ops, first["records"],
                                           res["records"])
                       if op["kind"] == "cli")
        if res["data_evals"] != first["data_evals"] or not same_csv:
            failed += 1
            why.append(f"pass {k}: not a repeat of pass 0 "
                       f"(data_evals {res['data_evals']} vs "
                       f"{first['data_evals']}, cli output same: {same_csv})")
    return attempted, failed, why


def end_to_end(plain: list[dict], setup: list[float], attempted: int,
               failed: int) -> dict[str, float]:
    flags = [f for res in plain for rec in res["records"]
             for f in rec.get("flags", [])]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "data_evals": statistics.median(r["data_evals"] for r in plain),
        "ok_share": 1.0 - failed / attempted,
        "tol_ok_share": sum(flags) / len(flags),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in layer_metric_names()}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"]
                                                   for r in plain))
    return out


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "thread_env": {k: child_env().get(k) for k in sorted(THREAD_ENV)},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "fraclab" / "__init__.py").is_file():
        print(f"error: no fraclab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    ops = make_ops(args.workload, args.seed)
    try:
        plain, traced, setup = run_passes(args.workload, ops, args.seconds,
                                          bool(args.trace), args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted, failed, why = verify(ops, plain + traced)
    for line in why:
        print(f"gate failed: {line}", file=sys.stderr)

    if args.trace:
        values = per_layer(plain, traced)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(plain, setup, attempted, failed)
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(v), "unit": units[name]}
               for name, v in values.items()}
    record = {"provenance": provenance(args), "passes": plain,
              "traced_passes": traced,
              "setup_samples": setup, "failures": why}
    WORK.mkdir(exist_ok=True)
    (WORK / f"run_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"provenance": record["provenance"],
                      "passes": len(plain), "traced_passes": len(traced),
                      "setup_samples": len(setup)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
