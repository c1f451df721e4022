"""Determinism self-checks of the benchmark.

Slow (about three minutes on two cores): every workload runs three traced
passes.  Not part of the repository's test suite; run it from the
repository root with

    python3 -m pytest perfbench/test_determinism.py -q
"""

import functools

import pytest

from run import run_child, verify
from tracing import layer_metric_names
from workloads import WORKLOADS, make_ops

SEED, OTHER_SEED = 1, 2
# Per-layer metrics that are counts, not times: they must repeat exactly.
COUNTS = [name for name in layer_metric_names()
          if not name.endswith(("self_s", "field_s"))]


@functools.cache
def traced_pass(workload: str, seed: int, repeat: int) -> dict:
    del repeat  # only distinguishes cache entries
    return run_child({"probe": False, "trace": True,
                      "ops": make_ops(workload, seed)})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_one_seed(workload):
    first, second = (traced_pass(workload, SEED, k) for k in (0, 1))
    assert verify(make_ops(workload, SEED), [first, second])[1] == 0
    assert first["data_evals"] == second["data_evals"] > 0
    for name in COUNTS:
        assert first["layers"][name] == second["layers"][name], name


def test_bound_chain_cli_output_is_byte_identical():
    first, second = (traced_pass("bound_chain", SEED, k) for k in (0, 1))
    csv = [[rec["value"]["csv"] for rec in res["records"]]
           for res in (first, second)]
    assert csv[0] == csv[1]
    assert all(text.count("\n") > 3 for text in csv[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_keeps_the_cost_mix(workload):
    """Another seed moves the points, not the work: every wrapped function
    runs the same number of times, and evaluation counts stay within 5%."""
    base, other = traced_pass(workload, SEED, 0), traced_pass(
        workload, OTHER_SEED, 0)
    assert verify(make_ops(workload, OTHER_SEED), [other])[1] == 0
    assert other["data_evals"] == pytest.approx(base["data_evals"], rel=0.05)
    for name in layer_metric_names():
        if name.endswith(".calls"):
            assert other["layers"][name] == base["layers"][name], name
        elif name.endswith(".evals"):
            assert other["layers"][name] == pytest.approx(
                base["layers"][name], rel=0.05), name
