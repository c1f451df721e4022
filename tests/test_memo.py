"""The bounded memo stores: what is built once, what is built again, and
what is never stored."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fraclab import bounds, derivative, kernels, operators
from fraclab import quadrature as quad
from fraclab.geometry import Ball
from fraclab.quadrature import QuadConfig

DISC = Ball(center=(0.0, 0.0), radius=1.0)
CFG = QuadConfig()


def ones_field(token=("memo-ones", 2)):
    return operators.ScalarField(
        fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2, radial=True,
        smooth_scale=1.0, cache_token=token)


class TokenlessOnes:
    """Radial constant data with no ``cache_token``."""

    radial = True

    def __call__(self, y):
        return np.ones(len(np.atleast_2d(y)))


@pytest.fixture
def profile_builds(monkeypatch):
    """Replace the Chebyshev profile by a stub that records each build,
    so a test counts builds without running the solves behind them."""
    builds = []

    def stub(sample):
        builds.append(sample)
        return np.array([1.0, 0.5])

    monkeypatch.setattr(quad, "_chebyshev_profile", stub)
    return builds


def test_memo_builds_once_per_key():
    store = quad._Memo(4)
    built = []

    def build():
        built.append(1)
        return np.arange(3.0)

    first = store.fetch(("a", 1), build)
    again = store.fetch(("a", 1), build)
    assert again is first and len(built) == 1 and len(store) == 1


def test_memo_never_stores_key_none():
    store = quad._Memo(4)
    values = [store.fetch(None, lambda: object()) for _ in range(3)]
    assert len(store) == 0
    assert len({id(v) for v in values}) == 3


def test_memo_evicts_the_oldest_entry():
    store = quad._Memo(3)
    for k in range(5):
        store.fetch(k, lambda k=k: k * 10)
    assert list(store) == [2, 3, 4]
    # A hit does not refresh an entry: eviction goes by build order.
    store.fetch(2, lambda: -1)
    store.fetch(5, lambda: 50)
    assert list(store) == [3, 4, 5]


def test_every_store_is_registered():
    for store in (kernels._MF_CACHE, derivative._V1_CACHE,
                  derivative._LOG_CACHE, quad._PROFILE_CACHE):
        assert store in quad._MEMO_STORES


@pytest.mark.parametrize("build", [
    lambda f, cfg: operators.restriction_ws(DISC, f, 0.5, cfg),
    lambda f, cfg: derivative.ell_field(f, DISC, 0.5, cfg),
], ids=["restriction_ws", "ell_field"])
def test_equal_token_and_config_build_once(profile_builds, build):
    first = build(ones_field(), CFG)
    second = build(ones_field(), QuadConfig())
    assert len(profile_builds) == 1
    # A fresh field each call, with the same derived token and values.
    assert second is not first and second.fn is not first.fn
    assert second.cache_token == first.cache_token
    pts = np.array([[0.1, 0.2], [0.5, -0.6]])
    assert np.array_equal(first(pts), second(pts))


def test_restriction_ws_rebuilds_for_other_inputs(profile_builds):
    f = ones_field()
    operators.restriction_ws(DISC, f, 0.5, CFG)
    operators.restriction_ws(DISC, f, 0.6, CFG)
    operators.restriction_ws(DISC, f, 0.5, QuadConfig(angular_order=32))
    operators.restriction_ws(Ball(center=(0.0, 0.0), radius=2.0), f, 0.5,
                             CFG)
    operators.restriction_ws(DISC, ones_field(("other-ones", 2)), 0.5, CFG)
    assert len(profile_builds) == 5
    operators.restriction_ws(DISC, f, 0.6, CFG)
    assert len(profile_builds) == 5


def test_ell_field_rebuilds_for_other_inputs(profile_builds):
    f = ones_field()
    derivative.ell_field(f, DISC, 0.5, CFG)
    derivative.ell_field(f, DISC, 0.6, CFG)
    derivative.ell_field(f, DISC, 0.5, QuadConfig(radial_order=12))
    derivative.ell_field(f, Ball(center=(0.0, 0.0), radius=1.5), 0.5, CFG)
    derivative.ell_field(f, DISC, 0.5, CFG, complementary_sign=1.0)
    # The restriction field of the same data is a different entry.
    operators.restriction_ws(DISC, f, 0.5, CFG)
    assert len(profile_builds) == 6
    derivative.ell_field(f, DISC, 0.5, CFG, complementary_sign=1.0)
    assert len(profile_builds) == 6


def test_tokenless_data_is_never_cached(profile_builds):
    for _ in range(2):
        operators.restriction_ws(DISC, TokenlessOnes(), 0.5, CFG)
        derivative.ell_field(TokenlessOnes(), DISC, 0.5, CFG)
    assert len(profile_builds) == 4
    assert len(quad._PROFILE_CACHE) == 0


def test_solve_then_expansion_residual_builds_ell_field_once(monkeypatch):
    # v_1 of the expansion residual is the s = 1 solve just made: it comes
    # from the store with its ell_field, so the 81 ell_s samples and the
    # Green solves of one build are all there is.
    samples, solves = [], []
    ell, solve = derivative.ell_s, derivative._green_solve

    def counting(*args, **kwargs):
        samples.append(args[3])
        return ell(*args, **kwargs)

    def counting_solve(*args, **kwargs):
        solves.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(derivative, "ell_s", counting)
    monkeypatch.setattr(derivative, "_green_solve", counting_solve)
    grid = np.array([[0.3, 0.0]])
    f = ones_field()
    v1 = derivative.solve_vs(f, DISC, 1.0, grid).values
    derivative.expansion_residual(f, DISC, 0.95, grid)
    assert len(samples) == 81
    assert solves == [1.0]
    assert np.array_equal(derivative._v1_cached(f, DISC, grid, CFG).values,
                          v1)


@pytest.fixture
def log_calls(monkeypatch):
    """Count the ``log_laplacian_compact`` calls, which still compute."""
    calls = []
    inner = operators.log_laplacian_compact

    def counting(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(operators, "log_laplacian_compact", counting)
    return calls


def ell_coefficients(f, s):
    """The Chebyshev coefficients of ``ell_field(f)`` at order ``s``."""
    field = derivative.ell_field(f, DISC, s, CFG)
    return quad._PROFILE_CACHE[field.cache_token]


def clear_stores():
    for store in quad._MEMO_STORES:
        store.clear()


def test_ell_field_reuses_log_samples_across_orders(log_calls):
    # L[E f] does not depend on the order: the s = 0.5 build reads all 81
    # samples of the s = 1 build and computes only P^c_s f, bit for bit
    # what a cold build gives.
    f = ones_field()
    grid = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, -0.5]])
    ell_coefficients(f, 1.0)
    warm = ell_coefficients(f, 0.5)
    assert len(log_calls) == 81
    warm_vs = derivative.solve_vs(f, DISC, 0.5, grid)
    clear_stores()
    cold = ell_coefficients(f, 0.5)
    cold_vs = derivative.solve_vs(f, DISC, 0.5, grid)
    assert len(log_calls) == 162
    assert warm.tobytes() == cold.tobytes()
    assert warm_vs.values.tobytes() == cold_vs.values.tobytes()
    assert np.array_equal(warm_vs.ok, cold_vs.ok)


def test_tokenless_data_leaves_the_log_store_empty(log_calls):
    for s in (1.0, 0.5):
        derivative.ell_field(TokenlessOnes(), DISC, s, CFG)
    assert len(log_calls) == 162
    assert len(derivative._LOG_CACHE) == 0


def test_log_samples_are_keyed_by_token_ball_config_and_point(log_calls):
    f = ones_field()
    x = np.array([0.3, 0.2])
    first = derivative.ell_s(f, DISC, 0.5, x, CFG)
    # Another order or sign of the same data reads the stored sample.
    derivative.ell_s(f, DISC, 1.0, x, CFG)
    flipped = derivative.ell_s(f, DISC, 0.5, x, CFG, complementary_sign=1.0)
    assert len(log_calls) == 1
    # Any other key computes afresh.
    derivative.ell_s(f, DISC, 0.5, (0.3, -0.2), CFG)
    derivative.ell_s(f, DISC, 0.5, x, QuadConfig(angular_order=32))
    derivative.ell_s(f, Ball(center=(0.0, 0.0), radius=1.5), 0.5, x, CFG)
    derivative.ell_s(ones_field(("other-ones", 2)), DISC, 0.5, x, CFG)
    assert len(log_calls) == 5
    assert len(derivative._LOG_CACHE) == 5
    clear_stores()
    assert derivative.ell_s(f, DISC, 0.5, x, CFG) == first
    assert derivative.ell_s(f, DISC, 0.5, x, CFG,
                            complementary_sign=1.0) == flipped


def gauss_field():
    """Radial ``exp(-3|y|^2)``: unlike ``f = 1``, its tables move with the
    quadrature resolution."""
    return operators.ScalarField(
        fn=lambda p: np.exp(-3.0 * np.sum(np.atleast_2d(p) ** 2, axis=1)),
        dim=2, radial=True, smooth_scale=1.0, cache_token=("memo-gauss", 2))


COARSE = QuadConfig(max_subdiv=4, radial_order=8, angular_order=16)
FINE = QuadConfig(max_subdiv=8, radial_order=10, angular_order=24)


@pytest.mark.parametrize("build", [
    lambda f, cfg: operators.restriction_ws(DISC, f, 0.5, cfg),
    lambda f, cfg: derivative.ell_field(f, DISC, 0.5, cfg),
], ids=["restriction_ws", "ell_field"])
def test_derived_fields_are_keyed_by_their_config(build):
    # A field tabulated at another QuadConfig is other data: the stores
    # must not serve the FINE field what was computed for the COARSE one.
    x = np.array([0.3, 0.2])

    def downstream(field):
        return (operators.restriction_ws(DISC, field, 0.75, FINE)(x)[0],
                kernels.comp_poisson_apply(DISC, field, 0.5, x, FINE).value,
                derivative.ell_s(field, DISC, 0.5, x, FINE))

    coarse = build(gauss_field(), COARSE)
    downstream(coarse)
    fine = build(gauss_field(), FINE)
    assert fine.cache_token != coarse.cache_token
    after = downstream(fine)
    clear_stores()
    assert downstream(build(gauss_field(), FINE)) == after


def load_tracing():
    """The benchmark's tracer module, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_hooks_exist():
    # The benchmark wraps these functions and rebinds these hooks by name
    # (perfbench/tracing.py, perfbench/child.py); deleting one breaks it.
    for mod_name, fns in load_tracing().WRAPPED.items():
        mod = importlib.import_module(f"fraclab.{mod_name}")
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"{mod_name}.{fn}"
    assert callable(bounds._ones(2).fn)
    assert callable(kernels._mf_on_grid)
    assert callable(derivative._v1_cached)
    assert isinstance(kernels._MF_CACHE, dict)
    assert isinstance(derivative._V1_CACHE, dict)
    assert quad.unit_power_rule.cache_info().maxsize > 0


def test_benchmark_hooks_are_looked_up_at_call_time(monkeypatch):
    # The benchmark counts work by replacing these module globals; a
    # caller holding the original object would leave its counts at zero.
    seen = []

    def spy(mod, name):
        orig = getattr(mod, name)

        def wrapped(*args, **kwargs):
            seen.append(name)
            return orig(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapped)

    for mod, name in ((bounds, "_ones"), (kernels, "_mf_on_grid"),
                      (derivative, "_v1_cached")):
        spy(mod, name)
    bounds.green_norm_bound(DISC, 0.5)
    assert {"_ones", "_mf_on_grid"} <= set(seen)
    derivative.solve_vs(ones_field(), DISC, 1.0, np.array([[0.3, 0.0]]))
    assert "_v1_cached" in seen


def test_benchmark_cache_probes_resolve():
    # The benchmark's tracer reads the stores' sizes and the rule cache's
    # statistics by these names; a store must hold a whole pass (90 master
    # grids in the bound chain) for its growth to count the misses.
    tracing = load_tracing()
    sizes = tracing._dict_cache_sizes()
    assert set(sizes) == {"kernels.mf_cache", "derivative.v1_cache"}
    assert all(isinstance(v, int) for v in sizes.values())
    info = tracing._rule_cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert kernels._MF_CACHE.bound > 90
    kernels.comp_poisson_apply(DISC, ones_field(), 0.5, np.array([0.3, 0.0]))
    # One master grid each for the fine and the coarse pass.
    assert tracing._dict_cache_sizes()["kernels.mf_cache"] == 2
