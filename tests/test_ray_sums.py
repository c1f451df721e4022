"""The batched ray integrator behind the ray operators.

The frozen values and evaluation counts come from the per-direction
implementation this integrator replaced: the rules and segments are the
same, so the counts must agree exactly and the values to rounding, while
the field is called once per batch instead of once per ray segment.
The principal value has since read one ray per +-theta pair, and radial
data on the centred disc folds the direction rules by its mirror
symmetry; the cases these folds reach were re-frozen at their new counts.
"""

import numpy as np
import pytest

from fraclab.core import EvaluationError
from fraclab.geometry import Ball
from fraclab import quadrature as quad
from fraclab.quadrature import QuadConfig
from fraclab import operators
from fraclab.operators import (CompactField, ScalarField, frac_laplacian,
                               log_laplacian, log_laplacian_compact,
                               nonlocal_normal_derivative, restriction_ws)

DISC = Ball(center=(0.0, 0.0), radius=1.0)
BALL3 = Ball(center=(0.0, 0.0, 0.0), radius=1.0)


class CountingField:
    """Delegates to a field, counting its calls and keeping its metadata."""

    def __init__(self, field):
        self.field = field
        self.calls = 0

    def __call__(self, pts):
        self.calls += 1
        return self.field(pts)

    def __getattr__(self, name):
        return getattr(self.field, name)


def poly2(p):
    p = np.atleast_2d(p)
    return (1.0 - np.sum(p * p, axis=1)) * (1.0 + 0.3 * p[:, 0] - 0.2 * p[:, 1])


def poly3(p):
    p = np.atleast_2d(p)
    return ((1.0 - np.sum(p * p, axis=1))
            * (1.0 + 0.4 * p[:, 0] * p[:, 2] + 0.1 * p[:, 1]))


def compact2():
    return CompactField(poly2, DISC, smooth_scale=1.0)


def layered2():
    # Not compactly supported: 1 - r^2/2 inside the disc, and outside it
    # an integrable (r - 1)^(-1/2) layer that the ray segments must grade
    # toward, decaying like r^(-3).
    def fn(p):
        r = np.sqrt(np.sum(p * p, axis=1))
        out = 1.0 - 0.5 * r * r
        out_side = r >= 1.0
        e = np.maximum(r[out_side] - 1.0, 1e-300)
        out[out_side] = 0.5 * e ** -0.5 * r[out_side] ** -2.5
        return out

    return ScalarField(fn=fn, dim=2, domain=DISC, radial=True,
                       smooth_scale=0.5, exterior_power=-0.5)


def ws2():
    ones = ScalarField(fn=lambda p: np.ones(len(np.atleast_2d(p))), dim=2,
                       radial=True, smooth_scale=1.0, cache_token=("ones", 2))
    return restriction_ws(DISC, ones, 0.5)


X = np.array([0.3, 0.2])
Y = np.array([0.2, -0.1])
CFG3 = QuadConfig(angular_order=48, radial_order=10, max_subdiv=12)

CASES = {
    "log_laplacian_compact_field": (
        compact2, lambda u: log_laplacian(u, X), 150688, 1.1627727776170784),
    # Radial data on the unit disc: the direction rules fold by the mirror
    # across the line through 0 and the point, so the radial passes read
    # half their directions (quarter in the principal value, which also
    # folds +-theta).  Re-frozen then (was 177344 evaluations, value
    # -0.4683180280955783): 5.5e-10 from -0.4683180286065821, the unfolded
    # rule at angular order 256, radial order 30 and max_subdiv 40 (the
    # unfolded value was 5.1e-10 off), inside the estimate 1.3e-8.  The
    # field then read its profiles from splines; re-frozen on the analytic
    # profiles themselves (was -0.4683180280567908): 7.0e-11 from
    # -0.4683325499151707, the rule at angular order 256, radial order 30
    # and max_subdiv 40, inside the estimate 1.4e-9.
    "log_laplacian_exterior_layer": (
        layered2, lambda u: log_laplacian(u, X), 88672, -0.46833254984532235),
    # The disc's h_Omega is closed now: its 2128 evaluations are gone.
    "log_laplacian_domain_form": (
        compact2, lambda u: log_laplacian_compact(u, X), 63232,
        1.1627727776170782),
    # Radial data takes one integral in |y| with the closed sphere mean of
    # the kernel (was 263360 evaluations on one side of the cone's axis,
    # 526720 on the whole cone, value -0.3251780002520529): 5.0e-16 from
    # -0.32517800025201954, the cone rule on the same data not declared
    # radial at angular order 256, radial order 30 and max_subdiv 40, and
    # 6.1e-16 from the closed exterior flux -0.32517800025201965.
    "normal_derivative_ws_2d": (
        ws2, lambda u: nonlocal_normal_derivative(u, 0.5, np.array([1.2, 0.1])),
        688, -0.32517800025201904),
    # The cone rings double their azimuths from 8: this polynomial stops
    # at 16 in both passes (6058752 evaluations at a fixed 60 and 48,
    # value 1.6e-16 lower).  The one coarse policy grades the coarse pass
    # 6 levels deep, not 8 (was 1705984).
    "normal_derivative_poly_3d": (
        lambda: CompactField(poly3, BALL3, smooth_scale=1.0),
        lambda u: nonlocal_normal_derivative(
            u, 0.5, np.array([0.2, -0.1, 1.25]), CFG3),
        1550336, -0.14067497674297313),
    # One ray per +-theta pair (was 294400 evaluations, each ray read
    # twice), and a coarse pass graded 18 levels deep, not 24 (was 147200).
    "frac_laplacian_compact_field": (
        compact2, lambda u: frac_laplacian(u, 0.5, Y), 139520,
        2.1561801343652527),
    # Frozen from the graded outer span of a non-compact field instead:
    # the per-direction value was 1.1% off (test_decaying_tail_is_graded).
    # Re-frozen with both folds (was 476928 evaluations, value
    # 0.9798935329470566): 4.1e-11 from 0.9798935329220773, the unfolded
    # rule at angular order 256, radial order 30 and max_subdiv 40 (the
    # unfolded value was 2.5e-11 off), inside the estimate 1.5e-9.  The
    # coarse pass grades 18 levels deep, not 24 (was 119232).  Re-frozen on
    # the analytic profiles instead of their splines (was
    # 0.9798935329627722): 2.1e-11 from 0.9798915881179144, the rule at
    # angular order 256, radial order 30 and max_subdiv 40, inside the
    # estimate 7.7e-10.
    "frac_laplacian_decaying_tail": (
        layered2, lambda u: frac_laplacian(u, 0.5, Y), 113472,
        0.9798915881390003),
}


@pytest.mark.parametrize("name", list(CASES))
def test_batched_rays_keep_counts_and_values(name):
    make, run, evaluations, value = CASES[name]
    u = CountingField(make())
    res = run(u)
    assert res.evaluations == evaluations
    assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)
    # The per-direction implementation made 97 to 24865 calls here.
    assert u.calls < 40


def test_decaying_tail_is_graded():
    # The layer outside the disc sits on the graded outer span, so the
    # dyadic tail starts past it: the estimate is honest, and a finer rule
    # agrees.  Starting the tail at the crossing gave 0.99109 (estimate
    # 6.5e-3) and 0.98743 (2.4e-3) on the finer rule.
    res = frac_laplacian(layered2(), 0.5, Y)
    fine = frac_laplacian(layered2(), 0.5, Y,
                          QuadConfig(angular_order=128, radial_order=24))
    assert res.error_estimate <= 1e-5
    assert res.tolerance_ok
    assert abs(res.value - fine.value) <= 1e-5


def nan_right_half(p):
    p = np.atleast_2d(p)
    return np.where(p[:, 0] > 0.5, np.nan, 1.0 - np.sum(p * p, axis=1))


def nan_only_at(x):
    def fn(p):
        p = np.atleast_2d(p)
        return np.where((p == x).all(axis=1), np.nan,
                        1.0 - np.sum(p * p, axis=1))
    return fn


RAY_OPERATORS = {
    "log_laplacian": (log_laplacian, (-0.2, 0.1)),
    "log_laplacian_compact": (log_laplacian_compact, (-0.2, 0.1)),
    "nonlocal_normal_derivative": (
        lambda u, z: nonlocal_normal_derivative(u, 0.5, z), (1.3, 0.0)),
    "frac_laplacian": (lambda u, x: frac_laplacian(u, 0.5, x), (-0.2, 0.1)),
}


@pytest.mark.parametrize("name", list(RAY_OPERATORS))
def test_non_finite_field_values_raise(name):
    run, x = RAY_OPERATORS[name]
    x = np.array(x)
    u = CompactField(nan_right_half, DISC, smooth_scale=1.0)
    with pytest.raises(EvaluationError) as info:
        run(u, x)
    assert info.value.point[0] > 0.5
    # NaN at the evaluation point alone: the value every ray differences
    # against.  Outside the disc the field is not compact, so the point
    # of the normal derivative sees it too.
    inside = float(x @ x) < 1.0
    u = ScalarField(fn=nan_only_at(x), dim=2, domain=DISC,
                    is_compact=inside, smooth_scale=1.0)
    with pytest.raises(EvaluationError) as info:
        run(u, x)
    np.testing.assert_array_equal(info.value.point, x)


@pytest.mark.parametrize("N", [2, 3])
def test_ray_nodes_equal_the_broadcast_layout(N):
    # The nodes are built one coordinate at a time; they must be the
    # broadcast x + t theta bit for bit.
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.3, 0.3, N)
    dirs = rng.standard_normal((5, N))
    idx = np.array([0, 0, 2, 3, 4, 4, 4])
    a = rng.uniform(0.0, 0.2, len(idx))
    b = a + rng.uniform(0.1, 0.5, len(idx))
    rule = operators.quad._gauss_unit(7)
    seen = []

    def field(p):
        seen.append(p.copy())
        return np.ones(len(p))

    operators.quad.ray_sums(field, x, dirs, idx, a, b, rule,
                            lambda t, v: v)
    t = a[:, None] + (b - a)[:, None] * rule[0][None, :]
    want = x + t[:, :, None] * dirs[idx][:, None, :]
    assert np.array_equal(np.concatenate(seen), want.reshape(-1, N))


# ---------------------------------------------------------------------------
# The crossing splitter.
# ---------------------------------------------------------------------------

def reference_segments(t_lo, t_hi, lo, hi, ext_p):
    """One direction's ``(a, b, alpha_lo, alpha_hi)`` segments, in a loop."""
    eps = 1e-9 * max(1.0, abs(hi))
    cuts = sorted({c for c in (*t_lo, *t_hi) if lo + eps < c < hi - eps})
    marks = [lo, *cuts, hi]
    segs = []
    for a, b in zip(marks[:-1], marks[1:]):
        exits = ext_p is not None and any(abs(a - c) <= eps for c in t_hi)
        entries = ext_p is not None and any(abs(b - c) <= eps for c in t_lo)
        segs.append((a, b, ext_p if exits else 0.0,
                     ext_p if entries else 0.0))
    return segs


NAN = np.nan
# Two crossing columns per direction (the rays along theta and -theta).
SPLIT_ROWS = [
    # (entries, exits, hi)
    ((-0.3, 1.2), (0.5, 1.7), 2.0),     # an exit exactly at lo
    ((2.0, NAN), (3.0, NAN), 2.0),      # an entry exactly at hi
    ((0.9, 0.9), (1.4, 1.4), 2.0),      # each crossing twice
    ((NAN, NAN), (NAN, NAN), 2.0),      # no crossing at all
    ((1.1, 0.7), (2.5, 1.0), 3.0),      # interleaved, entries both sides
    ((-1.0, NAN), (0.5 + 1e-12, NAN), 2.0),   # an exit within 1e-9 of lo
]


@pytest.mark.parametrize("ext_p", [None, -0.4])
def test_crossing_segments_match_a_per_direction_loop(ext_p):
    t_lo = np.array([row[0] for row in SPLIT_ROWS])
    t_hi = np.array([row[1] for row in SPLIT_ROWS])
    hi = np.array([row[2] for row in SPLIT_ROWS])
    idx, a, b, al, ah = quad.crossing_segments(t_lo, t_hi, 0.5, hi, ext_p)
    expected = [(k, *seg) for k, row in enumerate(SPLIT_ROWS)
                for seg in reference_segments(*row[:2], 0.5, row[2], ext_p)]
    got = list(zip(idx.tolist(), a.tolist(), b.tolist(), al.tolist(),
                   ah.tolist()))
    assert got == expected
    if ext_p is not None:
        # Flags on the exterior side of crossings of both rays: above the
        # exit at lo, below the entry at hi, around the interleaved ones.
        assert got[0][3] == ext_p and got[0][4] == ext_p
        assert (idx == 1).sum() == 1 and ah[idx == 1][0] == ext_p
        assert al[idx == 4].tolist() == [0.0, 0.0, ext_p, 0.0, ext_p]
        assert ah[idx == 4].tolist() == [ext_p, 0.0, ext_p, 0.0, 0.0]


def test_crossing_segments_take_one_column_as_one_ray():
    t_lo = np.array([0.7, NAN, 0.2])
    t_hi = np.array([1.3, NAN, 0.9])
    one = quad.crossing_segments(t_lo, t_hi, 0.0, 2.0, -0.5)
    two = quad.crossing_segments(np.column_stack([t_lo, np.full(3, NAN)]),
                                 np.column_stack([t_hi, np.full(3, NAN)]),
                                 0.0, 2.0, -0.5)
    for x, y in zip(one, two):
        assert np.array_equal(x, y)
