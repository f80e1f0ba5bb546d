"""Tests of the benchmark's own code (not of bklab).

    python3 -m pytest bench/test_bench.py
"""

import math
import types
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
import stats
from tracing import ITEM, SpanSummary, Tracer, covered_ns


# -- reference computations ------------------------------------------------


def test_exact_maximal_hand_worked():
    # depth 2, leaves 1 2 0 0: root average 3/4, halves 3/2 and 0, so
    # M phi = max(3/4, 3/2, 1), max(3/4, 3/2, 2), max(3/4, 0, 0) twice
    assert ref.exact_maximal([1, 2, 0, 0], 2, 2) == [
        Fraction(3, 2), Fraction(2), Fraction(3, 4), Fraction(3, 4)]
    # ternary, depth 1: the root average 1 lifts the two zero cells
    assert ref.exact_maximal([3, 0, 0], 3, 1) == [3, 1, 1]
    assert ref.exact_maximal([Fraction(1, 3)], 2, 0) == [Fraction(1, 3)]


def test_float_maximal_matches_exact():
    rng = np.random.default_rng(5)
    for m, depth in ((2, 5), (3, 3), (4, 2)):
        v = rng.integers(0, 9, size=m**depth)
        exact = ref.exact_maximal(v.tolist(), m, depth)
        assert np.allclose(ref.float_maximal(v, m, depth), [float(x) for x in exact],
                           rtol=1e-15, atol=0)


def test_maximal_rejects_wrong_length():
    with pytest.raises(ValueError):
        ref.exact_maximal([1, 2, 3], 2, 2)
    with pytest.raises(ValueError):
        ref.float_maximal(np.ones(5), 2, 2)


def test_half_closed_forms():
    assert ref.omega_half(1.0) == 1.0
    # H(x) = (sqrt(x) + 1/sqrt(x)) / 2 at x = omega^2 gives back z
    for z in (1.5, 3.0, 40.0):
        w = ref.omega_half(z)
        assert math.isclose((w + 1.0 / w) / 2.0, z, rel_tol=1e-14)
    # bklab's documented value at the paper's test point
    assert math.isclose(ref.bellman_half(1.0, 0.8, 1.2), 1.6110627372939086, rel_tol=1e-12)


def test_upper_end_ulp_step():
    # the draw on which r_k refuses rho1: the window ends about 1e4 ulps
    # below f, where one ulp moves l_k by some 5e-8 of h
    step = ref.upper_end_ulp_step(0.15281977044513048, 0.7977415314164339,
                                  0.8641135814066214, 0.8116373519437352)
    assert 1e-8 < step < 1e-7
    # the paper's test point at k = 1/2: rho1 far from f, a step near h's rounding
    assert ref.upper_end_ulp_step(0.5, 0.5, 1.0, 0.8) < 1e-15
    # l_k(f) = k^(1-q) f^q >= h: the window reaches f, no root to bisect
    assert ref.upper_end_ulp_step(0.5, 0.81, 1.0, 0.8) == 0.0


def test_objective_and_residual_on_a_flat_function():
    mx = np.full(4, 2.0)
    assert ref.objective(mx, 1.0, 0.5) == math.sqrt(2.0)
    assert ref.objective(mx, 4.0, 0.5) == 2.0
    assert ref.eigen_residual(mx, np.full(4, 1.0), 1.0, 0.5, 2.0) == 0.0
    assert ref.eigen_residual(mx, np.full(4, 0.0), 3.0, 0.5, 2.0) == math.sqrt(3.0)


# -- spans -----------------------------------------------------------------


def test_covered_merges_overlaps():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 15), (20, 25)]) == 20
    assert covered_ns([(20, 25), (0, 30)]) == 30


def test_self_time_and_per_item_figures():
    # item 0..100 holds A 10..60 (with two B children of 10 each) and C 70..90;
    # a second item 200..240 holds one A 210..230 with no children
    names = [ITEM, "A", "B", "B", "C", ITEM, "A"]
    parents = [-1, 0, 1, 1, 0, -1, 5]
    starts = [0, 10, 20, 40, 70, 200, 210]
    ends = [100, 60, 30, 50, 90, 240, 230]
    s = SpanSummary(names, parents, starts, ends)
    assert s.n_items == 2
    assert s.item_ns == 140
    assert s.self_ns["A"] == (50 - 20) + 20
    assert s.self_ns["B"] == 20
    assert s.per_item_calls("A") == 1.0
    assert s.per_item_calls("B") == 1.0
    assert s.per_item_ms("A") == (50 + 20) / 1e6 / 2
    assert s.per_call_us("A") == (50 + 20) / 1e3 / 2
    assert s.self_share("C") == 20 / 140
    assert s.per_call_us("missing") == 0.0


def test_nested_same_name_counted_once_inclusive():
    names = [ITEM, "A", "A"]
    parents = [-1, 0, 1]
    starts = [0, 0, 10]
    ends = [100, 80, 30]
    s = SpanSummary(names, parents, starts, ends)
    assert s.calls["A"] == 2
    assert s.inclusive_ns["A"] == 80
    assert s.per_call_us("A") == 80 / 1e3
    assert s.self_ns["A"] == (80 - 20) + 20


def test_spans_outside_items_are_ignored():
    s = SpanSummary(["A", ITEM], [-1, -1], [0, 10], [5, 20])
    assert s.calls.get("A", 0) == 0
    assert s.n_items == 1


def test_install_wraps_every_name_and_uninstall_restores():
    lib = types.ModuleType("lib")
    exec("def leaf(x):\n    return x + 1\n"
         "def outer(x):\n    return leaf(x) * 2\n"
         "class Box:\n    @classmethod\n    def make(cls, x):\n        return leaf(x)\n",
         lib.__dict__)
    user = types.ModuleType("user")
    user.leaf = lib.leaf  # imported under the same name elsewhere
    originals = (lib.leaf, lib.outer, lib.Box.__dict__["make"])
    t = Tracer()
    t.install((lib, user), [("lib.leaf", lib.leaf), ("lib.outer", lib.outer),
                           ("lib.make", lib.Box.make)])
    sid = t.open(ITEM)
    assert lib.outer(1) == 4       # outer -> leaf, looked up in lib
    assert user.leaf(1) == 2
    assert lib.Box.make(3) == 4
    t.close(sid)
    t.uninstall()
    assert (lib.leaf, lib.outer, lib.Box.__dict__["make"]) == originals
    assert user.leaf is lib.leaf
    assert t.names == [ITEM, "lib.outer", "lib.leaf", "lib.leaf", "lib.make", "lib.leaf"]
    assert t.parents == [-1, 0, 1, 0, 0, 4]
    assert all(e >= s for s, e in zip(t.starts, t.ends))


def test_span_closed_on_exception():
    t = Tracer()
    boom = t.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert t.ends[0] >= t.starts[0] > 0
    assert t.open("next") == 1 and t.parents[1] == -1


# -- order statistics ------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile([], 50) is None
    assert stats.percentile([7.0], 50) == 7.0
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile(range(1, 101), 90) == 90
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(1, 1001), 99) == 990
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100)


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3.0)


def test_clock_scale_is_positive_and_cached():
    clock = stats.Clock()
    first = clock.scale()
    assert first > 0
    assert clock.scale() == first  # within the recalibration interval
    assert len(clock.reference_s) == 1
