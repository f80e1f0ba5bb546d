"""Tree evaluation checks.

The brute-force reference for M phi recomputes every ancestor average through
integral_over, bypassing the level-by-level recursion under test.
"""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bklab.dyadic import (
    ROOT,
    ExcessSet,
    StepFunction,
    TreeElement,
    TreeSpec,
    excess_set,
    is_t_good,
    kolmogorov_gap,
    linearize,
    maximal_function,
    s_phi_by_criterion,
    tree_averages,
    weak_type_gap,
)
from bklab import dyadic, transforms
from bklab.errors import DomainError, NotTGoodError
from bklab.kernel import BellmanParams
from bklab.search import leaf_maximal
from bklab.transforms import (
    ancestor_max_averages,
    corollary41_gap,
    eigen_residual,
    g_phi,
    leaf_integrals,
    objective,
    random_disjoint_family,
    random_maximal_family,
    random_step_function,
    theorem41_gap,
    theorem42_gap,
)


def brute_maximal(phi, spec):
    """Direct evaluation of max over ancestors, one integral at a time."""
    m, N = spec.m, spec.depth
    out = []
    for i in range(spec.n_leaves):
        best = None
        for d in range(N + 1):
            el = TreeElement(d, i // m ** (N - d))
            avg = phi.average_over(el, m)
            if best is None or avg > best:
                best = avg
        out.append(best)
    return out


def random_exact(rng, spec, zero_frac=0.2):
    vals = []
    for _ in range(spec.n_leaves):
        if rng.random() < zero_frac:
            vals.append(Fraction(0))
        else:
            vals.append(Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 9))))
    if all(v == 0 for v in vals):
        vals[0] = Fraction(1)
    return StepFunction.from_leaf_values(vals, spec)


def random_float(rng, spec, zero_frac=0.15):
    vals = rng.lognormal(0.0, 1.0, spec.n_leaves)
    mask = rng.random(spec.n_leaves) < zero_frac
    vals[mask] = 0.0
    if not vals.any():
        vals[0] = 1.0
    return StepFunction.from_leaf_values([float(v) for v in vals], spec)


class TestTreeElement:
    def test_geometry(self):
        el = TreeElement(2, 3)
        assert el.start(2) == Fraction(3, 4)
        assert el.end(2) == Fraction(1)
        assert el.measure(2) == Fraction(1, 4)
        assert el.parent(2) == TreeElement(1, 1)
        assert el.ancestor(0, 2) == ROOT

    def test_containment(self):
        assert ROOT.contains(TreeElement(3, 5), 2)
        assert TreeElement(1, 0).contains(TreeElement(2, 1), 2)
        assert not TreeElement(1, 1).contains(TreeElement(2, 1), 2)
        assert not TreeElement(2, 1).contains(TreeElement(1, 0), 2)

    def test_leaf_range(self):
        spec = TreeSpec(m=2, depth=3)
        assert list(TreeElement(1, 1).leaf_range(spec)) == [4, 5, 6, 7]
        assert list(TreeElement(3, 2).leaf_range(spec)) == [2]


class TestStepFunction:
    def test_constant(self):
        phi = StepFunction.constant(Fraction(3, 2))
        assert phi.integral() == Fraction(3, 2)
        assert phi.value_at(Fraction(1, 3)) == Fraction(3, 2)

    def test_int_values_become_exact(self):
        phi = StepFunction.from_leaf_values([1, 2, 0, 3], TreeSpec(2, 2))
        assert phi.is_exact
        assert phi.integral() == Fraction(6, 4)

    def test_simplify_merges(self):
        phi = StepFunction.from_leaf_values([1, 1, 2, 2], TreeSpec(2, 2))
        assert len(phi.values) == 2
        # leaf_values -> from_leaf_values returns the same function
        spec = TreeSpec(3, 2)
        for vals in ([0.5, 0.5, 2.0, 0.0, 0.0, 0.0, 1.5, 2.0, 2.0],
                     [Fraction(1, 3)] * 4 + [Fraction(0), 7, 7, Fraction(1, 3), 2],
                     [1.5, Fraction(3, 2), Fraction(1, 3), 0.25, 0.25, 0, 0.0, 4, 4.0]):
            phi = StepFunction.from_leaf_values(vals, spec)
            assert StepFunction.from_leaf_values(phi.leaf_values(spec), spec) == phi

    def test_from_pieces_contiguity(self):
        with pytest.raises(DomainError):
            StepFunction.from_pieces([(0, Fraction(1, 2), 1.0), (Fraction(3, 4), 1, 2.0)])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            StepFunction.constant(-1.0)
        # every leaf is validated, also one that would join its neighbour's run
        with pytest.raises(DomainError):
            StepFunction.from_leaf_values([1, True], TreeSpec(2, 1))
        with pytest.raises(DomainError):
            StepFunction.from_leaf_values([1.0, 1.0, -1.0, 1.0], TreeSpec(2, 2))

    def test_value_at_and_integrals(self):
        phi = StepFunction.from_pieces(
            [(0, Fraction(1, 4), 2), (Fraction(1, 4), 1, Fraction(1, 2))]
        )
        assert phi.value_at(0) == 2
        assert phi.value_at(Fraction(1, 4)) == Fraction(1, 2)
        assert phi.integral() == Fraction(1, 2) + Fraction(3, 8)
        assert phi.integral_over(Fraction(1, 8), Fraction(3, 8)) == (
            2 * Fraction(1, 8) + Fraction(1, 2) * Fraction(1, 8)
        )

    def test_leaf_alignment(self):
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_pieces([(0, Fraction(1, 3), 1), (Fraction(1, 3), 1, 2)])
        assert not phi.is_leaf_aligned(spec)
        with pytest.raises(NotTGoodError):
            phi.leaf_values(spec)
        # m-adic, but finer than the depth-2 leaves
        finer = StepFunction.from_pieces([(0, Fraction(1, 8), 1), (Fraction(1, 8), 1, 2)])
        with pytest.raises(NotTGoodError):
            finer.leaf_values(spec)
        with pytest.raises(NotTGoodError):
            is_t_good(finer, spec)

    def test_json_roundtrip_exact(self):
        spec = TreeSpec(2, 3)
        rng = np.random.default_rng(2)
        phi = random_exact(rng, spec)
        obj = phi.to_json_obj(2)
        back, m = StepFunction.from_json_obj(obj)
        assert m == 2
        assert back == phi

    def test_json_roundtrip_float(self):
        spec = TreeSpec(3, 2)
        rng = np.random.default_rng(3)
        phi = random_float(rng, spec)
        back, _ = StepFunction.from_json_obj(phi.to_json_obj(3))
        assert back == phi

    def test_json_rejects_non_madic(self):
        phi = StepFunction.from_pieces([(0, Fraction(1, 3), 1), (Fraction(1, 3), 1, 2)])
        with pytest.raises(DomainError):
            phi.to_json_obj(2)


class TestMaximalFunction:
    def test_hand_example(self):
        # leaves (4, 0, 1, 1): root avg 3/2, halves (2, 1)
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values([4, 0, 1, 1], spec)
        mf = maximal_function(phi, spec)
        assert mf.leaf_values(spec) == [4, 2, Fraction(3, 2), Fraction(3, 2)]

    def test_constant_fixed_point(self):
        spec = TreeSpec(2, 3)
        phi = StepFunction.constant(Fraction(7, 5))
        mf = maximal_function(phi, spec)
        assert mf.values == (Fraction(7, 5),)

    def test_matches_brute_force_exact(self):
        rng = np.random.default_rng(7)
        for spec in (TreeSpec(2, 3), TreeSpec(2, 4), TreeSpec(3, 2)):
            for _ in range(25):
                phi = random_exact(rng, spec)
                mf = maximal_function(phi, spec).leaf_values(spec)
                assert mf == brute_maximal(phi, spec)

    def test_matches_brute_force_float(self):
        rng = np.random.default_rng(8)
        spec = TreeSpec(2, 4)
        for _ in range(25):
            phi = random_float(rng, spec)
            mf = maximal_function(phi, spec).leaf_values(spec)
            brute = brute_maximal(phi, spec)
            assert mf == pytest.approx(brute, rel=1e-12)

    def test_dominates_phi_and_mean(self):
        rng = np.random.default_rng(9)
        spec = TreeSpec(2, 5)
        for _ in range(10):
            phi = random_float(rng, spec)
            mf = maximal_function(phi, spec).leaf_values(spec)
            lv = phi.leaf_values(spec)
            mean = float(phi.integral())
            for a, b in zip(mf, lv):
                assert a >= b - 1e-14
                assert a >= mean - 1e-14

    def test_t_good(self):
        rng = np.random.default_rng(10)
        for spec in (TreeSpec(2, 4), TreeSpec(3, 3)):
            for _ in range(10):
                assert is_t_good(random_float(rng, spec), spec)
                assert is_t_good(random_exact(rng, spec), spec)


class TestLinearize:
    def test_criterion_matches_construction(self):
        # the strict-ancestor test and the shallowest-attainer construction
        # must produce identical families
        rng = np.random.default_rng(21)
        cases = (
            [(TreeSpec(2, 3), random_exact)] * 500
            + [(TreeSpec(2, 3), random_float)] * 500
            + [(TreeSpec(2, 5), random_float)] * 100
            + [(TreeSpec(3, 3), random_exact)] * 100
        )
        for spec, gen in cases:
            phi = gen(rng, spec)
            lin = linearize(phi, spec)
            assert frozenset(lin.elements) == s_phi_by_criterion(phi, spec)

    def test_partition_and_averages(self):
        rng = np.random.default_rng(22)
        spec = TreeSpec(2, 4)
        for _ in range(50):
            phi = random_exact(rng, spec)
            lin = linearize(phi, spec)
            seen = sorted(i for idxs in lin.a_sets.values() for i in idxs)
            assert seen == list(range(spec.n_leaves))
            for el, idxs in lin.a_sets.items():
                for i in idxs:
                    assert el.contains(TreeElement(spec.depth, i), spec.m)
            levels = tree_averages(phi, spec)
            for el in lin.elements:
                assert lin.averages[el] == levels[el.depth][el.index]

    def test_reconstruction_bit_exact(self):
        rng = np.random.default_rng(23)
        spec = TreeSpec(2, 5)
        for _ in range(60):
            phi = random_exact(rng, spec)
            lin = linearize(phi, spec)
            assert lin.maximal_from_parts() == maximal_function(phi, spec)

    def test_weight_identity_bit_exact(self):
        # mu(A(phi, I)) = mu(I) - sum of mu(J) over J in S_phi with J* = I
        rng = np.random.default_rng(24)
        for spec in (TreeSpec(2, 4), TreeSpec(3, 3)):
            for _ in range(40):
                phi = random_exact(rng, spec)
                lin = linearize(phi, spec)
                for el in lin.elements:
                    kids = [j for j in lin.elements if lin.star[j] == el]
                    expect = el.measure(spec.m) - sum(
                        (j.measure(spec.m) for j in kids), start=Fraction(0)
                    )
                    assert lin.weights[el] == expect

    def test_star_is_smallest_strict_superset(self):
        rng = np.random.default_rng(25)
        spec = TreeSpec(2, 4)
        for _ in range(30):
            phi = random_float(rng, spec)
            lin = linearize(phi, spec)
            for el in lin.elements:
                if el == ROOT:
                    assert lin.star[el] is None
                    continue
                sup = lin.star[el]
                assert sup.contains(el, spec.m) and sup != el
                for other in lin.elements:
                    if other != el and other.contains(el, spec.m):
                        assert other.contains(sup, spec.m)

    def test_averages_strictly_increase_along_star(self):
        rng = np.random.default_rng(26)
        spec = TreeSpec(2, 4)
        for _ in range(30):
            phi = random_exact(rng, spec)
            lin = linearize(phi, spec)
            for el in lin.elements:
                if lin.star[el] is not None:
                    assert lin.averages[el] > lin.averages[lin.star[el]]

    def test_some_child_escapes(self):
        # every member above leaf depth has at least one child outside S_phi
        rng = np.random.default_rng(27)
        spec = TreeSpec(2, 4)
        for _ in range(30):
            phi = random_float(rng, spec)
            lin = linearize(phi, spec)
            fam = frozenset(lin.elements)
            for el in lin.elements:
                if el.depth < spec.depth:
                    assert any(ch not in fam for ch in el.children(spec.m))

    def test_two_level_example(self):
        # leaves (4, 0, 1, 1): S_phi = {X, [0,1/2), [0,1/4)}
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values([4, 0, 1, 1], spec)
        lin = linearize(phi, spec)
        assert set(lin.elements) == {ROOT, TreeElement(1, 0), TreeElement(2, 0)}
        assert lin.a_sets[TreeElement(2, 0)] == (0,)
        assert lin.a_sets[TreeElement(1, 0)] == (1,)
        assert lin.a_sets[ROOT] == (2, 3)
        assert lin.star[TreeElement(2, 0)] == TreeElement(1, 0)
        assert lin.star[TreeElement(1, 0)] == ROOT


@st.composite
def excess_cases(draw):
    """A float or exact function at m = 2 or 3 and an L below every average
    of it, among its averages or above every one."""
    m, depth = draw(st.sampled_from(((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))))
    spec = TreeSpec(m, depth)
    values = st.fractions(0, 50, max_denominator=12) if draw(st.booleans()) else \
        st.floats(0.0, 50.0)
    vals = draw(st.lists(values, min_size=spec.n_leaves, max_size=spec.n_leaves))
    phi = StepFunction.from_leaf_values(vals, spec)
    low, high = min(vals), max(vals)
    where = draw(st.sampled_from(("below", "inside", "above")))
    if where == "below":
        L = low / 2
    elif where == "above":
        L = high + 1
    else:
        L = low + (high - low) * draw(st.sampled_from((Fraction(1, 3), Fraction(1, 2), 1)))
        L = L if phi.is_exact else float(L)
    return phi, L, spec


class TestExcessSet:
    def test_hand_example(self):
        # 3 on [0, 1/4): at L = 3/2 the half [0, 1/2) is the maximal element
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values([3, 0, 0, 0], spec)
        exc = excess_set(phi, Fraction(3, 2), spec, q=0.5)
        assert exc.elements == (TreeElement(1, 0),)
        assert exc.measure == Fraction(1, 2)
        assert exc.mass == Fraction(3, 4)
        assert exc.q_mass == pytest.approx(3**0.5 / 4)

    def test_empty_when_L_exceeds_max(self):
        spec = TreeSpec(2, 3)
        phi = StepFunction.from_leaf_values([1] * 8, spec)
        exc = excess_set(phi, 2.0, spec, q=0.5)
        assert exc.elements == ()
        assert exc.measure == 0
        assert exc.mass == 0

    def test_whole_space_when_L_below_mean(self):
        spec = TreeSpec(2, 3)
        rng = np.random.default_rng(31)
        phi = random_float(rng, spec)
        exc = excess_set(phi, 0.0 + float(phi.integral()) * 0.5, spec, q=0.5)
        assert exc.elements == (ROOT,)

    def test_union_is_superlevel_set(self):
        rng = np.random.default_rng(32)
        spec = TreeSpec(2, 5)
        for _ in range(40):
            phi = random_float(rng, spec)
            mf = maximal_function(phi, spec).leaf_values(spec)
            L = float(phi.integral()) * float(rng.uniform(1.0, 2.5))
            exc = excess_set(phi, L, spec, q=0.5)
            expect = {i for i in range(spec.n_leaves) if mf[i] >= L}
            assert set(exc.leaves) == expect

    def test_maximal_and_disjoint(self):
        rng = np.random.default_rng(33)
        spec = TreeSpec(2, 5)
        for _ in range(25):
            phi = random_exact(rng, spec)
            L = phi.integral() * Fraction(5, 4)
            exc = excess_set(phi, L, spec, q=0.5)
            levels = tree_averages(phi, spec)
            for el in exc.elements:
                assert levels[el.depth][el.index] >= L
                for d in range(el.depth):
                    anc = el.ancestor(d, spec.m)
                    assert levels[anc.depth][anc.index] < L
            for a in exc.elements:
                for b in exc.elements:
                    if a != b:
                        assert not a.contains(b, spec.m) and not b.contains(a, spec.m)

    def test_mass_at_least_k_L(self):
        rng = np.random.default_rng(34)
        spec = TreeSpec(2, 5)
        for _ in range(40):
            phi = random_float(rng, spec)
            L = float(phi.integral()) * float(rng.uniform(1.0, 2.0))
            exc = excess_set(phi, L, spec, q=0.5)
            assert float(exc.mass) >= float(exc.measure) * L - 1e-12

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(excess_cases())
    def test_pair_walk_matches_element_walk(self, case):
        # the walk over (depth, index) pairs chooses what a depth-first walk
        # over TreeElements chose, and builds an element only per choice
        phi, L, spec = case
        m, N = spec.m, spec.depth
        levels = tree_averages(phi, spec)
        chosen, stack = [], [ROOT]
        while stack:
            el = stack.pop()
            if levels[el.depth][el.index] >= L:
                chosen.append(el)
            elif el.depth < N:
                stack.extend(reversed(el.children(m)))
        chosen.sort()
        leaves = [i for el in chosen for i in el.leaf_range(spec)]
        built = []
        check = TreeElement.__post_init__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TreeElement, "__post_init__", lambda el: built.append(check(el)))
            exc = excess_set(phi, L, spec, 0.5)
        assert len(built) <= len(chosen)
        assert exc.elements == tuple(chosen) and exc.leaves == tuple(leaves)
        assert exc.measure == Fraction(len(leaves), spec.n_leaves)
        values = phi.leaf_values(spec)
        if phi.is_exact:
            assert exc.mass == sum((values[i] for i in leaves), Fraction(0)) / spec.n_leaves
        else:
            assert exc.mass == pytest.approx(sum(values[i] for i in leaves) / spec.n_leaves)


class TestClassicalInequalities:
    def test_weak_type_nonnegative_slack(self):
        rng = np.random.default_rng(41)
        spec = TreeSpec(2, 6)
        for _ in range(60):
            phi = random_float(rng, spec)
            for lam in rng.uniform(0.1, 4.0, 5):
                rec = weak_type_gap(phi, float(lam), spec)
                assert rec.slack >= -1e-12

    def test_weak_type_tight_on_indicator(self):
        # phi = 1 on [0, 1/8): at lam just under the top average the maximal
        # element is recovered with equality
        spec = TreeSpec(2, 3)
        phi = StepFunction.from_leaf_values([8, 0, 0, 0, 0, 0, 0, 0], spec)
        rec = weak_type_gap(phi, 7.999, spec)
        assert rec.lhs == pytest.approx(1.0 / 8.0)
        assert rec.slack == pytest.approx(1.0 / 7.999 - 1.0 / 8.0, abs=1e-12)

    def test_kolmogorov_nonnegative_slack(self):
        rng = np.random.default_rng(42)
        spec = TreeSpec(2, 6)
        for _ in range(40):
            phi = random_float(rng, spec)
            for q in (0.2, 0.5, 0.8):
                n = int(rng.integers(1, spec.n_leaves + 1))
                leaves = rng.choice(spec.n_leaves, size=n, replace=False)
                rec = kolmogorov_gap(phi, q, [int(i) for i in leaves], spec)
                assert rec.slack >= -1e-12

    def test_kolmogorov_empty_set(self):
        spec = TreeSpec(2, 3)
        phi = StepFunction.constant(1.0)
        rec = kolmogorov_gap(phi, 0.5, [], spec)
        assert rec.lhs == 0.0 and rec.rhs == 0.0


HALF = Fraction(1, 2)
ONE = StepFunction.constant(1.0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: TreeSpec(1, 2), id="TreeSpec-m-1"),
    pytest.param(lambda: TreeSpec(2, -1), id="TreeSpec-depth-negative"),
    pytest.param(lambda: TreeElement(-1, 0), id="TreeElement-depth-negative"),
    pytest.param(lambda: ROOT.parent(2), id="root-parent"),
    pytest.param(lambda: StepFunction((0, 1), (1, 2)), id="one-breakpoint-short"),
    pytest.param(lambda: StepFunction((0, HALF), (1,)), id="ends-before-1"),
    pytest.param(lambda: StepFunction((0, HALF, HALF, 1), (1, 2, 3)),
                 id="repeated-breakpoint"),
    pytest.param(lambda: StepFunction((0, 1), (float("nan"),)), id="nan-value"),
    pytest.param(lambda: StepFunction.from_pieces([]), id="no-pieces"),
    pytest.param(lambda: StepFunction.from_json_obj({"m": 1, "pieces": [
        {"start": {"num": 0, "den_pow": 0}, "end": {"num": 1, "den_pow": 0},
         "value": 1}]}), id="json-m-1"),
    pytest.param(lambda: StepFunction.from_leaf_values([1], TreeSpec(2, 1)),
                 id="leaf-count"),
    pytest.param(lambda: ONE.value_at(1), id="value_at-1"),
    pytest.param(lambda: ONE.integral_over(HALF, Fraction(1, 4)), id="reversed-interval"),
    pytest.param(lambda: weak_type_gap(ONE, 0.0, TreeSpec(2, 2)), id="weak-type-lam-0"),
    pytest.param(lambda: weak_type_gap(ONE.to_exact(), math.inf, TreeSpec(2, 2)),
                 id="weak-type-lam-inf"),
    pytest.param(lambda: weak_type_gap(ONE, math.nan, TreeSpec(2, 2)), id="weak-type-lam-nan"),
    pytest.param(lambda: kolmogorov_gap(ONE, 0.5, [4], TreeSpec(2, 2)),
                 id="kolmogorov-leaf-n"),
    pytest.param(lambda: excess_set(ONE, math.nan, TreeSpec(2, 2), 0.5), id="excess-L-nan"),
    pytest.param(lambda: excess_set(ONE.to_exact(), math.inf, TreeSpec(2, 2), 0.5),
                 id="excess-L-inf"),
    pytest.param(lambda: excess_set(ONE, 1.0, TreeSpec(2, 2), math.nan), id="excess-q-nan"),
    pytest.param(lambda: excess_set(ONE, 1.0, TreeSpec(2, 2), 1.5), id="excess-q-1.5"),
    pytest.param(lambda: excess_set(ONE.to_exact(), 1.0, TreeSpec(2, 2), -1.0),
                 id="excess-q-negative"),
    pytest.param(lambda: objective(ONE, math.nan, 0.5, TreeSpec(2, 2)), id="objective-L-nan"),
    pytest.param(lambda: objective(ONE, math.inf, 0.5, TreeSpec(2, 2)), id="objective-L-inf"),
    pytest.param(lambda: objective(ONE, 1.0, math.nan, TreeSpec(2, 2)), id="objective-q-nan"),
    pytest.param(lambda: objective(ONE, 1.0, 1.5, TreeSpec(2, 2)), id="objective-q-1.5"),
])
def test_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


# every average of HUGE is 1e308, but the root's block sum 2e308 overflows a float
HUGE = StepFunction.from_leaf_values([1e308, 1e308], TreeSpec(2, 1))


@pytest.mark.parametrize("call", [
    pytest.param(lambda spec: tree_averages(HUGE, spec), id="tree_averages"),
    pytest.param(lambda spec: linearize(HUGE, spec), id="linearize"),
    pytest.param(lambda spec: maximal_function(HUGE, spec), id="maximal_function"),
    pytest.param(lambda spec: s_phi_by_criterion(HUGE, spec), id="s_phi_by_criterion"),
    pytest.param(lambda spec: excess_set(HUGE, 1.0, spec, 0.5), id="excess_set"),
    pytest.param(lambda spec: objective(HUGE, 1.0, 0.5, spec), id="objective"),
    pytest.param(lambda spec: weak_type_gap(HUGE, 1.0, spec), id="weak_type_gap"),
])
def test_float_overflow_raises_domain_error(call):
    with pytest.raises(DomainError, match="past 1.8e308"):
        call(TreeSpec(2, 1))


def test_exact_copy_has_no_overflow():
    mphi = maximal_function(HUGE.to_exact(), TreeSpec(2, 1))
    assert mphi.values == (1e308,)


# (m, depth) with m in {2, 3, 4}, depth <= 6 and at most 64 leaves
SHAPES = [(m, d) for m in (2, 3, 4) for d in range(7) if m**d <= 64]


@st.composite
def leaf_functions(draw, values):
    m, depth = draw(st.sampled_from(SHAPES))
    spec = TreeSpec(m, depth)
    vals = draw(st.lists(values, min_size=spec.n_leaves, max_size=spec.n_leaves))
    return StepFunction.from_leaf_values(vals, spec), spec


FLOAT_VALUES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
EXACT_VALUES = st.one_of(st.just(0), st.fractions(0, 50, max_denominator=12))


class TestProperties:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(leaf_functions(FLOAT_VALUES))
    def test_float_paths_agree_with_exact(self, case):
        phi, spec = case
        exact = [float(v) for v in maximal_function(phi.to_exact(), spec).leaf_values(spec)]
        mine = [float(v) for v in maximal_function(phi, spec).leaf_values(spec)]
        batch = leaf_maximal([float(v) for v in phi.leaf_values(spec)], spec.m, spec.depth)
        assert mine == pytest.approx(exact, rel=1e-12)
        assert list(batch) == pytest.approx(exact, rel=1e-12)
        assert list(batch) == pytest.approx(mine, rel=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(leaf_functions(EXACT_VALUES))
    def test_exact_linearization_identities(self, case):
        phi, spec = case
        lin = linearize(phi, spec)
        assert lin.maximal_from_parts() == maximal_function(phi, spec)
        assert frozenset(lin.elements) == s_phi_by_criterion(phi, spec)
        assert sum(lin.weights.values()) == 1


# exact leaf values: small denominators, zeros, and floats (dyadic rationals)
# from the subnormal 5e-324 up to 1e300, so the common scale spans ~3400 bits
CORE_VALUES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(0, 50, max_denominator=12),
    st.sampled_from([5e-324, 1e300, 0.1, 2.0**-60]).map(Fraction),
    st.floats(0.0, 1e300).map(Fraction),
)
CORE_SHAPES = [(m, d) for m in (2, 3, 4) for d in range(6) if m**d <= 64]


@st.composite
def core_functions(draw):
    m, depth = draw(st.sampled_from(CORE_SHAPES))
    spec = TreeSpec(m, depth)
    vals = draw(st.lists(CORE_VALUES, min_size=spec.n_leaves, max_size=spec.n_leaves))
    return StepFunction.from_leaf_values(vals, spec), spec


@st.composite
def unaligned_functions(draw):
    """Exact g with breakpoints on a grid unrelated to the tree's (thirds, sevenths)."""
    m, depth = draw(st.sampled_from(CORE_SHAPES))
    den = draw(st.sampled_from([3, 7, 12, 2**depth * 5]))
    cuts = draw(st.sets(st.integers(1, den - 1), max_size=8))
    bps = [Fraction(0)] + [Fraction(k, den) for k in sorted(cuts)] + [Fraction(1)]
    vals = draw(st.lists(CORE_VALUES, min_size=len(bps) - 1, max_size=len(bps) - 1))
    return StepFunction(bps, vals), TreeSpec(m, depth)


class TestExactCore:
    def test_to_exact_keeps_exact_function(self):
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values([1, Fraction(1, 3), 0, 2], spec)
        assert phi.to_exact() is phi
        promoted = StepFunction.from_leaf_values([0.5, 0.1, 0.0, 2.0], spec).to_exact()
        assert promoted.values == (Fraction(1, 2), Fraction(0.1), Fraction(0), Fraction(2))
        assert promoted.breakpoints == tuple(Fraction(i, 4) for i in range(5))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(core_functions())
    def test_tree_averages_match_block_fractions(self, case):
        phi, spec = case
        leaves = phi.leaf_values(spec)
        levels = tree_averages(phi, spec)
        for d, row in enumerate(levels):
            width = spec.m ** (spec.depth - d)
            assert len(row) == spec.m**d
            for j, avg in enumerate(row):
                block = leaves[j * width:(j + 1) * width]
                assert type(avg) is Fraction
                assert avg == Fraction(sum(block), len(block))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(unaligned_functions())
    def test_ancestor_max_matches_direct_fractions(self, case):
        g, spec = case
        got = ancestor_max_averages(g, spec)
        assert all(type(v) is Fraction for v in got)
        assert got == brute_maximal(g, spec)

    def test_outputs_pinned(self):
        # recorded while every exact average was a Fraction computed per node;
        # repr carries each value's type, so Fraction(3) and 3 pin differently
        digest = hashlib.sha256()

        def pin(*parts):
            digest.update(repr(parts).encode())

        rng = random.Random(57)
        calls = 0
        for m, depth in ((2, 6), (3, 4), (4, 3), (2, 1), (2, 0)):
            spec = TreeSpec(m, depth)
            for exact in (True, False, True, False):
                phi = random_step_function(rng, spec, exact=exact).to_exact()
                top = max(phi.leaf_values(spec))
                pin(tree_averages(phi, spec))
                lin = linearize(phi, spec)
                pin(lin.spec, lin.elements, sorted(lin.averages.items()),
                    sorted(lin.a_sets.items()), sorted(lin.weights.items()),
                    sorted(lin.star.items(), key=lambda kv: kv[0]))
                mphi = maximal_function(phi, spec)
                pin(mphi.breakpoints, mphi.values, sorted(s_phi_by_criterion(phi, spec)))
                for L in (Fraction(5, 2), 1.2, top / 2, top):
                    calls += 1
                    exc = excess_set(phi, L, spec, 0.5)
                    pin(exc.elements, exc.measure, exc.mass, exc.q_mass, exc.leaves)
                    g, _ = g_phi(phi, L, 0.5, spec)
                    pin(leaf_integrals(g, spec), ancestor_max_averages(g, spec))
        assert calls == 80
        assert digest.hexdigest() == (
            "b11b420dc40344d0206113e787cdc51a1c5e7bf8c8638c08466255dc3f2cf908")


def reference_integral(phi):
    """integral() as first written: one Fraction difference per piece, summed in order."""
    total = 0
    for i, v in enumerate(phi.values):
        total += v * (phi.breakpoints[i + 1] - phi.breakpoints[i])
    return total


def number_key(x):
    """Type and every bit: a float by its hex (the sign of zero included), else its value."""
    return type(x).__name__, x.hex() if isinstance(x, float) else x


# breakpoints with small, huge, leaf-aligned and unrelated denominators
BREAKPOINTS = st.one_of(
    st.fractions(0, 1, max_denominator=1000),
    st.builds(Fraction, st.integers(1, 2**70 - 1), st.just(2**70)),
    st.builds(Fraction, st.integers(1, 3**45 - 1), st.just(3**45)),
).filter(lambda x: 0 < x < 1)
FLOAT_PIECES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308]), st.floats(0.0, 1e300))
EXACT_PIECES = st.one_of(st.integers(0, 10**6), st.fractions(0, 10**6, max_denominator=10**9))


@st.composite
def any_step_functions(draw, values):
    inner = draw(st.lists(BREAKPOINTS, unique=True, max_size=12))
    bps = [Fraction(0), *sorted(inner), Fraction(1)]
    return StepFunction(bps, draw(st.lists(values, min_size=len(bps) - 1,
                                           max_size=len(bps) - 1)))


# leaf values as from_leaf_values accepts them: plain and NumPy floats, ints, Fractions
LEAF_VALUES = st.one_of(FLOAT_PIECES, FLOAT_PIECES.map(np.float64), EXACT_PIECES)
BAD_VALUES = [math.nan, -math.nan, math.inf, -math.inf, -1.0, -5e-324, np.float64(math.nan),
              -3, Fraction(-1, 3), True, False]


class TestIntegralAndLeafValues:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(any_step_functions(st.one_of(FLOAT_PIECES, EXACT_PIECES)))
    def test_integral_matches_fraction_differences(self, phi):
        assert number_key(phi.integral()) == number_key(reference_integral(phi))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(SHAPES).flatmap(lambda s: st.tuples(
        st.just(TreeSpec(*s)), st.lists(LEAF_VALUES, min_size=s[0]**s[1], max_size=s[0]**s[1]))))
    def test_from_leaf_values_keeps_every_bit(self, case):
        spec, vals = case
        want = []  # the first value of each run of equal values, ints promoted
        for v in vals:
            v = Fraction(v) if isinstance(v, int) else float(v) if isinstance(v, float) else v
            want.append(want[-1] if want and v == want[-1] else v)
        got = StepFunction.from_leaf_values(vals, spec).leaf_values(spec)
        assert [number_key(v) for v in got] == [number_key(v) for v in want]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(LEAF_VALUES, min_size=4, max_size=4), st.sampled_from(BAD_VALUES),
           st.integers(0, 3))
    def test_from_leaf_values_refuses_bad_values(self, vals, bad, at):
        vals[at] = bad
        with pytest.raises(DomainError):
            StepFunction.from_leaf_values(vals, TreeSpec(2, 2))

    def test_integrals_add_in_order(self, monkeypatch):
        # from Python 3.12 on sum() compensates float sums, which would lift
        # 1 + 3 * 2^-54 to 1 + 2^-52; every integral adds left to right
        from test_search import compensated_sum

        monkeypatch.setattr(dyadic, "sum", compensated_sum, raising=False)
        phi = StepFunction([Fraction(i, 4) for i in range(5)], [4.0] + [2.0**-52] * 3)
        for got in (phi.integral(), phi.integral_over(0, 1), phi.average_over(ROOT, 2)):
            assert got.hex() == "0x1.0000000000000p+0"

    def test_integral_pinned(self):
        # recorded while integral() summed one Fraction difference per piece;
        # the breakpoints mix leaf-aligned and unrelated denominators
        digest = hashlib.sha256()
        rng = random.Random(23)
        dens = (2**6, 3**4, 10, 7 * 2**5, 2**70, 3**45)
        for trial in range(150):
            inner = {Fraction(rng.randrange(1, d), d)
                     for d in (rng.choice(dens) for _ in range(rng.randrange(0, 10)))}
            bps = [0, *sorted(inner), 1]
            vals = []
            for _ in range(len(bps) - 1):
                if trial % 3 == 0 or (trial % 3 == 2 and rng.random() < 0.5):
                    vals.append(math.exp(rng.gauss(0.0, 3.0)) if rng.random() > 0.1 else 0.0)
                else:
                    vals.append(Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4)))
            digest.update(repr(number_key(StepFunction(bps, vals).integral())).encode())
        assert digest.hexdigest() == (
            "20962c66508a27bb3f89e47fbc7b1a894724561a481c82ce915f0c3b94822741")


# -- one tree per function and spec ------------------------------------


def exactly(x):
    """x with every float as its hex string, so == compares bits (the sign of zero too)."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, StepFunction):
        return exactly((x.breakpoints, x.values))
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x).__name__, [exactly(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, dict):
        return [(exactly(k), exactly(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [exactly(v) for v in x]
    return x


PARAMS = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)

# every evaluator that reads the tree of phi at spec, by name
EVALUATORS = {
    "tree_averages": lambda phi, spec: tree_averages(phi, spec),
    "maximal_function": lambda phi, spec: maximal_function(phi, spec),
    "linearize": lambda phi, spec: linearize(phi, spec),
    "s_phi_by_criterion": lambda phi, spec: s_phi_by_criterion(phi, spec),
    "excess_set": lambda phi, spec: excess_set(phi, 1.5, spec, 0.5),
    "weak_type_gap": lambda phi, spec: weak_type_gap(phi, 1.5, spec),
    "kolmogorov_gap": lambda phi, spec: kolmogorov_gap(
        phi, 0.4, range(0, spec.n_leaves, 2), spec),
    "objective": lambda phi, spec: objective(phi, 1.5, 0.5, spec),
    "eigen_residual": lambda phi, spec: eigen_residual(phi, PARAMS, spec),
    # the root alone is a maximal disjoint family in every S_phi
    "theorem41_gap": lambda phi, spec: theorem41_gap(phi, spec, 0.5, [ROOT], 2.0),
    "theorem42_gap": lambda phi, spec: theorem42_gap(phi, spec, 0.5, [ROOT], 2.0),
    "corollary41_gap": lambda phi, spec: corollary41_gap(phi, spec, 0.5, [ROOT], 2.0),
    # g_phi works on phi.to_exact(), which is phi itself only for an exact phi
    "g_phi": lambda phi, spec: g_phi(phi, 1.5, 0.5, spec),
}


def fresh(phi):
    """An equal function that has evaluated nothing yet."""
    return StepFunction(phi.breakpoints, phi.values)


class TestTreeOncePerSpec:
    @pytest.fixture
    def passes(self, monkeypatch):
        """Passes made so far: levels passes by their m, A-set groupings by their spec."""
        made = {"levels": [], "groups": []}
        levels, a_sets = dyadic._levels, dyadic._a_sets

        def counted(leaves, m):
            made["levels"].append(m)
            return levels(leaves, m)

        def grouped(depths, spec):
            made["groups"].append(spec)
            return a_sets(depths, spec)

        monkeypatch.setattr(dyadic, "_levels", counted)
        monkeypatch.setattr(transforms, "_levels", counted)
        monkeypatch.setattr(dyadic, "_a_sets", grouped)
        return made

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_levels_pass_per_spec(self, passes, exact):
        # the 16 leaves of (2, 4) are the leaves of (4, 2): one function, two trees
        phi = random_step_function(random.Random(3), TreeSpec(2, 4), exact=exact)
        for made in passes.values():
            made.clear()
        for spec in (TreeSpec(2, 4), TreeSpec(4, 2), TreeSpec(2, 4)):
            for name, call in EVALUATORS.items():
                if exact or name != "g_phi":
                    call(phi, spec)
        assert passes["levels"] == [2, 4]
        # linearize, g_phi and the gap evaluators read the A-sets the tree holds
        assert passes["groups"] == [TreeSpec(2, 4), TreeSpec(4, 2)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(leaf_functions(FLOAT_VALUES), leaf_functions(EXACT_VALUES)))
    def test_every_call_matches_a_fresh_function(self, case):
        phi, spec = case
        lin = linearize(fresh(phi), spec)
        fam_max = random_maximal_family(lin, spec, random.Random(1))
        fam_dis = random_disjoint_family(lin, spec, random.Random(2))
        calls = {**EVALUATORS,
                 "theorem41_gap:maximal": lambda f, s: theorem41_gap(f, s, 0.5, fam_max, 2.0),
                 "theorem42_gap:disjoint": lambda f, s: theorem42_gap(f, s, 0.5, fam_dis, 2.0),
                 "corollary41_gap:disjoint": lambda f, s: corollary41_gap(
                     f, s, 0.5, fam_dis, 2.0)}
        for _ in range(2):  # the second round reads the kept tree
            for name, call in calls.items():
                assert exactly(call(phi, spec)) == exactly(call(fresh(phi), spec)), name

    def test_each_spec_gets_its_own_tree(self):
        rng = random.Random(8)
        for exact in (True, False):
            phi = random_step_function(rng, TreeSpec(2, 4), exact=exact)
            specs = (TreeSpec(2, 4), TreeSpec(4, 2), TreeSpec(2, 5), TreeSpec(2, 4))
            for spec in specs:
                for name, call in EVALUATORS.items():
                    assert exactly(call(phi, spec)) == exactly(call(fresh(phi), spec)), name
            assert tree_averages(phi, TreeSpec(2, 4)) != tree_averages(phi, TreeSpec(4, 2))

    @pytest.mark.parametrize("name", [n for n in EVALUATORS if "gap" not in n and n != "g_phi"])
    def test_float_overflow_raises_on_every_call(self, name):
        huge = StepFunction.from_leaf_values([1e308, 1e308], TreeSpec(2, 1))
        for _ in range(3):
            with pytest.raises(DomainError, match="past 1.8e308"):
                EVALUATORS[name](huge, TreeSpec(2, 1))

    def test_mutating_results_leaves_the_next_call_unchanged(self):
        rng = random.Random(4)
        spec = TreeSpec(3, 3)
        for exact in (True, False):
            phi = random_step_function(rng, spec, exact=exact)
            g, _ = g_phi(phi, 1.5, 0.5, spec)
            want = [exactly(tree_averages(phi, spec)), exactly(ancestor_max_averages(g, spec)),
                    exactly(linearize(phi, spec))]
            rows = tree_averages(phi, spec)
            rows[-1][0] = rows[0][0] = 99.0
            rows.pop()
            best = ancestor_max_averages(g, spec)
            best[0] = 99.0
            best.append(1.0)
            lin = linearize(phi, spec)
            lin.averages[ROOT] = 99.0
            lin.a_sets.clear()
            got = [exactly(tree_averages(phi, spec)), exactly(ancestor_max_averages(g, spec)),
                   exactly(linearize(phi, spec))]
            assert got == want


class TestFractionsBuiltOnce:
    def test_exact_item_fraction_count(self, monkeypatch):
        """The bench exact item's five calls on one depth-6 function build at most 220
        Fractions (487 when every leaf-grid point and leaf value got its own)."""
        spec = TreeSpec(2, 6)
        phi = random_step_function(random.Random(1), spec, exact=True)

        def item(f):
            linearize(f, spec)
            maximal_function(f, spec)
            s_phi_by_criterion(f, spec)
            g, _ = g_phi(f, 1.2, 0.5, spec)
            ancestor_max_averages(g, spec)

        item(fresh(phi))  # the shared depth-6 grid points are built here, uncounted
        unevaluated = fresh(phi)
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        item(unevaluated)
        monkeypatch.undo()
        assert 0 < len(made) <= 220

    @pytest.mark.parametrize("depth", [6, 13])  # 2^13 leaves: past the shared grids
    def test_breakpoints_are_leaf_grid_points(self, depth):
        spec = TreeSpec(2, depth)
        n = spec.n_leaves
        vals = [float(i // 3 % 5) for i in range(n)]
        starts = [i for i in range(n) if i == 0 or vals[i] != vals[i - 1]]
        phi, again = (StepFunction.from_leaf_values(vals, spec) for _ in range(2))
        assert phi.breakpoints == tuple(Fraction(i, n) for i in [*starts, n])
        # on the shared grid one object stands for each point, call after call
        assert (again.breakpoints[1] is phi.breakpoints[1]) == (depth <= 12)


class TestGPhiASets:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.one_of(leaf_functions(FLOAT_VALUES), leaf_functions(EXACT_VALUES)),
           st.sampled_from([0.5, 1.5, Fraction(7, 3), 20.0]))
    def test_entries_are_the_a_sets_at_or_above_L(self, case, L):
        phi, spec = case
        _, record = g_phi(phi, L, 0.5, spec)
        lin = linearize(fresh(phi).to_exact(), spec)
        # the entries are the members of S_phi with a nonempty A-set and y_I >= L, in order
        assert [e.element for e in record.entries] == [
            el for el in lin.elements if lin.a_sets[el] and lin.averages[el] >= L]
        vals = phi.to_exact().leaf_values(spec)
        cell = Fraction(1, spec.n_leaves)
        covered = []
        for entry in record.entries:
            leaves = lin.a_sets[entry.element]
            covered += leaves
            # its mass is phi's integral over exactly those leaves
            assert entry.mass == sum(vals[i] for i in leaves) * cell
            # and its support lies in those leaves
            for lo, hi in entry.support:
                i = math.floor(lo / cell)
                assert i in leaves and hi <= (i + 1) * cell
        assert sorted(covered) == sorted(record.excess.leaves)
