"""Tree evaluation checks.

The brute-force reference for M phi recomputes every ancestor average through
integral_over, bypassing the level-by-level recursion under test.
"""

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
from bklab.errors import DomainError, NotTGoodError
from bklab.search import leaf_maximal


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
    pytest.param(lambda: kolmogorov_gap(ONE, 0.5, [4], TreeSpec(2, 2)),
                 id="kolmogorov-leaf-n"),
])
def test_input_checks_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


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
