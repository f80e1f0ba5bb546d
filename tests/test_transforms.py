"""Tests for the gap evaluators, the residual, and the g transform."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from bklab.dyadic import (
    ROOT,
    StepFunction,
    TreeElement,
    TreeSpec,
    excess_set,
    kolmogorov_gap,
    linearize,
    maximal_function,
    weak_type_gap,
)
from bklab.errors import (
    DomainError,
    FamilyNotInSPhiError,
    FamilyNotMaximalError,
    RefinementTooCoarseError,
)
from bklab.kernel import BellmanParams, omega_q
from bklab.transforms import (
    GAP_CSV_HEADER,
    InequalityGap,
    ancestor_max_averages,
    corollary41_gap,
    default_refine,
    eigen_residual,
    g_phi,
    gap_rows_to_csv,
    leaf_integrals,
    objective,
    optimal_beta,
    random_disjoint_family,
    random_maximal_family,
    random_step_function,
    theorem41_gap,
    theorem42_gap,
    verify_suite,
)


def elem_integral(leaf_ints, el, spec):
    width = spec.m ** (spec.depth - el.depth)
    lo = el.index * width
    return sum(leaf_ints[lo:lo + width])


class TestObjective:
    def test_constant(self):
        spec = TreeSpec(2, 3)
        phi = StepFunction.constant(2.0)
        assert objective(phi, 1.5, 0.5, spec) == pytest.approx(2.0**0.5)
        assert objective(phi, 3.0, 0.5, spec) == pytest.approx(3.0**0.5)

    def test_monotone_in_threshold(self):
        spec = TreeSpec(2, 4)
        rng = random.Random(5)
        phi = random_step_function(rng, spec)
        vals = [objective(phi, L, 0.4, spec) for L in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)

    def test_rejects_bad_threshold(self):
        spec = TreeSpec(2, 2)
        with pytest.raises(DomainError):
            objective(StepFunction.constant(1.0), 0.0, 0.5, spec)


class TestEigenResidual:
    def test_flat_function_at_tau_vanishes(self):
        # constant tau never reaches L, and L - c^(1/q) tau = 0 by definition.
        # In floats the product c^(1/q) * (L / c^(1/q)) round-trips only to a
        # few ulp of L, and |.|^q amplifies that to roughly (eps L)^q, so the
        # bound below is eps^q-level rather than eps-level.
        params = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
        spec = TreeSpec(2, 4)
        phi = StepFunction.constant(params.tau)
        res = eigen_residual(phi, params, spec)
        assert res.excess_measure == 0.0
        assert res.excess_part == 0.0
        assert res.total <= (8.0 * 2.3e-16 * params.L) ** params.q

    def test_decomposition(self):
        params = BellmanParams(q=0.35, f=1.0, h=0.9, L=1.5)
        spec = TreeSpec(2, 5)
        rng = random.Random(11)
        for _ in range(10):
            phi = random_step_function(rng, spec)
            res = eigen_residual(phi, params, spec)
            assert res.total == res.excess_part + res.flat_part
            assert res.total >= 0.0

    def test_excess_measure_matches_excess_set(self):
        params = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
        spec = TreeSpec(2, 5)
        rng = random.Random(3)
        for _ in range(10):
            phi = random_step_function(rng, spec)
            res = eigen_residual(phi, params, spec)
            exc = excess_set(phi, params.L, spec, params.q)
            assert res.excess_measure == pytest.approx(float(exc.measure))

    def test_direct_formula(self):
        params = BellmanParams(q=0.5, f=1.0, h=0.8, L=1.2)
        spec = TreeSpec(2, 4)
        rng = random.Random(7)
        phi = random_step_function(rng, spec)
        res = eigen_residual(phi, params, spec)
        mv = [float(v) for v in maximal_function(phi, spec).leaf_values(spec)]
        lv = [float(v) for v in phi.leaf_values(spec)]
        r = params.eigenvalue_root
        want = sum(
            abs(max(m, params.L) - r * v) ** params.q for m, v in zip(mv, lv)
        ) / spec.n_leaves
        assert res.total == pytest.approx(want, rel=1e-12)


class TestFamilyValidation:
    def setup_method(self):
        self.spec = TreeSpec(2, 2)
        self.phi = StepFunction.from_leaf_values(
            [Fraction(4), Fraction(0), Fraction(1), Fraction(1)], self.spec)
        self.lin = linearize(self.phi, self.spec)
        # S_phi = {root, (1,0), (2,0)}

    def test_not_in_s_phi(self):
        with pytest.raises(FamilyNotInSPhiError):
            theorem42_gap(self.phi, self.spec, 0.5, [TreeElement(2, 3)], 1.0, lin=self.lin)

    def test_not_disjoint(self):
        fam = [ROOT, TreeElement(1, 0)]
        with pytest.raises(DomainError):
            theorem42_gap(self.phi, self.spec, 0.5, fam, 1.0, lin=self.lin)

    def test_not_maximal(self):
        # (2,0) alone misses (1,0)? no: (1,0) contains (2,0).  Use (1,0) alone:
        # root contains it, but (2,0) is inside it too, so the only way to
        # miss is impossible here; build a deeper example instead.
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values(
            [Fraction(6), Fraction(2), Fraction(12), Fraction(1)], spec)
        lin = linearize(phi, spec)
        assert TreeElement(2, 2) in lin.elements
        assert TreeElement(2, 0) in lin.elements
        with pytest.raises(FamilyNotMaximalError):
            theorem41_gap(phi, spec, 0.5, [TreeElement(2, 0)], 1.0, lin=lin)

    def test_empty_family(self):
        with pytest.raises(DomainError):
            theorem42_gap(self.phi, self.spec, 0.5, [], 1.0, lin=self.lin)

    def test_bad_beta(self):
        with pytest.raises(DomainError):
            theorem42_gap(self.phi, self.spec, 0.5, [ROOT], 0.0, lin=self.lin)
        with pytest.raises(DomainError):
            theorem41_gap(self.phi, self.spec, 0.5, [ROOT], -1.0, lin=self.lin)


class TestGapEvaluators:
    def test_root_family_gives_zero_complement_slack(self):
        # family {X}: the complement is empty and both sides collapse to 0
        spec = TreeSpec(2, 3)
        rng = random.Random(2)
        for _ in range(5):
            phi = random_step_function(rng, spec)
            for beta in (0.01, 1.0, 37.0):
                gap = theorem41_gap(phi, spec, 0.5, [ROOT], beta)
                assert gap.lhs == 0.0
                assert gap.rhs == pytest.approx(0.0, abs=1e-13)

    def test_hand_case_depth_one(self):
        # leaves (4, 0): S_phi = {root, left leaf}, M = (4, 2)
        spec = TreeSpec(2, 1)
        phi = StepFunction.from_leaf_values([Fraction(4), Fraction(0)], spec)
        fam = [TreeElement(1, 0)]
        g41 = theorem41_gap(phi, spec, 0.5, fam, 1.0)
        assert g41.lhs == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-14)
        assert g41.rhs == pytest.approx(4.0 * (math.sqrt(2.0) - 1.0), rel=1e-14)
        g42 = theorem42_gap(phi, spec, 0.5, fam, 1.0)
        assert g42.lhs == pytest.approx(1.0, rel=1e-14)
        assert g42.rhs == pytest.approx(2.0 * (2.0 - math.sqrt(2.0)), rel=1e-14)
        # corollary agrees with the theorem when the family happens to be maximal
        c41 = corollary41_gap(phi, spec, 0.5, fam, 1.0)
        assert (c41.lhs, c41.rhs) == (g41.lhs, g41.rhs)

    def test_slack_fuzz(self):
        rng = random.Random(101)
        violations = 0
        for q in (0.3, 0.5, 0.7):
            for m, depth in ((2, 3), (2, 4), (3, 3)):
                spec = TreeSpec(m, depth)
                for _ in range(15):
                    phi = random_step_function(rng, spec)
                    lin = linearize(phi, spec)
                    fam_max = random_maximal_family(lin, spec, rng)
                    fam_dis = random_disjoint_family(lin, spec, rng)
                    for beta in (10.0 ** rng.uniform(-3, 3) for _ in range(4)):
                        for gap in (
                            theorem41_gap(phi, spec, q, fam_max, beta, lin=lin),
                            theorem42_gap(phi, spec, q, fam_dis, beta, lin=lin),
                            corollary41_gap(phi, spec, q, fam_dis, beta, lin=lin),
                        ):
                            if gap.slack < -1e-12:
                                violations += 1
        assert violations == 0

    def test_family_may_be_an_iterator(self):
        # the family is read once, so an iterator gives the same gap as a tuple
        spec = TreeSpec(2, 4)
        phi = random_step_function(random.Random(8), spec)
        lin = linearize(phi, spec)
        fam = random_disjoint_family(lin, spec, random.Random(8))
        for fn in (theorem42_gap, corollary41_gap):
            want = fn(phi, spec, 0.5, fam, 2.0, lin=lin)
            assert fn(phi, spec, 0.5, iter(fam), 2.0, lin=lin) == want

    def test_pointwise_inequality_behind_bounds(self):
        # t + (1-q)/q >= t^q / q for t >= 0 drives every bound above
        rng = random.Random(9)
        for _ in range(1000):
            q = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.0, 50.0)
            assert t + (1.0 - q) / q >= t**q / q - 1e-12

    def test_beta_sweep_minimum_matches_closed_form(self):
        spec = TreeSpec(2, 4)
        rng = random.Random(33)
        q = 0.5
        for _ in range(8):
            phi = random_step_function(rng, spec)
            lin = linearize(phi, spec)
            fam = random_disjoint_family(lin, spec, rng)
            union_leaves = set()
            for el in fam:
                w = spec.m ** (spec.depth - el.depth)
                union_leaves.update(range(el.index * w, (el.index + 1) * w))
            lv = [float(v) for v in phi.leaf_values(spec)]
            e1 = sum(
                float(el.measure(spec.m)) * float(lin.averages[el]) ** q for el in fam)
            s = sum(lv[i] ** q for i in union_leaves) / spec.n_leaves
            if s <= 0 or e1 <= s * (1.0 + 1e-9):
                continue
            bstar = optimal_beta(e1, s, q)
            want_min = s * omega_q(e1 / s, q)
            got = theorem42_gap(phi, spec, q, fam, bstar, lin=lin)
            assert got.rhs == pytest.approx(want_min, rel=1e-10)
            grid = [bstar * 10.0**t for t in (-2, -1, -0.3, 0.3, 1, 2)]
            for beta in grid:
                other = theorem42_gap(phi, spec, q, fam, beta, lin=lin)
                assert other.rhs >= got.rhs - 1e-12

    def test_optimal_beta_domain(self):
        with pytest.raises(DomainError):
            optimal_beta(0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            optimal_beta(0.0, 0.0, 0.5)
        assert optimal_beta(1.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-9)


class TestVerifySuite:
    def test_small_run_clean(self):
        spec = TreeSpec(2, 4)
        rows = []
        rep = verify_suite(20, spec, 0.5, n_beta=7, seed=4, collect=rows)
        assert rep.n_phi == 20
        # three evaluators on the beta grid, five weak-type levels, and
        # three leaf-union checks per function
        assert rep.n_checks == 20 * (3 * 7 + 5 + 3)
        assert rep.n_violations == 0
        assert rep.min_slack >= -1e-12
        assert set(rep.min_slack_by_kind) == {
            "theorem41", "theorem42", "corollary41", "weak_type", "kolmogorov",
        }
        assert len(rows) == rep.n_checks

    @pytest.mark.parametrize("slack, violations", [(-2e-12, 5), (-1e-12, 0)])
    def test_violation_means_slack_below_minus_1e12(self, monkeypatch, slack, violations):
        # one function gets five weak-type levels, each given this slack
        monkeypatch.setattr("bklab.transforms._weak_type_slack",
                            lambda mvals, lvals, lam, spec: InequalityGap(lam, 0.0, slack))
        rep = verify_suite(1, TreeSpec(2, 3), 0.5, n_beta=3, seed=0)
        assert rep.n_violations == violations
        assert rep.min_slack == slack
        assert rep.min_slack_by_kind["weak_type"] == slack

    def test_csv_layout(self):
        spec = TreeSpec(2, 3)
        rows = []
        verify_suite(2, spec, 0.4, n_beta=3, seed=1, collect=rows)
        text = gap_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == GAP_CSV_HEADER
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert first[0] == "phi0"
        # numeric fields round-trip
        beta, lhs, rhs, slack = map(float, first[2:])
        assert rhs - lhs == pytest.approx(slack, abs=1e-15)

    def test_deterministic(self):
        spec = TreeSpec(2, 3)
        a = verify_suite(5, spec, 0.5, n_beta=4, seed=9)
        b = verify_suite(5, spec, 0.5, n_beta=4, seed=9)
        assert a.min_slack == b.min_slack
        assert a.min_slack_by_kind == b.min_slack_by_kind

    @pytest.mark.parametrize("m, depth, q", [(2, 6, 0.5), (3, 4, 0.3), (4, 3, 0.7)])
    def test_rows_match_public_evaluators(self, m, depth, q):
        # replay the suite's random draws and rebuild every row from the public
        # per-beta, per-level and per-union evaluators, bit for bit
        spec = TreeSpec(m, depth)
        n_phi, n_beta, seed = 3, 7, 11
        rows = []
        verify_suite(n_phi, spec, q, n_beta=n_beta, seed=seed, collect=rows)

        betas = [1e-3 * (1e3 / 1e-3) ** (i / (n_beta - 1)) for i in range(n_beta)]
        rng = random.Random(seed)
        want = []
        for pid in range(n_phi):
            phi = random_step_function(rng, spec)
            lin = linearize(phi, spec)
            fam_max = random_maximal_family(lin, spec, rng)
            fam_dis = random_disjoint_family(lin, spec, rng)
            for fn, label, fam in (
                (theorem41_gap, "theorem41:maximal", fam_max),
                (theorem42_gap, "theorem42:disjoint", fam_dis),
                (corollary41_gap, "corollary41:disjoint", fam_dis),
            ):
                want += [(f"phi{pid}", label, fn(phi, spec, q, fam, beta)) for beta in betas]
            top = float(max(lin.averages.values()))
            for _ in range(5):
                lam = top * math.exp(rng.uniform(math.log(1e-3), math.log(1.2)))
                rec = weak_type_gap(phi, lam, spec)
                want.append((f"phi{pid}", "weak_type:level",
                             InequalityGap(beta=lam, lhs=rec.lhs, rhs=rec.rhs)))
            unions = [list(range(spec.n_leaves))]
            for _ in range(2):
                unions.append([i for i in range(spec.n_leaves) if rng.random() < 0.5])
            for leaves in unions:
                rec = kolmogorov_gap(phi, q, leaves, spec)
                want.append((f"phi{pid}", "kolmogorov:union",
                             InequalityGap(beta=len(leaves) * float(spec.leaf_measure),
                                           lhs=rec.lhs, rhs=rec.rhs)))

        def hexed(rs):
            return [(p, lab, g.beta.hex(), g.lhs.hex(), g.rhs.hex()) for p, lab, g in rs]

        assert hexed(rows) == hexed(want)

    def test_pinned_rows_and_min_slack(self):
        # recorded when the suite still called the public evaluator once per beta
        rows = []
        rep = verify_suite(20, TreeSpec(2, 6), 0.5, n_beta=50, seed=7, collect=rows)
        digest = hashlib.sha256()
        for p, lab, g in rows:
            digest.update(f"{p},{lab},{g.beta.hex()},{g.lhs.hex()},{g.rhs.hex()}\n".encode())
        assert len(rows) == 3160
        assert digest.hexdigest() == (
            "470c099f976a1801e03731279726ef46a14e566eccbe896e36aac18afaa8c810")
        assert rep.min_slack.hex() == "0x0.0p+0"
        assert {k: v.hex() for k, v in rep.min_slack_by_kind.items()} == {
            "theorem41": "0x1.004189374bc6ap-51",
            "theorem42": "0x1.5b250979167c0p-10",
            "corollary41": "0x1.d1a464337df70p-4",
            "weak_type": "0x0.0p+0",
            "kolmogorov": "0x1.35c486c6078e6p-1",
        }

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_phi": 0}, "n_phi"),
        ({"n_beta": 0}, "n_beta"),
        ({"n_beta": -2}, "n_beta"),
        ({"beta_lo": 0.0}, "beta_lo"),
        ({"beta_lo": math.inf}, "beta_lo"),
        ({"beta_hi": -1.0}, "beta_hi"),
        ({"beta_hi": math.nan}, "beta_hi"),
    ])
    def test_bad_arguments_raise_and_name_themselves(self, kwargs, name):
        n_phi = kwargs.pop("n_phi", 1)
        with pytest.raises(DomainError, match=name):
            verify_suite(n_phi, TreeSpec(2, 3), 0.5, **kwargs)


class TestGPhi:
    def test_fixed_point_when_already_two_valued(self):
        # (4, 0, 1, 1): every A-set already carries a {c, 0} pattern
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values(
            [Fraction(4), Fraction(0), Fraction(1), Fraction(1)], spec)
        g, rec = g_phi(phi, Fraction(3, 2), 0.5, spec)
        assert g.values == phi.values
        assert g.breakpoints == phi.breakpoints
        assert len(rec.entries) == 3

    def test_hand_case_two_positive_values(self):
        # (0, 12, 3, 1): A(root) = last two leaves, gamma = (2+sqrt(3))/8
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values(
            [Fraction(0), Fraction(12), Fraction(3), Fraction(1)], spec)
        g, rec = g_phi(phi, 1, 0.5, spec)
        root_entries = [e for e in rec.entries if e.element == ROOT]
        assert len(root_entries) == 1
        ent = root_entries[0]
        want_gamma = (2.0 + math.sqrt(3.0)) / 8.0
        assert float(ent.gamma) == pytest.approx(want_gamma, rel=1e-15)
        assert float(ent.c) == pytest.approx(1.0 / want_gamma, rel=1e-12)
        assert ent.mass == 1
        # support packs leftward from the first A-set leaf
        assert ent.support[0][0] == Fraction(1, 2)
        assert g.values != phi.values

    def test_preserves_averages_on_s_phi_exactly(self):
        rng = random.Random(21)
        for m, depth in ((2, 3), (2, 4), (2, 5), (3, 3)):
            spec = TreeSpec(m, depth)
            for _ in range(8):
                phi = random_step_function(rng, spec, exact=True)
                L = Fraction(rng.randrange(1, 30), 10)
                lin = linearize(phi, spec)
                g, rec = g_phi(phi, L, 0.5, spec)
                ints = leaf_integrals(g, spec)
                for el in lin.elements:
                    assert elem_integral(ints, el, spec) == phi.integral_over(
                        el.start(spec.m), el.end(spec.m))

    def test_global_moments(self):
        rng = random.Random(22)
        spec = TreeSpec(2, 5)
        for q in (0.3, 0.5, 0.8):
            for _ in range(8):
                phi = random_step_function(rng, spec)
                g, rec = g_phi(phi, 1.1, q, spec)
                assert g.integral() == phi.to_exact().integral()
                assert float(g.q_integral(q)) == pytest.approx(
                    float(phi.q_integral(q)), abs=1e-10)

    def test_domination_exact(self):
        rng = random.Random(23)
        for m, depth in ((2, 4), (2, 5), (3, 3)):
            spec = TreeSpec(m, depth)
            for _ in range(6):
                phi = random_step_function(rng, spec, exact=True)
                g, rec = g_phi(phi, Fraction(3, 2), 0.45, spec)
                amax = ancestor_max_averages(g, spec)
                mphi = maximal_function(phi, spec).leaf_values(spec)
                for got, want in zip(amax, mphi):
                    assert got >= want

    def test_domination_float_inputs(self):
        rng = random.Random(24)
        spec = TreeSpec(2, 5)
        for _ in range(6):
            phi = random_step_function(rng, spec)
            g, rec = g_phi(phi, 1.2, 0.5, spec)
            amax = ancestor_max_averages(g, spec)
            mphi = maximal_function(phi.to_exact(), spec).leaf_values(spec)
            for got, want in zip(amax, mphi):
                assert got >= want

    def test_support_monotone(self):
        rng = random.Random(25)
        spec = TreeSpec(2, 5)
        for _ in range(10):
            phi = random_step_function(rng, spec, zero_prob=0.4)
            g, rec = g_phi(phi, 0.9, 0.6, spec)
            supp_g = sum(
                (g.breakpoints[i + 1] - g.breakpoints[i]
                 for i, v in enumerate(g.values) if v > 0), start=Fraction(0))
            phe = phi.to_exact()
            supp_phi = sum(
                (phe.breakpoints[i + 1] - phe.breakpoints[i]
                 for i, v in enumerate(phe.values) if v > 0), start=Fraction(0))
            assert supp_g <= supp_phi
            for ent in rec.entries:
                assert ent.gamma <= sum(
                    (b - a for a, b in ent.support), start=Fraction(0)) + 0

    def test_unchanged_off_excess(self):
        rng = random.Random(26)
        spec = TreeSpec(2, 4)
        phi = random_step_function(rng, spec)
        L = 2.5
        g, rec = g_phi(phi, L, 0.5, spec)
        phe = phi.to_exact()
        eleaves = set(rec.excess.leaves)
        w = spec.leaf_measure
        for i in range(spec.n_leaves):
            if i not in eleaves:
                mid = w * i + w / 2
                assert g.value_at(mid) == phe.value_at(mid)

    def test_two_valued_on_entries(self):
        rng = random.Random(27)
        spec = TreeSpec(2, 4)
        phi = random_step_function(rng, spec)
        g, rec = g_phi(phi, 0.8, 0.5, spec)
        for ent in rec.entries:
            for a, b in ent.support:
                assert g.value_at((a + b) / 2) == ent.c

    def test_excess_empty_returns_phi(self):
        spec = TreeSpec(2, 3)
        rng = random.Random(28)
        phi = random_step_function(rng, spec)
        big = 10.0 * max(float(v) for v in phi.leaf_values(spec)) + 10.0
        g, rec = g_phi(phi, big, 0.5, spec)
        assert rec.entries == ()
        assert g.values == phi.to_exact().simplify().values

    def test_refinement_too_coarse(self):
        # A(root) = leaves (4, 1), support measure 0.45: the unit grid drops it
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values(
            [Fraction(0), Fraction(12), Fraction(4), Fraction(1)], spec)
        with pytest.raises(RefinementTooCoarseError):
            g_phi(phi, 1, 0.5, spec, refine=0)

    def test_coarse_refine_still_preserves_mass(self):
        # refine above the leaf depth trades q-moment accuracy, never mass
        spec = TreeSpec(2, 4)
        rng = random.Random(29)
        phi = random_step_function(rng, spec, exact=True, zero_prob=0.0)
        g, rec = g_phi(phi, Fraction(1), 0.5, spec, refine=3)
        assert g.integral() == phi.integral()
        amax = ancestor_max_averages(g, spec)
        mphi = maximal_function(phi, spec).leaf_values(spec)
        for got, want in zip(amax, mphi):
            assert got >= want

    def test_default_refine(self):
        assert default_refine(TreeSpec(2, 6)) == 70
        assert default_refine(TreeSpec(2, 80)) == 80
        assert default_refine(TreeSpec(3, 4)) == math.ceil(70.0 / math.log2(3))

    def test_rejects_bad_q(self):
        spec = TreeSpec(2, 2)
        phi = StepFunction.constant(1.0)
        with pytest.raises(DomainError):
            g_phi(phi, 1.0, 1.0, spec)

    def test_rejects_negative_refine(self):
        # phi's excess set is not two valued, so a refine grid would be used
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values([0, 12, 4, 1], spec)
        with pytest.raises(DomainError):
            g_phi(phi, 1, 0.5, spec, refine=-1)

    def test_excess_matches_excess_set(self):
        # g_phi finds the excess set on the levels it shares with its
        # linearization; it must be the one excess_set finds on the exact
        # copy of phi that g_phi works on
        rng = random.Random(26)
        for m, depth in ((2, 4), (2, 6), (3, 3), (4, 2)):
            spec = TreeSpec(m, depth)
            for exact in (True, False):
                for _ in range(6):
                    phi = random_step_function(rng, spec, exact=exact)
                    top = max(phi.leaf_values(spec))
                    for L in (Fraction(1, 2), 1, top / 2, top, top + 1):
                        g, rec = g_phi(phi, L, 0.4, spec)
                        assert rec.excess == excess_set(phi.to_exact(), L, spec, 0.4)

    def test_outputs_pinned(self):
        # recorded when g was assembled from sorted pieces and then simplified;
        # refine=1 is too coarse for some A-sets, so error messages are pinned too
        digest = hashlib.sha256()
        rng = random.Random(91)
        calls = 0
        for (m, depth), q in (((2, 6), 0.5), ((3, 4), 0.3), ((4, 3), 0.7)):
            spec = TreeSpec(m, depth)
            for exact in (True, False):
                phi = random_step_function(rng, spec, exact=exact)
                top = max(phi.leaf_values(spec))
                for L in (1, Fraction(5, 2), top / 2, top + 1):
                    for refine in (None, depth, 1):
                        calls += 1
                        try:
                            g, rec = g_phi(phi, L, q, spec, refine=refine)
                        except RefinementTooCoarseError as exc:
                            digest.update(f"error {exc}\n".encode())
                            continue
                        digest.update(repr((g.breakpoints, g.values, rec.entries,
                                            rec.excess.leaves, rec.refine)).encode())
        assert calls == 72
        assert digest.hexdigest() == (
            "fa156edf1fdbe99ad1833c17854d3763be8062816da9abb57398f9bb743e816b")

    def test_snapped_gamma_clamped_to_positive_measure(self):
        # A(root) = leaves {2, 3}; the float support measure rounds one ulp
        # above their measure 1/2, so the snapped gamma must be cut back to 1/2
        spec = TreeSpec(2, 2)
        phi = StepFunction.from_leaf_values(
            [Fraction(8), Fraction(0), Fraction(2), 2 + Fraction(1, 2**30)], spec)
        g, rec = g_phi(phi, 1, 0.5, spec)
        ent = next(e for e in rec.entries if e.element == ROOT)
        assert (ent.q_mass / float(ent.mass) ** 0.5) ** 2 > 0.5
        assert ent.gamma == Fraction(1, 2)
        assert ent.c == ent.mass * 2
        support = sum((b - a for a, b, v in zip(g.breakpoints, g.breakpoints[1:], g.values)
                       if a >= Fraction(1, 2) and v > 0), start=Fraction(0))
        assert support == Fraction(1, 2)


class TestLeafHelpers:
    def test_leaf_integrals_against_direct(self):
        spec = TreeSpec(2, 4)
        rng = random.Random(31)
        phi = random_step_function(rng, spec, exact=True)
        g, rec = g_phi(phi, Fraction(1, 2), 0.5, spec)
        ints = leaf_integrals(g, spec)
        w = spec.leaf_measure
        for i in range(spec.n_leaves):
            assert ints[i] == g.integral_over(w * i, w * (i + 1))

    def test_ancestor_max_on_aligned_equals_maximal(self):
        rng = random.Random(32)
        for m, depth in ((2, 4), (3, 3)):
            spec = TreeSpec(m, depth)
            for _ in range(6):
                phi = random_step_function(rng, spec, exact=True)
                assert ancestor_max_averages(phi, spec) == list(
                    maximal_function(phi, spec).leaf_values(spec))
